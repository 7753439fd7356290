//! `bulk_copy`: the bulk paths. Rolling protocol with the default 256 KiB
//! blocks over 4 MiB objects. One op = `write_slice` → add-constant kernel
//! `call` → `sync` → `read_slice` → `memcpy_in` → shared-to-shared `memcpy`
//! → `memcpy_out` → `memset` → `write_shared_to_file` →
//! `read_file_to_shared`; 32 MiB move through the session API.
//!
//! Why: planner coalescing, the DMA engine, hetsim copies and softmmu span
//! copies dominate with only a few faults per op. H2D-direction calls sit
//! beside D2H-direction ones, a fill and file I/O, so a gain for one
//! direction that costs another shows.
//!
//! Every byte read back (slice, memcpy_out, the written file, samples of the
//! file-filled object) is checked against a host model; sums of u32 words
//! make the model O(1) per op where the data went through the kernel.

use crate::counts::Totals;
use crate::harness::{gmac_config, Layer, OpOut, OpWorkload, Rng};
use crate::kernels::{AddConst, KernelShare, ADD_CONST};
use crate::trace::Tracer;
use gmac::{Gmac, GmacError, Param, Protocol, Session, Shared, SharedPtr};
use hetsim::{LaunchDims, Platform};
use std::sync::Arc;

const BYTES: usize = 2 << 20;
const WORDS: usize = BYTES / 4;
const MIB_PER_OP: f64 = 16.0;
const FILE_IN: &str = "bench_bulk_in";
const FILE_OUT: &str = "bench_bulk_out";
/// Words of the file-filled object sampled back through `Session::load`.
const SAMPLES: usize = 64;

/// Sum of the words, and of the words weighted by position (so a misplaced
/// range changes the digest), both modulo 2^32 — the arithmetic the
/// add-constant kernel works in, so the expected digest of its output is a
/// closed form of its input's.
fn digest_words(words: &[u32]) -> (u32, u32) {
    let (mut sum, mut weighted) = (0u32, 0u32);
    for (i, &w) in words.iter().enumerate() {
        sum = sum.wrapping_add(w);
        weighted = weighted.wrapping_add(w.wrapping_mul(i as u32 | 1));
    }
    (sum, weighted)
}

/// Sum and position-weighted sum of the 8-byte lanes. Two independent
/// accumulators (unlike a chained hash) pipeline to about a lane per cycle,
/// which keeps verification a small share of the op.
fn digest_bytes(bytes: &[u8]) -> (u64, u64) {
    let (mut sum, mut weighted) = (0u64, 0u64);
    for (i, lane) in bytes.chunks_exact(8).enumerate() {
        let v = u64::from_le_bytes([
            lane[0], lane[1], lane[2], lane[3], lane[4], lane[5], lane[6], lane[7],
        ]);
        sum = sum.wrapping_add(v);
        weighted = weighted.wrapping_add(v.wrapping_mul(i as u64 | 1));
    }
    (sum, weighted)
}

pub struct BulkCopy {
    gmac: Gmac,
    session: Session,
    a: Shared<u32>,
    b: SharedPtr,
    c: SharedPtr,
    /// Seeded input of the typed path, with its digest and Σ(i|1).
    input: Vec<u32>,
    input_digest: (u32, u32),
    weight_sum: u32,
    /// Seeded bytes of the raw path, with their digest.
    blob: Vec<u8>,
    blob_digest: (u64, u64),
    file_in: Vec<u8>,
    scratch: Vec<u8>,
    k: u64,
    base: Totals,
    kernels: KernelShare,
}

impl BulkCopy {
    pub fn build(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let config = gmac_config().protocol(Protocol::Rolling);
        let gmac = Gmac::new(Platform::desktop_g280(), config);
        let kernels = KernelShare::default();
        let mut rng = Rng::new(seed);
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n / 8)
                .flat_map(|_| rng.next_u64().to_le_bytes())
                .collect()
        };
        let blob = bytes(BYTES);
        let file_in = bytes(BYTES);
        let words = |b: Vec<u8>| -> Vec<u32> {
            b.chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        };
        let input = words(bytes(BYTES));
        gmac.with_platform(|p| {
            kernels.register(p, Arc::new(AddConst), tr.enabled());
            p.fs_mut().create(FILE_IN, file_in.clone());
            p.fs_mut().create(FILE_OUT, vec![0u8; BYTES]);
        });
        let session = gmac.session();
        let err = |e: GmacError| e.to_string();
        let a = session.alloc_typed::<u32>(WORDS).map_err(err)?;
        let b = session.alloc(BYTES as u64).map_err(err)?;
        let c = session.alloc(BYTES as u64).map_err(err)?;
        Ok(BulkCopy {
            input_digest: digest_words(&input),
            weight_sum: (0..WORDS as u32).fold(0u32, |s, i| s.wrapping_add(i | 1)),
            blob_digest: digest_bytes(&blob),
            gmac,
            session,
            a,
            b,
            c,
            input,
            blob,
            file_in,
            scratch: vec![0u8; BYTES],
            k: 0,
            base: Totals::default(),
            kernels,
        })
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<bool, GmacError> {
        let add = (self.k as u32).wrapping_mul(0x9e37_79b9) | 1;
        let fill = (self.k % 251) as u8 + 1;
        let len = BYTES as u64;
        let mut ok = true;

        tr.span("core.session.write_slice_gbps", len, || {
            self.a.write_slice(&self.input)
        })?;
        let params = [
            Param::from(&self.a),
            Param::U64(WORDS as u64),
            Param::U64(add as u64),
        ];
        let dims = LaunchDims::for_elements(WORDS as u64, 256);
        tr.span("core.session.call_us", 1, || {
            self.session.call(ADD_CONST, dims, &params)
        })?;
        tr.span("core.session.sync_us", 1, || self.session.sync())?;
        let back = tr.span("core.session.read_slice_gbps", len, || self.a.read_slice())?;
        tr.span("bench.verify", len, || {
            // Modulo 2^32: Σ(v+c) = Σv + n·c and Σ(v+c)·w = Σv·w + c·Σw.
            let (sum, weighted) = self.input_digest;
            let want = (
                sum.wrapping_add(add.wrapping_mul(WORDS as u32)),
                weighted.wrapping_add(add.wrapping_mul(self.weight_sum)),
            );
            ok &= digest_words(&back) == want;
        });

        tr.span("core.session.memcpy_in_gbps", len, || {
            self.session.memcpy_in(self.b, &self.blob)
        })?;
        tr.span("core.session.memcpy_s2s_gbps", len, || {
            self.session.memcpy(self.c, self.b, len)
        })?;
        tr.span("core.session.memcpy_out_gbps", len, || {
            self.session.memcpy_out(&mut self.scratch, self.c)
        })?;
        tr.span("bench.verify", len, || {
            ok &= digest_bytes(&self.scratch) == self.blob_digest;
        });

        tr.span("core.session.memset_gbps", len, || {
            self.session.memset(self.b, fill, len)
        })?;
        let open = tr.begin("core.session.file_io_gbps");
        let wrote = self
            .session
            .write_shared_to_file(FILE_OUT, 0, self.b, len)?;
        let read = self.session.read_file_to_shared(FILE_IN, 0, self.c, len)?;
        tr.end(open, 2 * len);
        ok &= wrote == len && read == len;
        tr.span("bench.verify", len, || {
            self.gmac.with_platform(|p| {
                let n = p.fs().read_at(FILE_OUT, 0, &mut self.scratch);
                // Eight bytes per comparison; a byte-wise scan costs 1 ms here.
                ok &= n == Ok(BYTES) && self.scratch.chunks_exact(8).all(|c| c == [fill; 8]);
            });
        });
        for s in 0..SAMPLES {
            let word = (s * 16_411 + self.k as usize * 31) % WORDS;
            let got = self.session.load::<u32>(self.c.byte_add(word as u64 * 4))?;
            let at = word * 4;
            let want = u32::from_le_bytes([
                self.file_in[at],
                self.file_in[at + 1],
                self.file_in[at + 2],
                self.file_in[at + 3],
            ]);
            ok &= got == want;
        }
        Ok(ok)
    }
}

impl OpWorkload for BulkCopy {
    fn op(&mut self, tr: &mut Tracer) -> OpOut {
        let before = self.gmac.elapsed().as_nanos();
        let ok = match self.run(tr) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("bulk_copy: {e}");
                false
            }
        };
        self.k += 1;
        OpOut {
            work: MIB_PER_OP,
            sim_ns: self.gmac.elapsed().as_nanos() - before,
            ok,
        }
    }

    fn warmup_ops(&self) -> usize {
        8
    }

    fn backing_downgraded(&self) -> bool {
        self.gmac.report().backing_downgraded
    }

    fn mark(&mut self) {
        self.base = Totals::of(&self.gmac);
        self.kernels.mark();
    }

    fn layer(&mut self, ops: u64, busy_ns: u64) -> Layer {
        let mut out = Layer::new();
        // The faulting CPU accesses are the slice read and the file write's
        // fetch of the memset object: whole-object touches.
        let touched = ops * 2 * BYTES as u64;
        Totals::of(&self.gmac)
            .since(self.base)
            .layer(ops, touched, &mut out);
        out.insert("hetsim.kernel_host_share", self.kernels.of(busy_ns));
        out
    }
}
