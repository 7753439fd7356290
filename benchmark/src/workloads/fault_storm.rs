//! `fault_storm`: the fault path. Rolling protocol with 4 KiB blocks over one
//! 16 MiB typed object. One op = a stamp kernel `call` + `sync` (every block
//! Invalid), then a **dense** phase (read one word, then write one word, in
//! every block of the first half, in order) and a **sparse** phase (the same
//! on one seeded-random block of every 8-block stratum of the second half,
//! in seeded order).
//!
//! Why: shard + protocol + `softmmu::protect` + 4 KiB DMA jobs dominate and
//! copy bandwidth is irrelevant. Dense beside sparse means a fix that arms
//! or fetches whole runs wins the dense half but pays extra fetched bytes in
//! the sparse half, visible in `sim_ms_per_op` and
//! `core.protocol.useful_fetch_ratio`.
//!
//! The CPU checks the kernel's stamp in every block it reads; the next op's
//! kernel checks the CPU's writes and reports mismatches through a status
//! object.

use crate::counts::Totals;
use crate::harness::{gmac_config, Layer, OpOut, OpWorkload, Rng};
use crate::kernels::{
    cpu_word, sparse_block, stamp_word, KernelShare, StormStamp, SPARSE_STRIDE, STORM_STAMP,
};
use crate::trace::Tracer;
use gmac::{Gmac, GmacError, Param, Protocol, Session, Shared};
use hetsim::{LaunchDims, Platform};
use std::sync::Arc;
use std::time::Instant;

const BLOCK_BYTES: u64 = 4096;
const OBJECT_BYTES: u64 = 4 << 20;
const BLOCKS: u64 = OBJECT_BYTES / BLOCK_BYTES;
const HALF: u64 = BLOCKS / 2;
const STRATA: u64 = HALF / SPARSE_STRIDE;
const WORDS_PER_BLOCK: usize = (BLOCK_BYTES / 4) as usize;
/// Faults of one op: a read and a write fault per visited block, plus the
/// read fault on the status object.
const FAULTS: u64 = 2 * (HALF + STRATA) + 1;

pub struct FaultStorm {
    gmac: Gmac,
    session: Session,
    obj: Shared<u32>,
    status: Shared<u32>,
    seed: u64,
    /// The sparse phase's blocks in visiting order.
    sparse: Vec<u64>,
    k: u64,
    base: Totals,
    kernels: KernelShare,
}

impl FaultStorm {
    pub fn build(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let config = gmac_config()
            .protocol(Protocol::Rolling)
            .block_size(BLOCK_BYTES);
        let gmac = Gmac::new(Platform::desktop_g280(), config);
        let kernels = KernelShare::default();
        gmac.with_platform(|p| kernels.register(p, Arc::new(StormStamp), tr.enabled()));
        let session = gmac.session();
        let err = |e: GmacError| e.to_string();
        let obj = session
            .alloc_typed::<u32>((OBJECT_BYTES / 4) as usize)
            .map_err(err)?;
        let status = session.alloc_typed::<u32>(WORDS_PER_BLOCK).map_err(err)?;
        obj.write_slice(&vec![0u32; (OBJECT_BYTES / 4) as usize])
            .map_err(err)?;
        status.write(0, 0).map_err(err)?;
        let mut sparse: Vec<u64> = (0..STRATA).map(|s| sparse_block(seed, s, HALF)).collect();
        Rng::new(seed).shuffle(&mut sparse);
        Ok(FaultStorm {
            gmac,
            session,
            obj,
            status,
            seed,
            sparse,
            k: 0,
            base: Totals::default(),
            kernels,
        })
    }

    /// Reads the stamp of `block`, then writes the CPU's word next to it.
    /// With `split`, the read fault and the write fault are timed apart; a
    /// span each would be millions of spans, so the times go to running
    /// totals instead.
    #[inline]
    fn visit(&self, block: u64, split: Option<&mut Tracer>) -> Result<bool, GmacError> {
        let word = block as usize * WORDS_PER_BLOCK;
        let t = split.is_some().then(Instant::now);
        let stamp = self.obj.read(word)?;
        let mid = split.is_some().then(Instant::now);
        self.obj.write(word + 1, cpu_word(self.k, block))?;
        if let (Some(tr), Some(t), Some(mid)) = (split, t, mid) {
            tr.charge("core.session.read_fault_ns", (mid - t).as_nanos() as u64, 1);
            tr.charge(
                "core.session.write_fault_ns",
                mid.elapsed().as_nanos() as u64,
                1,
            );
        }
        Ok(stamp == stamp_word(self.k, block))
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<bool, GmacError> {
        let params = [
            Param::from(&self.obj),
            Param::from(&self.status),
            Param::U64(BLOCK_BYTES),
            Param::U64(BLOCKS),
            Param::U64(self.k),
            Param::U64(self.seed),
        ];
        let dims = LaunchDims::for_elements(BLOCKS, 256);
        tr.span("core.session.call_us", 1, || {
            self.session.call(STORM_STAMP, dims, &params)
        })?;
        tr.span("core.session.sync_us", 1, || self.session.sync())?;
        let mut ok = self.status.read(0)? == 0;

        let open = tr.begin("bench.fault_storm.dense");
        for block in 0..HALF {
            ok &= self.visit(block, tr.enabled().then_some(&mut *tr))?;
        }
        tr.end(open, 2 * HALF);

        let open = tr.begin("core.session.sparse_fault_ns");
        for &block in &self.sparse {
            ok &= self.visit(block, None)?;
        }
        tr.end(open, 2 * STRATA);
        Ok(ok)
    }
}

impl OpWorkload for FaultStorm {
    fn op(&mut self, tr: &mut Tracer) -> OpOut {
        let before = self.gmac.elapsed().as_nanos();
        let ok = match self.run(tr) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("fault_storm: {e}");
                false
            }
        };
        self.k += 1;
        OpOut {
            work: FAULTS as f64,
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
        // Each visit touches 8 bytes of a fetched block; the status read 4.
        let touched = ops * ((HALF + STRATA) * 8 + 4);
        Totals::of(&self.gmac)
            .since(self.base)
            .layer(ops, touched, &mut out);
        out.insert("hetsim.kernel_host_share", self.kernels.of(busy_ns));
        out
    }
}
