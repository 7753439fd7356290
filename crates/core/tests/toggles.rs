//! The ablation-switch contract, one table row per surviving switch: moving
//! a switch off its default runs the same coherence machinery by another
//! route, so the two runs must be **byte-identical** in everything the
//! simulation observes — output digests, virtual times, per-category
//! ledgers, fault/block/byte counters and transfer traffic — across the
//! workload suite. Only wall-clock bookkeeping (TLB and memo hits, engine
//! wait counters) may differ, and a row's own checks pin down how.
//!
//! Deleting a switch deletes its row.

use gmac::{Counters, GmacConfig, Param, Protocol, Session};
use hetsim::{Category, LaunchDims, Platform};
use workloads::stencil3d::Stencil3d;
use workloads::stream::StreamPipeline;
use workloads::vecadd::VecAdd;
use workloads::{
    parboil_suite_small, run_variant_with, RunResult, Variant, Workload, WorkloadResult,
};

type Input = (Box<dyn Workload>, GmacConfig);

/// One switch under test. Its row-specific checks live in its `#[test]`.
struct Toggle {
    name: &'static str,
    /// The workloads, each with the base configuration both runs share.
    inputs: fn() -> Vec<Input>,
    /// Moves the switch off its default.
    flip: fn(GmacConfig) -> GmacConfig,
}

const TOGGLES: [Toggle; 5] = [
    Toggle {
        name: "async_dma",
        inputs: || suite(GmacConfig::default()),
        flip: |c| c.async_dma(false),
    },
    Toggle {
        name: "mmap_backing",
        inputs: || {
            let mut all = suite(GmacConfig::default());
            for (name, block) in [("bulk-4k", 4096), ("bulk-256k", 256 * 1024)] {
                let w = BulkSequence { name, block };
                all.push((Box::new(w), GmacConfig::default().block_size(block)));
            }
            all
        },
        flip: |c| c.mmap_backing(false),
    },
    Toggle {
        name: "race_check",
        inputs: || suite(GmacConfig::default()),
        flip: |c| c.race_check(true),
    },
    Toggle {
        name: "tlb",
        // Pinned to the frame-arena backend: the row's checks read the TLB
        // counters, which legitimately stay at zero on the mmap backend
        // (accessible spans never probe the software TLB).
        inputs: || suite(GmacConfig::default().mmap_backing(false)),
        flip: |c| c.tlb(false),
    },
    Toggle {
        name: "evict",
        inputs: || suite(GmacConfig::default()),
        flip: |c| c.evict(false),
    },
];

/// The nine standard workloads plus the streaming pipeline, all under `cfg`.
fn suite(cfg: GmacConfig) -> Vec<Input> {
    let mut all = parboil_suite_small();
    all.push(Box::new(VecAdd::small()));
    all.push(Box::new(Stencil3d::small()));
    all.push(Box::new(StreamPipeline::small()));
    all.into_iter().map(|w| (w, cfg.clone())).collect()
}

/// Runs every input of row `toggle` at the default and flipped setting,
/// asserts each pair identical, and returns the pairs' counters for the
/// row's own checks.
fn check(toggle: &str) -> Vec<(String, Counters, Counters)> {
    let row = TOGGLES
        .iter()
        .find(|t| t.name == toggle)
        .expect("known row");
    let mut pairs = Vec::new();
    for (w, cfg) in (row.inputs)() {
        let run = |cfg| {
            run_variant_with(w.as_ref(), Variant::Gmac(Protocol::Rolling), cfg)
                .expect("workload run")
        };
        let default = run(cfg.clone());
        let flipped = run((row.flip)(cfg));
        let name = format!("{toggle}/{}", w.name());
        assert_sim_identical(&default, &flipped, &name);
        pairs.push((name, default.counters.unwrap(), flipped.counters.unwrap()));
    }
    pairs
}

/// Everything the simulation observes, compared field by field so a
/// failure names what diverged.
fn assert_sim_identical(a: &RunResult, b: &RunResult, name: &str) {
    assert_eq!(a.digest, b.digest, "{name}: digest");
    assert_eq!(a.elapsed, b.elapsed, "{name}: virtual time");
    for cat in Category::ALL {
        assert_eq!(a.ledger.get(cat), b.ledger.get(cat), "{name}: ledger {cat}");
    }
    let (ac, bc) = (a.counters.unwrap(), b.counters.unwrap());
    for (field, x, y) in [
        ("faults_read", ac.faults_read, bc.faults_read),
        ("faults_write", ac.faults_write, bc.faults_write),
        ("blocks_fetched", ac.blocks_fetched, bc.blocks_fetched),
        ("blocks_flushed", ac.blocks_flushed, bc.blocks_flushed),
        ("bytes_fetched", ac.bytes_fetched, bc.bytes_fetched),
        ("bytes_flushed", ac.bytes_flushed, bc.bytes_flushed),
        ("eager_evictions", ac.eager_evictions, bc.eager_evictions),
        ("evictions", ac.evictions, bc.evictions),
        ("refetches", ac.refetches, bc.refetches),
    ] {
        assert_eq!(x, y, "{name}: {field}");
    }
    let (at, bt) = (&a.transfers, &b.transfers);
    assert_eq!(at.h2d_bytes, bt.h2d_bytes, "{name}: h2d bytes");
    assert_eq!(at.d2h_bytes, bt.d2h_bytes, "{name}: d2h bytes");
    assert_eq!(at.total_jobs(), bt.total_jobs(), "{name}: job shape");
}

#[test]
fn async_dma_off_is_byte_identical() {
    for (name, _, inline) in check("async_dma") {
        // Inline mode never touches the engine bookkeeping.
        assert_eq!(inline.dma_wait_ns, 0, "{name}: no engine waits inline");
        assert_eq!(inline.jobs_overlapped, 0, "{name}: no overlap inline");
    }
}

#[test]
fn mmap_backing_off_is_byte_identical() {
    check("mmap_backing");
}

#[test]
fn race_check_on_is_byte_identical_on_race_free_workloads() {
    check("race_check");
}

#[test]
fn tlb_off_is_byte_identical() {
    let mut suite_hits = 0;
    for (name, on, off) in check("tlb") {
        // The fast path is on the path for every workload. Pure-bulk
        // workloads probe each page once per generation (raw copies do not
        // re-probe), so actual caching is asserted across the suite.
        assert!(on.tlb_hits + on.tlb_misses > 0, "{name}: fast path engaged");
        suite_hits += on.tlb_hits;
        assert_eq!(off.tlb_hits + off.tlb_misses, 0, "{name}: ablation cold");
        assert_eq!(off.obj_memo_hits, 0, "{name}: memo disabled");
    }
    assert!(suite_hits > 0, "cached translations observed in the suite");
}

#[test]
fn evict_off_is_byte_identical_when_capacity_suffices() {
    for (name, on, _) in check("evict") {
        assert_eq!(on.evictions, 0, "{name}: capacity suffices");
    }
}

/// Every bulk path once, over objects of 16 blocks: `write_slice`, a call,
/// `read_slice`, `memcpy_in`, `memcpy_out`, an overlapping and a disjoint
/// same-object `memcpy`, `memset`, and a file write read back into a third
/// object. On the arena backend each of these stages through a buffer; on
/// the mmap backend most borrow the host view.
struct BulkSequence {
    name: &'static str,
    block: u64,
}

const BULK_FILE: &str = "bulk_sequence";

impl BulkSequence {
    fn size(&self) -> usize {
        16 * self.block as usize
    }
}

impl Workload for BulkSequence {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        "bulk paths over 16-block objects"
    }

    fn register_kernels(&self, platform: &mut Platform) {
        platform.register_kernel(std::sync::Arc::new(gmac::testutil::NopKernel));
    }

    fn prepare(&self, platform: &mut Platform) -> WorkloadResult<()> {
        platform.fs_mut().create(BULK_FILE, vec![0u8; self.size()]);
        Ok(())
    }

    fn run_cuda(&self, _platform: &mut Platform) -> WorkloadResult<u64> {
        unreachable!("only the GMAC variant runs")
    }

    fn run_gmac(&self, s: &Session) -> WorkloadResult<u64> {
        let size = self.size();
        let half = size as u64 / 2;
        let words = size / 4;
        let a = s.alloc_typed::<u32>(words)?;
        let input: Vec<u32> = (0..words as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect();
        a.write_slice(&input)?;
        s.call("nop", LaunchDims::for_elements(1, 1), &[Param::from(&a)])?;
        s.sync()?;
        let back = a.read_slice()?;
        let b = s.alloc(size as u64)?;
        let blob: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
        s.memcpy_in(b, &blob)?;
        let mut out = vec![0u8; size];
        s.memcpy_out(&mut out, b)?;
        s.memcpy(b.byte_add(100), b, half)?;
        s.memcpy(b.byte_add(half + 12), b.byte_add(7), half - 64)?;
        s.memset(b.byte_add(self.block / 2), 0x5A, 3 * self.block)?;
        s.write_shared_to_file(BULK_FILE, 0, b, size as u64)?;
        let c = s.alloc(size as u64)?;
        s.read_file_to_shared(BULK_FILE, 0, c, size as u64)?;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let words = back.iter().flat_map(|w| w.to_le_bytes());
        let tail = s.load_slice::<u8>(c, size)?;
        for byte in words.chain(out).chain(tail) {
            digest = (digest ^ byte as u64).wrapping_mul(0x100_0000_01b3);
        }
        Ok(digest)
    }
}
