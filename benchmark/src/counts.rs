//! Cumulative counts read from a runtime's own accounting (`Counters`,
//! `TransferLedger`, `TimeLedger`, `Report`), as plain numbers that can be
//! summed over runtimes and differenced over a measured window.

use crate::harness::Layer;
use gmac::Gmac;
use hetsim::Category;

/// The virtual-time categories the paper's Fig. 10 break-down groups.
const SHARES: [(&str, &[Category]); 5] = [
    ("hetsim.virtual_share.copy", &[Category::Copy]),
    ("hetsim.virtual_share.gpu", &[Category::Gpu]),
    ("hetsim.virtual_share.cpu", &[Category::Cpu]),
    (
        "hetsim.virtual_share.io",
        &[Category::IoRead, Category::IoWrite],
    ),
    ("hetsim.virtual_share.signal", &[Category::Signal]),
];

#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub faults_read: u64,
    pub faults_write: u64,
    pub blocks_fetched: u64,
    pub blocks_flushed: u64,
    pub bytes_fetched: u64,
    pub eager_evictions: u64,
    pub dma_wait_ns: u64,
    pub jobs_overlapped: u64,
    pub h2d_jobs: u64,
    pub d2h_jobs: u64,
    pub h2d_blocks: u64,
    pub d2h_blocks: u64,
    pub h2d_planned: u64,
    pub d2h_planned: u64,
    /// Virtual ns per [`SHARES`] group, then the ledger total.
    pub sim_groups: [u64; 5],
    pub sim_total: u64,
    /// A high-water mark, not a sum: `add` and `since` keep the maximum.
    pub queue_high_water: u64,
}

impl Totals {
    /// Reads every count of `gmac`. `Gmac::report` walks all objects, so
    /// call this at window edges, never inside an op.
    pub fn of(gmac: &Gmac) -> Totals {
        let c = gmac.counters();
        let t = gmac.transfers();
        let ledger = gmac.ledger();
        let mut sim_groups = [0u64; 5];
        for (slot, (_, cats)) in sim_groups.iter_mut().zip(SHARES) {
            *slot = cats.iter().map(|&cat| ledger.get(cat).as_nanos()).sum();
        }
        Totals {
            faults_read: c.faults_read,
            faults_write: c.faults_write,
            blocks_fetched: c.blocks_fetched,
            blocks_flushed: c.blocks_flushed,
            bytes_fetched: c.bytes_fetched,
            eager_evictions: c.eager_evictions,
            dma_wait_ns: c.dma_wait_ns,
            jobs_overlapped: c.jobs_overlapped,
            h2d_jobs: t.h2d_count,
            d2h_jobs: t.d2h_count,
            h2d_blocks: t.h2d_blocks,
            d2h_blocks: t.d2h_blocks,
            h2d_planned: t.h2d_planned,
            d2h_planned: t.d2h_planned,
            sim_groups,
            sim_total: ledger.total().as_nanos(),
            queue_high_water: gmac.report().dma_queue_high_water,
        }
    }

    fn zip(self, o: Totals, f: impl Fn(u64, u64) -> u64) -> Totals {
        let mut sim_groups = [0u64; 5];
        for (i, slot) in sim_groups.iter_mut().enumerate() {
            *slot = f(self.sim_groups[i], o.sim_groups[i]);
        }
        Totals {
            faults_read: f(self.faults_read, o.faults_read),
            faults_write: f(self.faults_write, o.faults_write),
            blocks_fetched: f(self.blocks_fetched, o.blocks_fetched),
            blocks_flushed: f(self.blocks_flushed, o.blocks_flushed),
            bytes_fetched: f(self.bytes_fetched, o.bytes_fetched),
            eager_evictions: f(self.eager_evictions, o.eager_evictions),
            dma_wait_ns: f(self.dma_wait_ns, o.dma_wait_ns),
            jobs_overlapped: f(self.jobs_overlapped, o.jobs_overlapped),
            h2d_jobs: f(self.h2d_jobs, o.h2d_jobs),
            d2h_jobs: f(self.d2h_jobs, o.d2h_jobs),
            h2d_blocks: f(self.h2d_blocks, o.h2d_blocks),
            d2h_blocks: f(self.d2h_blocks, o.d2h_blocks),
            h2d_planned: f(self.h2d_planned, o.h2d_planned),
            d2h_planned: f(self.d2h_planned, o.d2h_planned),
            sim_groups,
            sim_total: f(self.sim_total, o.sim_total),
            queue_high_water: self.queue_high_water.max(o.queue_high_water),
        }
    }

    /// Sum of two runtimes' totals.
    pub fn add(self, o: Totals) -> Totals {
        self.zip(o, |a, b| a + b)
    }

    /// What happened since `base` was read from the same runtime.
    pub fn since(self, base: Totals) -> Totals {
        self.zip(base, |a, b| a - b)
    }

    /// The `core.protocol.*`, `core.xfer.*` and `hetsim.virtual_share.*`
    /// metrics for a window of `ops` ops in which the CPU touched
    /// `touched_bytes` bytes of shared memory through faulting accesses.
    pub fn layer(&self, ops: u64, touched_bytes: u64, out: &mut Layer) {
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        out.insert("core.protocol.faults_read", per_op(self.faults_read));
        out.insert("core.protocol.faults_write", per_op(self.faults_write));
        out.insert("core.protocol.blocks_fetched", per_op(self.blocks_fetched));
        out.insert("core.protocol.blocks_flushed", per_op(self.blocks_flushed));
        out.insert(
            "core.protocol.eager_evictions",
            per_op(self.eager_evictions),
        );
        out.insert(
            "core.protocol.fetch_bytes_per_fault",
            ratio(self.bytes_fetched, self.faults_read + self.faults_write),
        );
        out.insert(
            "core.protocol.useful_fetch_ratio",
            ratio(touched_bytes, self.bytes_fetched),
        );
        out.insert("core.xfer.h2d_jobs", per_op(self.h2d_jobs));
        out.insert("core.xfer.d2h_jobs", per_op(self.d2h_jobs));
        out.insert(
            "core.xfer.h2d_coalescing",
            ratio(self.h2d_blocks, self.h2d_planned),
        );
        out.insert(
            "core.xfer.d2h_coalescing",
            ratio(self.d2h_blocks, self.d2h_planned),
        );
        out.insert("core.xfer.jobs_overlapped", per_op(self.jobs_overlapped));
        out.insert("core.xfer.queue_high_water", self.queue_high_water as f64);
        out.insert("core.xfer.dma_wait_ms", per_op(self.dma_wait_ns) / 1e6);
        for (group, (name, _)) in self.sim_groups.iter().zip(SHARES) {
            out.insert(name, ratio(*group, self.sim_total));
        }
    }
}
