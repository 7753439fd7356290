//! Runtime configuration: protocol choice, block geometry, rolling size and
//! cost model, selectable at context creation — the paper selects these "at
//! application load time" (§4.3).

use hetsim::Nanos;
use softmmu::PAGE_SIZE;

/// Which memory-coherence protocol the runtime uses (paper §4.3, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Protocol {
    /// Pure write-invalidate: everything moves at call/return.
    Batch,
    /// Page-protection detection, whole-object transfers.
    Lazy,
    /// Lazy + fixed-size blocks + bounded dirty set with eager eviction.
    #[default]
    Rolling,
}

impl Protocol {
    /// All protocols, in the paper's presentation order.
    pub const ALL: [Protocol; 3] = [Protocol::Batch, Protocol::Lazy, Protocol::Rolling];

    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Batch => "GMAC Batch",
            Protocol::Lazy => "GMAC Lazy",
            Protocol::Rolling => "GMAC Rolling",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How the shared-memory manager locates the block containing a faulting
/// address (paper §5.2: GMAC keeps blocks in a balanced binary tree,
/// `O(log2 n)`; the linear alternative exists for the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LookupKind {
    /// Ordered-tree lookup, `O(log n)` — the paper's choice.
    #[default]
    Tree,
    /// Linear scan, `O(n)` — ablation baseline.
    Linear,
}

/// Which Accelerator Abstraction Layer flavour to model (paper §4.1/§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AalLayer {
    /// CUDA Run-Time layer: pays a one-time CUDA context initialisation at
    /// first use (the paper uses this flavour when comparing against CUDA).
    Runtime,
    /// CUDA Driver layer: full control, no hidden initialisation (the paper
    /// uses this flavour for the execution-time break-down).
    #[default]
    Driver,
}

/// Victim-selection policy when a shard must evict resident objects to make
/// room for a new allocation (see [`GmacConfig::evict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictPolicy {
    /// Evict the least-recently-touched resident object first (exact LRU
    /// over per-object last-touch stamps fed by the access fast path and
    /// call boundaries).
    #[default]
    Lru,
    /// Clock / second-chance: sweep a hand over resident objects, clearing
    /// reference bits and evicting the first object found unreferenced —
    /// the classic approximation that avoids a full stamp sort.
    Clock,
}

impl EvictPolicy {
    /// Display label used in reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            EvictPolicy::Lru => "lru",
            EvictPolicy::Clock => "clock",
        }
    }
}

impl std::fmt::Display for EvictPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Host-side bookkeeping costs of the GMAC library itself.
#[derive(Debug, Clone, PartialEq)]
pub struct GmacCosts {
    /// `adsmAlloc` bookkeeping (object registration, host mapping).
    pub alloc_base: Nanos,
    /// `adsmFree` bookkeeping.
    pub free_base: Nanos,
    /// Per shared object scanned at `adsmCall`.
    pub call_per_object: Nanos,
    /// Fixed `adsmSync` bookkeeping.
    pub sync_base: Nanos,
    /// Per-node cost of walking the block tree in the fault handler.
    pub lookup_tree_node: Nanos,
    /// Per-entry cost of a linear block scan in the fault handler.
    pub lookup_linear_entry: Nanos,
    /// One-time CUDA runtime initialisation (only with [`AalLayer::Runtime`]).
    pub cuda_init: Nanos,
}

impl Default for GmacCosts {
    fn default() -> Self {
        GmacCosts {
            alloc_base: Nanos::from_micros(8),
            free_base: Nanos::from_micros(5),
            call_per_object: Nanos::from_nanos(300),
            sync_base: Nanos::from_micros(2),
            lookup_tree_node: Nanos::from_nanos(60),
            lookup_linear_entry: Nanos::from_nanos(15),
            cuda_init: Nanos::from_millis(60),
        }
    }
}

/// GMAC runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GmacConfig {
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Rolling-update block size in bytes (multiple of the page size).
    pub block_size: u64,
    /// Adaptive rolling-size growth per allocation (paper default: 2 blocks).
    pub rolling_factor: usize,
    /// Fixed rolling size override (Figure 12 uses 1/2/4); `None` = adaptive.
    pub rolling_size: Option<usize>,
    /// Coalesce adjacent/overlapping planned ranges of an object into single
    /// DMA jobs (fewer, larger transfers amortise the link latency — the
    /// §5.2 aggregation lever); `false` issues one job per block (ablation
    /// baseline matching the pre-planner behaviour).
    pub coalescing: bool,
    /// Block-lookup structure used by the fault handler.
    pub lookup: LookupKind,
    /// Accelerator Abstraction Layer flavour.
    pub aal: AalLayer,
    /// Enable the access fast path (the default): the softmmu's
    /// direct-mapped TLB, each shard's one-entry object memo and the
    /// per-session route memo. `false` is the ablation baseline paying a
    /// full radix-table walk, manager search and registry route on every
    /// access. The caches are wall-clock-only: digests, virtual times and
    /// ledgers are **byte-identical** between modes (the `toggles` test
    /// suite enforces this).
    pub tlb: bool,
    /// Execute host-to-device DMA jobs on background worker threads (the
    /// default): transfer plans are built and virtually charged under the
    /// shard lock, but the wall-clock byte landing happens on a per-device
    /// worker, so CPU produce genuinely overlaps transfer execution.
    /// `false` is the ablation baseline executing every job inline over the
    /// same plan code paths. The engine is wall-clock-only: digests, virtual
    /// times and ledgers are **byte-identical** between modes (the `toggles`
    /// and `async_dma` test suites enforce this), mirroring
    /// [`GmacConfig::tlb`].
    pub async_dma: bool,
    /// Back the unified address space with a real anonymous host mapping
    /// (the default, Linux): each shard's softmmu reserves
    /// [`GmacConfig::mmap_reserve`] bytes `PROT_NONE` up front, commits
    /// pages and applies block protection with real `mprotect`, and hands
    /// out raw host pointers so a typed access on an accessible block is a
    /// plain load/store with **zero instrumentation** on the hit path (the
    /// paper's actual §4.2 mechanism). `false` is the portable table-walk
    /// ablation baseline (one boxed frame per page, every access
    /// software-checked). If the host reservation fails (non-Linux, no
    /// address space), the runtime **degrades gracefully** to table-walk
    /// and reports it via [`crate::Report::backing_downgraded`] — it never
    /// panics. The backend is wall-clock-only: digests, virtual times and
    /// ledgers are **byte-identical** between modes (the `toggles` test
    /// suite enforces this), mirroring [`GmacConfig::tlb`] and
    /// [`GmacConfig::async_dma`].
    pub mmap_backing: bool,
    /// Host virtual address space (bytes) each shard's mmap backing reserves
    /// up front (committed lazily, 1 GiB chunks). Only consulted with
    /// [`GmacConfig::mmap_backing`] on.
    pub mmap_reserve: u64,
    /// Run [`crate::Service`] jobs through the queued multi-tenant pipeline
    /// (the default): submissions land in a bounded deficit-weighted fair
    /// queue, a placer thread routes each job to the least-loaded device,
    /// and one worker per device executes it — device contention becomes
    /// queueing (or an explicit [`crate::GmacError::Admission`]), never a
    /// client-visible [`crate::GmacError::DeviceBusy`]. `false` is the
    /// ablation baseline running every submitted job inline on the
    /// submitting thread over the same placement and accounting code. The
    /// service is wall-clock-only: digests, virtual times and per-category
    /// ledgers are **byte-identical** between modes for a serialized run
    /// (the `service` ablation test enforces this), mirroring
    /// [`GmacConfig::tlb`], [`GmacConfig::async_dma`] and
    /// [`GmacConfig::mmap_backing`].
    pub service: bool,
    /// Capacity (jobs) of the service layer's bounded fair queue; a full
    /// queue refuses further submissions with
    /// [`crate::GmacError::Admission`] carrying a retry-after hint.
    pub service_queue_depth: usize,
    /// Treat device memory as a cache over host memory (the default): when
    /// an allocation does not fit, the shard evicts cold *unpinned* resident
    /// objects back to host (D2H through the ordinary plan/execute
    /// machinery, then the device range is released to the first-fit
    /// allocator) and retries, re-fetching lazily on the next
    /// `adsmCall`/access that needs them. Objects referenced by a pending
    /// call are never victims, and an object is never evicted while a
    /// transfer on it is in flight (in-flight DMA makes it a victim of last
    /// resort, joined before eviction). `false` is the
    /// ablation baseline: allocation pressure surfaces immediately as
    /// [`crate::GmacError::DeviceOom`]. Eviction bookkeeping (touch stamps)
    /// is wall-clock-only; the eviction machinery itself charges virtual
    /// time only on the out-of-memory path, so when capacity suffices the
    /// two modes are **byte-identical** in virtual time, mirroring the
    /// other ablation toggles.
    pub evict: bool,
    /// Victim-selection policy used when [`GmacConfig::evict`] is on.
    pub evict_policy: EvictPolicy,
    /// Enable the coherence race detector (default **off**): per-block
    /// vector clocks — one CPU epoch per session plus one kernel epoch per
    /// device, advanced at `adsmCall`/`adsmSync` boundaries — catch the
    /// accesses the paper's consistency model (§3) forbids:
    /// CPU-writes-while-a-kernel-may-read, launches over another session's
    /// unsynced writes, and cross-session writes to call-referenced objects
    /// (`race.rs`). Violations surface as
    /// [`crate::GmacError::RaceDetected`] (or, with
    /// [`GmacConfig::race_report`], as a non-fatal log in
    /// [`crate::Report`]). The detector makes **no virtual-time charges**:
    /// on a race-free run, digests, elapsed time and per-category ledgers
    /// are byte-identical with the detector on or off (the `toggles` test
    /// suite enforces this), mirroring every other toggle; the wall-clock
    /// cost is recorded in `results/BENCH_race.json`.
    pub race_check: bool,
    /// With [`GmacConfig::race_check`] on, sink detections into
    /// [`crate::Report`] instead of failing the offending operation: the
    /// access/launch completes normally and the violation is logged with
    /// full object+offset+epoch diagnostics. Default off (error mode).
    pub race_report: bool,
    /// Simulated host-memory budget (bytes) per shard for evicted object
    /// images. When the bytes evicted-to-host on one shard exceed this,
    /// the coldest evicted images spill write-behind to `hetsim`'s disk
    /// tier (priced as file I/O in the virtual ledger) and are read back
    /// at re-fetch. `None` (the default) models an unconstrained host:
    /// nothing ever spills.
    pub host_capacity: Option<u64>,
    /// Library bookkeeping costs.
    pub costs: GmacCosts,
}

impl Default for GmacConfig {
    fn default() -> Self {
        GmacConfig {
            protocol: Protocol::Rolling,
            block_size: 256 * 1024,
            rolling_factor: 2,
            rolling_size: None,
            coalescing: true,
            lookup: LookupKind::Tree,
            aal: AalLayer::Driver,
            tlb: true,
            async_dma: true,
            mmap_backing: true,
            mmap_reserve: 64 << 30,
            service: true,
            service_queue_depth: 1024,
            evict: true,
            evict_policy: EvictPolicy::Lru,
            race_check: false,
            race_report: false,
            host_capacity: None,
            costs: GmacCosts::default(),
        }
    }
}

impl GmacConfig {
    /// Validated constructor (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the coherence protocol.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the rolling block size.
    ///
    /// # Panics
    /// Panics if `block_size` is zero or not a multiple of the page size
    /// (protection is per page; see `softmmu`).
    pub fn block_size(mut self, block_size: u64) -> Self {
        assert!(
            block_size > 0 && block_size.is_multiple_of(PAGE_SIZE),
            "block size must be a positive multiple of the {PAGE_SIZE}-byte page"
        );
        self.block_size = block_size;
        self
    }

    /// Fixes the rolling size (maximum dirty blocks) instead of the adaptive
    /// default.
    pub fn rolling_size(mut self, blocks: usize) -> Self {
        self.rolling_size = Some(blocks.max(1));
        self
    }

    /// Sets the adaptive rolling-size growth factor.
    pub fn rolling_factor(mut self, factor: usize) -> Self {
        self.rolling_factor = factor.max(1);
        self
    }

    /// Enables or disables dirty-range coalescing in the transfer planner.
    pub fn coalescing(mut self, on: bool) -> Self {
        self.coalescing = on;
        self
    }

    /// Selects the block-lookup structure.
    pub fn lookup(mut self, lookup: LookupKind) -> Self {
        self.lookup = lookup;
        self
    }

    /// Selects the AAL flavour.
    pub fn aal(mut self, aal: AalLayer) -> Self {
        self.aal = aal;
        self
    }

    /// Enables or disables the access fast path — software TLB, shard
    /// object memo and session route memo (`false` = slow-path ablation
    /// mode; see [`GmacConfig::tlb`]).
    pub fn tlb(mut self, on: bool) -> Self {
        self.tlb = on;
        self
    }

    /// Enables or disables the background DMA engine (`false` = synchronous
    /// inline ablation mode; see [`GmacConfig::async_dma`]).
    pub fn async_dma(mut self, on: bool) -> Self {
        self.async_dma = on;
        self
    }

    /// Enables or disables the mmap-backed address space (`false` =
    /// table-walk ablation mode; see [`GmacConfig::mmap_backing`]).
    pub fn mmap_backing(mut self, on: bool) -> Self {
        self.mmap_backing = on;
        self
    }

    /// Sets the per-shard host reservation size for the mmap backing.
    pub fn mmap_reserve(mut self, bytes: u64) -> Self {
        self.mmap_reserve = bytes;
        self
    }

    /// Enables or disables the queued service pipeline (`false` = inline
    /// ablation mode; see [`GmacConfig::service`]).
    pub fn service(mut self, on: bool) -> Self {
        self.service = on;
        self
    }

    /// Sets the service queue capacity (clamped ≥ 1; see
    /// [`GmacConfig::service_queue_depth`]).
    pub fn service_queue_depth(mut self, jobs: usize) -> Self {
        self.service_queue_depth = jobs.max(1);
        self
    }

    /// Enables or disables device-memory-as-a-cache eviction (`false` =
    /// fail-fast [`crate::GmacError::DeviceOom`] ablation mode; see
    /// [`GmacConfig::evict`]).
    pub fn evict(mut self, on: bool) -> Self {
        self.evict = on;
        self
    }

    /// Selects the eviction victim policy (see [`GmacConfig::evict_policy`]).
    pub fn evict_policy(mut self, policy: EvictPolicy) -> Self {
        self.evict_policy = policy;
        self
    }

    /// Enables or disables the coherence race detector (see
    /// [`GmacConfig::race_check`]; default off).
    pub fn race_check(mut self, on: bool) -> Self {
        self.race_check = on;
        self
    }

    /// Selects sink mode for the race detector: log violations in
    /// [`crate::Report`] instead of erroring (see
    /// [`GmacConfig::race_report`]).
    pub fn race_report(mut self, on: bool) -> Self {
        self.race_report = on;
        self
    }

    /// Sets the simulated per-shard host budget for evicted images; beyond
    /// it, cold images spill to the disk tier (see
    /// [`GmacConfig::host_capacity`]).
    pub fn host_capacity(mut self, bytes: u64) -> Self {
        self.host_capacity = Some(bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let c = GmacConfig::default();
        assert_eq!(c.protocol, Protocol::Rolling);
        assert_eq!(
            c.rolling_factor, 2,
            "paper: default growth of 2 blocks per allocation"
        );
        assert_eq!(c.rolling_size, None, "adaptive by default");
        assert!(c.coalescing, "transfer coalescing is the default behaviour");
        assert!(c.tlb, "the access fast path is the default behaviour");
        assert!(c.async_dma, "the background DMA engine is the default");
        assert!(
            c.mmap_backing,
            "the mmap-backed address space is the default"
        );
        assert_eq!(c.mmap_reserve, 64 << 30);
        assert!(c.service, "the queued service pipeline is the default");
        assert_eq!(c.service_queue_depth, 1024);
        assert!(c.evict, "device-memory-as-a-cache eviction is the default");
        assert_eq!(c.evict_policy, EvictPolicy::Lru);
        assert_eq!(c.host_capacity, None, "unconstrained host by default");
        assert!(!c.race_check, "race detection is opt-in");
        assert!(!c.race_report, "error mode is the race-check default");
        assert_eq!(c.lookup, LookupKind::Tree);
        assert_eq!(c.block_size % PAGE_SIZE, 0);
    }

    #[test]
    fn builder_chains() {
        let c = GmacConfig::new()
            .protocol(Protocol::Lazy)
            .block_size(64 * 1024)
            .rolling_size(4)
            .rolling_factor(3)
            .coalescing(false)
            .lookup(LookupKind::Linear)
            .aal(AalLayer::Runtime)
            .tlb(false)
            .async_dma(false)
            .mmap_backing(false)
            .mmap_reserve(8 << 30)
            .service(false)
            .service_queue_depth(16)
            .evict(false)
            .evict_policy(EvictPolicy::Clock)
            .race_check(true)
            .race_report(true)
            .host_capacity(32 << 20);
        assert!(c.race_check);
        assert!(c.race_report);
        assert!(!c.evict);
        assert_eq!(c.evict_policy, EvictPolicy::Clock);
        assert_eq!(c.host_capacity, Some(32 << 20));
        assert!(!c.service);
        assert_eq!(c.service_queue_depth, 16);
        assert!(!c.tlb);
        assert!(!c.async_dma);
        assert!(!c.mmap_backing);
        assert_eq!(c.mmap_reserve, 8 << 30);
        assert_eq!(c.protocol, Protocol::Lazy);
        assert_eq!(c.block_size, 64 * 1024);
        assert_eq!(c.rolling_size, Some(4));
        assert_eq!(c.rolling_factor, 3);
        assert!(!c.coalescing);
        assert_eq!(c.lookup, LookupKind::Linear);
        assert_eq!(c.aal, AalLayer::Runtime);
    }

    #[test]
    #[should_panic(expected = "block size must be")]
    fn rejects_unaligned_block_size() {
        GmacConfig::new().block_size(1000);
    }

    #[test]
    fn rolling_size_clamped_to_one() {
        assert_eq!(GmacConfig::new().rolling_size(0).rolling_size, Some(1));
    }

    #[test]
    fn service_queue_depth_clamped_to_one() {
        assert_eq!(
            GmacConfig::new().service_queue_depth(0).service_queue_depth,
            1
        );
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(Protocol::Batch.label(), "GMAC Batch");
        assert_eq!(Protocol::Rolling.to_string(), "GMAC Rolling");
        assert_eq!(Protocol::ALL.len(), 3);
    }

    #[test]
    fn evict_policy_labels() {
        assert_eq!(EvictPolicy::Lru.to_string(), "lru");
        assert_eq!(EvictPolicy::Clock.label(), "clock");
        assert_eq!(EvictPolicy::default(), EvictPolicy::Lru);
    }
}
