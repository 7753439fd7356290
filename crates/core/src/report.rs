//! Runtime diagnostics: a structured snapshot of the runtime's state —
//! live objects, per-state block counts, traffic, fault counters, pending
//! calls and the execution-time break-down — renderable as text. The
//! `gmacProfile`-style observability a released runtime ships with.
//! Available from [`crate::Gmac::report`] and [`crate::Session::report`].

use crate::gmac::Inner;
use crate::object::SharedObject;
use crate::shard::lock_shard;
use crate::state::BlockState;
use hetsim::fmt_bytes;
use hetsim::Category;
use std::fmt;

/// Snapshot of one live shared object.
#[derive(Debug, Clone)]
pub struct ObjectReport {
    /// Start of the object in the unified address space.
    pub addr: u64,
    /// Object size in bytes.
    pub size: u64,
    /// Hosting accelerator.
    pub device: usize,
    /// Whether host and device share the numeric address.
    pub unified: bool,
    /// Block granularity.
    pub block_size: u64,
    /// Blocks per state: (invalid, read-only, dirty).
    pub blocks: (usize, usize, usize),
}

/// Per-device eviction activity (device memory as a cache — see
/// `evict.rs`). All zero on devices that never came under memory
/// pressure; the text rendering skips those rows entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictionReport {
    /// Whole objects evicted from device memory back to host.
    pub evictions: u64,
    /// Bytes those evictions released.
    pub evicted_bytes: u64,
    /// Evicted objects re-homed on the device on next use.
    pub refetches: u64,
    /// Bytes of device memory re-allocated by those re-fetches.
    pub refetch_bytes: u64,
    /// Victim candidates spared: pinned by a pending call, or DMA-busy and
    /// not needed once quiescent candidates freed enough space.
    pub pin_saves: u64,
    /// Cold host images spilled to the disk tier under `host_capacity`.
    pub disk_spills: u64,
}

impl ObjectReport {
    pub(crate) fn of(o: &SharedObject) -> Self {
        ObjectReport {
            addr: o.addr().0,
            size: o.size(),
            device: o.device().0,
            unified: o.is_unified(),
            block_size: o.block_size(),
            blocks: (
                o.count_in_state(BlockState::Invalid),
                o.count_in_state(BlockState::ReadOnly),
                o.count_in_state(BlockState::Dirty),
            ),
        }
    }
}

impl EvictionReport {
    fn any(&self) -> bool {
        self.evictions + self.refetches + self.pin_saves + self.disk_spills > 0
    }
}

/// Race-detector snapshot (see `race.rs`); present only with
/// [`crate::GmacConfig::race_check`] on.
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// `true` = non-fatal sink mode ([`crate::GmacConfig::race_report`]):
    /// violations are recorded below instead of raised as errors.
    pub report_mode: bool,
    /// Accesses checked and violations observed.
    pub stats: crate::race::RaceStats,
    /// Violations sunk so far (always empty in error mode — they surface as
    /// [`crate::GmacError::RaceDetected`] instead).
    pub violations: Vec<crate::race::RaceViolation>,
}

/// Full runtime snapshot.
#[derive(Debug, Clone)]
pub struct Report {
    /// Protocol in use.
    pub protocol: crate::config::Protocol,
    /// Whether shared bytes live in a real mmap reservation (`false` =
    /// table-walk/frame-arena ablation backend). See
    /// [`crate::GmacConfig::mmap_backing`].
    pub mmap_backing: bool,
    /// True when `mmap_backing` was requested but the host reservation
    /// failed and the runtime fell back to the table-walk backend. Results
    /// are still byte-identical; only wall-clock speed is lost.
    pub backing_downgraded: bool,
    /// Live objects, in address order.
    pub objects: Vec<ObjectReport>,
    /// Total dirty blocks according to the protocol's own bookkeeping.
    pub dirty_blocks: usize,
    /// Devices with an accelerator call in flight, in id order.
    pub pending_devices: Vec<usize>,
    /// Event counters.
    pub counters: crate::runtime::Counters,
    /// Bytes moved host-to-device.
    pub h2d_bytes: u64,
    /// Bytes moved device-to-host.
    pub d2h_bytes: u64,
    /// All host-to-device DMA jobs (planner-issued and direct copies alike;
    /// the coalescing ratio below divides blocks by planner jobs only).
    pub h2d_jobs: u64,
    /// All device-to-host DMA jobs.
    pub d2h_jobs: u64,
    /// Blocks per job host-to-device (the coalescing ratio; 0 with no jobs).
    pub h2d_coalescing: f64,
    /// Blocks per job device-to-host.
    pub d2h_coalescing: f64,
    /// Whether the background transfer engine is running (`false` = inline
    /// ablation mode; the engine fields below are then zero).
    pub async_dma: bool,
    /// H2D jobs queued on the engine but not yet landed in device memory.
    pub dma_in_flight: u64,
    /// Deepest any per-device engine queue has been since start-up. Queued
    /// jobs only: solitary evictions the engine lands inline on the
    /// submitting thread (see `xfer/engine.rs`) never sit in it.
    pub dma_queue_high_water: u64,
    /// Fairness accounting of the live [`crate::Service`] (per-priority
    /// served bytes, wait and run time); `None` when no service has been
    /// built or it has been dropped.
    pub service: Option<crate::service::ServiceSnapshot>,
    /// Live `(queued jobs, in-flight bytes)` per device from the service
    /// layer's [`crate::LoadBoard`] (all zero when no service is active).
    pub device_loads: Vec<(u64, u64)>,
    /// Eviction/re-fetch activity per device, in id order.
    pub eviction_by_device: Vec<EvictionReport>,
    /// Race-detector snapshot (`None` with [`crate::GmacConfig::race_check`]
    /// off).
    pub race: Option<RaceReport>,
    /// Software-TLB hit rate over all shards (0 with the fast path off or
    /// no accesses).
    pub tlb_hit_rate: f64,
    /// Shard object-memo hit rate (memo hits / all pointer→object
    /// resolutions).
    pub memo_hit_rate: f64,
    /// Total elapsed virtual time.
    pub elapsed: hetsim::Nanos,
    /// (category label, share of total time) pairs, non-zero only.
    pub breakdown: Vec<(&'static str, f64)>,
}

impl Inner {
    /// Takes a diagnostic snapshot of the runtime, visiting shards one at a
    /// time in device-id order (the standard multi-shard transaction — see
    /// [`crate::shard`]).
    pub(crate) fn report(&self) -> Report {
        self.gate();
        let mut objects: Vec<ObjectReport> = Vec::new();
        let mut dirty_blocks = 0usize;
        let mut pending_devices = Vec::new();
        let mut counters = crate::runtime::Counters::default();
        let mut mmap_backing = !self.shards.is_empty();
        let mut backing_downgraded = false;
        let mut eviction_by_device = Vec::with_capacity(self.shards.len());
        for (i, slot) in self.shards.iter().enumerate() {
            let shard = lock_shard(slot);
            mmap_backing &= shard.rt.mmap_active();
            backing_downgraded |= shard.rt.backing_downgraded();
            let c = shard.rt.counters();
            eviction_by_device.push(EvictionReport {
                evictions: c.evictions,
                evicted_bytes: c.evicted_bytes,
                refetches: c.refetches,
                refetch_bytes: c.refetch_bytes,
                pin_saves: c.pin_saves,
                disk_spills: c.disk_spills,
            });
            for o in shard.mgr.iter() {
                objects.push(ObjectReport::of(o));
            }
            dirty_blocks += shard.dirty_block_count();
            if shard.pending.is_some() {
                pending_devices.push(i);
            }
            counters.merge(&shard.rt.counters());
        }
        objects.sort_by_key(|o| o.addr);
        let ledger = self.platform.ledger();
        let transfers = *self.platform.transfers();
        let total = ledger.total().as_nanos().max(1) as f64;
        let breakdown = Category::ALL
            .iter()
            .filter_map(|&c| {
                let ns = ledger.get(c).as_nanos();
                (ns > 0).then(|| (c.label(), ns as f64 / total))
            })
            .collect();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let engine_stats = self.engine.as_deref().map(crate::xfer::DmaEngine::stats);
        Report {
            protocol: self.config().protocol,
            mmap_backing,
            backing_downgraded,
            async_dma: engine_stats.is_some(),
            dma_in_flight: engine_stats.map_or(0, |s| s.in_flight()),
            dma_queue_high_water: engine_stats.map_or(0, |s| s.depth_high_water),
            objects,
            dirty_blocks,
            pending_devices,
            service: self.service_snapshot(),
            device_loads: self.loads.snapshot(),
            eviction_by_device,
            race: self.race.as_ref().map(|r| RaceReport {
                report_mode: r.report_mode(),
                stats: r.stats(),
                violations: r.violations(),
            }),
            tlb_hit_rate: ratio(counters.tlb_hits, counters.tlb_hits + counters.tlb_misses),
            memo_hit_rate: ratio(
                counters.obj_memo_hits,
                counters.obj_memo_hits + counters.obj_lookups,
            ),
            counters,
            h2d_bytes: transfers.h2d_bytes,
            d2h_bytes: transfers.d2h_bytes,
            h2d_jobs: transfers.h2d_count,
            d2h_jobs: transfers.d2h_count,
            h2d_coalescing: transfers.coalescing_ratio(hetsim::Direction::HostToDevice),
            d2h_coalescing: transfers.coalescing_ratio(hetsim::Direction::DeviceToHost),
            elapsed: self.platform.elapsed(),
            breakdown,
        }
    }
}

impl crate::Gmac {
    /// Takes a diagnostic snapshot of the runtime.
    pub fn report(&self) -> Report {
        self.state().report()
    }
}

impl crate::Session {
    /// Takes a diagnostic snapshot of the shared runtime.
    pub fn report(&self) -> Report {
        self.state().report()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "GMAC runtime ({}) — {} elapsed",
            self.protocol, self.elapsed
        )?;
        writeln!(
            f,
            "  backing: {}{}",
            if self.mmap_backing {
                "mmap (reserve/commit + mprotect)"
            } else {
                "table-walk (frame arena)"
            },
            if self.backing_downgraded {
                "  [downgraded: reservation failed]"
            } else {
                ""
            },
        )?;
        writeln!(
            f,
            "  objects: {}   dirty blocks: {}   faults: {} ({} rd / {} wr)",
            self.objects.len(),
            self.dirty_blocks,
            self.counters.faults(),
            self.counters.faults_read,
            self.counters.faults_write,
        )?;
        if !self.pending_devices.is_empty() {
            writeln!(
                f,
                "  in flight: {}",
                self.pending_devices
                    .iter()
                    .map(|d| format!("gpu{d}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
        }
        writeln!(
            f,
            "  traffic: {} H2D / {} D2H   blocks fetched: {}   flushed: {} ({} eager)",
            fmt_bytes(self.h2d_bytes),
            fmt_bytes(self.d2h_bytes),
            self.counters.blocks_fetched,
            self.counters.blocks_flushed,
            self.counters.eager_evictions,
        )?;
        writeln!(
            f,
            "  dma jobs: {} H2D (x{:.2} coalesced) / {} D2H (x{:.2} coalesced)",
            self.h2d_jobs, self.h2d_coalescing, self.d2h_jobs, self.d2h_coalescing,
        )?;
        for (i, e) in self.eviction_by_device.iter().enumerate() {
            if !e.any() {
                continue;
            }
            writeln!(
                f,
                "  evict gpu{i}: {} out ({})  {} re-fetched ({})  {} pinned saves  {} disk spills",
                e.evictions,
                fmt_bytes(e.evicted_bytes),
                e.refetches,
                fmt_bytes(e.refetch_bytes),
                e.pin_saves,
                e.disk_spills,
            )?;
        }
        if self.async_dma {
            writeln!(
                f,
                "  engine: {} in flight / queue high-water {}   join wait {:.3} ms ({} queued jobs overlapped)",
                self.dma_in_flight,
                self.dma_queue_high_water,
                self.counters.dma_wait_ns as f64 / 1e6,
                self.counters.jobs_overlapped,
            )?;
        } else {
            writeln!(f, "  engine: inline (async_dma off)")?;
        }
        if let Some(svc) = &self.service {
            writeln!(
                f,
                "  service: {} submitted / {} completed / {} rejected   served {}",
                svc.submitted(),
                svc.completed(),
                svc.rejected(),
                fmt_bytes(svc.served_bytes()),
            )?;
            for c in &svc.classes {
                if c.submitted + c.rejected == 0 {
                    continue;
                }
                writeln!(
                    f,
                    "    {:<6} {} jobs ({} rejected, {} failed)  served {}  avg wait {:.3} ms",
                    c.priority.label(),
                    c.completed,
                    c.rejected,
                    c.failed,
                    fmt_bytes(c.served_bytes),
                    c.avg_wait_ns() as f64 / 1e6,
                )?;
            }
            let loaded: Vec<String> = self
                .device_loads
                .iter()
                .enumerate()
                .filter(|(_, &(q, b))| q > 0 || b > 0)
                .map(|(i, &(q, b))| format!("gpu{i}: {q} jobs/{}", fmt_bytes(b)))
                .collect();
            if !loaded.is_empty() {
                writeln!(f, "    loads: {}", loaded.join("  "))?;
            }
        }
        if let Some(race) = &self.race {
            writeln!(
                f,
                "  races: {} writes / {} launches checked   {} violation{} [{}]",
                race.stats.writes_checked,
                race.stats.launches_checked,
                race.stats.violations,
                if race.stats.violations == 1 { "" } else { "s" },
                if race.report_mode { "sink" } else { "error" },
            )?;
            for v in &race.violations {
                writeln!(f, "    {v}")?;
            }
        }
        writeln!(
            f,
            "  fast path: tlb {}/{} hit/miss ({:.1}%)   obj memo {} hits / {} walks ({:.1}%)",
            self.counters.tlb_hits,
            self.counters.tlb_misses,
            self.tlb_hit_rate * 100.0,
            self.counters.obj_memo_hits,
            self.counters.obj_lookups,
            self.memo_hit_rate * 100.0,
        )?;
        for o in &self.objects {
            writeln!(
                f,
                "  obj {:#x} +{:<10} gpu{} {}  blocks(inv/ro/dirty): {}/{}/{}",
                o.addr,
                fmt_bytes(o.size),
                o.device,
                if o.unified { "unified" } else { "mapped " },
                o.blocks.0,
                o.blocks.1,
                o.blocks.2,
            )?;
        }
        write!(f, "  time:")?;
        for (label, frac) in &self.breakdown {
            write!(f, " {label} {:.1}%", frac * 100.0)?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GmacConfig, Protocol};
    use crate::Gmac;
    use hetsim::Platform;

    fn gmac(cfg: GmacConfig) -> Gmac {
        Gmac::new(Platform::desktop_g280(), cfg)
    }

    #[test]
    fn report_reflects_runtime_state() {
        let g = gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096),
        );
        let s = g.session();
        let a = s.alloc(16 * 4096).unwrap();
        let _b = s.safe_alloc(4096).unwrap();
        s.store::<u32>(a, 7).unwrap();

        let r = g.report();
        assert_eq!(r.protocol, Protocol::Rolling);
        assert_eq!(r.objects.len(), 2);
        assert!(
            r.objects[0].unified != r.objects[1].unified,
            "exactly one of the two objects is unified"
        );
        assert_eq!(r.dirty_blocks, 1);
        assert_eq!(r.counters.faults_write, 1);
        assert!(r.pending_devices.is_empty());
        // One object has 16 blocks: 15 read-only + 1 dirty.
        let big = r.objects.iter().find(|o| o.size == 16 * 4096).unwrap();
        assert_eq!(big.blocks, (0, 15, 1));
        assert!(r.elapsed.as_nanos() > 0);

        let text = r.to_string();
        assert!(text.contains("GMAC runtime (GMAC Rolling)"));
        assert!(text.contains("backing:"));
        assert!(!r.backing_downgraded, "default reserve must succeed");
        if cfg!(target_os = "linux") {
            assert!(r.mmap_backing, "mmap backend is the default on Linux");
            assert!(text.contains("backing: mmap"));
        }
        assert!(text.contains("objects: 2"));
        assert!(text.contains("blocks(inv/ro/dirty): 0/15/1"));
        assert!(text.contains("dma jobs:"));
        assert!(text.contains("fast path: tlb"));
        // Session snapshot agrees with the runtime snapshot.
        assert_eq!(s.report().objects.len(), 2);
    }

    #[test]
    fn report_exposes_transfer_engine_metrics() {
        // Table-walk backend: the mmap backend serves slice stores as span
        // memcpys that never probe the software TLB (tlb_hits/misses are
        // wall-clock-only counters and legitimately stay 0 there).
        let g = gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(4096)
                .mmap_backing(false),
        );
        let s = g.session();
        let a = s.alloc(8 * 4096).unwrap();
        s.store_slice::<u8>(a, &vec![5u8; 8 * 4096]).unwrap();
        // Second resolution of the same object: served by the shard memo.
        s.store_slice::<u8>(a, &vec![5u8; 8 * 4096]).unwrap();
        s.release_to_device().unwrap();
        let r = g.report();
        assert!(r.h2d_jobs > 0);
        assert!(
            r.h2d_coalescing >= 1.0,
            "adjacent dirty blocks coalesce: ratio {}",
            r.h2d_coalescing
        );
        assert_eq!(r.counters.bytes_flushed, r.h2d_bytes);
        assert!(
            r.counters.tlb_hits + r.counters.tlb_misses > 0,
            "accesses exercised the TLB"
        );
        assert!(r.tlb_hit_rate > 0.0, "slice stores hit the TLB");
        assert!(
            r.memo_hit_rate > 0.0,
            "repeated resolutions hit the shard memo"
        );
    }

    #[test]
    fn report_exposes_background_engine_state() {
        // Async on (the default): the engine section is present and the
        // queue high-water reflects the release flush that just ran (its
        // jobs queue; evictions land inline).
        let block = 64 * 1024;
        let g = gmac(
            GmacConfig::default()
                .protocol(Protocol::Rolling)
                .block_size(block),
        );
        let s = g.session();
        let a = s.alloc(8 * block).unwrap();
        s.store_slice::<u8>(a, &vec![9u8; 8 * block as usize])
            .unwrap();
        s.release_to_device().unwrap();
        let r = g.report();
        assert!(r.async_dma);
        assert!(r.dma_queue_high_water >= 1, "the flush queued jobs");
        assert!(r.to_string().contains("engine:"));

        // Ablation mode: no engine, inline marker instead of stats.
        let g2 = gmac(GmacConfig::default().async_dma(false));
        let r2 = g2.report();
        assert!(!r2.async_dma);
        assert_eq!(r2.dma_in_flight, 0);
        assert_eq!(r2.counters.dma_wait_ns, 0);
        assert!(r2.to_string().contains("inline (async_dma off)"));
    }

    #[test]
    fn report_shows_pending_devices() {
        let g = gmac(GmacConfig::default());
        g.with_platform(|p| p.register_kernel(std::sync::Arc::new(crate::testutil::NopKernel)));
        let s = g.session();
        s.call("nop", hetsim::LaunchDims::for_elements(1, 1), &[])
            .unwrap();
        let r = g.report();
        assert_eq!(r.pending_devices, vec![0]);
        assert!(r.to_string().contains("in flight: gpu0"));
        s.sync().unwrap();
        assert!(g.report().pending_devices.is_empty());
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let g = gmac(GmacConfig::default());
        let s = g.session();
        let p = s.alloc(4096).unwrap();
        s.store::<u8>(p, 1).unwrap();
        let r = g.report();
        let sum: f64 = r.breakdown.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }

    #[test]
    fn empty_runtime_report_is_wellformed() {
        let g = gmac(GmacConfig::default());
        let r = g.report();
        assert!(r.objects.is_empty());
        assert_eq!(r.dirty_blocks, 0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn report_surfaces_service_fairness_accounting() {
        let g = gmac(GmacConfig::default());
        assert!(
            g.report().service.is_none(),
            "no service built yet: no section"
        );
        let svc = g.service();
        let t = svc
            .client(crate::Priority::High)
            .submit(2048, |s| {
                let b = s.alloc_typed::<u32>(64)?;
                b.write(0, 1)?;
                b.free()?;
                Ok(0)
            })
            .unwrap();
        t.wait().unwrap();
        let r = g.report();
        let snap = r.service.expect("live service appears in the report");
        assert_eq!(snap.completed(), 1);
        assert_eq!(snap.served_bytes(), 2048);
        assert_eq!(r.device_loads.len(), g.device_count());
        let text = r.to_string();
        assert!(text.contains("service: 1 submitted / 1 completed / 0 rejected"));
        assert!(text.contains("high"), "per-class row names the class");
        drop(svc);
        assert!(
            g.report().service.is_none(),
            "dropped service leaves no dangling section"
        );
    }

    #[test]
    fn eviction_rows_appear_only_under_pressure() {
        let g = gmac(GmacConfig::default().protocol(Protocol::Rolling));
        let s = g.session();
        let a = s.alloc(400 << 20).unwrap();
        let _b = s.alloc(400 << 20).unwrap();
        assert!(
            !g.report().to_string().contains("evict gpu"),
            "no pressure yet: eviction rows stay hidden"
        );
        let _d = s.alloc(400 << 20).unwrap(); // forces one eviction
        let r = g.report();
        let e = r.eviction_by_device[0];
        assert_eq!(e.evictions, 1);
        assert!(e.evicted_bytes >= 400 << 20);
        assert!(r.to_string().contains("evict gpu0: 1 out"));
        // A device-side op on the victim re-homes it (evicting another
        // object to make room) and the row reflects that too.
        s.memset(a, 0, 4096).unwrap();
        let r = g.report();
        assert_eq!(r.eviction_by_device[0].refetches, 1);
        assert!(r.to_string().contains("1 re-fetched"));
    }

    #[test]
    fn race_section_appears_only_with_the_detector_on() {
        let g = gmac(GmacConfig::default());
        assert!(g.report().race.is_none());
        assert!(!g.report().to_string().contains("races:"));

        let g = gmac(GmacConfig::default().race_check(true).race_report(true));
        let s = g.session();
        let p = s.alloc(4096).unwrap();
        s.store::<u32>(p, 1).unwrap();
        let r = g.report();
        let race = r.race.as_ref().expect("detector on: section present");
        assert!(race.report_mode);
        assert!(race.stats.writes_checked >= 1);
        assert_eq!(race.stats.violations, 0);
        let text = r.to_string();
        assert!(text.contains("races:"));
        assert!(text.contains("[sink]"));
    }

    #[test]
    fn report_names_the_table_walk_ablation_backend() {
        let g = gmac(GmacConfig::default().mmap_backing(false));
        let r = g.report();
        assert!(!r.mmap_backing);
        assert!(!r.backing_downgraded, "opting out is not a downgrade");
        assert!(r.to_string().contains("backing: table-walk"));
    }
}
