//! Isolated probes: each calls one lower layer directly, on a private
//! instance, so a layer's own cost can be read without the layers above it.
//!
//! Every probe that reaches below the session API lives in this one file:
//! these are the benchmark's deepest couplings to the repo (see
//! `API_SURFACE.md`), and a rename down there should break one file only.
//! Probes run in the traced invocation only, are never gated, and take well
//! under a second together.

use crate::harness::{gmac_config, timer_floor_ns, Layer};
use crate::kernels::{Tiny, TINY};
use gmac::manager::Manager;
use gmac::{
    BlockState, Gmac, LoadBoard, LookupKind, ObjectId, Param, Protocol, Purpose, SharedObject,
    TransferPlan,
};
use hetsim::{
    CopyMode, DevAddr, DeviceId, Direction, GpuSpec, KernelArg, LaunchDims, Platform, StreamId,
    DEFAULT_DEVICE_BASE,
};
use softmmu::{AccessKind, AddressSpace, Protection, RegionId, VAddr};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const PAGE: u64 = 4096;

/// Mean ns of `f` over `iters` calls.
fn per_call_ns(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn softmmu(out: &mut Layer) {
    // The mmap backing when the host provides it, like the runtime.
    let mut vm = AddressSpace::new_mmap(1 << 30).unwrap_or_else(|_| AddressSpace::new());
    let base = VAddr(0x2_0000_0000);
    let len = 8u64 << 20;
    vm.map_fixed(base, len, Protection::ReadWrite)
        .expect("probe mapping");
    // Arm the range: only armed ranges mirror `protect` with real mprotect.
    black_box(vm.fast_base(base, len));
    let pages = len / PAGE;

    let flip = |i: u64| {
        if i.is_multiple_of(2) {
            Protection::ReadOnly
        } else {
            Protection::ReadWrite
        }
    };
    out.insert(
        "softmmu.protect_ns",
        per_call_ns(20_000, |i| {
            vm.protect(base + (i % pages) * PAGE, PAGE, flip(i / pages))
                .expect("protect");
        }),
    );
    let runs = pages / 64;
    out.insert(
        "softmmu.protect_run_ns",
        per_call_ns(2_000, |i| {
            vm.protect(base + (i % runs) * 64 * PAGE, 64 * PAGE, flip(i / runs))
                .expect("protect run");
        }),
    );
    vm.protect(base, len, Protection::ReadWrite)
        .expect("protect all");
    out.insert(
        "softmmu.check_ns",
        per_call_ns(200_000, |i| {
            vm.check(base + (i * 64) % len, 4, AccessKind::Read)
                .expect("check");
        }),
    );
    let mut sum = 0u64;
    out.insert(
        "softmmu.load_ns",
        per_call_ns(400_000, |i| {
            sum += vm.load::<u32>(base + (i * 4) % (64 * PAGE)).expect("load") as u64;
        }),
    );
    black_box(sum);

    let chunk = vec![0xa5u8; 4 << 20];
    let mut back = vec![0u8; 4 << 20];
    let ns = per_call_ns(8, |_| vm.write_bytes(base, &chunk).expect("write_bytes"));
    out.insert("softmmu.write_bytes_gbps", chunk.len() as f64 / ns);
    let ns = per_call_ns(8, |_| vm.read_bytes(base, &mut back).expect("read_bytes"));
    out.insert("softmmu.read_bytes_gbps", back.len() as f64 / ns);
    black_box(&back);

    // Inside the same 1 GiB chunk: the reservation holds exactly one.
    let small = base + (16u64 << 20);
    let ns = per_call_ns(2_000, |_| {
        let id = vm
            .map_fixed(small, 2 * PAGE, Protection::ReadWrite)
            .expect("map");
        vm.unmap_region(id).expect("unmap");
    });
    out.insert("softmmu.map_unmap_us", ns / 1e3);
}

fn hetsim(out: &mut Layer) {
    let p = Platform::desktop_g280();
    p.register_kernel(Arc::new(Tiny));
    let dev = DeviceId(0);
    let big = vec![0x3cu8; 4 << 20];
    let mut back = vec![0u8; 4 << 20];
    let buf = p.dev_alloc(dev, big.len() as u64).expect("dev_alloc");

    let ns = per_call_ns(8, |_| {
        p.copy_h2d(dev, buf, &big, CopyMode::Sync).expect("h2d");
    });
    out.insert("hetsim.copy_h2d_gbps", big.len() as f64 / ns);
    let ns = per_call_ns(8, |_| {
        p.copy_d2h(dev, buf, &mut back, CopyMode::Sync)
            .expect("d2h");
    });
    out.insert("hetsim.copy_d2h_gbps", back.len() as f64 / ns);
    black_box(&back);

    let block = &big[..PAGE as usize];
    out.insert(
        "hetsim.copy_small_ns",
        per_call_ns(20_000, |i| {
            let at = buf.add((i % 1024) * PAGE);
            p.copy_h2d(dev, at, block, CopyMode::Sync).expect("h2d 4k");
        }),
    );
    out.insert(
        "hetsim.reserve_commit_ns",
        per_call_ns(20_000, |i| {
            let at = buf.add((i % 1024) * PAGE);
            p.reserve_h2d(dev, at, PAGE, CopyMode::Async)
                .expect("reserve");
            p.commit_h2d(dev, at, block).expect("commit");
        }),
    );
    let args = [KernelArg::Ptr(buf), KernelArg::U64(1)];
    let ns = per_call_ns(20_000, |_| {
        p.launch(dev, StreamId(0), TINY, LaunchDims::linear(1, 1), &args)
            .expect("launch");
        p.sync_stream(dev, StreamId(0)).expect("sync");
    });
    out.insert("hetsim.launch_sync_us", ns / 1e3);
    out.insert(
        "hetsim.dev_alloc_free_ns",
        per_call_ns(20_000, |_| {
            let a = p.dev_alloc(dev, 2 * PAGE).expect("alloc");
            p.dev_free(dev, a).expect("free");
        }),
    );
}

/// A detached 4 MiB object of 4 KiB blocks, for the planner and manager.
fn probe_object(id: u64, addr: u64) -> SharedObject {
    SharedObject::new(
        ObjectId(id),
        VAddr(addr),
        4 << 20,
        DeviceId(0),
        DevAddr(addr),
        RegionId(id),
        PAGE,
        BlockState::Dirty,
    )
}

fn planner_and_manager(out: &mut Layer) {
    let obj = probe_object(1, DEFAULT_DEVICE_BASE);
    // Runs of 4 adjacent blocks with a gap after each: coalescing has
    // something to merge and something to keep apart.
    const RANGES: u64 = 512;
    let ns = per_call_ns(400, |_| {
        let mut plan = TransferPlan::new(
            Direction::HostToDevice,
            CopyMode::Async,
            Purpose::Release,
            true,
        );
        for r in 0..RANGES {
            plan.request(&obj, (r + r / 4) * PAGE, PAGE);
        }
        black_box(plan.jobs());
    });
    out.insert("core.xfer.plan_ns_per_range", ns / RANGES as f64);

    let mut mgr = Manager::new(LookupKind::Tree);
    const OBJECTS: u64 = 64;
    for i in 0..OBJECTS {
        let id = mgr.next_id();
        mgr.insert(probe_object(id.0, DEFAULT_DEVICE_BASE + i * (8 << 20)));
    }
    let mut hits = 0u64;
    out.insert(
        "core.manager.locate_ns",
        per_call_ns(400_000, |i| {
            let obj = (i * 37) % OBJECTS;
            let addr = DEFAULT_DEVICE_BASE + obj * (8 << 20) + (i * 4096) % (4 << 20);
            hits += mgr.locate(VAddr(addr)).is_some() as u64;
        }),
    );
    black_box(hits);

    let board = LoadBoard::new(2);
    let mut picks = 0usize;
    out.insert(
        "core.service.place_ns",
        per_call_ns(400_000, |_| picks += board.place(None).0),
    );
    black_box(picks);
}

/// Host cost per DMA job through the background engine: dirty 256
/// non-adjacent 4 KiB blocks, then let a call flush and join them.
fn engine(out: &mut Layer) {
    let platform = Platform::desktop_g280();
    platform.register_kernel(Arc::new(Tiny));
    // A rolling size larger than the object keeps every dirty block until
    // the call, so all 256 jobs go through the engine in one release.
    let config = gmac_config()
        .protocol(Protocol::Rolling)
        .block_size(PAGE)
        .rolling_size(1 << 20);
    let gmac = Gmac::new(platform, config);
    let s = gmac.session();
    let buf = s.alloc_typed::<u32>(1 << 20).expect("alloc");
    buf.write_slice(&vec![0u32; 1 << 20]).expect("fill");
    let call = |tag: u64| {
        s.call(
            TINY,
            LaunchDims::linear(1, 1),
            &[Param::from(&buf), Param::U64(tag)],
        )
        .expect("call");
        s.sync().expect("sync");
    };
    call(0);
    const DIRTY: usize = 256;
    let (mut ns, mut jobs) = (0u64, 0u64);
    for round in 0..8u64 {
        for b in 0..DIRTY {
            buf.write(b * 2 * 1024, round as u32)
                .expect("dirty a block");
        }
        let before = gmac.transfers().h2d_count;
        let t = Instant::now();
        call(round + 1);
        ns += t.elapsed().as_nanos() as u64;
        jobs += gmac.transfers().h2d_count - before;
    }
    out.insert(
        "core.xfer.engine_job_us",
        ns as f64 / jobs.max(1) as f64 / 1e3,
    );
}

/// A 2× oversubscribed alloc/call cycle on a private 32 MiB device. No
/// end-to-end workload evicts (a stated gap), so eviction is only seen here.
fn evict(out: &mut Layer) {
    let platform = Platform::builder()
        .clear_devices()
        .add_device(GpuSpec::g280(), 32 << 20, DEFAULT_DEVICE_BASE)
        .build();
    platform.register_kernel(Arc::new(Tiny));
    let gmac = Gmac::new(platform, gmac_config());
    let s = gmac.session();
    const OBJECT_WORDS: usize = 4 << 20; // 16 MiB each, four of them
    let data = vec![7u32; OBJECT_WORDS];
    let mut bufs = Vec::new();
    for _ in 0..4 {
        let b = s
            .safe_alloc_typed::<u32>(OBJECT_WORDS)
            .expect("oversubscribed alloc");
        b.write_slice(&data).expect("fill");
        bufs.push(b);
    }
    let before = gmac.counters().evictions;
    const CYCLES: u64 = 3;
    let t = Instant::now();
    for cycle in 0..CYCLES {
        for b in &bufs {
            s.call(
                TINY,
                LaunchDims::linear(1, 1),
                &[Param::from(b), Param::U64(cycle)],
            )
            .expect("call");
            s.sync().expect("sync");
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    out.insert("core.evict.evict_refetch_ms", ms / CYCLES as f64);
    out.insert(
        "core.evict.evictions",
        (gmac.counters().evictions - before) as f64 / CYCLES as f64,
    );
}

/// Runs every probe once.
pub fn run_all() -> Layer {
    let mut out = Layer::new();
    softmmu(&mut out);
    hetsim(&mut out);
    planner_and_manager(&mut out);
    engine(&mut out);
    evict(&mut out);
    out.insert("bench.timer_floor_ns", timer_floor_ns());
    out
}
