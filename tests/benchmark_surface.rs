//! Compile-time guard for the repo symbols the stand-alone benchmark
//! (`benchmark/`, its own workspace) references, as listed in
//! `benchmark/API_SURFACE.md`. The benchmark is not built by `cargo test`,
//! so a refactor that renames, hides or re-types one of these symbols would
//! otherwise only surface when the benchmark itself is built. Naming each
//! one here as a function item or a type moves that failure into tier 1.
//!
//! Only the three frozen signatures (`TransferPlan::new`,
//! `SharedObject::new`, the `AddressSpace` constructors) are pinned to a
//! full function-pointer type; everything else only has to keep resolving.

use adsm::gmac::manager::Manager;
use adsm::gmac::testutil::NopKernel;
use adsm::gmac::{
    BlockState, ClassSnapshot, Counters, Gmac, GmacConfig, GmacError, GmacResult, LoadBoard,
    LookupKind, ObjectId, Param, Priority, Protocol, Purpose, Report, Service, ServiceClient,
    ServiceSnapshot, Session, Shared, SharedObject, SharedPtr, Ticket, TransferPlan,
};
use adsm::hetsim::{
    Args, Category, CopyMode, DevAddr, DeviceId, DeviceMemory, Direction, GpuSpec, Kernel,
    KernelArg, KernelProfile, LaunchDims, Nanos, Platform, PlatformBuilder, SimFs, SimResult,
    StreamId, TimeLedger, TransferLedger, DEFAULT_DEVICE_BASE,
};
use adsm::softmmu::{
    AccessKind, AddressSpace, MmuResult, Protection, RegionId, Scalar, VAddr, PAGE_SIZE,
};
use adsm::workloads::stencil3d::Stencil3d;
use adsm::workloads::stream::StreamPipeline;
use adsm::workloads::vecadd::VecAdd;
use adsm::workloads::{parboil_suite_small, Workload};

fn scalar<T: Scalar>() {}

fn workload_methods<W: Workload>() {
    let _ = W::name;
    let _ = W::register_kernels;
    let _ = W::prepare;
    let _ = W::run_cuda;
    let _ = W::run_gmac;
}

#[test]
fn gmac_session_surface_resolves() {
    let _ = Gmac::new;
    let _ = Gmac::session;
    let _ = Gmac::session_on;
    let _ = Gmac::service;
    let _ = |g: &Gmac| g.with_platform(|p: &Platform| p.elapsed());
    let _ = Gmac::counters;
    let _ = Gmac::transfers;
    let _ = Gmac::ledger;
    let _ = Gmac::elapsed;
    let _ = Gmac::report;

    let _ = GmacConfig::default;
    let _ = GmacConfig::protocol;
    let _ = GmacConfig::block_size;
    let _ = GmacConfig::rolling_size;
    let _ = GmacConfig::mmap_reserve;
    let _: [Protocol; 3] = Protocol::ALL;
    let _ = Protocol::Rolling;
    let _ = <Protocol as std::fmt::Display>::fmt;

    let _ = Session::alloc;
    let _ = Session::safe_alloc;
    let _ = Session::alloc_typed::<f32>;
    let _ = Session::safe_alloc_typed::<f32>;
    let _ = Session::free;
    let _ = Session::call;
    let _ = Session::sync;
    let _ = Session::load::<f32>;
    let _ = Session::store::<f32>;
    let _ = Session::store_slice::<f32>;
    let _ = Session::memset;
    let _ = Session::memcpy_in;
    let _ = Session::memcpy_out;
    let _ = Session::memcpy;
    let _ = Session::read_file_to_shared;
    let _ = Session::write_shared_to_file;

    let _ = Shared::<f32>::read;
    let _ = Shared::<f32>::write;
    let _ = Shared::<f32>::read_slice;
    let _ = Shared::<f32>::write_slice;
    let _ = Shared::<f32>::element;
    let _ = |s: &Shared<f32>| Param::from(s);
    let _ = SharedPtr::byte_add;
    let _ = Param::U64;
    let _ = <Param as From<SharedPtr>>::from;
    let _: Option<GmacResult<()>> = None::<Result<(), GmacError>>;

    let _ = Service::client;
    let _ = Service::stats;
    let _ = Service::queue_high_water;
    let _ = |c: &ServiceClient| c.submit(0, |_: &Session| Ok(0));
    let _ = Ticket::wait;
    let _: [Priority; 3] = Priority::ALL;
    let _ = Priority::Normal;
    let _ = Priority::index;
    let _ = |s: &ServiceSnapshot| -> [ClassSnapshot; 3] { s.classes };
    let _ = |c: &ClassSnapshot| (c.completed, c.wait_ns, c.run_ns, c.rejected);
    let _ = |c: &Counters| {
        (
            c.faults_read,
            c.faults_write,
            c.blocks_fetched,
            c.blocks_flushed,
            c.bytes_fetched,
            c.eager_evictions,
            c.dma_wait_ns,
            c.jobs_overlapped,
            c.evictions,
        )
    };
    let _ = |r: &Report| (r.backing_downgraded, r.dma_queue_high_water);
}

#[test]
fn hetsim_surface_resolves() {
    let _ = Platform::desktop_g280;
    let _ = Platform::desktop_multi_gpu;
    let _ = Platform::builder;
    let _ = Platform::register_kernel;
    let _ = Platform::kernel;
    let _ = Platform::fs;
    let _ = Platform::fs_mut;
    let _ = Platform::elapsed;
    let _ = PlatformBuilder::add_device;
    let _ = PlatformBuilder::clear_devices;
    let _ = PlatformBuilder::build;
    let _ = GpuSpec::g280;
    let _: u64 = DEFAULT_DEVICE_BASE;
    let _ = SimFs::create;
    let _ = SimFs::read_at;

    let _ = <NopKernel as Kernel>::name;
    let _ = <NopKernel as Kernel>::execute;
    let _ = Args::ptr;
    let _ = Args::u64;
    let _ = KernelProfile::new;
    let _ = LaunchDims::for_elements;
    let _ = LaunchDims::linear;
    let _: Option<SimResult<()>> = None;
    let _ = DeviceMemory::read;
    let _ = DeviceMemory::write;
    let _ = DeviceMemory::slice_mut;
    let _ = DevAddr::add;
    let _ = DeviceId;

    let _ = [
        Category::Copy,
        Category::Gpu,
        Category::Cpu,
        Category::IoRead,
        Category::IoWrite,
        Category::Signal,
    ];
    let _ = TimeLedger::get;
    let _ = TimeLedger::total;
    let _ = Nanos::as_nanos;
    let _ = |t: &TransferLedger| {
        (
            t.h2d_count,
            t.d2h_count,
            t.h2d_blocks,
            t.d2h_blocks,
            t.h2d_planned,
            t.d2h_planned,
        )
    };
}

#[test]
fn softmmu_and_workloads_surface_resolves() {
    let _: u64 = PAGE_SIZE;
    scalar::<f32>();
    scalar::<u32>();

    let _ = parboil_suite_small;
    let _ = VecAdd::small;
    let _ = Stencil3d::small;
    let _ = StreamPipeline::small;
    workload_methods::<VecAdd>();
}

/// The couplings of `benchmark/src/probes.rs`, the deepest ones.
#[test]
fn probe_couplings_resolve() {
    let _: fn(u64) -> MmuResult<AddressSpace> = AddressSpace::new_mmap;
    let _: fn() -> AddressSpace = AddressSpace::new;
    let _ = AddressSpace::map_fixed;
    let _ = AddressSpace::unmap_region;
    let _ = AddressSpace::fast_base;
    let _ = AddressSpace::protect;
    let _ = AddressSpace::check;
    let _ = AddressSpace::load::<u32>;
    let _ = AddressSpace::write_bytes;
    let _ = AddressSpace::read_bytes;
    let _ = [Protection::ReadOnly, Protection::ReadWrite];
    let _ = AccessKind::Read;
    let _ = <VAddr as std::ops::Add<u64>>::add;
    let _ = RegionId;

    let _ = Platform::dev_alloc;
    let _ = Platform::dev_free;
    let _ = Platform::copy_h2d;
    let _ = Platform::copy_d2h;
    let _ = Platform::reserve_h2d;
    let _ = Platform::commit_h2d;
    let _ = Platform::launch;
    let _ = Platform::sync_stream;
    let _ = [CopyMode::Sync, CopyMode::Async];
    let _ = Direction::HostToDevice;
    let _ = KernelArg::Ptr;
    let _ = KernelArg::U64;
    let _ = StreamId;

    // `new`'s fourth argument (coalescing) is passed positionally.
    let _: fn(Direction, CopyMode, Purpose, bool) -> TransferPlan = TransferPlan::new;
    let _ = TransferPlan::request;
    let _ = TransferPlan::jobs;
    let _ = Purpose::Release;

    let _: fn(LookupKind) -> Manager = Manager::new;
    let _ = Manager::next_id;
    let _ = Manager::insert;
    let _ = Manager::locate;
    let _ = LookupKind::Tree;

    let _: fn(ObjectId, VAddr, u64, DeviceId, DevAddr, RegionId, u64, BlockState) -> SharedObject =
        SharedObject::new;
    let _ = ObjectId;
    let _ = BlockState::Dirty;

    let _ = LoadBoard::new;
    let _ = LoadBoard::place;
}
