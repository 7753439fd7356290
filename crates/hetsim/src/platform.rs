//! The simulated heterogeneous platform: host CPU + accelerators + links +
//! disk + virtual clock + accounting, corresponding to the paper's reference
//! architecture (Figure 1: CPUs and accelerators with separate physical
//! memories joined by a PCIe-class interconnect).
//!
//! # Locking architecture
//!
//! The platform is internally sharded so that host threads driving
//! *different accelerators* never serialise on a platform-wide lock:
//!
//! * the virtual [`Clock`] is lock-free (atomic add / atomic max), so every
//!   charge still corresponds exactly to the clock movement it caused;
//! * each [`Device`] (memory, DMA engines, execution engine, streams) sits
//!   behind its **own** mutex — a kernel executing on `gpu0` holds only
//!   `gpu0`'s lock while `gpu1` copies data concurrently;
//! * the [`TimeLedger`], [`TransferLedger`] and disk/filesystem are leaf
//!   mutexes with tiny critical sections;
//! * the kernel registry is a read-mostly `RwLock`.
//!
//! **Lock order:** a device mutex may be held while touching the clock or a
//! ledger (leaf locks); leaf locks are never held while acquiring a device;
//! two device mutexes are never held at once. All methods take `&self`, so
//! the platform is `Send + Sync` and can be shared (e.g. in an `Arc`) by the
//! per-device shards of the GMAC runtime.
//!
//! For background transfer engines the H2D copy path is additionally split
//! into [`Platform::reserve_h2d`] (all virtual-time charging, called at
//! issue) and [`Platform::commit_h2d`] (the wall-clock byte landing, called
//! later from a worker thread). Both halves take only the device mutex and
//! leaf locks, so workers never need any caller-side lock.

use crate::bandwidth::{BytesPerSec, LinkModel};
use crate::device::{Device, DeviceId, GpuSpec, StreamId};
use crate::devmem::DevAddr;
use crate::disk::{Disk, SimFs};
use crate::engine::Reservation;
use crate::error::{SimError, SimResult};
use crate::kernel::{Args, Kernel, KernelArg, LaunchDims};
use crate::stats::{Category, Direction, TimeLedger, TransferLedger};
use crate::time::{Clock, Nanos, TimePoint};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Host CPU specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// CPU model name.
    pub name: &'static str,
    /// Sustained scalar/SSE throughput, FLOP/s (single thread).
    pub flops: f64,
    /// Sustained memory streaming bandwidth (initialisation/traversal).
    pub touch_bw: BytesPerSec,
    /// Cost of delivering one protection fault to user space (the paper's
    /// `SIGSEGV`-to-handler path).
    pub signal_cost: Nanos,
}

impl CpuSpec {
    /// AMD Dual-core Opteron 2222 at 3 GHz — the paper's host CPU (§5).
    pub fn opteron_2222() -> Self {
        CpuSpec {
            name: "AMD Opteron 2222",
            flops: 6e9,
            touch_bw: BytesPerSec::from_gbps(4.0),
            signal_cost: Nanos::from_micros(1),
        }
    }

    /// Time for the CPU to perform `flops` operations over `bytes` of memory
    /// (roofline).
    pub fn compute_time(&self, flops: f64, bytes: f64) -> Nanos {
        let c = flops.max(0.0) / self.flops;
        let m = bytes.max(0.0) / self.touch_bw.as_bps();
        Nanos::from_secs_f64(c.max(m))
    }

    /// [`Self::compute_time`] specialised to pure memory traffic. For
    /// non-negative `bytes` the roofline's compute leg is exactly `0.0` and
    /// `0.0f64.max(m) == m`, so this is bit-identical to
    /// `compute_time(0.0, bytes)` while skipping a division on the
    /// element-wise access hot path.
    pub fn touch_time(&self, bytes: f64) -> Nanos {
        Nanos::from_secs_f64(bytes.max(0.0) / self.touch_bw.as_bps())
    }
}

/// Whether a platform data transfer blocks the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyMode {
    /// Host blocks until the transfer completes.
    Sync,
    /// Host continues; the caller receives the completion time.
    Async,
}

/// Default base address of device memory windows.
///
/// Mirrors the paper's observation (§4.2) that `cudaMalloc` returns ranges
/// outside the ELF program sections, which is what lets GMAC `mmap` system
/// memory at the *same* virtual addresses. All devices share this base, so a
/// multi-accelerator platform produces the overlapping ranges that force the
/// `adsmSafeAlloc` fallback.
pub const DEFAULT_DEVICE_BASE: u64 = 0x2_0000_0000;

/// Disk + simulated filesystem behind one mutex (the disk is a single
/// physical resource; contention on it is contention in the modelled system
/// too).
#[derive(Debug)]
struct IoSubsys {
    disk: Disk,
    fs: SimFs,
}

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Guard giving (mutable) access to one [`Device`]. Holding it keeps only
/// that device's mutex — other devices, the clock and the ledgers stay free.
#[derive(Debug)]
pub struct DeviceRef<'a>(MutexGuard<'a, Device>);

impl Deref for DeviceRef<'_> {
    type Target = Device;
    fn deref(&self) -> &Device {
        &self.0
    }
}

impl DerefMut for DeviceRef<'_> {
    fn deref_mut(&mut self) -> &mut Device {
        &mut self.0
    }
}

/// Guard giving access to the transfer ledger.
#[derive(Debug)]
pub struct TransfersRef<'a>(MutexGuard<'a, TransferLedger>);

impl Deref for TransfersRef<'_> {
    type Target = TransferLedger;
    fn deref(&self) -> &TransferLedger {
        &self.0
    }
}

impl DerefMut for TransfersRef<'_> {
    fn deref_mut(&mut self) -> &mut TransferLedger {
        &mut self.0
    }
}

/// Guard giving access to the simulated filesystem.
#[derive(Debug)]
pub struct FsRef<'a>(MutexGuard<'a, IoSubsys>);

impl Deref for FsRef<'_> {
    type Target = SimFs;
    fn deref(&self) -> &SimFs {
        &self.0.fs
    }
}

impl DerefMut for FsRef<'_> {
    fn deref_mut(&mut self) -> &mut SimFs {
        &mut self.0.fs
    }
}

/// The simulated platform.
pub struct Platform {
    clock: Clock,
    cpu: CpuSpec,
    devices: Vec<Mutex<Device>>,
    io: Mutex<IoSubsys>,
    ledger: crate::stats::AtomicTimeLedger,
    transfers: Mutex<TransferLedger>,
    kernels: RwLock<HashMap<String, Arc<dyn Kernel>>>,
    /// Armed fault-injection plan (`None` in production — one relaxed-path
    /// mutex probe per interceptable op). See [`crate::faults`].
    faults: Mutex<Option<crate::faults::FaultPlan>>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("now", &self.clock.now())
            .field("cpu", &self.cpu.name)
            .field("devices", &self.devices.len())
            .field(
                "kernels",
                &self
                    .kernels
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len(),
            )
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Starts building a custom platform.
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::new()
    }

    /// The paper's experimental machine (§5): dual Opteron 2222 host, one
    /// NVIDIA G280 with 1 GiB of device memory on PCIe 2.0 x16, SATA disk.
    pub fn desktop_g280() -> Self {
        Self::builder().build()
    }

    /// A low-cost system where the CPU and a weaker accelerator share one
    /// memory controller (paper §3.1: Intel GMA / AMD Fusion class). The
    /// same application code runs unchanged; "transfers" cross shared DRAM
    /// instead of PCIe — the data-centric model's architecture-independence
    /// benefit.
    pub fn fused_apu() -> Self {
        let spec = GpuSpec {
            name: "Integrated GPU",
            flops: 120e9,
            mem_bw: BytesPerSec::from_gbps(6.4),
            ..GpuSpec::g280()
        };
        Self::builder()
            .clear_devices()
            .add_device_with_links(
                spec,
                512 << 20,
                DEFAULT_DEVICE_BASE,
                LinkModel::integrated_shared_memory(),
                LinkModel::integrated_shared_memory(),
            )
            .build()
    }

    /// Like [`Self::desktop_g280`] but with `n` G280 devices whose memory
    /// windows *overlap* (same base address), as happens with multiple GPUs
    /// in the paper's §4.2 discussion.
    pub fn desktop_multi_gpu(n: usize) -> Self {
        let mut b = Self::builder();
        for _ in 1..n {
            b = b.add_device(GpuSpec::g280(), 1 << 30, DEFAULT_DEVICE_BASE);
        }
        b.build()
    }

    // ----- time ------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> TimePoint {
        self.clock.now()
    }

    /// Virtual time elapsed since simulation start.
    pub fn elapsed(&self) -> Nanos {
        self.now().since(TimePoint::ZERO)
    }

    /// Advances the clock by `dur`, charging it to `cat`.
    pub fn spend(&self, cat: Category, dur: Nanos) {
        self.clock.advance(dur);
        self.ledger.charge(cat, dur);
    }

    /// Blocks the host until `t`, charging the waited time to `cat`.
    ///
    /// With concurrent shards the clock may already have moved past `t`
    /// (another device's thread advanced it); exactly the movement *this*
    /// call caused is charged, so the ledger always partitions elapsed time.
    pub fn wait_for(&self, t: TimePoint, cat: Category) {
        let waited = self.clock.wait_until(t);
        if !waited.is_zero() {
            self.ledger.charge(cat, waited);
        }
    }

    /// Charges application CPU compute: a roofline over `flops` and `bytes`.
    pub fn cpu_compute(&self, flops: f64, bytes: f64) {
        let dur = self.cpu.compute_time(flops, bytes);
        self.spend(Category::Cpu, dur);
    }

    /// Charges the CPU for streaming over `bytes` of memory.
    pub fn cpu_touch(&self, bytes: u64) {
        let dur = self.cpu.touch_time(bytes as f64);
        self.spend(Category::Cpu, dur);
    }

    // ----- introspection ----------------------------------------------------

    /// Host CPU specification.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }

    /// Number of accelerators.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn lock_device(&self, id: DeviceId) -> SimResult<MutexGuard<'_, Device>> {
        self.devices
            .get(id.0)
            .map(lock_ok)
            .ok_or(SimError::NoSuchDevice(id.0))
    }

    /// Accelerator by id (a guard holding that device's mutex).
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for out-of-range ids.
    pub fn device(&self, id: DeviceId) -> SimResult<DeviceRef<'_>> {
        Ok(DeviceRef(self.lock_device(id)?))
    }

    /// Accelerator by id, mutable (same guard as [`Self::device`]).
    ///
    /// # Errors
    /// [`SimError::NoSuchDevice`] for out-of-range ids.
    pub fn device_mut(&self, id: DeviceId) -> SimResult<DeviceRef<'_>> {
        Ok(DeviceRef(self.lock_device(id)?))
    }

    /// Execution-time ledger (Figure 10 categories).
    pub fn ledger(&self) -> TimeLedger {
        self.ledger.snapshot()
    }

    /// Transfer ledger (Figure 8 input).
    pub fn transfers(&self) -> TransfersRef<'_> {
        TransfersRef(lock_ok(&self.transfers))
    }

    /// Transfer ledger, mutable (the transfer planner attributes coalesced
    /// block counts to the jobs it issues).
    pub fn transfers_mut(&self) -> TransfersRef<'_> {
        TransfersRef(lock_ok(&self.transfers))
    }

    /// Simulated filesystem (for preparing workload inputs without charging
    /// simulated time).
    pub fn fs(&self) -> FsRef<'_> {
        FsRef(lock_ok(&self.io))
    }

    /// Simulated filesystem, mutable.
    pub fn fs_mut(&self) -> FsRef<'_> {
        FsRef(lock_ok(&self.io))
    }

    // ----- kernels ----------------------------------------------------------

    /// Registers a kernel for launching by name.
    pub fn register_kernel(&self, kernel: Arc<dyn Kernel>) {
        self.kernels
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(kernel.name().to_string(), kernel);
    }

    /// Looks up a registered kernel.
    ///
    /// # Errors
    /// [`SimError::UnknownKernel`] when not registered.
    pub fn kernel(&self, name: &str) -> SimResult<Arc<dyn Kernel>> {
        self.kernels
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| SimError::UnknownKernel(name.to_string()))
    }

    /// Launches a registered kernel on `stream` of `dev`. Returns the kernel
    /// completion time; the host only pays the launch cost.
    ///
    /// # Errors
    /// Fails for unknown devices/kernels/streams or kernel-side errors.
    pub fn launch(
        &self,
        dev: DeviceId,
        stream: StreamId,
        kernel_name: &str,
        dims: LaunchDims,
        args: &[KernelArg],
    ) -> SimResult<TimePoint> {
        let kernel = self.kernel(kernel_name)?;
        self.launch_direct(dev, stream, kernel.as_ref(), dims, args)
    }

    /// Launches a kernel object directly (no registry lookup).
    ///
    /// The kernel body executes under the target device's mutex only, so
    /// kernels on different accelerators run concurrently in wall-clock
    /// terms.
    ///
    /// # Errors
    /// Fails for unknown devices/streams or kernel-side errors.
    pub fn launch_direct(
        &self,
        dev: DeviceId,
        stream: StreamId,
        kernel: &dyn Kernel,
        dims: LaunchDims,
        args: &[KernelArg],
    ) -> SimResult<TimePoint> {
        let launch_cost = self.lock_device(dev)?.spec().launch_cost;
        self.spend(Category::CudaLaunch, launch_cost);
        let now = self.now();
        let mut device = self.lock_device(dev)?;
        let profile = kernel.execute(device.mem_mut(), dims, Args::new(args))?;
        let ktime = device.spec().kernel_time(profile);
        let after = device.stream_horizon(stream)?;
        let r = device.exec_engine_mut().reserve_after(now, after, ktime);
        device.set_stream_horizon(stream, r.end)?;
        Ok(r.end)
    }

    /// Blocks until all work on `stream` of `dev` has finished; waiting time
    /// is charged to the `Gpu` category.
    ///
    /// # Errors
    /// Fails for unknown devices or streams.
    pub fn sync_stream(&self, dev: DeviceId, stream: StreamId) -> SimResult<()> {
        let sync_cost = self.lock_device(dev)?.spec().sync_cost;
        self.spend(Category::Sync, sync_cost);
        let horizon = self.lock_device(dev)?.stream_horizon(stream)?;
        self.wait_for(horizon, Category::Gpu);
        Ok(())
    }

    /// Blocks until the device is fully quiescent (all streams, all DMA).
    ///
    /// # Errors
    /// Fails for unknown devices.
    pub fn sync_device(&self, dev: DeviceId) -> SimResult<()> {
        let sync_cost = self.lock_device(dev)?.spec().sync_cost;
        self.spend(Category::Sync, sync_cost);
        let horizon = self.lock_device(dev)?.quiescent_at();
        self.wait_for(horizon, Category::Gpu);
        Ok(())
    }

    // ----- fault injection ---------------------------------------------------

    /// Arms `plan`'s failpoints: subsequent [`Self::dev_alloc`],
    /// [`Self::reserve_h2d`] and [`Self::commit_h2d`] calls consult it,
    /// with per-op call counters starting at zero. Replaces any previously
    /// armed plan. See [`FaultPlan`](crate::FaultPlan) for the determinism
    /// contract.
    pub fn arm_faults(&self, plan: crate::faults::FaultPlan) {
        *lock_ok(&self.faults) = Some(plan);
    }

    /// Disarms fault injection. Subsequent operations run normally.
    pub fn disarm_faults(&self) {
        *lock_ok(&self.faults) = None;
    }

    /// Failpoint probe, consulted at the top of each interceptable
    /// operation — before any time charge or state change, so an injected
    /// failure is a clean early error.
    fn check_fault(&self, op: crate::faults::FaultOp, dev: DeviceId) -> SimResult<()> {
        if let Some(plan) = lock_ok(&self.faults).as_mut() {
            if let Some(nth) = plan.should_fail(op) {
                return Err(SimError::FaultInjected {
                    op,
                    device: dev.0,
                    nth,
                });
            }
        }
        Ok(())
    }

    // ----- device memory ----------------------------------------------------

    /// Allocates device memory, charging the accelerator-API cost.
    ///
    /// # Errors
    /// Fails for unknown devices or when device memory is exhausted; an
    /// armed [`crate::FaultPlan`] may inject
    /// [`SimError::FaultInjected`] before any charge.
    pub fn dev_alloc(&self, dev: DeviceId, size: u64) -> SimResult<DevAddr> {
        self.check_fault(crate::faults::FaultOp::DevAlloc, dev)?;
        let mut device = self.lock_device(dev)?;
        let cost = device.spec().malloc_cost;
        self.spend(Category::CudaMalloc, cost);
        device.mem_mut().alloc(size)
    }

    /// Frees device memory, charging the accelerator-API cost.
    ///
    /// # Errors
    /// Fails for unknown devices or non-allocation addresses.
    pub fn dev_free(&self, dev: DeviceId, addr: DevAddr) -> SimResult<()> {
        let mut device = self.lock_device(dev)?;
        let cost = device.spec().free_cost;
        self.spend(Category::CudaFree, cost);
        device.mem_mut().free(addr)
    }

    // ----- transfers ---------------------------------------------------------

    /// Copies `src` into device memory at `dst`. Returns the transfer
    /// completion time. Synchronous copies block and charge `Copy`.
    ///
    /// # Errors
    /// Fails for unknown devices or out-of-bounds destination ranges.
    pub fn copy_h2d(
        &self,
        dev: DeviceId,
        dst: DevAddr,
        src: &[u8],
        mode: CopyMode,
    ) -> SimResult<TimePoint> {
        let now = self.now();
        let r: Reservation = {
            let mut device = self.lock_device(dev)?;
            let t = device.link_h2d().transfer_time(src.len() as u64);
            device.mem_mut().write(dst, src)?;
            device.h2d_engine_mut().reserve(now, t)
        };
        lock_ok(&self.transfers).record(Direction::HostToDevice, src.len() as u64);
        if mode == CopyMode::Sync {
            self.wait_for(r.end, Category::Copy);
        }
        Ok(r.end)
    }

    /// First half of [`Self::copy_h2d`], split out for background transfer
    /// engines: validates the destination range, reserves the H2D DMA
    /// timeline, records the job in the transfer ledger and — for
    /// [`CopyMode::Sync`] — charges the virtual wait, exactly as `copy_h2d`
    /// does. The *only* thing it does not do is land the bytes in device
    /// memory; the caller must follow up with [`Self::commit_h2d`] carrying
    /// the same byte count before anything reads the destination range.
    ///
    /// Splitting reservation from commit lets a worker thread perform the
    /// wall-clock memory write later without perturbing virtual time: all
    /// clock and ledger charges happen here, at issue, so a run using the
    /// split is byte-identical in virtual time to one using `copy_h2d`.
    ///
    /// # Errors
    /// Fails for unknown devices or out-of-bounds destination ranges.
    pub fn reserve_h2d(
        &self,
        dev: DeviceId,
        dst: DevAddr,
        len: u64,
        mode: CopyMode,
    ) -> SimResult<TimePoint> {
        self.check_fault(crate::faults::FaultOp::ReserveH2d, dev)?;
        let now = self.now();
        let r: Reservation = {
            let mut device = self.lock_device(dev)?;
            device.mem().slice(dst, len)?; // surface bounds errors at issue, not in the worker
            let t = device.link_h2d().transfer_time(len);
            device.h2d_engine_mut().reserve(now, t)
        };
        lock_ok(&self.transfers).record(Direction::HostToDevice, len);
        if mode == CopyMode::Sync {
            self.wait_for(r.end, Category::Copy);
        }
        Ok(r.end)
    }

    /// Second half of the [`Self::reserve_h2d`] split: lands `src` at `dst`
    /// in device memory with **no** virtual-time side effects (the
    /// reservation already paid for the transfer). Takes only the device
    /// mutex, so it is safe to call from a background worker thread that
    /// holds no caller-side locks.
    ///
    /// # Errors
    /// Fails for unknown devices or out-of-bounds destination ranges.
    pub fn commit_h2d(&self, dev: DeviceId, dst: DevAddr, src: &[u8]) -> SimResult<()> {
        self.check_fault(crate::faults::FaultOp::CommitH2d, dev)?;
        self.lock_device(dev)?.mem_mut().write(dst, src)
    }

    /// Copies device memory at `src` into `out`. Returns the transfer
    /// completion time. Synchronous copies block and charge `Copy`.
    ///
    /// # Errors
    /// Fails for unknown devices or out-of-bounds source ranges.
    pub fn copy_d2h(
        &self,
        dev: DeviceId,
        src: DevAddr,
        out: &mut [u8],
        mode: CopyMode,
    ) -> SimResult<TimePoint> {
        let now = self.now();
        let r = {
            let mut device = self.lock_device(dev)?;
            let t = device.link_d2h().transfer_time(out.len() as u64);
            device.mem().read(src, out)?;
            device.d2h_engine_mut().reserve(now, t)
        };
        lock_ok(&self.transfers).record(Direction::DeviceToHost, out.len() as u64);
        if mode == CopyMode::Sync {
            self.wait_for(r.end, Category::Copy);
        }
        Ok(r.end)
    }

    /// Blocks the host until the DMA engine of `dir` on `dev` has drained,
    /// charging the waited time to `Copy`. This is the explicit join point
    /// asynchronous transfer plans synchronise on.
    ///
    /// # Errors
    /// Fails for unknown devices.
    pub fn join_dma(&self, dev: DeviceId, dir: Direction) -> SimResult<()> {
        let horizon = self.lock_device(dev)?.dma_engine(dir).busy_until();
        self.wait_for(horizon, Category::Copy);
        Ok(())
    }

    /// Device-side memset (`cudaMemset` equivalent): fills `len` bytes at
    /// `addr` using the device's own memory bandwidth.
    ///
    /// # Errors
    /// Fails for unknown devices or out-of-bounds ranges.
    pub fn dev_memset(&self, dev: DeviceId, addr: DevAddr, value: u8, len: u64) -> SimResult<()> {
        let now = self.now();
        let r = {
            let mut device = self.lock_device(dev)?;
            device.mem_mut().fill(addr, value, len)?;
            let t = device.spec().kernel_overhead
                + Nanos::from_secs_f64(len as f64 / device.spec().mem_bw.as_bps());
            device.exec_engine_mut().reserve(now, t)
        };
        self.wait_for(r.end, Category::Copy);
        Ok(())
    }

    // ----- disk ---------------------------------------------------------------

    /// Reads from a simulated file, blocking for the modelled disk time
    /// (charged to `IoRead`). Returns bytes read.
    ///
    /// # Errors
    /// [`SimError::FileNotFound`] when the file does not exist.
    pub fn file_read(&self, name: &str, offset: u64, out: &mut [u8]) -> SimResult<usize> {
        let now = self.now();
        let (n, r) = {
            let mut io = lock_ok(&self.io);
            let n = io.fs.read_at(name, offset, out)?;
            let t = io.disk.read_time(n as u64);
            let r = io.disk.engine_mut().reserve(now, t);
            (n, r)
        };
        self.wait_for(r.end, Category::IoRead);
        Ok(n)
    }

    /// Writes to a simulated file, blocking for the modelled disk time
    /// (charged to `IoWrite`). Returns bytes written.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn file_write(&self, name: &str, offset: u64, src: &[u8]) -> SimResult<usize> {
        let now = self.now();
        let (n, r) = {
            let mut io = lock_ok(&self.io);
            let n = io.fs.write_at(name, offset, src)?;
            let t = io.disk.write_time(n as u64);
            let r = io.disk.engine_mut().reserve(now, t);
            (n, r)
        };
        self.wait_for(r.end, Category::IoWrite);
        Ok(n)
    }
}

/// Builds a [`Platform`].
#[derive(Debug)]
pub struct PlatformBuilder {
    cpu: CpuSpec,
    disk: Disk,
    devices: Vec<(GpuSpec, u64, u64, LinkModel, LinkModel)>,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlatformBuilder {
    /// Starts from the paper's machine: Opteron host, one G280 (1 GiB),
    /// PCIe 2.0 x16, SATA disk.
    pub fn new() -> Self {
        PlatformBuilder {
            cpu: CpuSpec::opteron_2222(),
            disk: Disk::sata_7200(),
            devices: vec![(
                GpuSpec::g280(),
                1 << 30,
                DEFAULT_DEVICE_BASE,
                LinkModel::pcie2_x16_h2d(),
                LinkModel::pcie2_x16_d2h(),
            )],
        }
    }

    /// Replaces the host CPU model.
    pub fn cpu(mut self, cpu: CpuSpec) -> Self {
        self.cpu = cpu;
        self
    }

    /// Replaces the disk model.
    pub fn disk(mut self, disk: Disk) -> Self {
        self.disk = disk;
        self
    }

    /// Adds an accelerator with `mem_size` bytes of memory based at `base`,
    /// attached via PCIe 2.0 x16.
    pub fn add_device(self, spec: GpuSpec, mem_size: u64, base: u64) -> Self {
        self.add_device_with_links(
            spec,
            mem_size,
            base,
            LinkModel::pcie2_x16_h2d(),
            LinkModel::pcie2_x16_d2h(),
        )
    }

    /// Adds an accelerator with explicit host↔device link models (e.g. the
    /// integrated shared-memory case).
    pub fn add_device_with_links(
        mut self,
        spec: GpuSpec,
        mem_size: u64,
        base: u64,
        link_h2d: LinkModel,
        link_d2h: LinkModel,
    ) -> Self {
        self.devices
            .push((spec, mem_size, base, link_h2d, link_d2h));
        self
    }

    /// Removes all accelerators (to build a fully custom device list).
    pub fn clear_devices(mut self) -> Self {
        self.devices.clear();
        self
    }

    /// Finalises the platform.
    ///
    /// # Panics
    /// Panics if no accelerator was configured.
    pub fn build(self) -> Platform {
        assert!(
            !self.devices.is_empty(),
            "platform needs at least one accelerator"
        );
        let devices = self
            .devices
            .into_iter()
            .enumerate()
            .map(|(i, (spec, size, base, h2d, d2h))| {
                Mutex::new(Device::new(DeviceId(i), spec, base, size, h2d, d2h))
            })
            .collect();
        Platform {
            clock: Clock::new(),
            cpu: self.cpu,
            devices,
            io: Mutex::new(IoSubsys {
                disk: self.disk,
                fs: SimFs::new(),
            }),
            ledger: crate::stats::AtomicTimeLedger::default(),
            transfers: Mutex::new(TransferLedger::new()),
            kernels: RwLock::new(HashMap::new()),
            faults: Mutex::new(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devmem::DeviceMemory;
    use crate::kernel::KernelProfile;

    const DEV: DeviceId = DeviceId(0);

    struct NullKernel;
    impl Kernel for NullKernel {
        fn name(&self) -> &str {
            "null"
        }
        fn execute(
            &self,
            _mem: &mut DeviceMemory,
            dims: LaunchDims,
            _args: Args<'_>,
        ) -> SimResult<KernelProfile> {
            // 10 flops per thread, no memory traffic.
            Ok(KernelProfile::new(dims.total_threads() as f64 * 10.0, 0.0))
        }
    }

    #[test]
    fn platform_is_send_and_sync() {
        // The GMAC runtime shares one Platform across per-device shards
        // behind an `Arc`; every method takes `&self` over interior locks,
        // so the whole platform must be `Send + Sync`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Platform>();
    }

    #[test]
    fn desktop_platform_shape() {
        let p = Platform::desktop_g280();
        assert_eq!(p.device_count(), 1);
        assert_eq!(p.device(DEV).unwrap().mem().capacity(), 1 << 30);
        assert!(p.device(DeviceId(9)).is_err());
        assert_eq!(p.elapsed(), Nanos::ZERO);
    }

    #[test]
    fn multi_gpu_windows_overlap() {
        let p = Platform::desktop_multi_gpu(2);
        assert_eq!(p.device_count(), 2);
        assert_eq!(
            p.device(DeviceId(0)).unwrap().mem().base(),
            p.device(DeviceId(1)).unwrap().mem().base(),
            "multiple devices expose overlapping ranges (forces safe-alloc)"
        );
    }

    #[test]
    fn sync_copy_blocks_and_charges_copy() {
        let p = Platform::desktop_g280();
        let a = p.dev_alloc(DEV, 1 << 20).unwrap();
        let t0 = p.now();
        p.copy_h2d(DEV, a, &vec![7u8; 1 << 20], CopyMode::Sync)
            .unwrap();
        assert!(p.now() > t0);
        assert!(p.ledger().get(Category::Copy) > Nanos::ZERO);
        assert_eq!(p.transfers().h2d_bytes, 1 << 20);
        let mut out = vec![0u8; 1 << 20];
        p.copy_d2h(DEV, a, &mut out, CopyMode::Sync).unwrap();
        assert!(out.iter().all(|&b| b == 7));
        assert_eq!(p.transfers().d2h_bytes, 1 << 20);
    }

    #[test]
    fn reserve_commit_split_matches_copy_h2d() {
        // Two identical platforms: one uses the monolithic copy, the other
        // the reserve/commit split a background worker would use. Virtual
        // time, ledgers and final device bytes must be indistinguishable.
        let mono = Platform::desktop_g280();
        let split = Platform::desktop_g280();
        let src = vec![9u8; 1 << 20];
        let a = mono.dev_alloc(DEV, 1 << 20).unwrap();
        let b = split.dev_alloc(DEV, 1 << 20).unwrap();
        let t1 = mono.copy_h2d(DEV, a, &src, CopyMode::Sync).unwrap();
        let t2 = split.reserve_h2d(DEV, b, 1 << 20, CopyMode::Sync).unwrap();
        split.commit_h2d(DEV, b, &src).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(mono.now(), split.now());
        for cat in Category::ALL {
            assert_eq!(mono.ledger().get(cat), split.ledger().get(cat), "{cat:?}");
        }
        assert_eq!(*mono.transfers(), *split.transfers());
        let mut out = vec![0u8; 1 << 20];
        split.device(DEV).unwrap().mem().read(b, &mut out).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn reserve_h2d_surfaces_bounds_errors_at_issue() {
        let p = Platform::desktop_g280();
        let (base, cap) = {
            let d = p.device(DEV).unwrap();
            (d.mem().base(), d.mem().capacity())
        };
        // A range running off the end of the memory window: the reservation
        // (not the later commit) reports the overrun, so a worker thread
        // never sees it.
        let tail = base.add(cap - 16);
        assert!(p.reserve_h2d(DEV, tail, 4096, CopyMode::Async).is_err());
        assert!(p.commit_h2d(DEV, tail, &[0u8; 4096]).is_err());
    }

    #[test]
    fn async_copy_does_not_block() {
        let p = Platform::desktop_g280();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        let before = p.now();
        let done = p.copy_h2d(DEV, a, &[1u8; 4096], CopyMode::Async).unwrap();
        assert_eq!(p.now(), before, "async copy returns immediately");
        assert!(done > before);
        // Waiting later charges the chosen category.
        p.wait_for(done, Category::Copy);
        assert_eq!(p.now(), done);
    }

    #[test]
    fn overlapping_async_copies_pipeline_on_the_engine() {
        let p = Platform::desktop_g280();
        let a = p.dev_alloc(DEV, 64 << 10).unwrap();
        let buf = vec![0u8; 32 << 10];
        let end1 = p.copy_h2d(DEV, a, &buf, CopyMode::Async).unwrap();
        let end2 = p
            .copy_h2d(DEV, a.add(32 << 10), &buf, CopyMode::Async)
            .unwrap();
        let single = p.device(DEV).unwrap().link_h2d().transfer_time(32 << 10);
        assert_eq!(
            end2.since(end1),
            single,
            "second transfer queues behind the first"
        );
    }

    #[test]
    fn kernel_launch_is_async_and_sync_waits() {
        let p = Platform::desktop_g280();
        p.register_kernel(Arc::new(NullKernel));
        let dims = LaunchDims::for_elements(1 << 20, 256);
        let end = p.launch(DEV, StreamId(0), "null", dims, &[]).unwrap();
        assert!(p.now() < end, "host returns before the kernel finishes");
        assert!(p.ledger().get(Category::CudaLaunch) > Nanos::ZERO);
        p.sync_stream(DEV, StreamId(0)).unwrap();
        assert!(p.now() >= end);
        assert!(p.ledger().get(Category::Gpu) > Nanos::ZERO);
    }

    #[test]
    fn stream_ordering_serialises_kernels() {
        let p = Platform::desktop_g280();
        p.register_kernel(Arc::new(NullKernel));
        let dims = LaunchDims::for_elements(1 << 20, 256);
        let end1 = p.launch(DEV, StreamId(0), "null", dims, &[]).unwrap();
        let end2 = p.launch(DEV, StreamId(0), "null", dims, &[]).unwrap();
        assert!(end2 > end1);
        // A second stream can overlap... but on the same exec engine it
        // still serialises (single execution engine per device).
        let s1 = p.device_mut(DEV).unwrap().create_stream();
        let end3 = p.launch(DEV, s1, "null", dims, &[]).unwrap();
        assert!(end3 > end2);
    }

    #[test]
    fn unknown_kernel_is_error() {
        let p = Platform::desktop_g280();
        assert!(matches!(
            p.launch(DEV, StreamId(0), "nope", LaunchDims::default(), &[]),
            Err(SimError::UnknownKernel(_))
        ));
    }

    #[test]
    fn dev_alloc_charges_api_cost() {
        let p = Platform::desktop_g280();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        assert!(p.ledger().get(Category::CudaMalloc) > Nanos::ZERO);
        p.dev_free(DEV, a).unwrap();
        assert!(p.ledger().get(Category::CudaFree) > Nanos::ZERO);
    }

    #[test]
    fn file_io_charges_io_categories() {
        let p = Platform::desktop_g280();
        p.fs_mut().create("in.dat", vec![5u8; 4096]);
        let mut buf = vec![0u8; 4096];
        let n = p.file_read("in.dat", 0, &mut buf).unwrap();
        assert_eq!(n, 4096);
        assert!(
            p.ledger().get(Category::IoRead) >= Nanos::from_micros(150),
            "overhead + transfer"
        );
        p.file_write("out.dat", 0, &buf).unwrap();
        assert!(p.ledger().get(Category::IoWrite) > Nanos::ZERO);
        assert_eq!(p.fs().len("out.dat").unwrap(), 4096);
    }

    #[test]
    fn cpu_compute_charges_cpu_category() {
        let p = Platform::desktop_g280();
        p.cpu_compute(6e9, 0.0); // one second of flops
        assert!((p.ledger().get(Category::Cpu).as_secs_f64() - 1.0).abs() < 1e-6);
        p.cpu_touch(4_000_000_000); // one second of streaming at 4 GB/s
        assert!((p.ledger().get(Category::Cpu).as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dev_memset_fills_and_charges() {
        let p = Platform::desktop_g280();
        let a = p.dev_alloc(DEV, 4096).unwrap();
        p.dev_memset(DEV, a, 0x3C, 4096).unwrap();
        assert!(p
            .device(DEV)
            .unwrap()
            .mem()
            .slice(a, 4096)
            .unwrap()
            .iter()
            .all(|&b| b == 0x3C));
    }

    #[test]
    fn ledger_partitions_elapsed_time() {
        // Every charge the platform makes corresponds to clock movement, so
        // the ledger total equals elapsed virtual time.
        let p = Platform::desktop_g280();
        p.register_kernel(Arc::new(NullKernel));
        let a = p.dev_alloc(DEV, 1 << 16).unwrap();
        p.cpu_touch(1 << 16);
        p.copy_h2d(DEV, a, &vec![1u8; 1 << 16], CopyMode::Sync)
            .unwrap();
        p.launch(
            DEV,
            StreamId(0),
            "null",
            LaunchDims::for_elements(1 << 16, 256),
            &[],
        )
        .unwrap();
        p.sync_stream(DEV, StreamId(0)).unwrap();
        let mut out = vec![0u8; 1 << 16];
        p.copy_d2h(DEV, a, &mut out, CopyMode::Sync).unwrap();
        p.dev_free(DEV, a).unwrap();
        assert_eq!(p.ledger().total(), p.elapsed());
    }

    #[test]
    fn concurrent_device_traffic_keeps_the_ledger_partitioned() {
        // Two threads each hammer their own device; the lock-free clock
        // guarantees that the sum of all charges still equals total elapsed
        // virtual time (every charge is exactly the movement it caused).
        let p = Arc::new(Platform::desktop_multi_gpu(2));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let dev = DeviceId(i);
                    let a = p.dev_alloc(dev, 1 << 18).unwrap();
                    let buf = vec![i as u8; 1 << 18];
                    for _ in 0..8 {
                        p.copy_h2d(dev, a, &buf, CopyMode::Sync).unwrap();
                        let mut out = vec![0u8; 1 << 18];
                        p.copy_d2h(dev, a, &mut out, CopyMode::Sync).unwrap();
                        assert!(out.iter().all(|&b| b == i as u8));
                    }
                    p.dev_free(dev, a).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.ledger().total(), p.elapsed());
        assert_eq!(p.transfers().h2d_bytes, 2 * 8 * (1 << 18));
    }
}
