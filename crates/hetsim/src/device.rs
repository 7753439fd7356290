//! A simulated accelerator device: memory, DMA channels, execution engine,
//! command streams and the API-cost model.

use crate::bandwidth::{BytesPerSec, LinkModel};
use crate::devmem::DeviceMemory;
use crate::engine::Engine;
use crate::error::{SimError, SimResult};
use crate::kernel::KernelProfile;
use crate::time::{Nanos, TimePoint};

/// Identifies one accelerator within a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(pub usize);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Identifies a command stream on a device. Stream 0 is the default stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StreamId(pub u32);

/// Accelerator throughput and API-cost specification.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Device model name.
    pub name: &'static str,
    /// Peak single-precision throughput, FLOP/s.
    pub flops: f64,
    /// On-board memory bandwidth.
    pub mem_bw: BytesPerSec,
    /// Fixed pipeline cost added to every kernel (setup + drain).
    pub kernel_overhead: Nanos,
    /// Host-side cost of a `cudaMalloc`-equivalent call.
    pub malloc_cost: Nanos,
    /// Host-side cost of a `cudaFree`-equivalent call.
    pub free_cost: Nanos,
    /// Host-side cost of a kernel-launch call.
    pub launch_cost: Nanos,
    /// Host-side fixed cost of a synchronize call.
    pub sync_cost: Nanos,
}

impl GpuSpec {
    /// NVIDIA G280 (GTX 280), the paper's accelerator: 933 GFLOP/s SP,
    /// 141.7 GB/s GDDR3, CUDA 2.2-era API costs.
    pub fn g280() -> Self {
        GpuSpec {
            name: "NVIDIA G280",
            flops: 933e9,
            mem_bw: BytesPerSec::from_gbps(141.7),
            kernel_overhead: Nanos::from_micros(4),
            malloc_cost: Nanos::from_micros(40),
            free_cost: Nanos::from_micros(10),
            launch_cost: Nanos::from_micros(7),
            sync_cost: Nanos::from_micros(3),
        }
    }

    /// Time one kernel launch occupies the execution engine: a roofline over
    /// the work it reports, plus fixed pipeline overhead.
    pub fn kernel_time(&self, profile: KernelProfile) -> Nanos {
        let compute = profile.flops.max(0.0) / self.flops;
        let memory = profile.bytes.max(0.0) / self.mem_bw.as_bps();
        self.kernel_overhead + Nanos::from_secs_f64(compute.max(memory))
    }
}

/// A simulated accelerator.
#[derive(Debug)]
pub struct Device {
    id: DeviceId,
    spec: GpuSpec,
    mem: DeviceMemory,
    h2d: Engine,
    d2h: Engine,
    link_h2d: LinkModel,
    link_d2h: LinkModel,
    exec: Engine,
    /// Per-stream horizon: end time of the last operation on the stream.
    streams: Vec<TimePoint>,
}

impl Device {
    /// Creates a device with `mem_size` bytes of on-board memory whose
    /// addresses start at `mem_base`.
    pub fn new(
        id: DeviceId,
        spec: GpuSpec,
        mem_base: u64,
        mem_size: u64,
        link_h2d: LinkModel,
        link_d2h: LinkModel,
    ) -> Self {
        Device {
            id,
            spec,
            mem: DeviceMemory::new(mem_base, mem_size),
            h2d: Engine::new("dma-h2d"),
            d2h: Engine::new("dma-d2h"),
            link_h2d,
            link_d2h,
            exec: Engine::new("gpu-exec"),
            streams: vec![TimePoint::ZERO],
        }
    }

    /// Device identifier.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Throughput/API-cost specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// On-board memory.
    pub fn mem(&self) -> &DeviceMemory {
        &self.mem
    }

    /// On-board memory, mutable.
    pub fn mem_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// Host-to-device link model.
    pub fn link_h2d(&self) -> &LinkModel {
        &self.link_h2d
    }

    /// Device-to-host link model.
    pub fn link_d2h(&self) -> &LinkModel {
        &self.link_d2h
    }

    /// Host-to-device DMA engine.
    pub fn h2d_engine(&self) -> &Engine {
        &self.h2d
    }

    /// Host-to-device DMA engine, mutable.
    pub fn h2d_engine_mut(&mut self) -> &mut Engine {
        &mut self.h2d
    }

    /// Device-to-host DMA engine, mutable.
    pub fn d2h_engine_mut(&mut self) -> &mut Engine {
        &mut self.d2h
    }

    /// DMA engine for `dir` (the per-direction timeline the transfer
    /// planner schedules jobs onto).
    pub fn dma_engine(&self, dir: crate::stats::Direction) -> &Engine {
        match dir {
            crate::stats::Direction::HostToDevice => &self.h2d,
            crate::stats::Direction::DeviceToHost => &self.d2h,
        }
    }

    /// Kernel execution engine, mutable.
    pub fn exec_engine_mut(&mut self) -> &mut Engine {
        &mut self.exec
    }

    /// Creates a new stream and returns its id.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(TimePoint::ZERO);
        StreamId(self.streams.len() as u32 - 1)
    }

    /// End time of the last operation enqueued on `stream`.
    ///
    /// # Errors
    /// [`SimError::NoSuchStream`] for unknown streams.
    pub fn stream_horizon(&self, stream: StreamId) -> SimResult<TimePoint> {
        self.streams
            .get(stream.0 as usize)
            .copied()
            .ok_or(SimError::NoSuchStream(stream.0))
    }

    /// Updates the horizon of `stream` to `end`.
    ///
    /// # Errors
    /// [`SimError::NoSuchStream`] for unknown streams.
    pub fn set_stream_horizon(&mut self, stream: StreamId, end: TimePoint) -> SimResult<()> {
        let slot = self
            .streams
            .get_mut(stream.0 as usize)
            .ok_or(SimError::NoSuchStream(stream.0))?;
        *slot = end;
        Ok(())
    }

    /// Instant at which all outstanding work (all streams, all DMA) is done.
    pub fn quiescent_at(&self) -> TimePoint {
        let mut t = self
            .h2d
            .busy_until()
            .max(self.d2h.busy_until())
            .max(self.exec.busy_until());
        for &s in &self.streams {
            t = t.max(s);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Device {
        Device::new(
            DeviceId(0),
            GpuSpec::g280(),
            0x7f00_0000_0000,
            1 << 20,
            LinkModel::pcie2_x16_h2d(),
            LinkModel::pcie2_x16_d2h(),
        )
    }

    #[test]
    fn kernel_time_roofline() {
        let spec = GpuSpec::g280();
        // Compute bound: 933e9 flops = 1 second of compute.
        let t = spec.kernel_time(KernelProfile::new(933e9, 0.0));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-3);
        // Memory bound: 141.7e9 bytes = 1 second of memory traffic.
        let t = spec.kernel_time(KernelProfile::new(0.0, 141.7e9));
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-3);
        // Empty kernels still pay the pipeline overhead.
        let t = spec.kernel_time(KernelProfile::default());
        assert_eq!(t, spec.kernel_overhead);
    }

    #[test]
    fn streams_start_with_default_stream() {
        let mut d = dev();
        assert_eq!(d.stream_horizon(StreamId(0)).unwrap(), TimePoint::ZERO);
        let s1 = d.create_stream();
        assert_eq!(s1, StreamId(1));
        assert!(d.stream_horizon(StreamId(9)).is_err());
    }

    #[test]
    fn stream_horizon_updates() {
        let mut d = dev();
        let t = TimePoint::from_nanos(500);
        d.set_stream_horizon(StreamId(0), t).unwrap();
        assert_eq!(d.stream_horizon(StreamId(0)).unwrap(), t);
        assert_eq!(d.quiescent_at(), t);
    }

    #[test]
    fn quiescent_considers_all_engines() {
        let mut d = dev();
        d.h2d_engine_mut()
            .reserve(TimePoint::ZERO, Nanos::from_nanos(100));
        d.exec_engine_mut()
            .reserve(TimePoint::ZERO, Nanos::from_nanos(300));
        d.d2h_engine_mut()
            .reserve(TimePoint::ZERO, Nanos::from_nanos(200));
        assert_eq!(d.quiescent_at(), TimePoint::from_nanos(300));
    }
}
