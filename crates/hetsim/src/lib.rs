//! # hetsim — simulated heterogeneous platform
//!
//! A deterministic, virtual-time simulation of the reference architecture in
//! the ASPLOS'10 GMAC paper (Figure 1): a general-purpose host CPU and one or
//! more accelerators with *separate physical memories*, joined by a
//! PCIe-class interconnect, plus a disk.
//!
//! The substrate exists so the ADSM runtime (`gmac` crate) and the baseline
//! CUDA-style programming model (`cudart` crate) have real hardware-shaped
//! behaviour to manage:
//!
//! * **device memory** with a real allocator ([`DeviceMemory`]),
//! * **DMA engines** whose transfers cost `latency + size/bandwidth` and can
//!   run asynchronously, overlapping host compute ([`LinkModel`], [`Engine`]),
//! * **kernels** that really execute (plain Rust over device memory) while
//!   their duration follows a roofline model ([`Kernel`], [`GpuSpec`]),
//! * **accounting** matching the paper's Figure 8 and Figure 10
//!   ([`TimeLedger`], [`TransferLedger`]),
//! * a **virtual clock** that makes every experiment reproducible
//!   ([`Nanos`], [`TimePoint`]).
//!
//! ```
//! use hetsim::{Platform, CopyMode, DeviceId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = Platform::desktop_g280();
//! let buf = p.dev_alloc(DeviceId(0), 4096)?;
//! p.copy_h2d(DeviceId(0), buf, &[0u8; 4096], CopyMode::Sync)?;
//! assert!(p.elapsed().as_nanos() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(unreachable_pub)]

mod bandwidth;
mod device;
mod devmem;
mod disk;
mod engine;
mod error;
mod faults;
mod kernel;
mod platform;
mod stats;
mod time;

pub use bandwidth::{BytesPerSec, LinkModel};
pub use device::{Device, DeviceId, GpuSpec, StreamId};
pub use devmem::{DevAddr, DeviceMemory};
pub use disk::{Disk, SimFs};
pub use engine::Engine;
pub use error::{SimError, SimResult};
pub use faults::{FaultOp, FaultPlan};
pub use kernel::{
    read_f32_slice, write_f32_slice, Args, Kernel, KernelArg, KernelProfile, LaunchDims,
};
pub use platform::{
    CopyMode, CpuSpec, DeviceRef, FsRef, Platform, PlatformBuilder, TransfersRef,
    DEFAULT_DEVICE_BASE,
};
pub use stats::{fmt_bytes, Category, Direction, TimeLedger, TransferLedger};
pub use time::{Nanos, TimePoint};
