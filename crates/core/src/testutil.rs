//! Test harness utilities shared by the protocol unit tests and the
//! benchmark crate. Not part of the public API.
#![doc(hidden)]
#![allow(missing_docs)]

use crate::config::{GmacConfig, Protocol};
use crate::manager::Manager;
use crate::object::SharedObject;
use crate::protocol::{make, CoherenceProtocol};
use crate::runtime::Runtime;
use hetsim::{
    Args, DeviceId, DeviceMemory, Kernel, KernelProfile, LaunchDims, Platform, SimResult,
};
use softmmu::{Protection, VAddr};

/// A kernel that does nothing (pending-call and scheduling tests).
#[derive(Debug)]
pub struct NopKernel;

impl Kernel for NopKernel {
    fn name(&self) -> &str {
        "nop"
    }

    fn execute(
        &self,
        _mem: &mut DeviceMemory,
        _dims: LaunchDims,
        _args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        Ok(KernelProfile::new(1.0, 0.0))
    }
}

/// Builds a runtime + manager + protocol with one shared object per entry of
/// `sizes` (bytes, page-multiples), mimicking what `Session::alloc` does.
pub fn harness(
    protocol: Protocol,
    sizes: &[u64],
) -> (Runtime, Manager, Box<dyn CoherenceProtocol>) {
    harness_with_config(GmacConfig::default().protocol(protocol), sizes)
}

/// Like [`harness`] with full configuration control.
pub fn harness_with_config(
    config: GmacConfig,
    sizes: &[u64],
) -> (Runtime, Manager, Box<dyn CoherenceProtocol>) {
    let platform = Platform::desktop_g280();
    let mut rt = Runtime::new(platform, config.clone());
    let mut mgr = Manager::new(config.lookup);
    let mut proto = make(config.protocol);
    for &size in sizes {
        alloc_object(&mut rt, &mut mgr, proto.as_mut(), DeviceId(0), size);
    }
    (rt, mgr, proto)
}

/// Allocates one shared object the way `Session::alloc` does (device memory,
/// mirrored host mapping at the same address, registration, protocol hook).
pub fn alloc_object(
    rt: &mut Runtime,
    mgr: &mut Manager,
    proto: &mut dyn CoherenceProtocol,
    dev: DeviceId,
    size: u64,
) -> VAddr {
    let size = VAddr(size).page_up().0.max(softmmu::PAGE_SIZE);
    let dev_addr = rt.platform().dev_alloc(dev, size).expect("device alloc");
    let addr = VAddr(dev_addr.0);
    let initial = proto.initial_state();
    let region = rt
        .vm
        .map_fixed(addr, size, Protection::None)
        .expect("host mapping");
    let block_size = proto.block_size_for(rt.config(), size);
    let id = mgr.next_id();
    let obj = SharedObject::new(id, addr, size, dev, dev_addr, region, block_size, initial);
    // Initial protection mirrors the initial state.
    rt.vm
        .protect(addr, size, initial.protection())
        .expect("initial protection");
    mgr.insert(obj);
    proto.on_alloc(rt, mgr, addr).expect("on_alloc");
    addr
}
