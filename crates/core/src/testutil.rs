//! Test harness utilities: [`NopKernel`] for the integration tests and the
//! bench crate, and the runtime harness the protocol unit tests share. Not
//! part of the public API.
#![allow(missing_docs)]

use hetsim::{Args, DeviceMemory, Kernel, KernelProfile, LaunchDims, SimResult};
#[cfg(test)]
use {
    crate::config::{GmacConfig, Protocol},
    crate::manager::Manager,
    crate::object::SharedObject,
    crate::protocol::{make, CoherenceProtocol},
    crate::runtime::Runtime,
    hetsim::{DeviceId, Platform},
    softmmu::{Protection, VAddr},
};

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
#[cfg(test)]
pub(crate) fn harness(
    protocol: Protocol,
    sizes: &[u64],
) -> (Runtime, Manager, Box<dyn CoherenceProtocol>) {
    harness_with_config(GmacConfig::default().protocol(protocol), sizes)
}

/// Like [`harness`] with full configuration control.
#[cfg(test)]
pub(crate) fn harness_with_config(
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
#[cfg(test)]
pub(crate) fn alloc_object(
    rt: &mut Runtime,
    mgr: &mut Manager,
    proto: &mut dyn CoherenceProtocol,
    dev: DeviceId,
    size: u64,
) -> VAddr {
    let size = VAddr(size).page_up().0.max(softmmu::PAGE_SIZE);
    let dev_addr = rt.platform.dev_alloc(dev, size).expect("device alloc");
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
