//! Shared pointers and kernel parameters.
//!
//! The whole point of ADSM (paper §3.1, Figure 4): a *single* pointer value
//! names a data object both in CPU code and in accelerator kernels. A
//! [`SharedPtr`] is that value; [`Param`] is how it is passed to kernels.

use hetsim::KernelArg;
use softmmu::VAddr;
use std::fmt;

/// A pointer into the shared (unified) address space returned by
/// [`crate::Session::alloc`]/[`crate::Session::safe_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SharedPtr(VAddr);

impl SharedPtr {
    /// Wraps a raw shared address (crate-internal constructor; applications
    /// receive pointers from the allocation calls).
    pub(crate) fn new(addr: VAddr) -> Self {
        SharedPtr(addr)
    }

    /// The underlying virtual address.
    pub fn addr(self) -> VAddr {
        self.0
    }

    /// Pointer advanced by `bytes`.
    pub fn byte_add(self, bytes: u64) -> SharedPtr {
        SharedPtr(self.0 + bytes)
    }

    /// Pointer advanced by `index` elements of `elem_size` bytes.
    pub fn index(self, index: u64, elem_size: u64) -> SharedPtr {
        self.byte_add(index * elem_size)
    }
}

impl fmt::Display for SharedPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shared:{}", self.0)
    }
}

/// A kernel parameter: either a shared pointer (translated to the device
/// address by the runtime) or a scalar passed through verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Param {
    /// A shared-object pointer.
    Shared(SharedPtr),
    /// An unsigned scalar.
    U64(u64),
    /// A float scalar.
    F64(f64),
}

impl From<SharedPtr> for Param {
    fn from(p: SharedPtr) -> Self {
        Param::Shared(p)
    }
}

impl From<u64> for Param {
    fn from(v: u64) -> Self {
        Param::U64(v)
    }
}

impl From<f64> for Param {
    fn from(v: f64) -> Self {
        Param::F64(v)
    }
}

impl Param {
    /// Converts a scalar parameter to a kernel argument (pointers are
    /// translated by the runtime, not here).
    pub(crate) fn to_scalar_arg(self) -> Option<KernelArg> {
        match self {
            Param::Shared(_) => None,
            Param::U64(v) => Some(KernelArg::U64(v)),
            Param::F64(v) => Some(KernelArg::F64(v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_arithmetic() {
        let p = SharedPtr::new(VAddr(0x1000));
        assert_eq!(p.addr(), VAddr(0x1000));
        assert_eq!(p.byte_add(16).addr(), VAddr(0x1010));
        assert_eq!(p.to_string(), "shared:0x1000");
    }

    #[test]
    fn param_conversions() {
        let p = SharedPtr::new(VAddr(0x2000));
        assert_eq!(Param::from(p), Param::Shared(p));
        assert_eq!(Param::from(7u64), Param::U64(7));
        assert_eq!(Param::from(1.5f64), Param::F64(1.5));
        assert_eq!(Param::U64(7).to_scalar_arg(), Some(KernelArg::U64(7)));
        assert_eq!(Param::Shared(p).to_scalar_arg(), None);
    }
}
