//! Minimal direct `extern "C"` bindings to the handful of libc calls the
//! mmap backing needs (`mmap`, `mprotect`, `munmap`, `memfd_create`,
//! `ftruncate`, `fallocate`, `sysconf`, `close`).
//!
//! The workspace is built without registry access, so we cannot depend on
//! the `libc` or `rustix` crates; `std` already links libc on every
//! supported host, which makes these declarations resolve at link time.
//! Everything here is Linux-specific — on other targets the wrappers
//! return [`MmuError::HostMmap`] so [`crate::AddressSpace::new_mmap`]
//! fails cleanly and callers fall back to the portable table-walk backend.
//!
//! All wrappers translate failures into [`MmuError::HostMmap`] carrying the
//! operation name and `errno`, and none of them panic.

use crate::fault::MmuError;

/// Pages are inaccessible (`PROT_NONE`).
pub(crate) const PROT_NONE: i32 = 0;
/// Pages are readable (`PROT_READ`).
pub(crate) const PROT_READ: i32 = 1;
/// Pages are writable (`PROT_WRITE`).
pub(crate) const PROT_WRITE: i32 = 2;

#[cfg(target_os = "linux")]
mod imp {
    use super::*;
    use std::ffi::c_void;

    const MAP_SHARED: i32 = 0x01;
    const MAP_NORESERVE: i32 = 0x4000;
    const MFD_CLOEXEC: u32 = 0x01;
    const FALLOC_FL_KEEP_SIZE: i32 = 0x01;
    const FALLOC_FL_PUNCH_HOLE: i32 = 0x02;
    const _SC_PAGESIZE: i32 = 30;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn memfd_create(name: *const u8, flags: u32) -> i32;
        fn ftruncate(fd: i32, len: i64) -> i32;
        fn fallocate(fd: i32, mode: i32, offset: i64, len: i64) -> i32;
        fn close(fd: i32) -> i32;
        fn sysconf(name: i32) -> i64;
        #[link_name = "__errno_location"]
        fn errno_location() -> *mut i32;
    }

    fn errno() -> i32 {
        // SAFETY: `__errno_location` is the glibc/musl TLS errno accessor; it
        // always returns a valid pointer for the calling thread.
        unsafe { *errno_location() }
    }

    fn err(op: &'static str) -> MmuError {
        MmuError::HostMmap { op, errno: errno() }
    }

    /// Host page size as reported by `sysconf(_SC_PAGESIZE)`.
    pub(crate) fn page_size() -> Result<u64, MmuError> {
        // SAFETY: sysconf has no memory-safety preconditions.
        let n = unsafe { sysconf(_SC_PAGESIZE) };
        if n <= 0 {
            Err(err("sysconf"))
        } else {
            Ok(n as u64)
        }
    }

    /// Creates an anonymous tmpfs file of `len` bytes (sparse — pages are
    /// allocated only when touched).
    pub(crate) fn memfd(len: u64) -> Result<i32, MmuError> {
        // SAFETY: the name is a NUL-terminated static string; memfd_create
        // copies it and takes no ownership.
        let fd = unsafe { memfd_create(c"softmmu".as_ptr().cast(), MFD_CLOEXEC) };
        if fd < 0 {
            return Err(err("memfd_create"));
        }
        let signed: i64 = match i64::try_from(len) {
            Ok(v) => v,
            Err(_) => {
                close_fd(fd);
                return Err(MmuError::HostMmap {
                    op: "ftruncate",
                    errno: 0,
                });
            }
        };
        // SAFETY: fd is a freshly created, owned memfd.
        if unsafe { ftruncate(fd, signed) } != 0 {
            let e = err("ftruncate");
            close_fd(fd);
            return Err(e);
        }
        Ok(fd)
    }

    /// Maps a full-length shared view of `fd` at a kernel-chosen address.
    pub(crate) fn map_view(fd: i32, len: u64, prot: i32) -> Result<*mut u8, MmuError> {
        // SAFETY: NULL hint + valid owned fd + in-bounds length; the kernel
        // picks the placement, so no existing mapping can be clobbered.
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len as usize,
                prot,
                MAP_SHARED | MAP_NORESERVE,
                fd,
                0,
            )
        };
        if p as isize == -1 {
            Err(err("mmap"))
        } else {
            Ok(p.cast())
        }
    }

    /// Changes the protection of `[ptr, ptr+len)`.
    ///
    /// # Safety
    /// `[ptr, ptr+len)` must lie inside a mapping owned by the caller; no
    /// Rust reference may alias pages being downgraded.
    pub(crate) unsafe fn protect(ptr: *mut u8, len: u64, prot: i32) -> Result<(), MmuError> {
        // SAFETY: forwarded preconditions.
        if unsafe { mprotect(ptr.cast(), len as usize, prot) } != 0 {
            Err(err("mprotect"))
        } else {
            Ok(())
        }
    }

    /// Unmaps `[ptr, ptr+len)`.
    ///
    /// # Safety
    /// The range must be an exact mapping owned by the caller with no live
    /// references into it.
    pub(crate) unsafe fn unmap(ptr: *mut u8, len: u64) {
        // SAFETY: forwarded preconditions. Failure is unrecoverable and only
        // leaks address space, so it is ignored (Drop context).
        unsafe {
            let _ = munmap(ptr.cast(), len as usize);
        }
    }

    /// Punches a hole in `fd` at `[offset, offset+len)`: the pages are freed
    /// back to the kernel and read as zeroes when next touched.
    pub(crate) fn punch_hole(fd: i32, offset: u64, len: u64) -> Result<(), MmuError> {
        // SAFETY: valid owned fd; fallocate has no memory-safety
        // preconditions.
        let rc = unsafe {
            fallocate(
                fd,
                FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                offset as i64,
                len as i64,
            )
        };
        if rc != 0 {
            Err(err("fallocate"))
        } else {
            Ok(())
        }
    }

    /// Closes an owned file descriptor.
    pub(crate) fn close_fd(fd: i32) {
        // SAFETY: the caller owns fd and never reuses it after this call.
        unsafe {
            let _ = close(fd);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::*;

    const ENOSYS: i32 = 38;

    fn unsupported(op: &'static str) -> MmuError {
        MmuError::HostMmap { op, errno: ENOSYS }
    }

    /// Unsupported on this target.
    pub fn page_size() -> Result<u64, MmuError> {
        Err(unsupported("sysconf"))
    }

    /// Unsupported on this target.
    pub fn memfd(_len: u64) -> Result<i32, MmuError> {
        Err(unsupported("memfd_create"))
    }

    /// Unsupported on this target.
    pub fn map_view(_fd: i32, _len: u64, _prot: i32) -> Result<*mut u8, MmuError> {
        Err(unsupported("mmap"))
    }

    /// Unsupported on this target.
    ///
    /// # Safety
    /// No-op; trivially safe to call.
    pub unsafe fn protect(_ptr: *mut u8, _len: u64, _prot: i32) -> Result<(), MmuError> {
        Err(unsupported("mprotect"))
    }

    /// Unsupported on this target.
    ///
    /// # Safety
    /// No-op; trivially safe to call.
    pub unsafe fn unmap(_ptr: *mut u8, _len: u64) {}

    /// Unsupported on this target.
    pub fn punch_hole(_fd: i32, _offset: u64, _len: u64) -> Result<(), MmuError> {
        Err(unsupported("fallocate"))
    }

    /// Unsupported on this target.
    pub fn close_fd(_fd: i32) {}
}

pub(crate) use imp::{close_fd, map_view, memfd, page_size, protect, punch_hole, unmap};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn page_size_is_sane() {
        let ps = page_size().expect("sysconf");
        assert!(ps.is_power_of_two() && ps >= 4096);
    }

    #[test]
    fn memfd_map_write_read_roundtrip() {
        let len = 1u64 << 20;
        let fd = memfd(len).expect("memfd");
        let rw = map_view(fd, len, PROT_READ | PROT_WRITE).expect("map rw");
        let ro = map_view(fd, len, PROT_READ).expect("map ro");
        // The two views alias the same pages.
        // SAFETY: both pointers map `len` valid bytes we own.
        unsafe {
            rw.add(12345).write(0xAB);
            assert_eq!(ro.add(12345).read(), 0xAB);
        }
        // Punching the hole zeroes the page in both views.
        punch_hole(fd, 8192, 8192).expect("punch");
        // SAFETY: in-bounds read of the shared view.
        unsafe {
            assert_eq!(ro.add(12345).read(), 0);
        }
        // SAFETY: exact mappings created above, no live references remain.
        unsafe {
            unmap(rw, len);
            unmap(ro, len);
        }
        close_fd(fd);
    }

    #[test]
    fn protect_denies_and_restores() {
        let len = 4096u64 * 4;
        let fd = memfd(len).expect("memfd");
        let v = map_view(fd, len, PROT_READ | PROT_WRITE).expect("map");
        // SAFETY: v is our own mapping with no references into it.
        unsafe {
            protect(v, 4096, PROT_NONE).expect("downgrade");
            protect(v, 4096, PROT_READ | PROT_WRITE).expect("upgrade");
            v.write(7);
            assert_eq!(v.read(), 7);
            unmap(v, len);
        }
        close_fd(fd);
    }
}
