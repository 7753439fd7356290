//! Simulated accelerator ("device") memory: a flat physical arena plus a
//! first-fit free-list allocator with coalescing.
//!
//! The paper's GMAC obtains device addresses from `cudaMalloc()`; this module
//! is the stand-in. Addresses live in a configurable window (the default
//! mimics the range CUDA returned on the paper's platform, outside typical
//! ELF sections — §4.2), which is what makes the unified-address `mmap` trick
//! work and, for multiple devices with the *same* base, what forces the
//! `adsmSafeAlloc` fallback.

use crate::error::{SimError, SimResult};
use std::collections::BTreeMap;

/// An address in a device's physical memory window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DevAddr(pub u64);

impl DevAddr {
    /// Address advanced by `bytes`.
    // Named after pointer::add, which this models; an `Add` impl would read
    // as numeric addition at dozens of call sites.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> DevAddr {
        DevAddr(self.0 + bytes)
    }
}

impl std::fmt::Display for DevAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Allocation granularity of the device allocator (matches CUDA's 256-byte
/// alignment on the G280 generation).
pub(crate) const DEV_ALLOC_ALIGN: u64 = 256;

/// Device physical memory: arena + allocator + live-allocation registry.
#[derive(Debug)]
pub struct DeviceMemory {
    base: u64,
    data: Vec<u8>,
    /// Free regions: offset -> length, non-adjacent, non-overlapping.
    free: BTreeMap<u64, u64>,
    /// Live allocations: offset -> length.
    live: BTreeMap<u64, u64>,
}

impl DeviceMemory {
    /// Creates a device memory of `size` bytes whose addresses start at
    /// `base`.
    ///
    /// # Panics
    /// Panics if `size` is zero or not aligned to 256 bytes.
    pub fn new(base: u64, size: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(DEV_ALLOC_ALIGN),
            "bad device memory size"
        );
        let mut free = BTreeMap::new();
        free.insert(0, size);
        DeviceMemory {
            base,
            data: vec![0u8; size as usize],
            free,
            live: BTreeMap::new(),
        }
    }

    /// Base address of the memory window.
    pub fn base(&self) -> DevAddr {
        DevAddr(self.base)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.data.len() as u64
    }

    /// Total bytes currently free (may be fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.free.values().sum()
    }

    /// Total bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.capacity() - self.free_bytes()
    }

    /// Size of the largest contiguous free region. This is the quantity an
    /// allocation actually needs (first-fit succeeds iff some region is
    /// large enough); eviction policies compare it against the requested
    /// size to decide when enough victims have been released.
    pub fn largest_free_block(&self) -> u64 {
        self.free.values().copied().max().unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`: the fraction of free bytes *not*
    /// usable by a single worst-case allocation
    /// (`1 - largest_free_block / free_bytes`; 0 when nothing is free).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_bytes();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_block() as f64 / free as f64
    }

    /// Number of live allocations.
    pub fn allocation_count(&self) -> usize {
        self.live.len()
    }

    /// Allocates `size` bytes (rounded up to 256 bytes) using
    /// first-fit.
    ///
    /// # Errors
    /// Returns [`SimError::OutOfDeviceMemory`] when no free region is large
    /// enough.
    pub fn alloc(&mut self, size: u64) -> SimResult<DevAddr> {
        let size = round_up(size.max(1), DEV_ALLOC_ALIGN);
        let slot = self
            .free
            .iter()
            .find(|(_, &len)| len >= size)
            .map(|(&off, &len)| (off, len));
        let (off, len) = slot.ok_or(SimError::OutOfDeviceMemory {
            requested: size,
            free: self.free_bytes(),
        })?;
        self.free.remove(&off);
        if len > size {
            self.free.insert(off + size, len - size);
        }
        self.live.insert(off, size);
        Ok(DevAddr(self.base + off))
    }

    /// Frees an allocation previously returned by [`Self::alloc`].
    ///
    /// # Errors
    /// Returns [`SimError::NotAnAllocation`] if `addr` is not a live
    /// allocation start.
    pub fn free(&mut self, addr: DevAddr) -> SimResult<()> {
        let off = self.offset_of(addr)?;
        let len = self
            .live
            .remove(&off)
            .ok_or(SimError::NotAnAllocation(addr.0))?;
        self.insert_free(off, len);
        Ok(())
    }

    /// Reads `out.len()` bytes starting at `addr`.
    ///
    /// # Errors
    /// Fails if the range is outside the memory window.
    pub fn read(&self, addr: DevAddr, out: &mut [u8]) -> SimResult<()> {
        let range = self.byte_range(addr, out.len() as u64)?;
        out.copy_from_slice(&self.data[range]);
        Ok(())
    }

    /// Writes `src` starting at `addr`.
    ///
    /// # Errors
    /// Fails if the range is outside the memory window.
    pub fn write(&mut self, addr: DevAddr, src: &[u8]) -> SimResult<()> {
        let range = self.byte_range(addr, src.len() as u64)?;
        self.data[range].copy_from_slice(src);
        Ok(())
    }

    /// Fills `len` bytes starting at `addr` with `value` (device memset).
    pub fn fill(&mut self, addr: DevAddr, value: u8, len: u64) -> SimResult<()> {
        let range = self.byte_range(addr, len)?;
        self.data[range].fill(value);
        Ok(())
    }

    /// Borrow of the raw bytes of a range (kernel-side access).
    pub fn slice(&self, addr: DevAddr, len: u64) -> SimResult<&[u8]> {
        let range = self.byte_range(addr, len)?;
        Ok(&self.data[range])
    }

    /// Mutable borrow of the raw bytes of a range (kernel-side access).
    pub fn slice_mut(&mut self, addr: DevAddr, len: u64) -> SimResult<&mut [u8]> {
        let range = self.byte_range(addr, len)?;
        Ok(&mut self.data[range])
    }

    /// Two disjoint mutable ranges at once (e.g. a kernel with an input and an
    /// output buffer).
    ///
    /// # Errors
    /// Fails if the ranges overlap or fall outside the window.
    pub fn slice_pair_mut(
        &mut self,
        a: (DevAddr, u64),
        b: (DevAddr, u64),
    ) -> SimResult<(&mut [u8], &mut [u8])> {
        let ra = self.byte_range(a.0, a.1)?;
        let rb = self.byte_range(b.0, b.1)?;
        if ra.start < rb.end && rb.start < ra.end {
            return Err(SimError::OutOfBounds {
                addr: b.0 .0,
                len: b.1,
            });
        }
        if ra.start < rb.start {
            let (lo, hi) = self.data.split_at_mut(rb.start);
            Ok((&mut lo[ra], &mut hi[..rb.len()]))
        } else {
            let (lo, hi) = self.data.split_at_mut(ra.start);
            let blen = rb.len();
            Ok((&mut hi[..ra.len()], &mut lo[rb.start..rb.start + blen]))
        }
    }

    fn offset_of(&self, addr: DevAddr) -> SimResult<u64> {
        addr.0
            .checked_sub(self.base)
            .filter(|&off| off < self.capacity())
            .ok_or(SimError::InvalidDeviceAddress(addr.0))
    }

    fn byte_range(&self, addr: DevAddr, len: u64) -> SimResult<std::ops::Range<usize>> {
        let off = self.offset_of(addr)?;
        let end = off
            .checked_add(len)
            .ok_or(SimError::OutOfBounds { addr: addr.0, len })?;
        if end > self.capacity() {
            return Err(SimError::OutOfBounds { addr: addr.0, len });
        }
        Ok(off as usize..end as usize)
    }

    /// Inserts a free region, coalescing with neighbours.
    fn insert_free(&mut self, off: u64, len: u64) {
        let mut start = off;
        let mut end = off + len;
        // Coalesce with predecessor.
        if let Some((&p_off, &p_len)) = self.free.range(..off).next_back() {
            if p_off + p_len == start {
                self.free.remove(&p_off);
                start = p_off;
            }
        }
        // Coalesce with successor.
        if let Some((&n_off, &n_len)) = self.free.range(off..).next() {
            if end == n_off {
                self.free.remove(&n_off);
                end = n_off + n_len;
            }
        }
        self.free.insert(start, end - start);
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> DeviceMemory {
        DeviceMemory::new(0x10_0000, 64 * 1024)
    }

    #[test]
    fn alloc_returns_aligned_addresses_in_window() {
        let mut m = mem();
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_eq!(a.0 % DEV_ALLOC_ALIGN, 0);
        assert_eq!(b.0 % DEV_ALLOC_ALIGN, 0);
        assert!(a.0 >= 0x10_0000);
        assert_eq!(b.0 - a.0, 256, "100 bytes rounds to one 256-byte slot");
        assert_eq!(m.used_bytes(), 512);
    }

    #[test]
    fn oom_reports_free_bytes() {
        let mut m = mem();
        let err = m.alloc(1 << 20).unwrap_err();
        match err {
            SimError::OutOfDeviceMemory { requested, free } => {
                assert_eq!(requested, 1 << 20);
                assert_eq!(free, 64 * 1024);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn free_coalesces_neighbours() {
        let mut m = mem();
        let a = m.alloc(1024).unwrap();
        let b = m.alloc(1024).unwrap();
        let c = m.alloc(1024).unwrap();
        m.free(a).unwrap();
        m.free(c).unwrap();
        // Freeing b must merge all three back into one region plus the tail.
        m.free(b).unwrap();
        assert_eq!(m.free_bytes(), 64 * 1024);
        assert_eq!(m.free.len(), 1, "all free space coalesced into one region");
        assert_eq!(m.allocation_count(), 0);
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let mut m = mem();
        let a = m.alloc(4096).unwrap();
        let _b = m.alloc(4096).unwrap();
        m.free(a).unwrap();
        let c = m.alloc(2048).unwrap();
        assert_eq!(c, a, "first-fit places new allocation in the first hole");
    }

    #[test]
    fn double_free_is_an_error() {
        let mut m = mem();
        let a = m.alloc(128).unwrap();
        m.free(a).unwrap();
        assert!(matches!(m.free(a), Err(SimError::NotAnAllocation(_))));
    }

    #[test]
    fn free_of_interior_address_is_an_error() {
        let mut m = mem();
        let a = m.alloc(1024).unwrap();
        assert!(matches!(
            m.free(a.add(256)),
            Err(SimError::NotAnAllocation(_))
        ));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = mem();
        let a = m.alloc(16).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 4];
        m.read(a, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn fill_sets_bytes() {
        let mut m = mem();
        let a = m.alloc(32).unwrap();
        m.fill(a, 0xAB, 32).unwrap();
        assert!(m.slice(a, 32).unwrap().iter().all(|&b| b == 0xAB));
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let mut m = mem();
        let a = m.alloc(16).unwrap();
        let end = DevAddr(m.base().0 + m.capacity());
        assert!(m.read(end, &mut [0u8; 1]).is_err());
        assert!(m.write(DevAddr(a.0 + m.capacity()), &[0]).is_err());
        assert!(matches!(
            m.slice(DevAddr(m.base().0), m.capacity() + 1),
            Err(SimError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn foreign_address_rejected() {
        let m = mem();
        assert!(matches!(
            m.slice(DevAddr(0), 1),
            Err(SimError::InvalidDeviceAddress(0))
        ));
    }

    #[test]
    fn slice_pair_mut_disjoint_ok_overlap_err() {
        let mut m = mem();
        let a = m.alloc(1024).unwrap();
        let b = m.alloc(1024).unwrap();
        {
            let (sa, sb) = m.slice_pair_mut((a, 1024), (b, 1024)).unwrap();
            sa.fill(1);
            sb.fill(2);
        }
        assert!(m.slice(a, 1024).unwrap().iter().all(|&x| x == 1));
        assert!(m.slice(b, 1024).unwrap().iter().all(|&x| x == 2));
        // Reversed order also works.
        assert!(m.slice_pair_mut((b, 1024), (a, 1024)).is_ok());
        // Overlap rejected.
        assert!(m.slice_pair_mut((a, 512), (a.add(256), 512)).is_err());
    }

    #[test]
    fn largest_free_block_and_fragmentation_stay_exact_under_churn() {
        // Alloc/free churn designed to fragment and then re-coalesce; the
        // accessors must agree with a from-scratch recomputation after every
        // step (coalescing keeps them exact, not merely approximate).
        let mut m = mem();
        let check = |m: &DeviceMemory| {
            let regions: Vec<u64> = m.free.values().copied().collect();
            assert_eq!(
                m.largest_free_block(),
                regions.iter().copied().max().unwrap_or(0)
            );
            assert_eq!(m.free.len(), regions.len());
            assert_eq!(m.free_bytes(), regions.iter().sum::<u64>());
            let expect = if m.free_bytes() == 0 {
                0.0
            } else {
                1.0 - m.largest_free_block() as f64 / m.free_bytes() as f64
            };
            assert!((m.fragmentation() - expect).abs() < 1e-12);
        };
        check(&m);
        // 12 blocks leave a 16 KiB tail, so holes stay smaller than the
        // largest region throughout the churn below.
        let blocks: Vec<DevAddr> = (0..12).map(|_| m.alloc(4096).unwrap()).collect();
        check(&m);
        // Free every other block: maximal fragmentation of the freed space.
        for (i, &a) in blocks.iter().enumerate() {
            if i % 2 == 0 {
                m.free(a).unwrap();
                check(&m);
            }
        }
        assert_eq!(m.largest_free_block(), 64 * 1024 - 12 * 4096);
        assert!(m.fragmentation() > 0.0, "holes are smaller than the tail");
        // Refill some holes with smaller allocations, splitting regions.
        let small: Vec<DevAddr> = (0..4).map(|_| m.alloc(1024).unwrap()).collect();
        check(&m);
        for a in small {
            m.free(a).unwrap();
            check(&m);
        }
        // Free the rest: everything must coalesce back into one region.
        for (i, &a) in blocks.iter().enumerate() {
            if i % 2 == 1 {
                m.free(a).unwrap();
                check(&m);
            }
        }
        assert_eq!(m.largest_free_block(), 64 * 1024);
        assert_eq!(m.free.len(), 1);
        assert_eq!(m.fragmentation(), 0.0);
    }

    #[test]
    fn full_memory_reports_zero_largest_block() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        assert_eq!(m.largest_free_block(), 0);
        assert_eq!(m.free.len(), 0);
        assert_eq!(m.fragmentation(), 0.0, "nothing free, nothing fragmented");
        m.free(a).unwrap();
        assert_eq!(m.largest_free_block(), 64 * 1024);
    }

    #[test]
    fn allocation_size_is_rounded() {
        let mut m = mem();
        let a = m.alloc(100).unwrap();
        assert_eq!(m.live[&m.offset_of(a).unwrap()], 256);
    }
}
