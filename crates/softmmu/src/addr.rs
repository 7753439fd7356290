//! Virtual addresses and page geometry.

use std::fmt;
use std::ops::{Add, Sub};

/// Page size in bytes (4 KiB, matching the paper's x86-64 Linux host).
pub const PAGE_SIZE: u64 = 4096;

/// log2 of [`PAGE_SIZE`].
pub(crate) const PAGE_SHIFT: u32 = 12;

/// Width of the simulated virtual address space (48-bit canonical x86-64).
pub(crate) const VADDR_BITS: u32 = 48;

/// Highest valid virtual address + 1.
pub const VADDR_LIMIT: u64 = 1 << VADDR_BITS;

/// A virtual address in the simulated host address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// The null address.
    pub const NULL: VAddr = VAddr(0);

    /// Rounds down to the containing page boundary.
    pub fn page_down(self) -> VAddr {
        VAddr(self.0 & !(PAGE_SIZE - 1))
    }

    /// Rounds up to the next page boundary.
    pub fn page_up(self) -> VAddr {
        VAddr((self.0 + PAGE_SIZE - 1) & !(PAGE_SIZE - 1))
    }

    /// True when the address is page aligned.
    pub fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// The page containing this address.
    pub fn page(self) -> VPage {
        VPage(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the containing page.
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// True if the address is within the canonical range.
    pub fn is_canonical(self) -> bool {
        self.0 < VADDR_LIMIT
    }

    /// Checked addition.
    pub fn checked_add(self, bytes: u64) -> Option<VAddr> {
        self.0.checked_add(bytes).map(VAddr)
    }
}

impl Add<u64> for VAddr {
    type Output = VAddr;
    fn add(self, rhs: u64) -> VAddr {
        VAddr(self.0 + rhs)
    }
}

impl Sub<VAddr> for VAddr {
    type Output = u64;
    fn sub(self, rhs: VAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl Sub<u64> for VAddr {
    type Output = VAddr;
    fn sub(self, rhs: u64) -> VAddr {
        VAddr(self.0 - rhs)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for VAddr {
    fn from(v: u64) -> Self {
        VAddr(v)
    }
}

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VPage(pub u64);

impl VPage {
    /// First byte of the page.
    pub fn base(self) -> VAddr {
        VAddr(self.0 << PAGE_SHIFT)
    }

    /// The next page.
    pub fn next(self) -> VPage {
        VPage(self.0 + 1)
    }
}

impl fmt::Display for VPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// Iterates over the pages covering `[addr, addr + len)`.
pub(crate) fn pages_covering(addr: VAddr, len: u64) -> impl Iterator<Item = VPage> {
    let first = addr.page().0;
    let last = if len == 0 {
        first
    } else {
        (addr + (len - 1)).page().0 + 1
    };
    (first..last).map(VPage)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_rounding() {
        let a = VAddr(0x1234);
        assert_eq!(a.page_down(), VAddr(0x1000));
        assert_eq!(a.page_up(), VAddr(0x2000));
        assert_eq!(VAddr(0x2000).page_up(), VAddr(0x2000));
        assert!(VAddr(0x3000).is_page_aligned());
        assert!(!a.is_page_aligned());
        assert_eq!(a.page_offset(), 0x234);
    }

    #[test]
    fn page_base_roundtrip() {
        let a = VAddr(0x5678_9abc);
        assert_eq!(a.page().base(), a.page_down());
        assert_eq!(a.page().next().base(), a.page_down() + PAGE_SIZE);
    }

    #[test]
    fn canonical_range() {
        assert!(VAddr(0).is_canonical());
        assert!(VAddr(VADDR_LIMIT - 1).is_canonical());
        assert!(!VAddr(VADDR_LIMIT).is_canonical());
    }

    #[test]
    fn pages_covering_ranges() {
        // Empty range: no pages.
        assert_eq!(pages_covering(VAddr(0x1000), 0).count(), 0);
        // Within one page.
        let pages: Vec<_> = pages_covering(VAddr(0x1010), 16).collect();
        assert_eq!(pages, vec![VPage(1)]);
        // Straddling a boundary.
        let pages: Vec<_> = pages_covering(VAddr(0x1ff8), 16).collect();
        assert_eq!(pages, vec![VPage(1), VPage(2)]);
        // Exactly one page, aligned.
        let pages: Vec<_> = pages_covering(VAddr(0x2000), PAGE_SIZE).collect();
        assert_eq!(pages, vec![VPage(2)]);
    }

    #[test]
    fn vaddr_arithmetic() {
        let a = VAddr(0x1000);
        assert_eq!(a + 0x10, VAddr(0x1010));
        assert_eq!(VAddr(0x1010) - a, 0x10);
        assert_eq!(a.checked_add(u64::MAX), None);
        assert_eq!(VAddr::from(0x42u64), VAddr(0x42));
        assert_eq!(format!("{a}"), "0x1000");
    }
}
