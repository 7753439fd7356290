//! Bulk memory operation interposition (paper §4.4).
//!
//! GMAC overloads `memset()` and `memcpy()` so operations touching shared
//! objects avoid page-fault storms: the runtime already knows the operation's
//! full extent, so it resolves each block once (charging a single
//! fault-equivalent) and streams the bytes, instead of faulting page by page.
//! Operations on private memory are forwarded verbatim (in Rust terms: plain
//! slice operations — nothing to interpose).
//!
//! The public surface lives on [`crate::Session`]; this module holds the
//! implementation.

use crate::config::Protocol;
use crate::error::GmacResult;
use crate::ptr::SharedPtr;
use crate::shard::DeviceShard;

impl DeviceShard {
    /// Interposed `memset(ptr, value, len)` over shared memory: performed
    /// device-side (`cudaMemset`), exactly as the paper's overloaded memset
    /// (§4.4) — no page faults, no host staging copy. Runs under this
    /// shard's lock; the `memcpy` family lives on [`crate::gmac::Inner`]
    /// because a shared-to-shared copy may span two shards.
    pub(crate) fn memset_locked(&mut self, ptr: SharedPtr, value: u8, len: u64) -> GmacResult<()> {
        // The device-side fill needs a device window; an evicted target is
        // re-homed first. Batch-update fills host-side instead and its
        // evicted objects stay host-authoritative, so it skips the re-fetch.
        if self.protocol.kind() != Protocol::Batch {
            self.ensure_resident(ptr.addr(), &[])?;
        }
        let (start, _) = self.locate(ptr.addr())?;
        let offset = ptr.addr() - start;
        self.protocol
            .memset_through(&mut self.rt, &mut self.mgr, start, offset, len, value)?;
        // The fill is a program write to shared data (even though it lands
        // device-side): the race detector must see it.
        self.race_note_write(ptr.addr(), len)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{GmacConfig, Protocol};
    use crate::{Gmac, Session};
    use hetsim::Platform;

    fn session(protocol: Protocol) -> Session {
        Gmac::new(
            Platform::desktop_g280(),
            GmacConfig::default()
                .protocol(protocol)
                .block_size(64 * 1024),
        )
        .session()
    }

    #[test]
    fn memset_fills_shared_memory() {
        for protocol in Protocol::ALL {
            let s = session(protocol);
            let p = s.alloc(200_000).unwrap();
            s.memset(p, 0xEE, 200_000).unwrap();
            let out = s.load_slice::<u8>(p, 200_000).unwrap();
            assert!(out.iter().all(|&b| b == 0xEE), "{protocol}");
        }
    }

    #[test]
    fn memcpy_in_out_roundtrip() {
        for protocol in Protocol::ALL {
            let s = session(protocol);
            let p = s.alloc(100_000).unwrap();
            let data: Vec<u8> = (0..100_000u32).map(|i| (i % 253) as u8).collect();
            s.memcpy_in(p, &data).unwrap();
            let mut out = vec![0u8; 100_000];
            s.memcpy_out(&mut out, p).unwrap();
            assert_eq!(out, data, "{protocol}");
        }
    }

    #[test]
    fn shared_to_shared_copy_across_objects() {
        let s = session(Protocol::Rolling);
        let a = s.alloc(128 * 1024).unwrap();
        let b = s.alloc(128 * 1024).unwrap();
        s.memset(a, 0x3D, 128 * 1024).unwrap();
        s.memcpy(b, a, 128 * 1024).unwrap();
        let out = s.load_slice::<u8>(b, 128 * 1024).unwrap();
        assert!(out.iter().all(|&x| x == 0x3D));
    }

    #[test]
    fn same_object_memcpy_has_memmove_semantics() {
        // (case, src offset, dst offset, len) inside one 300 000-byte object
        // of 64 KiB blocks. Overlapping ranges must read as if the source
        // were copied out first; the disjoint case takes the in-place path.
        const SIZE: usize = 300_000;
        let cases = [
            ("forward overlap", 1_000, 5_000, 150_000),
            ("backward overlap", 70_000, 3, 150_000),
            ("exact alias", 4_096, 4_096, 200_000),
            ("disjoint", 0, 150_001, 140_000),
        ];
        for mmap in [true, false] {
            for protocol in Protocol::ALL {
                for (case, src, dst, len) in cases {
                    let s = Gmac::new(
                        Platform::desktop_g280(),
                        GmacConfig::default()
                            .protocol(protocol)
                            .block_size(64 * 1024)
                            .mmap_backing(mmap),
                    )
                    .session();
                    let p = s.alloc(SIZE as u64).unwrap();
                    let mut model: Vec<u8> = (0..SIZE).map(|i| (i % 251) as u8).collect();
                    s.memcpy_in(p, &model).unwrap();
                    // A device-side fill leaves blocks invalid on the host
                    // (batch fills host-side), so sources mix both states.
                    s.memset(p.byte_add(100_000), 0x5A, 50_000).unwrap();
                    model[100_000..150_000].fill(0x5A);
                    s.memcpy(p.byte_add(dst), p.byte_add(src), len).unwrap();
                    let (src, dst, len) = (src as usize, dst as usize, len as usize);
                    model.copy_within(src..src + len, dst);
                    let got = s.load_slice::<u8>(p, SIZE).unwrap();
                    assert!(got == model, "{case}, {protocol}, mmap={mmap}");
                }
            }
        }
    }

    #[test]
    fn bulk_ops_fault_once_per_block_not_per_page() {
        let s = session(Protocol::Rolling); // 64 KiB blocks = 16 pages each
        let p = s.alloc(256 * 1024).unwrap(); // 4 blocks, 64 pages
        s.memcpy_in(p, &vec![1u8; 256 * 1024]).unwrap();
        let faults = s.gmac().counters().faults();
        assert_eq!(faults, 4, "one fault-equivalent per block, not 64 per page");
    }

    #[test]
    fn memset_is_device_side_and_fault_free() {
        // The §4.4 interposition: memset becomes cudaMemset — no page
        // faults, no host->device payload transfer.
        let s = session(Protocol::Rolling);
        let p = s.alloc(256 * 1024).unwrap();
        s.memset(p, 0x7F, 256 * 1024).unwrap();
        assert_eq!(s.gmac().counters().faults(), 0);
        assert_eq!(s.gmac().transfers().h2d_bytes, 0);
        // Blocks are invalid: the first CPU read fetches the fill back.
        let v: u8 = s.load(p).unwrap();
        assert_eq!(v, 0x7F);
        assert!(s.gmac().transfers().d2h_bytes > 0);
    }

    #[test]
    fn misaligned_subrange_copy() {
        let s = session(Protocol::Rolling);
        let p = s.alloc(256 * 1024).unwrap();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 91) as u8).collect();
        // Straddles a block boundary at 64 KiB.
        let off = 64 * 1024 - 500;
        s.memcpy_in(p.byte_add(off), &data).unwrap();
        let mut out = vec![0u8; 1000];
        s.memcpy_out(&mut out, p.byte_add(off)).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let s = session(Protocol::Rolling);
        let p = s.alloc(4096).unwrap();
        assert!(s.memset(p, 0, 8192).is_err());
        assert!(s.memcpy_in(p.byte_add(4000), &[0u8; 200]).is_err());
    }
}
