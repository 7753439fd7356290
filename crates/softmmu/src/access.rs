//! Typed access paths over the software MMU.
//!
//! The CPU side of a GMAC application reads and writes shared objects through
//! these helpers; each call performs the same protection check a hardware
//! load/store would, so coherence-protocol permission changes behave exactly
//! like `mprotect` on the paper's platform.

use crate::addr::VAddr;
use crate::fault::MmuResult;
use crate::prot::AccessKind;
use crate::space::AddressSpace;
use std::borrow::Cow;

/// A plain-old-data scalar that can cross the softmmu boundary.
///
/// Implemented for the primitive numeric types; all encodings are
/// little-endian (the paper assumes homogeneous data representation between
/// CPU and accelerator, §6.2).
///
/// # Safety
/// `SIZE` must equal `size_of::<Self>()`, and when [`Scalar::RAW_COMPAT`]
/// is `true` the implementor additionally guarantees that its in-memory
/// representation is exactly its little-endian encoding — no padding, no
/// niches, every bit pattern valid — so bulk paths and the mmap fast path
/// may `memcpy`/load it instead of encoding element by element.
pub unsafe trait Scalar: Copy + Sized {
    /// Encoded size in bytes.
    const SIZE: usize;

    /// Whether the in-memory representation *is* the little-endian encoding
    /// (see the trait's safety contract). `false` forces the portable
    /// per-element encode/decode everywhere.
    const RAW_COMPAT: bool = false;

    /// Encodes into `out` (exactly `SIZE` bytes).
    fn store_le(self, out: &mut [u8]);

    /// Decodes from `src` (exactly `SIZE` bytes).
    fn load_le(src: &[u8]) -> Self;
}

macro_rules! impl_scalar {
    ($($t:ty),*) => {$(
        // SAFETY: primitive numeric types have no padding or niches, accept
        // any bit pattern, and on little-endian hosts their representation
        // is their little-endian encoding.
        unsafe impl Scalar for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            const RAW_COMPAT: bool = cfg!(target_endian = "little");
            fn store_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            fn load_le(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src.try_into().expect("scalar size mismatch"))
            }
        }
    )*};
}

impl_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

impl AddressSpace {
    /// Checked typed load at `addr`.
    ///
    /// On a TLB hit the load is a single probe + frame copy; misses,
    /// page-straddling accesses and protection denials fall back to the
    /// checked slow path (which reports faults and refills the TLB).
    ///
    /// # Errors
    /// Propagates protection faults and unmapped-page errors.
    pub fn load<T: Scalar>(&mut self, addr: VAddr) -> MmuResult<T> {
        if let Some(pte) = self.fast_translate(addr, T::SIZE, AccessKind::Read) {
            return Ok(T::load_le(self.page_bytes(addr, T::SIZE, pte)));
        }
        let mut buf = [0u8; 8];
        let buf = &mut buf[..T::SIZE];
        self.read_bytes(addr, buf)?;
        Ok(T::load_le(buf))
    }

    /// Checked typed store at `addr` (TLB fast path like [`Self::load`]).
    ///
    /// # Errors
    /// Propagates protection faults and unmapped-page errors.
    pub fn store<T: Scalar>(&mut self, addr: VAddr, value: T) -> MmuResult<()> {
        if let Some(pte) = self.fast_translate(addr, T::SIZE, AccessKind::Write) {
            value.store_le(self.page_bytes_mut(addr, T::SIZE, pte));
            return Ok(());
        }
        let mut buf = [0u8; 8];
        let buf = &mut buf[..T::SIZE];
        value.store_le(buf);
        self.write_bytes(addr, buf)
    }

    /// Checked load of `n` consecutive scalars starting at `addr`.
    ///
    /// # Errors
    /// Propagates protection faults and unmapped-page errors.
    pub fn load_slice<T: Scalar>(&mut self, addr: VAddr, n: usize) -> MmuResult<Vec<T>> {
        let len = (n * T::SIZE) as u64;
        self.check(addr, len, AccessKind::Read)?;
        decode_with(n, |bytes| self.copy_out_ref(addr, bytes))
    }

    /// Checked store of consecutive scalars starting at `addr`.
    ///
    /// # Errors
    /// Propagates protection faults and unmapped-page errors.
    pub fn store_slice<T: Scalar>(&mut self, addr: VAddr, values: &[T]) -> MmuResult<()> {
        self.write_bytes(addr, &as_bytes(values))
    }
}

/// The little-endian bytes of a scalar slice: borrowed in place for a
/// [`Scalar::RAW_COMPAT`] element type, encoded into a new buffer otherwise.
pub fn as_bytes<T: Scalar>(values: &[T]) -> Cow<'_, [u8]> {
    if T::RAW_COMPAT {
        // SAFETY: RAW_COMPAT guarantees the in-memory representation is the
        // padding-free little-endian encoding, so the slice's memory *is*
        // its byte encoding.
        return Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
        });
    }
    let mut bytes = vec![0u8; values.len() * T::SIZE];
    for (chunk, v) in bytes.chunks_exact_mut(T::SIZE).zip(values) {
        v.store_le(chunk);
    }
    Cow::Owned(bytes)
}

/// `n` scalars decoded from the little-endian bytes `fill` writes into the
/// slice it is given. For a [`Scalar::RAW_COMPAT`] element type that slice
/// is the returned vector's own storage — one pass, no second buffer;
/// other types decode from a byte buffer.
///
/// # Errors
/// Whatever `fill` returns; no vector is returned then.
pub fn decode_with<T: Scalar, E>(
    n: usize,
    fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
) -> Result<Vec<T>, E> {
    if T::RAW_COMPAT {
        // All-zero elements: a large vector comes straight from `calloc`,
        // so `fill` is the first pass over its pages.
        let mut out = vec![T::load_le(&[0u8; 8][..T::SIZE]); n];
        let len = std::mem::size_of_val(out.as_slice());
        // SAFETY: the `len` bytes are the initialized elements' storage, and
        // RAW_COMPAT scalars have no padding and accept every bit pattern,
        // so that storage may be written as plain bytes.
        fill(unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), len) })?;
        return Ok(out);
    }
    let mut bytes = vec![0u8; n * T::SIZE];
    fill(&mut bytes)?;
    Ok(bytes.chunks_exact(T::SIZE).map(T::load_le).collect())
}

/// Encodes a scalar slice to little-endian bytes (host-private buffers).
/// A [`Scalar::RAW_COMPAT`] element type makes this a single `memcpy`.
pub fn to_bytes<T: Scalar>(values: &[T]) -> Vec<u8> {
    as_bytes(values).into_owned()
}

/// Decodes little-endian bytes into a scalar vector.
/// A [`Scalar::RAW_COMPAT`] element type makes this a single `memcpy`.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of the scalar size.
pub fn from_bytes<T: Scalar>(bytes: &[u8]) -> Vec<T> {
    assert_eq!(
        bytes.len() % T::SIZE,
        0,
        "byte length not a scalar multiple"
    );
    decode_with(bytes.len() / T::SIZE, |out| {
        out.copy_from_slice(bytes);
        Ok::<_, std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prot::Protection;

    #[test]
    fn typed_roundtrip_all_types() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 4096, Protection::ReadWrite).unwrap();
        vm.store::<u8>(a, 0xAB).unwrap();
        assert_eq!(vm.load::<u8>(a).unwrap(), 0xAB);
        vm.store::<i16>(a, -5).unwrap();
        assert_eq!(vm.load::<i16>(a).unwrap(), -5);
        vm.store::<u32>(a, 0xDEAD_BEEF).unwrap();
        assert_eq!(vm.load::<u32>(a).unwrap(), 0xDEAD_BEEF);
        vm.store::<f32>(a, -2.5).unwrap();
        assert_eq!(vm.load::<f32>(a).unwrap(), -2.5);
        vm.store::<f64>(a, 1e300).unwrap();
        assert_eq!(vm.load::<f64>(a).unwrap(), 1e300);
        vm.store::<i64>(a, i64::MIN).unwrap();
        assert_eq!(vm.load::<i64>(a).unwrap(), i64::MIN);
    }

    #[test]
    fn slice_roundtrip_across_pages() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 8192, Protection::ReadWrite).unwrap();
        let data: Vec<f32> = (0..1500).map(|i| i as f32 * 0.5).collect();
        vm.store_slice(a + 100, &data).unwrap(); // spans both pages
        assert_eq!(vm.load_slice::<f32>(a + 100, 1500).unwrap(), data);
    }

    #[test]
    fn typed_access_respects_protection() {
        let mut vm = AddressSpace::new();
        let a = VAddr(0x2_0000_0000);
        vm.map_fixed(a, 4096, Protection::ReadOnly).unwrap();
        assert!(vm.load::<u32>(a).is_ok());
        assert!(vm.store::<u32>(a, 1).is_err());
    }

    #[test]
    fn bytes_helpers_roundtrip() {
        let vals = [1.5f64, -2.25, 1e-9];
        let bytes = to_bytes(&vals);
        assert_eq!(bytes.len(), 24);
        assert_eq!(from_bytes::<f64>(&bytes), vals);
    }

    #[test]
    #[should_panic(expected = "byte length not a scalar multiple")]
    fn from_bytes_rejects_ragged_input() {
        let _ = from_bytes::<u32>(&[1, 2, 3]);
    }
}
