//! Physical frame arena backing the simulated system memory.

use crate::addr::PAGE_SIZE;

/// Index of a physical frame in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct FrameId(u32);

impl FrameId {
    /// Placeholder for page-table entries on the mmap backing, where bytes
    /// live in the host mapping and no arena frame exists. Never a valid
    /// arena index; the arena panics if it is ever dereferenced.
    pub(crate) const SENTINEL: FrameId = FrameId(u32::MAX);
}

/// System-memory frame storage with a free list.
#[derive(Debug, Default)]
pub(crate) struct FrameArena {
    frames: Vec<Option<Box<[u8]>>>,
    free: Vec<u32>,
}

impl FrameArena {
    /// Creates an empty arena.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Allocates a zeroed frame.
    pub(crate) fn alloc(&mut self) -> FrameId {
        if let Some(idx) = self.free.pop() {
            self.frames[idx as usize] = Some(zeroed_frame());
            FrameId(idx)
        } else {
            self.frames.push(Some(zeroed_frame()));
            FrameId(self.frames.len() as u32 - 1)
        }
    }

    /// Releases a frame back to the arena.
    ///
    /// # Panics
    /// Panics if the frame was already free (double free is a runtime bug).
    pub(crate) fn free(&mut self, id: FrameId) {
        let slot = &mut self.frames[id.0 as usize];
        assert!(slot.is_some(), "double free of frame {id:?}");
        *slot = None;
        self.free.push(id.0);
    }

    /// Read-only view of a frame's bytes.
    ///
    /// # Panics
    /// Panics on a freed or out-of-range frame id.
    pub(crate) fn bytes(&self, id: FrameId) -> &[u8] {
        self.frames[id.0 as usize]
            .as_deref()
            .expect("use of freed frame")
    }

    /// Mutable view of a frame's bytes.
    ///
    /// # Panics
    /// Panics on a freed or out-of-range frame id.
    pub(crate) fn bytes_mut(&mut self, id: FrameId) -> &mut [u8] {
        self.frames[id.0 as usize]
            .as_deref_mut()
            .expect("use of freed frame")
    }
}

fn zeroed_frame() -> Box<[u8]> {
    vec![0u8; PAGE_SIZE as usize].into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_zeroed_frames() {
        let mut a = FrameArena::new();
        let f = a.alloc();
        assert!(a.bytes(f).iter().all(|&b| b == 0));
        assert_eq!(a.bytes(f).len(), PAGE_SIZE as usize);
        assert_eq!(a.frames.len() - a.free.len(), 1);
    }

    #[test]
    fn freed_frames_are_reused_and_rezeroed() {
        let mut a = FrameArena::new();
        let f = a.alloc();
        a.bytes_mut(f)[0] = 0xFF;
        a.free(f);
        assert_eq!(a.frames.len() - a.free.len(), 0);
        let g = a.alloc();
        assert_eq!(g, f, "free list reuses the slot");
        assert_eq!(a.bytes(g)[0], 0, "recycled frames are zeroed");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameArena::new();
        let f = a.alloc();
        a.free(f);
        a.free(f);
    }

    #[test]
    #[should_panic(expected = "use of freed frame")]
    fn use_after_free_panics() {
        let mut a = FrameArena::new();
        let f = a.alloc();
        a.free(f);
        let _ = a.bytes(f);
    }
}
