//! Simulated disk and filesystem.
//!
//! Several Parboil workloads (mri-fhd, mri-q, sad, tpacf) read their inputs
//! from disk and the 3D-stencil experiment periodically writes its volume
//! out; the paper's Figure 10 shows IORead/IOWrite as major components. The
//! simulated disk charges `seek + bytes/bandwidth` per operation against a
//! serial disk engine, and [`SimFs`] stores file contents so the data path is
//! real (workloads read back exactly the bytes that were written).

use crate::engine::Engine;
use crate::error::{SimError, SimResult};
use crate::time::Nanos;
use std::collections::BTreeMap;

use crate::bandwidth::BytesPerSec;

/// Disk performance model: serial engine with seek latency and asymmetric
/// read/write bandwidth.
#[derive(Debug)]
pub struct Disk {
    engine: Engine,
    seek: Nanos,
    read_bw: BytesPerSec,
    write_bw: BytesPerSec,
}

impl Disk {
    /// Creates a disk model.
    pub fn new(seek: Nanos, read_bw: BytesPerSec, write_bw: BytesPerSec) -> Self {
        Disk {
            engine: Engine::new("disk"),
            seek,
            read_bw,
            write_bw,
        }
    }

    /// A 7200-rpm SATA disk of the paper's era (~150 MB/s read, ~110 MB/s
    /// write). The per-request cost models the syscall + filesystem +
    /// controller overhead of a *sequential* request (the access pattern of
    /// every workload here), not a full platter seek.
    pub fn sata_7200() -> Self {
        Disk::new(
            Nanos::from_micros(150),
            BytesPerSec::from_mbps(150.0),
            BytesPerSec::from_mbps(110.0),
        )
    }

    /// Time to read `bytes` in one request.
    pub fn read_time(&self, bytes: u64) -> Nanos {
        self.seek + Nanos::from_secs_f64(bytes as f64 / self.read_bw.as_bps())
    }

    /// Time to write `bytes` in one request.
    pub fn write_time(&self, bytes: u64) -> Nanos {
        self.seek + Nanos::from_secs_f64(bytes as f64 / self.write_bw.as_bps())
    }

    /// Serial engine backing the disk (for reservation by the platform).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Resets the disk timeline.
    pub fn reset(&mut self) {
        self.engine.reset();
    }
}

/// In-memory simulated filesystem: file name → contents.
#[derive(Debug, Default)]
pub struct SimFs {
    files: BTreeMap<String, Vec<u8>>,
}

impl SimFs {
    /// Creates an empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates (or replaces) a file with the given contents.
    pub fn create(&mut self, name: &str, data: Vec<u8>) {
        self.files.insert(name.to_string(), data);
    }

    /// File length in bytes.
    ///
    /// # Errors
    /// [`SimError::FileNotFound`] if the file does not exist.
    pub fn len(&self, name: &str) -> SimResult<u64> {
        self.files
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| SimError::FileNotFound(name.to_string()))
    }

    /// True when no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Reads up to `out.len()` bytes from `name` at `offset`; returns bytes
    /// read (0 at EOF).
    ///
    /// # Errors
    /// [`SimError::FileNotFound`] if the file does not exist.
    pub fn read_at(&self, name: &str, offset: u64, out: &mut [u8]) -> SimResult<usize> {
        let data = self
            .files
            .get(name)
            .ok_or_else(|| SimError::FileNotFound(name.to_string()))?;
        let off = (offset as usize).min(data.len());
        let n = out.len().min(data.len() - off);
        out[..n].copy_from_slice(&data[off..off + n]);
        Ok(n)
    }

    /// Writes `src` into `name` at `offset`, growing the file as needed.
    /// Creates the file if missing. Returns bytes written.
    pub fn write_at(&mut self, name: &str, offset: u64, src: &[u8]) -> SimResult<usize> {
        let data = self.files.entry(name.to_string()).or_default();
        let end = offset as usize + src.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(src);
        Ok(src.len())
    }

    /// Removes a file, returning its contents if it existed.
    pub fn remove(&mut self, name: &str) -> Option<Vec<u8>> {
        self.files.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut fs = SimFs::new();
        fs.create("input.dat", vec![1, 2, 3, 4, 5]);
        let mut buf = [0u8; 3];
        assert_eq!(fs.read_at("input.dat", 1, &mut buf).unwrap(), 3);
        assert_eq!(buf, [2, 3, 4]);
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut fs = SimFs::new();
        fs.create("f", vec![9; 4]);
        let mut buf = [0u8; 8];
        assert_eq!(fs.read_at("f", 2, &mut buf).unwrap(), 2);
        assert_eq!(fs.read_at("f", 4, &mut buf).unwrap(), 0);
        assert_eq!(fs.read_at("f", 100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn missing_file_is_error() {
        let fs = SimFs::new();
        assert!(matches!(
            fs.read_at("nope", 0, &mut [0u8; 1]),
            Err(SimError::FileNotFound(_))
        ));
        assert!(matches!(fs.len("nope"), Err(SimError::FileNotFound(_))));
    }

    #[test]
    fn write_grows_file() {
        let mut fs = SimFs::new();
        fs.write_at("out", 4, &[7, 8]).unwrap();
        assert_eq!(fs.len("out").unwrap(), 6);
        let mut buf = [0u8; 6];
        fs.read_at("out", 0, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0, 7, 8]);
    }

    #[test]
    fn disk_times_scale_with_size() {
        let d = Disk::sata_7200();
        let small = d.read_time(4 << 10);
        let large = d.read_time(4 << 20);
        assert!(large > small);
        // Writes are slower than reads for equal size.
        assert!(d.write_time(1 << 20) > d.read_time(1 << 20));
        // Request overhead dominates tiny requests.
        assert!(d.read_time(1) >= Nanos::from_micros(150));
    }

    #[test]
    fn remove_and_listing() {
        let mut fs = SimFs::new();
        fs.create("a", vec![1]);
        fs.create("b", vec![2]);
        let names: Vec<_> = fs.files.keys().map(String::as_str).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(fs.remove("a"), Some(vec![1]));
        assert_eq!(fs.remove("a"), None);
    }
}
