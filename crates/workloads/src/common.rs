//! Workload framework: every benchmark is implemented twice — a CUDA-style
//! baseline with explicit `cudaMemcpy` management (the paper's Figure 3
//! pattern) and a GMAC/ADSM version (the Figure 4 pattern) — over the *same*
//! kernels, so outputs are bit-identical and performance differences are
//! purely the programming model's.

use gmac::{Gmac, GmacConfig, GmacError, Protocol, Session};
use hetsim::{Nanos, Platform, SimError, TimeLedger, TransferLedger};
use std::error::Error;
use std::fmt;

/// Which implementation of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Explicit-transfer baseline over the `cudart` shim.
    Cuda,
    /// ADSM version under the given coherence protocol.
    Gmac(Protocol),
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Variant::Cuda => f.write_str("CUDA"),
            Variant::Gmac(p) => write!(f, "{p}"),
        }
    }
}

impl Variant {
    /// All variants in the paper's Figure 7 order.
    pub const ALL: [Variant; 4] = [
        Variant::Gmac(Protocol::Batch),
        Variant::Gmac(Protocol::Lazy),
        Variant::Gmac(Protocol::Rolling),
        Variant::Cuda,
    ];
}

/// Errors from workload execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkloadError {
    /// GMAC runtime failure.
    Gmac(GmacError),
    /// CUDA-shim failure.
    Cuda(cudart::CudaError),
    /// Platform failure.
    Sim(SimError),
    /// Workload-level validation failure (outputs disagree, bad dataset...).
    Validation(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Gmac(e) => write!(f, "gmac: {e}"),
            WorkloadError::Cuda(e) => write!(f, "cuda: {e}"),
            WorkloadError::Sim(e) => write!(f, "sim: {e}"),
            WorkloadError::Validation(msg) => write!(f, "validation: {msg}"),
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Gmac(e) => Some(e),
            WorkloadError::Cuda(e) => Some(e),
            WorkloadError::Sim(e) => Some(e),
            WorkloadError::Validation(_) => None,
        }
    }
}

impl From<GmacError> for WorkloadError {
    fn from(e: GmacError) -> Self {
        WorkloadError::Gmac(e)
    }
}

impl From<cudart::CudaError> for WorkloadError {
    fn from(e: cudart::CudaError) -> Self {
        WorkloadError::Cuda(e)
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

/// Result alias for workload code.
pub type WorkloadResult<T> = Result<T, WorkloadError>;

/// Measurements from one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub name: &'static str,
    /// Variant executed.
    pub variant: Variant,
    /// Total virtual execution time.
    pub elapsed: Nanos,
    /// Execution-time break-down (Figure 10).
    pub ledger: TimeLedger,
    /// Bytes moved per direction (Figure 8).
    pub transfers: TransferLedger,
    /// GMAC event counters (`None` for the CUDA baseline).
    pub counters: Option<gmac::Counters>,
    /// FNV-1a digest of the workload output (equality across variants is
    /// asserted by the test suite).
    pub digest: u64,
}

/// A benchmark implemented in both programming models.
pub trait Workload {
    /// Benchmark name (Parboil name where applicable).
    fn name(&self) -> &'static str;

    /// One-line description (paper Table 2).
    fn description(&self) -> &'static str;

    /// Registers the workload's kernels with the platform.
    fn register_kernels(&self, platform: &mut Platform);

    /// Creates input files etc. (charged no simulated time).
    fn prepare(&self, platform: &mut Platform) -> WorkloadResult<()> {
        let _ = platform;
        Ok(())
    }

    /// Runs the explicit-transfer baseline; returns the output digest.
    ///
    /// # Errors
    /// Propagates platform/shim failures.
    fn run_cuda(&self, platform: &mut Platform) -> WorkloadResult<u64>;

    /// Runs the ADSM version through a session handle; returns the output
    /// digest.
    ///
    /// # Errors
    /// Propagates runtime failures.
    fn run_gmac(&self, ctx: &Session) -> WorkloadResult<u64>;
}

/// Runs one variant of a workload on a fresh default platform.
///
/// # Errors
/// Propagates workload failures.
pub fn run_variant(w: &dyn Workload, variant: Variant) -> WorkloadResult<RunResult> {
    run_variant_with(w, variant, GmacConfig::default())
}

/// Runs one variant with explicit GMAC configuration (protocol field is
/// overridden by the variant).
///
/// # Errors
/// Propagates workload failures.
pub fn run_variant_with(
    w: &dyn Workload,
    variant: Variant,
    gmac_config: GmacConfig,
) -> WorkloadResult<RunResult> {
    let mut platform = Platform::desktop_g280();
    w.register_kernels(&mut platform);
    w.prepare(&mut platform)?;
    match variant {
        Variant::Cuda => {
            let digest = w.run_cuda(&mut platform)?;
            let ledger = platform.ledger();
            let transfers = *platform.transfers();
            Ok(RunResult {
                name: w.name(),
                variant,
                elapsed: platform.elapsed(),
                ledger,
                transfers,
                counters: None,
                digest,
            })
        }
        Variant::Gmac(protocol) => {
            let gmac = Gmac::new(platform, gmac_config.protocol(protocol));
            let session = gmac.session();
            let digest = w.run_gmac(&session)?;
            let counters = gmac.counters();
            drop(session);
            let platform = gmac.into_platform();
            let ledger = platform.ledger();
            let transfers = *platform.transfers();
            Ok(RunResult {
                name: w.name(),
                variant,
                elapsed: platform.elapsed(),
                ledger,
                transfers,
                counters: Some(counters),
                digest,
            })
        }
    }
}

/// A workload packaged for submission to the [`gmac::Service`] front-end:
/// the byte-footprint hint admission and deficit-weighted fairness account
/// in, plus the boxed job closure the service executes on a placed session.
/// Built by [`service_job`] or the per-workload `job()` constructors.
pub struct JobSpec {
    /// Approximate bytes the job touches (the service's fairness currency).
    pub bytes_hint: u64,
    /// Runs the workload's GMAC variant; returns its output digest.
    pub job: gmac::JobFn,
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("bytes_hint", &self.bytes_hint)
            .finish()
    }
}

impl JobSpec {
    /// Submits this job through a service client.
    ///
    /// # Errors
    /// [`GmacError::Admission`] when the service queue is full or closing.
    pub fn submit(self, client: &gmac::ServiceClient) -> gmac::GmacResult<gmac::Ticket> {
        client.submit_boxed(self.bytes_hint, self.job)
    }
}

/// Maps a workload failure to the runtime error a service ticket carries:
/// GMAC errors pass through untouched; shim/validation failures (which
/// cannot occur on the session-only job path short of a bug) surface as
/// unresolved faults.
fn job_error(e: WorkloadError) -> GmacError {
    match e {
        WorkloadError::Gmac(e) => e,
        other => GmacError::UnresolvedFault(format!("workload failure: {other}")),
    }
}

/// Packages a workload's GMAC variant as a service job with the given byte
/// hint. The job runs on whatever device-pinned session the service's
/// placer assigns and returns the workload's output digest, so cross-mode
/// digest comparisons work unchanged through the queue. The workload's
/// kernels must already be registered on the runtime's platform.
pub fn service_job<W>(w: W, bytes_hint: u64) -> JobSpec
where
    W: Workload + Send + 'static,
{
    JobSpec {
        bytes_hint,
        job: Box::new(move |session| w.run_gmac(session).map_err(job_error)),
    }
}

/// FNV-1a streaming digest for cross-variant output comparison.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl Digest {
    /// Creates a fresh digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Absorbs an `f32` slice (bitwise).
    pub fn update_f32(&mut self, values: &[f32]) {
        for v in values {
            self.update(&v.to_le_bytes());
        }
    }

    /// Absorbs a `u32` slice.
    pub fn update_u32(&mut self, values: &[u32]) {
        for v in values {
            self.update(&v.to_le_bytes());
        }
    }

    /// Final digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Deterministic pseudo-random `f32` in [0, 1) — a tiny xorshift so datasets
/// are identical across variants without threading a rand RNG everywhere.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    /// Creates a generator from a seed (0 is remapped).
    pub fn new(seed: u64) -> Self {
        Prng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform `f32` in [0, 1).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform `f32` in [lo, hi).
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_deterministic() {
        let mut a = Digest::new();
        a.update(&[1, 2, 3]);
        let mut b = Digest::new();
        b.update(&[3, 2, 1]);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.update(&[1, 2, 3]);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn digest_f32_matches_bytes() {
        let mut a = Digest::new();
        a.update_f32(&[1.5, -2.0]);
        let mut b = Digest::new();
        b.update(&1.5f32.to_le_bytes());
        b.update(&(-2.0f32).to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn prng_is_deterministic_and_in_range() {
        let mut p = Prng::new(42);
        let mut q = Prng::new(42);
        for _ in 0..1000 {
            let v = p.next_f32();
            assert_eq!(v, q.next_f32());
            assert!((0.0..1.0).contains(&v));
        }
        let r = Prng::new(42).range_f32(-3.0, 3.0);
        assert!((-3.0..3.0).contains(&r));
    }

    #[test]
    fn prng_zero_seed_is_remapped() {
        let mut p = Prng::new(0);
        assert_ne!(p.next_u64(), 0);
    }

    #[test]
    fn variant_display() {
        assert_eq!(Variant::Cuda.to_string(), "CUDA");
        assert_eq!(Variant::Gmac(Protocol::Rolling).to_string(), "GMAC Rolling");
        assert_eq!(Variant::ALL.len(), 4);
    }
}
