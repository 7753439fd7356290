//! Error type for the GMAC runtime.

use crate::session::SessionId;
use cudart::CudaError;
use hetsim::{DeviceId, Nanos, SimError};
use softmmu::{MmuError, VAddr};
use std::error::Error;
use std::fmt;

/// Errors raised by the ADSM runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GmacError {
    /// A pointer does not fall inside any live shared object.
    NotShared(VAddr),
    /// The unified-address `mmap` trick failed because the host range is
    /// taken (the multi-accelerator case of paper §4.2); use
    /// [`crate::Session::safe_alloc`] instead.
    AddressCollision(VAddr),
    /// Kernel parameters reference objects on different accelerators.
    MixedDevices,
    /// `sync()` called with no outstanding accelerator call.
    NothingToSync,
    /// A kernel call targeted a device that already has a call in flight
    /// from a *different* session; each accelerator runs at most one
    /// un-synced call at a time, so the owner must sync first.
    ///
    /// With the service layer ([`crate::Service`]) on, this error never reaches
    /// clients: contention becomes queueing (or an explicit
    /// [`GmacError::Admission`]) instead.
    DeviceBusy {
        /// The busy accelerator.
        dev: DeviceId,
        /// The session whose call is in flight.
        owner: SessionId,
        /// Machine-readable backoff hint: how long the in-flight call is
        /// expected to take to drain.
        retry_after: Nanos,
    },
    /// The service layer refused a job at submit time (see
    /// `service/admission.rs`). Carries a machine-readable
    /// retry-after hint so clients can back off instead of hammering.
    Admission {
        /// Why the job was refused.
        reason: AdmissionReason,
        /// Suggested backoff before resubmitting.
        retry_after: Nanos,
    },
    /// `free()` targeted a shared object referenced by a still-pending
    /// accelerator call. Freeing it would tear the mapping out from under
    /// the kernel (and desynchronise the time ledger); sync first.
    ObjectInUse {
        /// Start address of the object.
        addr: VAddr,
        /// Device running the pending call that references it.
        dev: DeviceId,
        /// Session whose call holds the object (the one that must sync).
        owner: SessionId,
    },
    /// A device window genuinely cannot hold the requested allocation:
    /// either eviction is disabled ([`crate::GmacConfig::evict`] off) or
    /// every resident object was pinned (referenced by a pending call or
    /// with DMA in flight) and no unpinned victim could free enough room.
    /// With eviction on and unpinned victims available, allocations succeed
    /// by evicting instead of surfacing this error.
    DeviceOom {
        /// Bytes the allocation asked the device allocator for (rounded to
        /// the allocator's alignment granule).
        requested: u64,
        /// Free device bytes at the time of refusal (possibly fragmented).
        free: u64,
        /// The full device.
        device: DeviceId,
    },
    /// The coherence race detector ([`crate::GmacConfig::race_check`], error
    /// mode) caught an access the paper's consistency model (§3) forbids.
    /// The offending operation *completed* (the write landed / the launch
    /// was refused before charging, see `race.rs`); the error is the
    /// diagnostic. Sink mode ([`crate::GmacConfig::race_report`]) logs into
    /// [`crate::Report`] instead of raising this.
    RaceDetected {
        /// Start address of the shared object involved.
        object: VAddr,
        /// Byte offset of the offending range within the object.
        offset: u64,
        /// Length of the offending range in bytes.
        len: u64,
        /// The accelerator whose in-flight or refused call is involved.
        device: DeviceId,
        /// Violation kinds (non-empty; sorted).
        kinds: Vec<crate::race::RaceKind>,
    },
    /// An access spans beyond the end of a shared object.
    OutOfObjectBounds {
        /// Object start.
        base: VAddr,
        /// Offending offset.
        offset: u64,
        /// Access length.
        len: u64,
    },
    /// A protection fault could not be resolved by the coherence protocol
    /// (a runtime bug; faults must not occur in batch-update, for example).
    UnresolvedFault(String),
    /// Underlying accelerator-API failure.
    Cuda(CudaError),
    /// Underlying platform failure.
    Sim(SimError),
    /// Underlying MMU failure that is not a recoverable protection fault.
    Mmu(MmuError),
}

/// Why the service layer refused a job at admission
/// ([`GmacError::Admission`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmissionReason {
    /// The bounded service queue is at capacity
    /// ([`crate::GmacConfig::service_queue_depth`]); retry after the hint.
    QueueFull {
        /// Jobs queued at refusal time.
        queued: usize,
        /// Configured queue capacity.
        capacity: usize,
    },
    /// The service is shutting down; resubmission will not succeed.
    Shutdown,
}

impl fmt::Display for AdmissionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionReason::QueueFull { queued, capacity } => {
                write!(f, "service queue full ({queued}/{capacity} jobs)")
            }
            AdmissionReason::Shutdown => f.write_str("service is shutting down"),
        }
    }
}

impl fmt::Display for GmacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmacError::NotShared(a) => write!(f, "pointer {a} is not in a shared object"),
            GmacError::AddressCollision(a) => {
                write!(f, "host range at {a} already in use; use safe_alloc")
            }
            GmacError::MixedDevices => f.write_str("kernel parameters span multiple accelerators"),
            GmacError::NothingToSync => f.write_str("no accelerator call outstanding"),
            GmacError::DeviceBusy {
                dev,
                owner,
                retry_after,
            } => {
                write!(
                    f,
                    "device {dev} already has a call in flight from {owner}; sync it first \
                     (retry after ~{}ns)",
                    retry_after.as_nanos()
                )
            }
            GmacError::Admission {
                reason,
                retry_after,
            } => {
                write!(
                    f,
                    "job refused at admission: {reason} (retry after ~{}ns)",
                    retry_after.as_nanos()
                )
            }
            GmacError::ObjectInUse { addr, dev, owner } => {
                write!(
                    f,
                    "shared object at {addr} is referenced by {owner}'s call in flight on \
                     device {dev}; sync before freeing"
                )
            }
            GmacError::DeviceOom {
                requested,
                free,
                device,
            } => {
                write!(
                    f,
                    "device {device} out of memory: requested {requested} bytes, {free} free \
                     and no evictable victim"
                )
            }
            GmacError::RaceDetected {
                object,
                offset,
                len,
                device,
                kinds,
            } => {
                write!(f, "race detected [")?;
                for (i, k) in kinds.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}")?;
                }
                write!(
                    f,
                    "]: object {object} bytes [{offset}, {}) conflict with device {device}'s \
                     call; sync before touching shared data a kernel may read",
                    offset + len
                )
            }
            GmacError::OutOfObjectBounds { base, offset, len } => {
                write!(
                    f,
                    "access at {base}+{offset} length {len} exceeds the shared object"
                )
            }
            GmacError::UnresolvedFault(msg) => write!(f, "unresolved protection fault: {msg}"),
            GmacError::Cuda(e) => write!(f, "accelerator error: {e}"),
            GmacError::Sim(e) => write!(f, "platform error: {e}"),
            GmacError::Mmu(e) => write!(f, "mmu error: {e}"),
        }
    }
}

impl Error for GmacError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GmacError::Cuda(e) => Some(e),
            GmacError::Sim(e) => Some(e),
            GmacError::Mmu(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CudaError> for GmacError {
    fn from(e: CudaError) -> Self {
        GmacError::Cuda(e)
    }
}

impl From<SimError> for GmacError {
    fn from(e: SimError) -> Self {
        GmacError::Sim(e)
    }
}

impl From<MmuError> for GmacError {
    fn from(e: MmuError) -> Self {
        GmacError::Mmu(e)
    }
}

/// Result alias for GMAC operations.
pub type GmacResult<T> = Result<T, GmacError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert_eq!(
            GmacError::NotShared(VAddr(0x10)).to_string(),
            "pointer 0x10 is not in a shared object"
        );
        assert!(GmacError::AddressCollision(VAddr(0x2000))
            .to_string()
            .contains("safe_alloc"));
        let e = GmacError::OutOfObjectBounds {
            base: VAddr(0x1000),
            offset: 4096,
            len: 8,
        };
        assert!(e.to_string().contains("0x1000+4096"));
    }

    #[test]
    fn sources_chain() {
        let e = GmacError::from(SimError::NoSuchDevice(2));
        assert!(e.source().is_some());
        let e = GmacError::NothingToSync;
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GmacError>();
    }

    #[test]
    fn session_variant_displays() {
        let e = GmacError::DeviceBusy {
            dev: DeviceId(1),
            owner: SessionId(3),
            retry_after: Nanos::from_micros(5),
        };
        assert_eq!(
            e.to_string(),
            "device gpu1 already has a call in flight from session #3; sync it first \
             (retry after ~5000ns)"
        );
        let e = GmacError::ObjectInUse {
            addr: VAddr(0x2_0000_0000),
            dev: DeviceId(0),
            owner: SessionId(7),
        };
        let text = e.to_string();
        assert!(text.contains("sync before freeing"));
        assert!(
            text.contains("session #7") && text.contains("gpu0"),
            "ObjectInUse must name the owning session and device: {text}"
        );
        assert!(e.source().is_none());
    }

    #[test]
    fn device_oom_names_device_and_sizes() {
        let e = GmacError::DeviceOom {
            requested: 1 << 20,
            free: 4096,
            device: DeviceId(2),
        };
        let text = e.to_string();
        assert!(
            text.contains("gpu2") && text.contains("1048576") && text.contains("4096"),
            "DeviceOom must name the device, request and free bytes: {text}"
        );
        assert!(e.source().is_none());
    }

    #[test]
    fn admission_carries_machine_readable_retry() {
        let e = GmacError::Admission {
            reason: AdmissionReason::QueueFull {
                queued: 3,
                capacity: 4,
            },
            retry_after: Nanos::from_micros(2),
        };
        match &e {
            GmacError::Admission {
                reason,
                retry_after,
            } => {
                assert_eq!(*retry_after, Nanos::from_micros(2));
                assert_eq!(reason.to_string(), "service queue full (3/4 jobs)");
            }
            _ => unreachable!(),
        }
        assert!(e.to_string().contains("2000ns"));
        assert!(e.source().is_none());
        assert_eq!(
            AdmissionReason::Shutdown.to_string(),
            "service is shutting down"
        );
    }

    #[test]
    fn every_variant_has_a_nonempty_display() {
        let variants = [
            GmacError::NotShared(VAddr(1)),
            GmacError::AddressCollision(VAddr(1)),
            GmacError::MixedDevices,
            GmacError::NothingToSync,
            GmacError::DeviceBusy {
                dev: DeviceId(0),
                owner: SessionId(1),
                retry_after: Nanos::ZERO,
            },
            GmacError::Admission {
                reason: AdmissionReason::QueueFull {
                    queued: 8,
                    capacity: 8,
                },
                retry_after: Nanos::from_nanos(1),
            },
            GmacError::Admission {
                reason: AdmissionReason::Shutdown,
                retry_after: Nanos::ZERO,
            },
            GmacError::ObjectInUse {
                addr: VAddr(1),
                dev: DeviceId(0),
                owner: SessionId(0),
            },
            GmacError::DeviceOom {
                requested: 4096,
                free: 0,
                device: DeviceId(0),
            },
            GmacError::RaceDetected {
                object: VAddr(1),
                offset: 0,
                len: 4,
                device: DeviceId(0),
                kinds: vec![crate::race::RaceKind::CpuWriteWhileKernelMayRead],
            },
            GmacError::OutOfObjectBounds {
                base: VAddr(1),
                offset: 0,
                len: 1,
            },
            GmacError::UnresolvedFault("x".into()),
            GmacError::Cuda(CudaError::InvalidDevice(9)),
            GmacError::Sim(SimError::NoSuchDevice(9)),
            GmacError::Mmu(MmuError::BadLength),
        ];
        for v in variants {
            assert!(!v.to_string().is_empty(), "{v:?}");
        }
    }
}
