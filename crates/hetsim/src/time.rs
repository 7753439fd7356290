//! Virtual time: durations ([`Nanos`]), instants ([`TimePoint`]) and the
//! simulation [`Clock`].
//!
//! All experiment timing in this workspace is *virtual*: the paper measured
//! wall-clock time with `gettimeofday()` on real hardware; we instead advance
//! a deterministic clock by modelled costs, which makes every figure
//! reproducible bit-for-bit (the README's "Locking architecture" section
//! covers how the clock stays exact under concurrency).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with nanosecond resolution.
///
/// ```
/// use hetsim::Nanos;
/// let t = Nanos::from_micros(3) + Nanos::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero-length duration.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative or non-finite inputs.
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_finite() && s > 0.0 {
            Nanos((s * 1e9).round() as u64)
        } else {
            Nanos::ZERO
        }
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.max(rhs.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.min(rhs.0))
    }

    /// True for the zero duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    /// Auto-scales to the most readable unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An instant on the virtual timeline (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimePoint(u64);

impl TimePoint {
    /// Simulation start.
    pub const ZERO: TimePoint = TimePoint(0);

    /// Creates an instant from raw nanoseconds since start.
    pub const fn from_nanos(ns: u64) -> Self {
        TimePoint(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration elapsed since an earlier instant.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: TimePoint) -> Nanos {
        debug_assert!(earlier.0 <= self.0, "time went backwards");
        Nanos(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    pub fn max(self, rhs: TimePoint) -> TimePoint {
        TimePoint(self.0.max(rhs.0))
    }
}

impl Add<Nanos> for TimePoint {
    type Output = TimePoint;
    fn add(self, rhs: Nanos) -> TimePoint {
        TimePoint(self.0 + rhs.0)
    }
}

impl AddAssign<Nanos> for TimePoint {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", Nanos(self.0))
    }
}

/// The simulation clock: tracks "now" from the perspective of the host CPU,
/// which in ADSM drives every coherence action.
///
/// The clock is lock-free and shareable between host threads: `advance` is an
/// atomic add and `wait_until` an atomic max, so **every charge corresponds
/// exactly to the clock movement it caused** even when several threads (one
/// per accelerator shard) advance virtual time concurrently. Under a single
/// thread the behaviour is bit-identical to the old `&mut self` clock.
#[derive(Debug, Default)]
pub(crate) struct Clock {
    ns: std::sync::atomic::AtomicU64,
}

impl Clone for Clock {
    fn clone(&self) -> Self {
        Clock {
            ns: std::sync::atomic::AtomicU64::new(
                self.ns.load(std::sync::atomic::Ordering::SeqCst),
            ),
        }
    }
}

impl Clock {
    /// A clock at simulation start.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current virtual instant.
    pub(crate) fn now(&self) -> TimePoint {
        TimePoint::from_nanos(self.ns.load(std::sync::atomic::Ordering::SeqCst))
    }

    /// Advances the clock by `dur` and returns the new instant.
    pub(crate) fn advance(&self, dur: Nanos) -> TimePoint {
        let prev = self
            .ns
            .fetch_add(dur.as_nanos(), std::sync::atomic::Ordering::SeqCst);
        TimePoint::from_nanos(prev + dur.as_nanos())
    }

    /// Moves the clock forward to `t` if `t` is in the future; returns the
    /// amount of time actually waited (zero if `t` already passed).
    ///
    /// The atomic-max implementation returns exactly the clock movement this
    /// call caused: if another thread advanced the clock past `t` first, the
    /// wait is free.
    pub(crate) fn wait_until(&self, t: TimePoint) -> Nanos {
        let prev = self
            .ns
            .fetch_max(t.as_nanos(), std::sync::atomic::Ordering::SeqCst);
        if t.as_nanos() > prev {
            Nanos::from_nanos(t.as_nanos() - prev)
        } else {
            Nanos::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_secs(1), Nanos::from_millis(1_000));
        assert_eq!(Nanos::from_secs_f64(1.5), Nanos::from_millis(1_500));
    }

    #[test]
    fn nanos_from_secs_f64_saturates() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_secs_f64(f64::INFINITY), Nanos::ZERO);
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_nanos(10);
        let b = Nanos::from_nanos(3);
        assert_eq!(a + b, Nanos::from_nanos(13));
        assert_eq!(a - b, Nanos::from_nanos(7));
        assert_eq!(a * 2, Nanos::from_nanos(20));
        assert_eq!(a / 2, Nanos::from_nanos(5));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = (1..=4).map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(10));
    }

    #[test]
    fn nanos_display_scales() {
        assert_eq!(Nanos::from_nanos(5).to_string(), "5ns");
        assert_eq!(Nanos::from_micros(5).to_string(), "5.000us");
        assert_eq!(Nanos::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Nanos::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn timepoint_ordering_and_since() {
        let t0 = TimePoint::from_nanos(100);
        let t1 = t0 + Nanos::from_nanos(50);
        assert!(t1 > t0);
        assert_eq!(t1.since(t0), Nanos::from_nanos(50));
        assert_eq!(t0.max(t1), t1);
    }

    #[test]
    fn clock_advance_and_wait() {
        let c = Clock::new();
        assert_eq!(c.now(), TimePoint::ZERO);
        c.advance(Nanos::from_micros(10));
        assert_eq!(c.now().as_nanos(), 10_000);

        // Waiting for the past is free.
        let waited = c.wait_until(TimePoint::from_nanos(5_000));
        assert_eq!(waited, Nanos::ZERO);
        assert_eq!(c.now().as_nanos(), 10_000);

        // Waiting for the future advances the clock.
        let waited = c.wait_until(TimePoint::from_nanos(25_000));
        assert_eq!(waited, Nanos::from_micros(15));
        assert_eq!(c.now().as_nanos(), 25_000);
    }
}
