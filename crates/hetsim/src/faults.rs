//! Deterministic fault-injection failpoints for the simulated platform.
//!
//! A [`FaultPlan`] armed on a [`crate::Platform`] makes selected operations
//! — device allocation, H2D reservation, H2D commit — fail on demand, so
//! higher layers can prove their error paths leave the system usable (no
//! poisoned locks, no leaked reservations, subsequent operations succeed).
//!
//! Determinism is the whole point: a failpoint fires for the *n*-th call of
//! its kind ([`FaultPlan::fail_nth`]) or for a seeded pseudo-random subset
//! ([`FaultPlan::fail_seeded`]), both keyed purely on the per-op call
//! ordinal since arming. Re-running the same program with the same plan
//! fails the same operations — a failing fuzz case replays exactly.
//!
//! Failpoints are consulted *before* the operation charges time or mutates
//! state: an injected failure is observationally a clean early error, never
//! a half-applied one.

use std::fmt;

/// Which platform operation a failpoint intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultOp {
    /// Device memory allocation ([`crate::Platform::dev_alloc`]).
    DevAlloc,
    /// H2D transfer reservation — the issue half of a split transfer
    /// ([`crate::Platform::reserve_h2d`]).
    ReserveH2d,
    /// H2D transfer commit — the landing half
    /// ([`crate::Platform::commit_h2d`]).
    CommitH2d,
}

impl FaultOp {
    /// All interceptable operations.
    pub const ALL: [FaultOp; 3] = [FaultOp::DevAlloc, FaultOp::ReserveH2d, FaultOp::CommitH2d];

    fn index(self) -> usize {
        match self {
            FaultOp::DevAlloc => 0,
            FaultOp::ReserveH2d => 1,
            FaultOp::CommitH2d => 2,
        }
    }
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultOp::DevAlloc => "dev-alloc",
            FaultOp::ReserveH2d => "reserve-h2d",
            FaultOp::CommitH2d => "commit-h2d",
        })
    }
}

/// One failure rule: fire on a fixed ordinal, or on a seeded random subset.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Fail exactly the `nth` call (0-based) of this op kind.
    Nth(u64),
    /// Fail each call independently with probability `num/65536`, decided
    /// by `splitmix64(seed ^ ordinal)` — deterministic per (seed, ordinal).
    Seeded { seed: u64, num: u32 },
}

/// Fixed-point output spread of splitmix64, the standard 64-bit mixer —
/// good enough avalanche for an independent per-ordinal coin flip.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic set of failure rules, one list per [`FaultOp`], plus the
/// per-op call counters that key them. Arm it with
/// [`crate::Platform::arm_faults`]; disarm with
/// [`crate::Platform::disarm_faults`].
///
/// A rule fires on the *n*-th call of its kind ([`Self::fail_nth`]) or on
/// a seeded pseudo-random subset ([`Self::fail_seeded`]), keyed only on the
/// per-op call ordinal since arming, so the same program under the same
/// plan fails the same operations. A failpoint is consulted before the
/// operation charges time or mutates state.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: [Vec<Rule>; 3],
    /// Calls seen per op kind since arming (the rule key).
    counts: [u64; 3],
}

impl FaultPlan {
    /// An empty plan (no failpoints; useful as a builder seed).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fails exactly the `nth` call (0-based) of `op` after arming.
    pub fn fail_nth(mut self, op: FaultOp, nth: u64) -> Self {
        self.rules[op.index()].push(Rule::Nth(nth));
        self
    }

    /// Fails each `op` call independently with probability
    /// `per_64k / 65536`, keyed on `seed` and the call ordinal — the same
    /// (seed, program) always fails the same calls.
    pub fn fail_seeded(mut self, op: FaultOp, seed: u64, per_64k: u32) -> Self {
        self.rules[op.index()].push(Rule::Seeded {
            seed,
            num: per_64k.min(65536),
        });
        self
    }

    /// Consumes one call of kind `op`: returns `Some(ordinal)` if a rule
    /// fires for it (the caller turns it into
    /// [`crate::SimError::FaultInjected`]), advancing the per-op counter
    /// either way.
    pub(crate) fn should_fail(&mut self, op: FaultOp) -> Option<u64> {
        let idx = op.index();
        let ordinal = self.counts[idx];
        self.counts[idx] += 1;
        let hit = self.rules[idx].iter().any(|rule| match *rule {
            Rule::Nth(n) => n == ordinal,
            Rule::Seeded { seed, num } => (splitmix64(seed ^ ordinal) & 0xFFFF) < u64::from(num),
        });
        hit.then_some(ordinal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_rule_fires_exactly_once() {
        let mut plan = FaultPlan::new().fail_nth(FaultOp::CommitH2d, 2);
        assert_eq!(plan.should_fail(FaultOp::CommitH2d), None);
        assert_eq!(plan.should_fail(FaultOp::CommitH2d), None);
        assert_eq!(plan.should_fail(FaultOp::CommitH2d), Some(2));
        assert_eq!(plan.should_fail(FaultOp::CommitH2d), None);
    }

    #[test]
    fn ops_count_independently() {
        let mut plan = FaultPlan::new()
            .fail_nth(FaultOp::DevAlloc, 0)
            .fail_nth(FaultOp::ReserveH2d, 1);
        assert_eq!(plan.should_fail(FaultOp::ReserveH2d), None);
        assert_eq!(plan.should_fail(FaultOp::DevAlloc), Some(0));
        assert_eq!(plan.should_fail(FaultOp::ReserveH2d), Some(1));
    }

    #[test]
    fn seeded_rule_is_deterministic() {
        let run = |seed| {
            let mut plan = FaultPlan::new().fail_seeded(FaultOp::DevAlloc, seed, 16384);
            (0..64)
                .map(|_| plan.should_fail(FaultOp::DevAlloc).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same failures");
        assert_ne!(run(7), run(8), "different seed, different failures");
        let hits = run(7).iter().filter(|&&h| h).count();
        assert!(hits > 0 && hits < 64, "~25% rate actually mixes: {hits}/64");
    }

    #[test]
    fn full_rate_fails_everything() {
        let mut plan = FaultPlan::new().fail_seeded(FaultOp::ReserveH2d, 1, 65536);
        for i in 0..16 {
            assert_eq!(plan.should_fail(FaultOp::ReserveH2d), Some(i));
        }
    }

    #[test]
    fn empty_plan_never_fails() {
        let mut plan = FaultPlan::new();
        for op in FaultOp::ALL {
            assert_eq!(plan.should_fail(op), None);
        }
    }
}
