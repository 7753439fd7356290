//! `access_mix`: steady-state CPU access to shared memory. Eight 128 KiB typed
//! objects across two devices and two sessions; no call inside the op, so
//! after warm-up there are no faults and no DMA. Four phases per op: typed
//! hot writes, typed hot reads, a typed seeded-random read+write spread over
//! all objects, and untyped `Session::load`/`store` by address alternating
//! the two sessions.
//!
//! Why: softmmu + fast view + registry/shard lookup do all the work and
//! xfer/hetsim none; reads sit beside writes and the zero-instrumentation
//! typed path beside the instrumented untyped path, so reshaping the access
//! caches shows here and nowhere else.
//!
//! Every value read is checked against a host model of the objects: each
//! phase sums what it read and the expected sum has a closed form in the op
//! number, so the check costs O(1) per op instead of a mirror access per
//! shared access.

use crate::counts::Totals;
use crate::harness::{gmac_config, Layer, OpOut, OpWorkload, Rng};
use crate::trace::Tracer;
use gmac::{Gmac, Session, Shared, SharedPtr};
use hetsim::{DeviceId, Platform};
use std::collections::HashMap;

const OBJECTS: usize = 8;
/// Elements per object: 128 KiB of u32, 1 MiB over the eight objects. Small
/// on purpose: the working set stays in the CPU's private L2, so the op costs
/// the runtime's instructions and not the host's shared L3 and DRAM. With
/// 1 MiB objects a memory hog on the other CPU slowed this workload by 16 %.
const LEN: usize = 32 * 1024;
/// Elements of the hot window (16 KiB) and, after it, of the untyped region;
/// the spread phase draws from the rest, so the three never alias.
const HOT: usize = 4 * 1024;
const HOT_WRITE_PASSES: usize = 128;
const HOT_READ_PASSES: usize = 128;
const SPREAD_PAIRS: usize = 96 * 1024;
const UNTYPED_PAIRS: usize = 24 * 1024;
/// Consecutive untyped accesses that stay on one object (half per session).
const UNTYPED_RUN: usize = 32;

fn initial(obj: usize, i: usize) -> u32 {
    ((obj * 131 + i) & 0xffff) as u32
}

/// Value the hot-write phase of op `k` stores at hot index `i`; small enough
/// that sums never wrap.
fn hot_value(k: u64, pass: usize, i: usize) -> u32 {
    ((k % 1_000_003) * 1000) as u32 + (pass * 7) as u32 + i as u32
}

pub struct AccessMix {
    gmac: Gmac,
    sessions: [Session; 2],
    objs: Vec<Shared<u32>>,
    spread: Vec<(u8, u32)>,
    /// Σ initial + within-op revisits, and Σ multiplicity², of `spread`.
    spread_base: u64,
    spread_step: u64,
    untyped: Vec<(u8, SharedPtr)>,
    untyped_base: u64,
    /// Values the untyped load phase read, for the store phase to bump.
    loaded: Vec<u32>,
    k: u64,
    base: Totals,
}

impl AccessMix {
    pub fn build(seed: u64, _tr: &mut Tracer) -> Result<Self, String> {
        // Rolling bounds the dirty set (by default to 2 blocks per object
        // allocated so far, while the writes touch all of them at random); a
        // rolling size that covers every block is what makes the steady state
        // fault-free. A paper knob, not an ablation switch.
        let config = gmac_config().rolling_size(8 * OBJECTS);
        let gmac = Gmac::new(Platform::desktop_multi_gpu(2), config);
        let sessions = [gmac.session_on(DeviceId(0)), gmac.session_on(DeviceId(1))];
        let mut objs = Vec::with_capacity(OBJECTS);
        for o in 0..OBJECTS {
            // The two device windows overlap, so placement must work on
            // either device: safe_alloc, as in `examples/service_demo.rs`.
            let buf = sessions[o % 2]
                .safe_alloc_typed::<u32>(LEN)
                .map_err(|e| e.to_string())?;
            let init: Vec<u32> = (0..LEN).map(|i| initial(o, i)).collect();
            buf.write_slice(&init).map_err(|e| e.to_string())?;
            objs.push(buf);
        }

        let mut rng = Rng::new(seed);
        let span = (LEN - 2 * HOT) as u64;
        let spread: Vec<(u8, u32)> = (0..SPREAD_PAIRS)
            .map(|_| {
                let o = rng.below(OBJECTS as u64) as u8;
                (o, (2 * HOT) as u32 + rng.below(span) as u32)
            })
            .collect();
        let mut mult: HashMap<(u8, u32), u64> = HashMap::new();
        let mut spread_base = 0u64;
        for &(o, i) in &spread {
            let seen = mult.entry((o, i)).or_insert(0);
            spread_base += initial(o as usize, i as usize) as u64 + *seen;
            *seen += 1;
        }
        let spread_step = mult.values().map(|m| m * m).sum();

        let mut untyped = Vec::with_capacity(UNTYPED_PAIRS);
        let mut untyped_base = 0u64;
        for j in 0..UNTYPED_PAIRS {
            let o = (j / UNTYPED_RUN) % OBJECTS;
            let slot = HOT + (j / (UNTYPED_RUN * OBJECTS)) * UNTYPED_RUN + j % UNTYPED_RUN;
            debug_assert!(slot < 2 * HOT);
            untyped.push(((j % 2) as u8, objs[o].element(slot)));
            untyped_base += initial(o, slot) as u64;
        }
        Ok(AccessMix {
            gmac,
            sessions,
            objs,
            spread,
            spread_base,
            spread_step,
            untyped,
            untyped_base,
            loaded: vec![0; UNTYPED_PAIRS],
            k: 0,
            base: Totals::default(),
        })
    }

    fn run(&mut self, tr: &mut Tracer) -> Result<bool, gmac::GmacError> {
        let k = self.k;
        let mut ok = true;

        let hot = &self.objs[0];
        let open = tr.begin("core.session.typed_write_ns");
        for pass in 0..HOT_WRITE_PASSES {
            for i in 0..HOT {
                hot.write(i, hot_value(k, pass, i))?;
            }
        }
        tr.end(open, (HOT_WRITE_PASSES * HOT) as u64);

        let open = tr.begin("core.session.typed_read_ns");
        let mut sum = 0u64;
        for _ in 0..HOT_READ_PASSES {
            for i in 0..HOT {
                sum += hot.read(i)? as u64;
            }
        }
        tr.end(open, (HOT_READ_PASSES * HOT) as u64);
        let last = hot_value(k, HOT_WRITE_PASSES - 1, 0) as u64;
        let window = HOT as u64 * last + (HOT as u64 * (HOT as u64 - 1)) / 2;
        ok &= sum == HOT_READ_PASSES as u64 * window;

        let open = tr.begin("core.session.typed_spread_ns");
        let mut sum = 0u64;
        for &(o, i) in &self.spread {
            let buf = &self.objs[o as usize];
            let v = buf.read(i as usize)?;
            sum += v as u64;
            buf.write(i as usize, v + 1)?;
        }
        tr.end(open, 2 * SPREAD_PAIRS as u64);
        ok &= sum == self.spread_base + k * self.spread_step;

        let open = tr.begin("core.session.untyped_load_ns");
        let mut sum = 0u64;
        for (&(s, ptr), slot) in self.untyped.iter().zip(self.loaded.iter_mut()) {
            *slot = self.sessions[s as usize].load::<u32>(ptr)?;
            sum += *slot as u64;
        }
        tr.end(open, UNTYPED_PAIRS as u64);
        ok &= sum == self.untyped_base + k * UNTYPED_PAIRS as u64;

        let open = tr.begin("core.session.untyped_store_ns");
        for (&(s, ptr), v) in self.untyped.iter().zip(&self.loaded) {
            self.sessions[s as usize].store::<u32>(ptr, v + 1)?;
        }
        tr.end(open, UNTYPED_PAIRS as u64);
        Ok(ok)
    }
}

/// Accesses one op performs.
const ACCESSES: usize =
    (HOT_WRITE_PASSES + HOT_READ_PASSES) * HOT + 2 * SPREAD_PAIRS + 2 * UNTYPED_PAIRS;

impl OpWorkload for AccessMix {
    fn op(&mut self, tr: &mut Tracer) -> OpOut {
        let before = self.gmac.elapsed();
        let ok = match self.run(tr) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("access_mix: {e}");
                false
            }
        };
        self.k += 1;
        OpOut {
            work: ACCESSES as f64,
            sim_ns: (self.gmac.elapsed().as_nanos()).saturating_sub(before.as_nanos()),
            ok,
        }
    }

    fn warmup_ops(&self) -> usize {
        8
    }

    fn backing_downgraded(&self) -> bool {
        self.gmac.report().backing_downgraded
    }

    fn mark(&mut self) {
        self.base = Totals::of(&self.gmac);
    }

    fn layer(&mut self, ops: u64, _busy_ns: u64) -> Layer {
        let mut out = Layer::new();
        Totals::of(&self.gmac)
            .since(self.base)
            .layer(ops, 0, &mut out);
        out
    }
}
