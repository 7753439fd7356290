//! `service_mix`: the multi-tenant front-end. Two devices, default service
//! configuration; ONE generator thread drives three `ServiceClient`s (Low /
//! Normal / High, round-robin) in a closed loop with a fixed window of 256
//! outstanding tickets — tenants are classes, not threads. One job = alloc
//! 8 KiB, write, tiny kernel `call`, `sync`, read back, free. One op = one
//! job; latency = submit → ticket done, over Normal-class jobs.
//!
//! Why: the only workload that constructs a `Service`, so queue, placer and
//! worker hand-off dominate, and the other four must not move when the
//! front-end changes; three weights exercise the same queue differently.
//!
//! Every job's result word is checked against a host model; a refused
//! submission counts as a failed op.

use crate::counts::Totals;
use crate::harness::{calibration_ns, gmac_config, Layer, Rng, Round};
use crate::kernels::{tiny_model, KernelShare, Tiny, TINY};
use crate::sys;
use crate::trace::Tracer;
use gmac::{Gmac, GmacResult, Param, Priority, ServiceClient, ServiceSnapshot, Session, Ticket};
use hetsim::{GpuSpec, LaunchDims, Platform, DEFAULT_DEVICE_BASE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outstanding tickets the generator keeps in flight.
const WINDOW: usize = 256;
const JOB_BYTES: u64 = 8 * 1024;
const JOB_WORDS: usize = 16;
/// Memory of the second device, as much as the builder gives the first.
const DEVICE_BYTES: u64 = 1 << 30;
/// Completions that end set-up: the queue, both workers and the allocator
/// recycling are in steady state well before.
const WARMUP_JOBS: u64 = 4096;

/// The session calls a job times (traced rounds only), as per-layer metrics.
const JOB_CALLS: [&str; 4] = [
    "core.session.alloc_us",
    "core.session.call_us",
    "core.session.sync_us",
    "core.session.free_us",
];

/// Host ns the jobs spent in each of [`JOB_CALLS`], then the job count.
#[derive(Debug, Default)]
struct JobClock([AtomicU64; 5]);

impl JobClock {
    fn snapshot(&self) -> [u64; 5] {
        // Relaxed: statistics that publish no other data.
        [0, 1, 2, 3, 4].map(|i| self.0[i].load(Ordering::Relaxed))
    }
}

/// The job body. Timing points cost a few `Instant::now` per ~30 µs job and
/// exist only when a clock is passed.
fn job(s: &Session, input: u32, tag: u64, clock: Option<&JobClock>) -> GmacResult<u64> {
    let t0 = Instant::now();
    let p = s.alloc(JOB_BYTES)?;
    let t1 = Instant::now();
    s.store_slice::<u32>(p, &[input; JOB_WORDS])?;
    let t2 = Instant::now();
    s.call(
        TINY,
        LaunchDims::linear(1, 1),
        &[Param::from(p), Param::U64(tag)],
    )?;
    let t3 = Instant::now();
    s.sync()?;
    let t4 = Instant::now();
    let word = s.load::<u32>(p)?;
    let t5 = Instant::now();
    s.free(p)?;
    if let Some(c) = clock {
        let spans = [(t0, t1), (t2, t3), (t3, t4), (t5, Instant::now())];
        for (slot, (from, to)) in c.0.iter().zip(spans) {
            slot.fetch_add((to - from).as_nanos() as u64, Ordering::Relaxed);
        }
        c.0[4].fetch_add(1, Ordering::Relaxed);
    }
    Ok(word as u64)
}

struct InFlight {
    ticket: Ticket,
    submitted: Instant,
    class: usize,
    want: u32,
}

struct Generator {
    clients: [ServiceClient; 3],
    slots: Vec<Option<InFlight>>,
    tx: Sender<usize>,
    rx: Receiver<usize>,
    rng: Rng,
    next_class: usize,
    next_tag: u64,
    outstanding: usize,
    clock: Option<Arc<JobClock>>,
    traced: bool,
    submit_ns: u64,
    idle_ns: u64,
    ticket_ns: u64,
}

impl Generator {
    /// Submits one job into `slot`; a refusal is returned as `false`.
    fn submit(&mut self, slot: usize) -> bool {
        let class = self.next_class;
        self.next_class = (class + 1) % 3;
        let tag = self.next_tag;
        self.next_tag += 1;
        let input = self.rng.next_u64() as u32;
        let tx = self.tx.clone();
        let clock = self.clock.clone();
        let t = Instant::now();
        let ticket = self.clients[class].submit(JOB_BYTES, move |s| {
            let r = job(s, input, tag, clock.as_deref());
            // The generator outlives every job (it drains before dropping
            // the receiver), so a send can only fail during a panic unwind.
            let _ = tx.send(slot);
            r
        });
        let submitted = Instant::now();
        if self.traced {
            self.submit_ns += (submitted - t).as_nanos() as u64;
        }
        match ticket {
            Ok(ticket) => {
                self.slots[slot] = Some(InFlight {
                    ticket,
                    submitted,
                    class,
                    want: tiny_model(input, tag),
                });
                self.outstanding += 1;
                true
            }
            Err(e) => {
                eprintln!("service_mix: submission refused: {e}");
                false
            }
        }
    }

    /// Blocks for the next finished job. Returns its slot, class, latency
    /// and whether its result word was right.
    fn complete(&mut self) -> Result<(usize, usize, u64, bool), String> {
        let t = Instant::now();
        let slot = self
            .rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|e| format!("no job finished in 60 s: {e}"))?;
        let woke = Instant::now();
        let f = self.slots[slot]
            .take()
            .ok_or("completion for an empty slot")?;
        // The job body has returned; the ticket is fulfilled a moment later.
        let result = f.ticket.wait();
        let done = Instant::now();
        if self.traced {
            self.idle_ns += (woke - t).as_nanos() as u64;
            self.ticket_ns += (done - woke).as_nanos() as u64;
        }
        self.outstanding -= 1;
        let ok = matches!(result, Ok(word) if word == f.want as u64);
        if !ok {
            eprintln!("service_mix: job result {result:?}, wanted {}", f.want);
        }
        Ok((slot, f.class, (done - f.submitted).as_nanos() as u64, ok))
    }
}

fn snapshot_layer(now: &ServiceSnapshot, base: &ServiceSnapshot, out: &mut Layer) {
    const WAIT: [&str; 3] = [
        "core.service.queue_wait_ms.low",
        "core.service.queue_wait_ms.normal",
        "core.service.queue_wait_ms.high",
    ];
    const SHARE: [&str; 3] = [
        "core.service.served_share.low",
        "core.service.served_share.normal",
        "core.service.served_share.high",
    ];
    let delta = |i: usize| {
        let (n, b) = (&now.classes[i], &base.classes[i]);
        (
            n.completed - b.completed,
            n.wait_ns - b.wait_ns,
            n.run_ns - b.run_ns,
            n.rejected - b.rejected,
        )
    };
    let all: Vec<_> = (0..3).map(delta).collect();
    let completed: u64 = all.iter().map(|d| d.0).sum();
    for (i, d) in all.iter().enumerate() {
        out.insert(WAIT[i], d.1 as f64 / d.0.max(1) as f64 / 1e6);
        out.insert(SHARE[i], d.0 as f64 / completed.max(1) as f64);
    }
    let run_ns: u64 = all.iter().map(|d| d.2).sum();
    out.insert(
        "core.service.run_us",
        run_ns as f64 / completed.max(1) as f64 / 1e3,
    );
    out.insert(
        "core.service.rejected",
        all.iter().map(|d| d.3).sum::<u64>() as f64,
    );
}

/// One round: set-up (runtime, service, window fill, warm-up completions),
/// then `round_s` seconds of closed-loop traffic, then a drain.
pub fn run_round(seed: u64, round_s: f64, traced: bool) -> Result<(Round, Tracer), String> {
    let tr = Tracer::new(traced);
    let calibration_ns = calibration_ns();
    let t0 = Instant::now();
    let mut kernels = KernelShare::default();
    // Two G280s whose memory windows do NOT overlap, so a job's `alloc`
    // lands at its device address on either device and `free` recycles it.
    // With `desktop_multi_gpu`'s overlapping windows the jobs need
    // `safe_alloc`, whose unified address is bump-allocated and never
    // reused: 12 KiB of address space per job, a fresh 1 GiB host chunk per
    // shard every ~87 k jobs, and `OutOfVirtualSpace` once the reservation
    // ([`crate::harness::MMAP_RESERVE`]) is used up.
    let platform = Platform::builder()
        .add_device(
            GpuSpec::g280(),
            DEVICE_BYTES,
            DEFAULT_DEVICE_BASE + DEVICE_BYTES,
        )
        .build();
    kernels.register(&platform, Arc::new(Tiny), traced);
    let gmac = Gmac::new(platform, gmac_config());
    let service = gmac.service();
    let (tx, rx) = channel();
    let mut gen = Generator {
        clients: Priority::ALL.map(|p| service.client(p)),
        slots: (0..WINDOW).map(|_| None).collect(),
        tx,
        rx,
        rng: Rng::new(seed),
        next_class: 0,
        next_tag: 1,
        outstanding: 0,
        clock: traced.then(|| Arc::new(JobClock::default())),
        traced,
        submit_ns: 0,
        idle_ns: 0,
        ticket_ns: 0,
    };
    let mut failed = 0u64;
    for slot in 0..WINDOW {
        if !gen.submit(slot) {
            return Err("service refused the initial window".into());
        }
    }
    for _ in 0..WARMUP_JOBS {
        let (slot, _, _, ok) = gen.complete()?;
        if !ok || !gen.submit(slot) {
            return Err("warm-up job failed".into());
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // The measured window. Nothing drains between warm-up and here: the
    // loop is already in steady state.
    let base_totals = Totals::of(&gmac);
    let base_stats = service.stats();
    kernels.mark();
    (gen.submit_ns, gen.idle_ns, gen.ticket_ns) = (0, 0, 0);
    let clock_base = gen.clock.as_ref().map(|c| c.snapshot());
    let sim0 = gmac.elapsed().as_nanos();
    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    let window = Duration::from_secs_f64(round_s);
    let mut lat_ns = Vec::with_capacity(1 << 16);
    let mut ops = 0u64;
    while start.elapsed() < window {
        let (slot, class, latency, ok) = gen.complete()?;
        ops += 1;
        if !ok {
            failed += 1;
        }
        if class == Priority::Normal.index() {
            lat_ns.push(latency);
        }
        if !gen.submit(slot) {
            // A refused submission is a failed op, and the window shrinks.
            ops += 1;
            failed += 1;
            if gen.outstanding == 0 {
                return Err("every submission was refused".into());
            }
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    let sim_ns = gmac.elapsed().as_nanos() - sim0;
    let window_ns = (window_s * 1e9) as u64;

    let mut layer = Layer::new();
    if traced {
        Totals::of(&gmac)
            .since(base_totals)
            .layer(ops, 0, &mut layer);
        snapshot_layer(&service.stats(), &base_stats, &mut layer);
        layer.insert(
            "core.service.queue_high_water",
            service.queue_high_water() as f64,
        );
        layer.insert(
            "core.service.submit_us",
            gen.submit_ns as f64 / ops.max(1) as f64 / 1e3,
        );
        layer.insert(
            "core.service.generator_idle_share",
            gen.idle_ns as f64 / window_ns.max(1) as f64,
        );
        let spanned = gen.submit_ns + gen.idle_ns + gen.ticket_ns;
        layer.insert(
            "bench.op_self_share",
            1.0 - spanned as f64 / window_ns.max(1) as f64,
        );
        if let (Some(c), Some(base)) = (&gen.clock, clock_base) {
            let now = c.snapshot();
            let jobs = (now[4] - base[4]).max(1) as f64;
            for (i, name) in JOB_CALLS.into_iter().enumerate() {
                layer.insert(name, (now[i] - base[i]) as f64 / jobs / 1e3);
            }
        }
        // Two workers run kernels concurrently: share of worker time, not of
        // the window.
        layer.insert("hetsim.kernel_host_share", kernels.of(2 * window_ns));
    }

    // Drain: every accepted ticket is waited for before the service drops.
    while gen.outstanding > 0 {
        let (_, _, _, ok) = gen.complete()?;
        if !ok {
            failed += 1;
            ops += 1;
        }
    }
    let backing_downgraded = gmac.report().backing_downgraded;
    drop(gen);
    drop(service);
    drop(gmac);
    let round = Round {
        traced,
        setup_s,
        window_s,
        cpu_s,
        sim_ns,
        ops,
        failed,
        work: (ops - failed.min(ops)) as f64,
        lat_ns,
        calibration_ns,
        backing_downgraded,
        layer,
    };
    Ok((round, tr))
}
