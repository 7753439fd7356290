//! `paper_suite`: the run a reproducer makes. One op = the ten applications
//! at their `small()` scales, in suite order, under one GMAC protocol;
//! successive ops cycle
//! Batch → Lazy → Rolling and a round always ends on a cycle boundary, so
//! every round averages whole cycles of 30 app-runs. Every app-run builds a
//! fresh platform and runtime, exactly like `workloads::run_variant_with`
//! (whose body is repeated here only to put spans around its parts and to
//! read each runtime's counts before it is dropped).
//!
//! Why: every layer does a little and kernel bodies about half, so a
//! single-layer win should move this workload least, and a fidelity drift
//! (`sim_ms_per_op`) shows here first.

use crate::counts::Totals;
use crate::harness::{gmac_config, Layer, OpOut, OpWorkload};
use crate::kernels::KernelShare;
use crate::trace::Tracer;
use gmac::{Gmac, Protocol};
use hetsim::Platform;
use std::time::Instant;
use workloads::stencil3d::Stencil3d;
use workloads::stream::StreamPipeline;
use workloads::vecadd::VecAdd;
use workloads::{parboil_suite_small, Workload};

const APPS: usize = 10;

/// Span (and per-layer metric) name of each app, in suite order.
const APP_SPANS: [&str; APPS] = [
    "workloads.cp.host_ms",
    "workloads.mri-fhd.host_ms",
    "workloads.mri-q.host_ms",
    "workloads.pns.host_ms",
    "workloads.rpes.host_ms",
    "workloads.sad.host_ms",
    "workloads.tpacf.host_ms",
    "workloads.vecadd.host_ms",
    "workloads.stencil3d.host_ms",
    "workloads.stream.host_ms",
];

/// The apps' kernel names, looked up by string so a rename can only blunt
/// `hetsim.kernel_host_share`, never break the build.
const KERNEL_NAMES: [&str; APPS] = [
    "cp_energy",
    "mrifhd_computeFH",
    "mriq_computeQ",
    "pns_step",
    "rpes_batch",
    "sad_motion",
    "tpacf_hist",
    "vecadd",
    "stencil3d",
    "stream_scale",
];

const SIM_RATIO: [&str; 3] = [
    "workloads.gmac_vs_cuda_sim.batch",
    "workloads.gmac_vs_cuda_sim.lazy",
    "workloads.gmac_vs_cuda_sim.rolling",
];

pub struct PaperSuite {
    apps: Vec<Box<dyn Workload>>,
    /// CUDA-baseline digest, virtual ns and host ns per app (set-up).
    cuda: Vec<(u64, u64, u64)>,
    next_protocol: usize,
    /// Warm-up and traced ops read each runtime's `Report` and counts;
    /// measured untraced ops do not (`Report` walks every object).
    traced: bool,
    warming: bool,
    downgraded: bool,
    mismatches: u64,
    totals: Totals,
    kernels: KernelShare,
    /// GMAC virtual ns and host ns per protocol × app, last observed / summed.
    gmac_sim: [[u64; APPS]; 3],
    gmac_host: [[u64; APPS]; 3],
    gmac_runs: [[u64; APPS]; 3],
}

fn geomean(ratios: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for r in ratios.filter(|r| *r > 0.0 && r.is_finite()) {
        sum += r.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

impl PaperSuite {
    /// The apps bring their own fixed inputs, so there is nothing for the
    /// seed to draw. (Ordering the apps by seed was tried: peak RSS then
    /// depends on the order and reads 8.1 or 7.5 MiB by seed.)
    pub fn build(tr: &mut Tracer) -> Result<Self, String> {
        let mut apps = parboil_suite_small();
        apps.push(Box::new(VecAdd::small()));
        apps.push(Box::new(Stencil3d::small()));
        apps.push(Box::new(StreamPipeline::small()));
        for (w, span) in apps.iter().zip(APP_SPANS) {
            if span != format!("workloads.{}.host_ms", w.name()) {
                return Err(format!("suite order changed: {} vs {span}", w.name()));
            }
        }
        let mut cuda = Vec::with_capacity(APPS);
        for w in &apps {
            let t = Instant::now();
            let mut platform = Platform::desktop_g280();
            w.register_kernels(&mut platform);
            w.prepare(&mut platform).map_err(|e| e.to_string())?;
            let digest = w.run_cuda(&mut platform).map_err(|e| e.to_string())?;
            cuda.push((
                digest,
                platform.elapsed().as_nanos(),
                t.elapsed().as_nanos() as u64,
            ));
        }
        Ok(PaperSuite {
            apps,
            cuda,
            next_protocol: 0,
            traced: tr.enabled(),
            warming: true,
            downgraded: false,
            mismatches: 0,
            totals: Totals::default(),
            kernels: KernelShare::default(),
            gmac_sim: [[0; APPS]; 3],
            gmac_host: [[0; APPS]; 3],
            gmac_runs: [[0; APPS]; 3],
        })
    }

    /// One app-run under protocol `p`; returns its virtual ns.
    fn app_run(&mut self, app: usize, p: usize, tr: &mut Tracer) -> Result<u64, String> {
        let open = tr.begin(APP_SPANS[app]);
        let r = self.app_run_inner(app, p, tr);
        tr.end(open, 1);
        r
    }

    fn app_run_inner(&mut self, app: usize, p: usize, tr: &mut Tracer) -> Result<u64, String> {
        let protocol = Protocol::ALL[p];
        let t = Instant::now();
        let w = self.apps[app].as_ref();
        let mut platform = Platform::desktop_g280();
        w.register_kernels(&mut platform);
        w.prepare(&mut platform).map_err(|e| e.to_string())?;
        if tr.enabled() {
            self.kernels.wrap_named(&platform, &KERNEL_NAMES);
        }
        let gmac = tr.span("core.gmac.new", 1, || {
            Gmac::new(platform, gmac_config().protocol(protocol))
        });
        let session = gmac.session();
        let digest = tr
            .span("workloads.run_gmac", 1, || w.run_gmac(&session))
            .map_err(|e| e.to_string())?;
        let sim = gmac.elapsed().as_nanos();
        if self.traced || self.warming {
            self.downgraded |= gmac.report().backing_downgraded;
            self.totals = self.totals.add(Totals::of(&gmac));
        }
        tr.span("core.gmac.drop", 1, || {
            drop(session);
            drop(gmac);
        });
        if digest != self.cuda[app].0 {
            self.mismatches += 1;
            return Err(format!("{} under {protocol}: digest mismatch", w.name()));
        }
        self.gmac_sim[p][app] = sim;
        self.gmac_host[p][app] += t.elapsed().as_nanos() as u64;
        self.gmac_runs[p][app] += 1;
        Ok(sim)
    }
}

impl OpWorkload for PaperSuite {
    fn op(&mut self, tr: &mut Tracer) -> OpOut {
        let p = self.next_protocol;
        self.next_protocol = (p + 1) % Protocol::ALL.len();
        let (mut sim_ns, mut ok) = (0u64, true);
        for i in 0..APPS {
            match self.app_run(i, p, tr) {
                Ok(sim) => sim_ns += sim,
                Err(e) => {
                    eprintln!("paper_suite: {e}");
                    ok = false;
                }
            }
        }
        OpOut {
            work: APPS as f64,
            sim_ns,
            ok,
        }
    }

    fn warmup_ops(&self) -> usize {
        2 * Protocol::ALL.len()
    }

    fn at_boundary(&self) -> bool {
        self.next_protocol == 0
    }

    fn backing_downgraded(&self) -> bool {
        self.downgraded
    }

    fn mark(&mut self) {
        self.warming = false;
        self.kernels.mark();
        self.totals = Totals::default();
        self.gmac_host = [[0; APPS]; 3];
        self.gmac_runs = [[0; APPS]; 3];
    }

    fn layer(&mut self, ops: u64, busy_ns: u64) -> Layer {
        let mut out = Layer::new();
        self.totals.layer(ops, 0, &mut out);
        for (p, name) in SIM_RATIO.iter().enumerate() {
            let ratios = (0..APPS).map(|a| self.gmac_sim[p][a] as f64 / self.cuda[a].1 as f64);
            out.insert(name, geomean(ratios));
        }
        let rolling = Protocol::ALL
            .iter()
            .position(|p| *p == Protocol::Rolling)
            .unwrap_or(2);
        let host = (0..APPS).map(|a| {
            let runs = self.gmac_runs[rolling][a].max(1);
            self.gmac_host[rolling][a] as f64 / runs as f64 / self.cuda[a].2 as f64
        });
        out.insert("workloads.gmac_vs_cuda_host.rolling", geomean(host));
        out.insert("workloads.digest_mismatches", self.mismatches as f64);
        let cuda_ms: f64 = self.cuda.iter().map(|c| c.2 as f64 / 1e6).sum();
        out.insert("cudart.suite_host_ms", cuda_ms);
        out.insert("hetsim.kernel_host_share", self.kernels.of(busy_ns));
        out
    }
}
