//! Virtual time as committed data: one line per deterministic scenario in
//! `tests/fingerprint.txt`, compared field by field.
//!
//! Every scenario drives one session at a time, so virtual time, the time
//! ledger, the transfer ledger, the protocol counters and the output digest
//! are all deterministic. A change that claims no behaviour change must leave
//! the file byte-identical. A change that moves virtual time on purpose
//! re-blesses it and declares the changed lines:
//!
//! ```sh
//! FINGERPRINT_BLESS=1 cargo test -q --test fingerprint
//! ```
//!
//! Wall-clock bookkeeping (`dma_wait_ns`, `jobs_overlapped`, TLB and memo
//! counts) is left out: it is not virtual time and varies run to run.

use adsm::gmac::{Counters, EvictPolicy, Gmac, GmacConfig, Param, Protocol, Session};
use adsm::hetsim::{
    read_f32_slice, write_f32_slice, Args, Category, DeviceId, DeviceMemory, GpuSpec, Kernel,
    KernelProfile, LaunchDims, Nanos, Platform, SimResult, TimeLedger, TransferLedger,
    DEFAULT_DEVICE_BASE,
};
use adsm::workloads::stencil3d::Stencil3d;
use adsm::workloads::stream::StreamPipeline;
use adsm::workloads::vecadd::VecAdd;
use adsm::workloads::{parboil_suite_small, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fingerprint.txt");

/// Adds 1.0 to each of the `args.u64(1)` floats at `args.ptr(0)`.
#[derive(Debug)]
struct Inc;

impl Kernel for Inc {
    fn name(&self) -> &str {
        "inc"
    }

    fn execute(
        &self,
        mem: &mut DeviceMemory,
        _dims: LaunchDims,
        args: Args<'_>,
    ) -> SimResult<KernelProfile> {
        let n = args.u64(1)?;
        let mut v = read_f32_slice(mem, args.ptr(0)?, n)?;
        for x in v.iter_mut() {
            *x += 1.0;
        }
        write_f32_slice(mem, args.ptr(0)?, &v)?;
        Ok(KernelProfile::new(n as f64, 8.0 * n as f64))
    }
}

fn inc(s: &Session, p: adsm::gmac::SharedPtr, bytes: u64) {
    let n = bytes / 4;
    s.call(
        "inc",
        LaunchDims::for_elements(n, 256),
        &[Param::Shared(p), Param::U64(n)],
    )
    .expect("inc call");
}

fn label(p: Protocol) -> &'static str {
    match p {
        Protocol::Batch => "batch",
        Protocol::Lazy => "lazy",
        Protocol::Rolling => "rolling",
    }
}

/// What one scenario observed.
struct Observed {
    elapsed: Nanos,
    ledger: TimeLedger,
    transfers: TransferLedger,
    counters: Option<Counters>,
    digest: u64,
}

impl Observed {
    /// Reads everything off a runtime whose sessions are all dropped.
    fn of(gmac: &Gmac, digest: u64) -> Self {
        Observed {
            elapsed: gmac.elapsed(),
            ledger: gmac.ledger(),
            transfers: gmac.transfers(),
            counters: Some(gmac.counters()),
            digest,
        }
    }

    fn line(&self, name: &str) -> String {
        let mut line = format!("{name} elapsed={}", self.elapsed.as_nanos());
        for cat in Category::ALL {
            let ns = self.ledger.get(cat).as_nanos();
            if ns != 0 {
                write!(line, " {cat:?}={ns}").unwrap();
            }
        }
        let t = &self.transfers;
        for (key, v) in [
            ("h2d_bytes", t.h2d_bytes),
            ("d2h_bytes", t.d2h_bytes),
            ("h2d_jobs", t.h2d_count),
            ("d2h_jobs", t.d2h_count),
            ("h2d_blocks", t.h2d_blocks),
            ("d2h_blocks", t.d2h_blocks),
            ("h2d_planned", t.h2d_planned),
            ("d2h_planned", t.d2h_planned),
        ] {
            write!(line, " {key}={v}").unwrap();
        }
        if let Some(c) = &self.counters {
            for (key, v) in [
                ("faults_read", c.faults_read),
                ("faults_write", c.faults_write),
                ("blocks_fetched", c.blocks_fetched),
                ("blocks_flushed", c.blocks_flushed),
                ("bytes_fetched", c.bytes_fetched),
                ("bytes_flushed", c.bytes_flushed),
                ("eager_evictions", c.eager_evictions),
                ("evictions", c.evictions),
                ("evicted_bytes", c.evicted_bytes),
                ("refetches", c.refetches),
                ("refetch_bytes", c.refetch_bytes),
                ("pin_saves", c.pin_saves),
                ("disk_spills", c.disk_spills),
            ] {
                write!(line, " {key}={v}").unwrap();
            }
        }
        write!(line, " digest={:016x}", self.digest).unwrap();
        line
    }
}

/// The CUDA baseline of `w` on `platform`.
fn run_cuda(mut platform: Platform, w: &dyn Workload) -> Observed {
    w.register_kernels(&mut platform);
    w.prepare(&mut platform).expect("prepare");
    let digest = w.run_cuda(&mut platform).expect("cuda run");
    Observed {
        elapsed: platform.elapsed(),
        ledger: platform.ledger(),
        transfers: *platform.transfers(),
        counters: None,
        digest,
    }
}

/// The GMAC variant of `w` on `platform` under `cfg`.
fn run_gmac(mut platform: Platform, w: &dyn Workload, cfg: GmacConfig) -> Observed {
    w.register_kernels(&mut platform);
    w.prepare(&mut platform).expect("prepare");
    let gmac = Gmac::new(platform, cfg);
    let session = gmac.session();
    let digest = w.run_gmac(&session).expect("gmac run");
    drop(session);
    Observed::of(&gmac, digest)
}

/// A platform with the `inc` kernel and `mem` bytes on one G280.
fn small_platform(mem: u64) -> Platform {
    let platform = Platform::builder()
        .clear_devices()
        .add_device(GpuSpec::g280(), mem, DEFAULT_DEVICE_BASE)
        .build();
    platform.register_kernel(Arc::new(Inc));
    platform
}

/// Runs `body` on one session of a fresh runtime over `platform`.
fn run_session(
    platform: Platform,
    cfg: GmacConfig,
    body: impl FnOnce(&Session) -> u64,
) -> Observed {
    let gmac = Gmac::new(platform, cfg);
    let session = gmac.session();
    let digest = body(&session);
    drop(session);
    Observed::of(&gmac, digest)
}

/// FNV-1a over little-endian 8-byte words: the workloads' byte-wise
/// digest costs more than the scenarios themselves in a debug build.
fn digest(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, word| {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        (h ^ u64::from_le_bytes(w)).wrapping_mul(0x100_0000_01b3)
    })
}

fn digest_f32(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    digest(&bytes)
}

/// The ten small workloads: the Parboil suite plus the benchmark's three
/// micro-benchmarks.
fn apps() -> Vec<Box<dyn Workload>> {
    let mut all = parboil_suite_small();
    all.push(Box::new(VecAdd::small()));
    all.push(Box::new(Stencil3d::small()));
    all.push(Box::new(StreamPipeline::small()));
    all
}

/// A 64 KiB object written whole, invalidated by a call, then written whole
/// again: a full overwrite of an `Invalid` object. Rolling-update skips the
/// fetch such a write makes redundant; lazy-update fetches the object anyway.
fn full_overwrite(s: &Session) -> u64 {
    const BYTES: u64 = 64 << 10;
    let n = (BYTES / 4) as usize;
    let p = s.alloc(BYTES).unwrap();
    s.store_slice(p, &vec![1.0f32; n]).unwrap();
    inc(s, p, BYTES);
    s.sync().unwrap();
    s.store_slice(p, &(0..n).map(|i| i as f32).collect::<Vec<_>>())
        .unwrap();
    inc(s, p, BYTES);
    s.sync().unwrap();
    digest_f32(&s.load_slice::<f32>(p, n).unwrap())
}

/// Four 384 KiB objects (a full and a short rolling block each) swept twice
/// by `inc` on a 768 KiB device: every call re-homes its argument and evicts
/// a colder object.
fn oversubscribed(s: &Session) -> u64 {
    const BYTES: u64 = 384 << 10;
    let n = (BYTES / 4) as usize;
    let ptrs: Vec<_> = (0..4)
        .map(|i| {
            let p = s.alloc(BYTES).unwrap();
            let seed: Vec<f32> = (0..n).map(|e| ((e + i) % 251) as f32).collect();
            s.store_slice(p, &seed).unwrap();
            p
        })
        .collect();
    for _ in 0..2 {
        for &p in &ptrs {
            inc(s, p, BYTES);
            s.sync().unwrap();
        }
    }
    let words: Vec<f32> = ptrs
        .iter()
        .flat_map(|&p| s.load_slice::<f32>(p, n).unwrap())
        .collect();
    digest_f32(&words)
}

const BULK_FILE: &str = "fingerprint_bulk";

/// Every interposed bulk path over 8-block objects: `memcpy_in`, a call,
/// `memset`, same-object `memcpy`, `memcpy_out`, and a file written from one
/// object and read back into another.
fn bulk(s: &Session, block: u64) -> u64 {
    let size = 8 * block;
    let a = s.alloc(size).unwrap();
    let blob: Vec<u8> = (0..size).map(|i| (i % 253) as u8).collect();
    s.memcpy_in(a, &blob).unwrap();
    inc(s, a, size);
    s.sync().unwrap();
    s.memset(a.byte_add(block / 2), 0x5A, 3 * block).unwrap();
    s.memcpy(a.byte_add(size / 2 + 12), a.byte_add(7), size / 4)
        .unwrap();
    let mut out = vec![0u8; size as usize];
    s.memcpy_out(&mut out, a).unwrap();
    s.write_shared_to_file(BULK_FILE, 0, a, size).unwrap();
    let b = s.alloc(size).unwrap();
    s.read_file_to_shared(BULK_FILE, 0, b, size).unwrap();
    out.extend(s.load_slice::<u8>(b, size as usize).unwrap());
    digest(&out)
}

/// One object on each of two devices (whose memory windows overlap), both called before one sync, then a
/// cross-device `memcpy` and a second call on device 0.
fn two_devices(s: &Session) -> u64 {
    const BYTES: u64 = 256 << 10;
    let n = (BYTES / 4) as usize;
    let a = s.alloc_on(DeviceId(0), BYTES).unwrap();
    let b = s.safe_alloc_on(DeviceId(1), BYTES).unwrap();
    s.store_slice(a, &vec![2.0f32; n]).unwrap();
    s.store_slice(b, &(0..n).map(|i| i as f32).collect::<Vec<_>>())
        .unwrap();
    inc(s, a, BYTES);
    inc(s, b, BYTES);
    s.sync().unwrap();
    s.memcpy(a, b.byte_add(BYTES / 2), BYTES / 4).unwrap();
    inc(s, a, BYTES);
    s.sync().unwrap();
    let mut words = s.load_slice::<f32>(a, n).unwrap();
    words.extend(s.load_slice::<f32>(b, n).unwrap());
    digest_f32(&words)
}

/// Every scenario's line, in file order.
fn fingerprint() -> Vec<String> {
    let mut lines = Vec::new();
    let gmac_cfg = |p: Protocol| GmacConfig::default().protocol(p);

    // The small suite under every variant.
    for w in apps() {
        let name = w.name();
        let cuda = run_cuda(Platform::desktop_g280(), w.as_ref());
        lines.push(cuda.line(&format!("suite/{name}/cuda")));
        for p in Protocol::ALL {
            let o = run_gmac(Platform::desktop_g280(), w.as_ref(), gmac_cfg(p));
            lines.push(o.line(&format!("suite/{name}/{}", label(p))));
        }
    }

    // Rolling-update off its defaults (256 KiB blocks, adaptive rolling
    // size): 4 KiB blocks, and a dirty set bounded at one block.
    for (tag, cfg) in [
        ("rolling-4k", gmac_cfg(Protocol::Rolling).block_size(4096)),
        ("rolling-rs1", gmac_cfg(Protocol::Rolling).rolling_size(1)),
    ] {
        for w in apps() {
            let o = run_gmac(Platform::desktop_g280(), w.as_ref(), cfg.clone());
            lines.push(o.line(&format!("{tag}/{}", w.name())));
        }
    }

    // The one cheap witness that lazy-update still fetches an object the CPU
    // overwrites whole.
    for p in [Protocol::Lazy, Protocol::Rolling] {
        let o = run_session(small_platform(1 << 30), gmac_cfg(p), full_overwrite);
        lines.push(o.line(&format!("full-overwrite/{}", label(p))));
    }

    // Device memory as a cache: 2x oversubscribed under each policy, and
    // once with a host budget small enough to spill to disk.
    for p in [Protocol::Lazy, Protocol::Rolling] {
        for policy in [EvictPolicy::Lru, EvictPolicy::Clock] {
            let cfg = gmac_cfg(p).evict_policy(policy);
            let o = run_session(small_platform(768 << 10), cfg, oversubscribed);
            lines.push(o.line(&format!("evict-{policy}/{}", label(p))));
        }
    }
    let spill = gmac_cfg(Protocol::Rolling).host_capacity(768 << 10);
    let o = run_session(small_platform(768 << 10), spill, oversubscribed);
    lines.push(o.line("evict-spill/rolling"));

    // The race detector on, over the benchmark's three micro-benchmarks.
    for w in apps().into_iter().skip(7) {
        let cfg = gmac_cfg(Protocol::Rolling).race_check(true);
        let o = run_gmac(Platform::desktop_g280(), w.as_ref(), cfg);
        lines.push(o.line(&format!("race-check/{}", w.name())));
    }

    // Two devices driven by one session.
    for p in Protocol::ALL {
        let platform = Platform::desktop_multi_gpu(2);
        platform.register_kernel(Arc::new(Inc));
        let o = run_session(platform, gmac_cfg(p), two_devices);
        lines.push(o.line(&format!("multi-gpu/{}", label(p))));
    }
    // The integrated platform: vecadd and stencil3d under every variant.
    for w in apps().into_iter().skip(7).take(2) {
        let name = w.name();
        let cuda = run_cuda(Platform::fused_apu(), w.as_ref());
        lines.push(cuda.line(&format!("fused-apu/{name}/cuda")));
        for p in Protocol::ALL {
            let o = run_gmac(Platform::fused_apu(), w.as_ref(), gmac_cfg(p));
            lines.push(o.line(&format!("fused-apu/{name}/{}", label(p))));
        }
    }

    // memset and interposed file I/O under every protocol, at both ends of
    // the block-size range.
    for block in [4096u64, 256 << 10] {
        for p in Protocol::ALL {
            let platform = small_platform(1 << 30);
            platform
                .fs_mut()
                .create(BULK_FILE, vec![0u8; 8 * block as usize]);
            let cfg = gmac_cfg(p).block_size(block);
            let o = run_session(platform, cfg, |s| bulk(s, block));
            lines.push(o.line(&format!("bulk-{}k/{}", block >> 10, label(p))));
        }
    }
    lines
}

/// `name -> [(field, value)]` of a fingerprint file.
fn parse(text: &str) -> BTreeMap<&str, Vec<(&str, &str)>> {
    text.lines()
        .filter_map(|line| {
            let mut tokens = line.split(' ');
            let name = tokens.next().filter(|n| !n.is_empty())?;
            let fields = tokens.filter_map(|t| t.split_once('=')).collect();
            Some((name, fields))
        })
        .collect()
}

/// A per-field account of how `new` differs from `old`.
fn diff(old: &str, new: &str) -> String {
    let (old, new) = (parse(old), parse(new));
    let mut out = String::new();
    for (name, fields) in &old {
        let Some(now) = new.get(name) else {
            writeln!(out, "  {name}: scenario gone").unwrap();
            continue;
        };
        let before: BTreeMap<_, _> = fields.iter().copied().collect();
        let after: BTreeMap<_, _> = now.iter().copied().collect();
        let mut changes = Vec::new();
        for key in before
            .keys()
            .chain(after.keys().filter(|k| !before.contains_key(*k)))
        {
            let (a, b) = (before.get(key), after.get(key));
            if a != b {
                let show = |v: Option<&&str>| v.map_or("-", |v| *v).to_string();
                changes.push(format!("{key} {} -> {}", show(a), show(b)));
            }
        }
        if !changes.is_empty() {
            writeln!(out, "  {name}: {}", changes.join(", ")).unwrap();
        }
    }
    for name in new.keys().filter(|n| !old.contains_key(*n)) {
        writeln!(out, "  {name}: new scenario").unwrap();
    }
    out
}

#[test]
fn virtual_time_matches_committed_fingerprint() {
    let mut current = fingerprint().join("\n");
    current.push('\n');
    if std::env::var_os("FINGERPRINT_BLESS").is_some() {
        assert!(
            std::env::var_os("CI").is_none(),
            "FINGERPRINT_BLESS is refused under CI: bless locally and commit the file"
        );
        std::fs::write(FILE, &current).expect("write fingerprint");
        return;
    }
    let committed = std::fs::read_to_string(FILE).expect("tests/fingerprint.txt");
    if committed != current {
        let mut changes = diff(&committed, &current);
        if changes.is_empty() {
            changes = "  same fields, different order or formatting".into();
        }
        panic!(
            "virtual time moved against tests/fingerprint.txt:\n{changes}\n\
             If the change is intended, re-bless with \
             `FINGERPRINT_BLESS=1 cargo test -q --test fingerprint` and declare \
             the changed lines."
        );
    }
}
