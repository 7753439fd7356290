//! In-memory spans recorded by the benchmark around its own calls into each
//! layer's public functions.
//!
//! Spans live in a `Vec` until the run ends and are then aggregated (and
//! written out as Chrome trace-event JSON). With tracing off every entry
//! point is one branch on a bool, so the untraced run — the only source of
//! end-to-end numbers — pays nothing measurable. Spans wrap phase batches and
//! API calls of at least ~1 µs, never a single sub-100 ns access.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `parent` is the index of the enclosing span, `op` the
/// op (request) it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
    /// Units of work the span covered (accesses, faults, bytes...), so a
    /// per-unit cost can be derived from the span's duration.
    pub units: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    /// Time the workload measured itself around work too fine-grained for a
    /// span each (single faults): name -> (count, ns, units).
    charged: BTreeMap<&'static str, (u64, u64, u64)>,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    pub units: u64,
}

impl Agg {
    /// Mean ns per span.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean ns per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.units as f64
        }
    }

    /// Units per ns: GB/s when the unit is a byte.
    pub fn gbps(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.units as f64 / self.total_ns as f64
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            charged: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with op number `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
            units: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    #[inline]
    pub fn end(&mut self, open: Open, units: u64) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx as usize].units = units;
        // An op that bailed out with `?` may have left inner spans open:
        // close them with their parent so the tree stays well-formed.
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span covering `units` units of work.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, units: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open, units);
        r
    }

    /// Adds `ns` spent on `units` units of work to the running total
    /// `name`. For work too fine-grained to get a span each: the caller
    /// times it itself, inside an enclosing span, and only when
    /// [`Self::enabled`].
    #[inline]
    pub fn charge(&mut self, name: &'static str, ns: u64, units: u64) {
        if self.enabled {
            let e = self.charged.entry(name).or_default();
            e.0 += 1;
            e.1 += ns;
            e.2 += units;
        }
    }

    /// Drops everything recorded so far (warm-up spans are not reported).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.stack.clear();
        self.charged.clear();
    }

    /// Per-name totals with self time (duration minus direct children).
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += dur;
            a.self_ns += dur.saturating_sub(child_ns[i]);
            a.units += s.units;
        }
        for (name, &(count, ns, units)) in &self.charged {
            let a = out.entry(name).or_default();
            a.count += count;
            a.total_ns += ns;
            a.self_ns += ns;
            a.units += units;
        }
        out
    }

    /// Chrome trace-event JSON (one complete event per span), capped so a
    /// long traced run cannot write an unbounded file.
    pub fn write_chrome(&self, path: &std::path::Path, cap: usize) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        let n = self.spans.len().min(cap);
        for (i, s) in self.spans[..n].iter().enumerate() {
            let sep = if i + 1 == n { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"units\":{}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.units,
                sep
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}
