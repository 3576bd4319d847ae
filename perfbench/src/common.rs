//! Pieces every workload shares: the run context, the span recorder,
//! the per-run outcome, percentiles and the output digest.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What one workload run is asked to do.
pub struct Ctx {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub budget: Duration,
    /// Span recorder; disabled on untraced runs.
    pub tracer: Tracer,
    /// Scratch directory inside the checkout for caches and traces.
    pub work_dir: std::path::PathBuf,
}

/// One timed operation as the user sees it.
#[derive(Clone, Copy)]
pub struct Op {
    /// Latency in microseconds.
    pub us: f64,
    /// Whether the operation repeats an input already completed in
    /// this process (a cache read on `serve_mixed`).
    pub hit: bool,
}

/// Everything a workload run measured. End-to-end metrics are derived
/// from it in one place (`main.rs`), so every workload reports them
/// the same way.
#[derive(Default)]
pub struct Outcome {
    /// Fastest of the repeated set-ups, seconds.
    pub setup_s: f64,
    /// Operations attempted and operations that failed (any error
    /// reply, wrong output or panic).
    pub attempted: u64,
    pub failed: u64,
    /// Per-operation latencies, classed hit or miss.
    pub ops: Vec<Op>,
    /// Samples of `run_ms`: one experiment, one request or one pass.
    pub run_ms: Vec<f64>,
    /// Units of work completed and the host seconds they took: the
    /// whole nominal phase on `serve_mixed`, one round or pass at the
    /// fastest time measured for each of its parts on the others.
    pub points: u64,
    pub measured_s: f64,
    /// Simulated network cycles and the host seconds that produced
    /// them, on the same terms as `points`.
    pub sim_cycles: u64,
    pub sim_s: f64,
    /// Highest offered rate meeting the latency limit (open-loop
    /// workloads only).
    pub max_rps_slo: f64,
    /// Peak resident memory, MB, when the workload samples it itself;
    /// 0 means "read it at the end of the run".
    pub peak_rss_mb: f64,
    /// End-to-end values the workload computes itself (per window or
    /// per round, then the median) in place of the pooled derivation.
    pub computed: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly between traced and untraced
    /// runs of one seed.
    pub exact: Vec<(&'static str, u64)>,
    /// Per-layer values measured by the workload itself; span-derived
    /// values are added by the caller.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable provenance lines.
    pub notes: Vec<String>,
    /// Whether the output checker rejected a deliberately corrupted
    /// output.
    pub self_test_ok: bool,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder around the benchmark's calls into each
/// layer. When disabled every method is a single branch.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let start_ns = self.ns(Instant::now());
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        let end_ns = self.ns(Instant::now());
        self.spans.borrow_mut()[idx].end_ns = end_ns;
        out
    }

    /// Records an already-finished interval (timed on another thread
    /// or across an event loop) under the open span.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.stack.borrow().last().copied();
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
        };
        self.spans.borrow_mut().push(span);
    }

    /// Per span name: (count, total ns, self ns). Self time is the
    /// span's duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.summary()
            .get(name)
            .map_or(0.0, |&(n, total, _)| total as f64 / 1e3 / n.max(1) as f64)
    }

    /// Writes every span as one tab-separated line: index, name,
    /// start, end, parent (-1 for none), self time.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("idx\tname\tstart_ns\tend_ns\tparent\tself_ns\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{self_ns}",
                s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Peak resident set of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linearly interpolated percentile (the "R-7" estimator) of an
/// unsorted sample; 0 for an empty one.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How often a workload repeats its set-up during the measured phase.
const SETUP_EVERY: Duration = Duration::from_secs(2);

/// A workload's set-up, timed once before the first timed operation and
/// again every `SETUP_EVERY` through the run.
///
/// Its cost is reported as the fastest repetition, and the fabric and
/// paper workloads time their operations the same way. Every timed
/// computation here is deterministic, and contention from other tenants
/// of a shared host only ever adds to its time (it slowed the fabric
/// simulation by up to ~2x, in phases of seconds to minutes), so the
/// fastest of many repetitions spread over a run is the steadiest
/// estimate of its cost. A mean or median over a run follows how much of
/// the run the host spent contended instead.
pub struct Setups {
    secs: Vec<f64>,
    last: Instant,
}

impl Setups {
    /// Times the first set-up.
    pub fn first<T>(setup: impl FnOnce() -> T) -> (Setups, T) {
        let mut s = Setups {
            secs: Vec::new(),
            last: Instant::now(),
        };
        let value = s.time(setup);
        (s, value)
    }

    /// Whether the next repetition is due.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= SETUP_EVERY
    }

    /// Times one repetition.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = setup();
        self.secs.push(started.elapsed().as_secs_f64());
        self.last = Instant::now();
        value
    }

    pub fn fastest(&self) -> f64 {
        self.secs.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn note(&self) -> String {
        format!(
            "set-up repeated {} times: fastest {:.6} s, median {:.6} s, first {:.6} s",
            self.secs.len(),
            self.fastest(),
            median(&self.secs),
            self.secs[0]
        )
    }
}

/// FNV-1a over a stream of words: the output digest pinned by the
/// fabric and paper checks.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a value's `Debug` rendering, which prints every field
/// (floats in shortest round-trip form).
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    let mut d = Digest::default();
    d.bytes(format!("{value:?}").as_bytes());
    d.finish()
}
