//! `fabric_healthy` and `fabric_degraded`: seeded sequences of
//! round-trip fabric experiments, driven through the fabric's public
//! stepping API (`new` + `begin_experiment`, `drive_experiment`,
//! `finish_experiment`) so each layer call can be timed.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use cedar_bench::table2::PAPER;
use cedar_faults::{FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar_net::fabric::{
    FabricConfig, FabricExperiment, FabricReport, PrefetchTraffic, RoundTripFabric,
};
use cedar_obs::{Obs, ObsConfig};
use cedar_sim::watchdog::Watchdog;
use cedar_sim::SplitMix64;

use crate::common::{mean, peak_rss_mb, Ctx, Digest, Op, Outcome, Setups, Tracer};
use crate::pins;

/// Simulated-cycle budget per experiment; no shape comes near it.
const MAX_NET_CYCLES: u64 = 64_000_000;
/// The Table-2 kernels, in `PAPER` order.
const KERNELS: [&str; 4] = ["TM", "CG", "VF", "RK"];
/// Healthy experiments run at the paper's largest machine.
const HEALTHY_CES: usize = 32;
/// Healthy block counts drawn uniformly from `1..=HEALTHY_MAX_BLOCKS`.
const HEALTHY_MAX_BLOCKS: u32 = 12;
/// Degraded grid: the degraded study's positive fault rates and its
/// fault-schedule seed, small machines and one-block streams (a faulted
/// run pays retry timeouts of thousands of cycles, so even these take
/// 0.03-0.2 s on the generic engine). The 5 % rate runs on the smallest
/// machine only: at 4 and 8 CEs it takes 0.5-0.9 s, and a handful of
/// such runs would decide the workload's tail.
const DEGRADED_RATES: [f64; 3] = [0.01, 0.02, 0.05];
const DEGRADED_CES: [usize; 3] = [2, 4, 8];
const HIGHEST_RATE_CES: usize = 2;
/// The degraded shape at this rate and machine size (one in seven) runs
/// with telemetry attached and its trace exported, as in the trace study.
const TELEMETRY_RATE: usize = 1;
const TELEMETRY_CES: usize = 4;
/// Experiments whose counts must repeat exactly between runs of one
/// seed (the untimed-length prefix of the seeded sequence).
const HEALTHY_PREFIX: usize = 64;
const DEGRADED_PREFIX: usize = 8;
/// Rounds that run the grid in grid order, after which peak memory is
/// read. The heap's high-water mark creeps up with fragmentation over a
/// run, and how fast depends on the order (7.1 to 10.6 MB by the end of
/// 30 s fabric_degraded runs), so it is read after a fixed sequence of
/// work, before the set-up is first repeated. Later rounds are shuffled.
const ORDERED_ROUNDS: usize = 2;
/// Set-ups timed back to back each time one is due: a fabric build takes
/// tens of microseconds, too short for one sample to be steady.
const SETUP_BATCH: usize = 16;

/// One experiment configuration of either workload.
#[derive(Clone, Copy)]
pub enum Shape {
    Healthy { kernel: usize, blocks: u32 },
    Degraded { rate: usize, ces: usize },
}

impl Shape {
    /// The key its pinned digest is stored under.
    pub fn key(self) -> String {
        match self {
            Shape::Healthy { kernel, blocks } => format!("healthy.{}.b{blocks}", KERNELS[kernel]),
            Shape::Degraded { rate, ces } => {
                format!("degraded.r{}.c{ces}", DEGRADED_RATES[rate])
            }
        }
    }

    fn traffic(self) -> PrefetchTraffic {
        match self {
            Shape::Healthy { kernel, blocks } => match KERNELS[kernel] {
                "TM" => PrefetchTraffic::tridiagonal_matvec(blocks),
                "CG" => PrefetchTraffic::conjugate_gradient(blocks),
                "VF" => PrefetchTraffic::vector_load(blocks),
                _ => PrefetchTraffic::rk_aggressive(blocks),
            },
            Shape::Degraded { .. } => {
                let mut t = cedar_bench::degraded::traffic();
                t.blocks = 1;
                t
            }
        }
    }

    fn telemetry(self) -> bool {
        matches!(self, Shape::Degraded { rate, ces }
            if rate == TELEMETRY_RATE && ces == TELEMETRY_CES)
    }

    fn ces(self) -> usize {
        match self {
            Shape::Healthy { .. } => HEALTHY_CES,
            Shape::Degraded { ces, .. } => ces,
        }
    }

    /// Every configuration of the workload, for pin generation.
    pub fn grid(degraded: bool) -> Vec<Shape> {
        let mut out = Vec::new();
        if degraded {
            for rate in 0..DEGRADED_RATES.len() {
                let last = rate + 1 == DEGRADED_RATES.len();
                for ces in DEGRADED_CES
                    .into_iter()
                    .filter(|&c| !last || c == HIGHEST_RATE_CES)
                {
                    out.push(Shape::Degraded { rate, ces });
                }
            }
        } else {
            for kernel in 0..KERNELS.len() {
                for blocks in 1..=HEALTHY_MAX_BLOCKS {
                    out.push(Shape::Healthy { kernel, blocks });
                }
            }
        }
        out
    }
}

/// The seeded experiment sequence: rounds over the whole grid, so every
/// shape repeats throughout the run; after the first `ORDERED_ROUNDS`
/// the seed shuffles each round.
struct Sequence {
    grid: Vec<Shape>,
    order: Vec<usize>,
    next: usize,
    rounds: usize,
    rng: SplitMix64,
}

impl Sequence {
    fn new(degraded: bool, seed: u64) -> Sequence {
        let grid = Shape::grid(degraded);
        Sequence {
            order: (0..grid.len()).collect(),
            next: grid.len(),
            rounds: 0,
            grid,
            rng: SplitMix64::new(seed),
        }
    }

    /// The next shape and its index in the grid.
    fn draw(&mut self) -> (usize, Shape) {
        if self.next == self.order.len() {
            if self.rounds >= ORDERED_ROUNDS {
                for i in (1..self.order.len()).rev() {
                    self.order
                        .swap(i, self.rng.next_below(i as u64 + 1) as usize);
                }
            }
            self.rounds += 1;
            self.next = 0;
        }
        self.next += 1;
        let at = self.order[self.next - 1];
        (at, self.grid[at])
    }
}

/// What one experiment produced, reduced to the fields the benchmark
/// reports and checks.
pub struct Experiment {
    pub digest: u64,
    pub cycles: u64,
    pub requests: u64,
    pub retries: u64,
    pub failed: u64,
    pub words_dropped: u64,
    pub latency_ce: f64,
    pub interarrival_ce: f64,
    pub specialized: bool,
    pub trace_events: u64,
    pub watchdog_tripped: bool,
    /// Host seconds of the whole experiment as the user calls it.
    pub secs: f64,
}

/// Digest of every simulated field of a report.
fn report_digest(r: &FabricReport) -> u64 {
    let mut d = Digest::default();
    for records in &r.per_ce {
        d.word(records.len() as u64);
        for rec in records {
            d.word(u64::from(rec.block));
            d.word(u64::from(rec.index_in_block));
            d.word(rec.issue);
            d.word(rec.ret);
        }
    }
    d.word(r.total_net_cycles);
    d.word(r.net_cycles_per_ce_cycle);
    d.float(r.latency_offset_ce);
    d.word(u64::from(r.completed()));
    d.word(u64::from(r.resolved()));
    d.word(r.request_count());
    d.word(r.retries());
    d.word(r.failed_requests());
    d.word(r.words_dropped());
    d.word(r.module_discards());
    d.float(r.mean_first_word_latency_ce());
    d.float(r.mean_interarrival_ce());
    d.float(r.words_per_ce_cycle());
    d.finish()
}

/// Generates the shape's fault plan and builds its fabric and
/// experiment: everything before the first simulated cycle.
fn build(shape: Shape, tracer: &Tracer) -> (RoundTripFabric, FabricExperiment, Option<Obs>) {
    let plan = match shape {
        Shape::Degraded { rate, .. } => Some(tracer.span("faults.plan", || {
            FaultPlan::generate(
                &FaultConfig::degraded(cedar_bench::degraded::SEED, DEGRADED_RATES[rate]),
                &MachineShape::cedar(),
            )
            .expect("degraded grid configs are valid")
        })),
        Shape::Healthy { .. } => None,
    };
    let obs = shape.telemetry().then(|| Obs::new(ObsConfig::enabled()));
    let (fabric, exp) = tracer.span("net.build", || {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        if let Some(plan) = plan {
            fabric.attach_faults(plan, RetryPolicy::fabric());
        }
        if let Some(obs) = &obs {
            fabric.set_obs(obs);
        }
        let exp = fabric.begin_experiment(shape.ces(), shape.traffic(), MAX_NET_CYCLES);
        (fabric, exp)
    });
    (fabric, exp, obs)
}

/// Runs one experiment, timing each layer call as a span.
pub fn run_experiment(shape: Shape, tracer: &Tracer) -> Experiment {
    let started = Instant::now();
    let telemetry = shape.telemetry();
    let (mut fabric, mut exp, obs) = build(shape, tracer);
    let mut dog = watchdog_for(shape);
    let drive_name = if telemetry {
        "obs.traced_drive"
    } else {
        "net.drive"
    };
    let driven = tracer.span(drive_name, || {
        fabric.drive_experiment(&mut exp, dog.as_mut(), None)
    });
    let specialized = fabric.last_run_engine() == Some("specialized");
    let (report, digest) = tracer.span("net.finish", || {
        let report = fabric.finish_experiment(exp);
        let digest = report_digest(&report);
        (report, digest)
    });
    let trace_events = obs.as_ref().map_or(0, |obs| {
        tracer.span("obs.export", || {
            let chrome = obs.chrome_trace();
            let prom = obs.prometheus();
            let valid = obs.validate_trace().is_ok() && !chrome.is_empty() && !prom.is_empty();
            let events = obs
                .with(|inner| inner.trace.events().len() as u64)
                .unwrap_or(0);
            if valid {
                events
            } else {
                0
            }
        })
    });
    Experiment {
        digest,
        cycles: report.total_net_cycles,
        requests: report.request_count(),
        retries: report.retries(),
        failed: report.failed_requests(),
        words_dropped: report.words_dropped(),
        latency_ce: report.mean_first_word_latency_ce(),
        interarrival_ce: report.mean_interarrival_ce(),
        specialized,
        trace_events,
        watchdog_tripped: driven.is_err(),
        secs: started.elapsed().as_secs_f64(),
    }
}

fn watchdog_for(shape: Shape) -> Option<Watchdog> {
    matches!(shape, Shape::Degraded { .. }).then(|| {
        Watchdog::new(
            cedar_bench::degraded::WATCHDOG_BUDGET,
            "benchmark degraded experiment",
        )
    })
}

/// Whether an experiment's output is right: its digest equals the
/// pinned one, it resolved, and a telemetry run exported a valid,
/// non-empty trace.
fn check(shape: Shape, exp: &Experiment) -> bool {
    pins::get(&shape.key()) == Some(exp.digest)
        && !exp.watchdog_tripped
        && (!shape.telemetry() || exp.trace_events > 0)
}

/// Runs `fabric_healthy` (`degraded == false`) or `fabric_degraded`.
pub fn run(ctx: &Ctx, degraded: bool) -> Outcome {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let mut seq = Sequence::new(degraded, ctx.seed);
    let mut seen: HashSet<String> = HashSet::new();

    // Set-up: generate the fault plan of the grid's last shape and build
    // its fabric and experiment. The same shape on every seed, so set-up
    // costs the same; repeated through the run.
    let setup_shape = *Shape::grid(degraded).last().expect("grids are not empty");
    let setup = || drop(build(setup_shape, &Tracer::new(false)));
    let (mut setups, ()) = Setups::first(setup);

    let mut prefix = [0u64; 6];
    let mut latency_by_kernel: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    let (mut specialized, mut trips, mut count) = (0u64, 0u64, 0usize);
    let mut plain_cycles = 0u64;
    // Per grid shape: its simulated cycles and its fastest host time
    // (why the fastest: see `Setups`).
    let grid_len = seq.grid.len();
    let mut shape_cycles = vec![0u64; grid_len];
    let mut shape_best = vec![f64::INFINITY; grid_len];
    let (mut pooled_cycles, mut pooled_s) = (0u64, 0.0);
    let started = Instant::now();
    let prefix_len = if degraded {
        DEGRADED_PREFIX
    } else {
        HEALTHY_PREFIX
    };
    let rss_at = ORDERED_ROUNDS * grid_len;
    while started.elapsed() < ctx.budget || count <= rss_at.max(prefix_len) {
        if count == rss_at {
            out.peak_rss_mb = peak_rss_mb();
        }
        if count > rss_at && setups.due() {
            for _ in 0..SETUP_BATCH {
                setups.time(setup);
            }
        }
        let (at, shape) = seq.draw();
        let telemetry = shape.telemetry();
        let exp = tracer.span("experiment", || run_experiment(shape, tracer));
        let ok = check(shape, &exp);
        out.tally(ok);
        shape_cycles[at] = exp.cycles;
        shape_best[at] = shape_best[at].min(exp.secs);
        pooled_cycles += exp.cycles;
        pooled_s += exp.secs;
        let key = shape.key();
        out.ops.push(Op {
            us: exp.secs * 1e6,
            hit: seen.contains(&key),
        });
        seen.insert(key);
        out.run_ms.push(exp.secs * 1e3);
        specialized += u64::from(exp.specialized);
        if !telemetry {
            plain_cycles += exp.cycles;
        }
        trips += u64::from(exp.watchdog_tripped);
        if count < prefix_len {
            for (slot, v) in prefix.iter_mut().zip([
                exp.cycles,
                exp.requests,
                exp.retries,
                exp.failed,
                exp.words_dropped,
                exp.trace_events,
            ]) {
                *slot += v;
            }
        }
        if let Shape::Healthy { kernel, .. } = shape {
            latency_by_kernel
                .entry(kernel)
                .or_default()
                .push((exp.latency_ce, exp.interarrival_ce));
        }
        count += 1;
    }
    // One round of the grid at each shape's fastest time.
    let round_s: f64 = shape_best.iter().sum();
    out.sim_cycles = shape_cycles.iter().sum();
    out.sim_s = round_s;
    out.points = grid_len as u64;
    out.measured_s = round_s;
    out.setup_s = setups.fastest();
    out.notes.push(setups.note());
    out.notes.push(format!(
        "pooled over all {count} experiments: {:.0} sim cycles/s, {:.3} experiments/s",
        pooled_cycles as f64 / pooled_s,
        count as f64 / pooled_s
    ));

    let [cycles, requests, retries, failed, dropped, events] = prefix;
    out.exact = vec![
        ("net.sim_cycles", cycles),
        ("net.requests", requests),
        ("faults.retries", retries),
        ("faults.failed", failed),
        ("faults.words_dropped", dropped),
        ("obs.trace_events", events),
    ];
    out.layers.insert("net.sim_cycles", cycles as f64);
    out.layers.insert("net.requests", requests as f64);
    out.layers.insert("faults.retries", retries as f64);
    out.layers.insert("faults.failed", failed as f64);
    out.layers.insert("faults.words_dropped", dropped as f64);
    out.layers.insert("obs.trace_events", events as f64);
    if degraded {
        let attempts = (requests + failed + retries).max(1);
        out.layers
            .insert("faults.useful_ratio", requests as f64 / attempts as f64);
    }
    out.layers
        .insert("net.specialized_share", specialized as f64 / count as f64);
    out.layers.insert("sim.watchdog_trips", trips as f64);
    if let Some(&(_, drive_ns, _)) = tracer.summary().get("net.drive") {
        out.layers.insert(
            "net.ns_per_sim_cycle",
            drive_ns as f64 / plain_cycles.max(1) as f64,
        );
    }

    // Self-test: a corrupted digest must be rejected.
    let mut corrupt = run_experiment(setup_shape, &Tracer::new(false));
    corrupt.digest ^= 1;
    out.self_test_ok = !check(setup_shape, &corrupt);

    if !degraded {
        let mut parts = Vec::new();
        for (kernel, samples) in &latency_by_kernel {
            let lat = mean(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
            let inter = mean(&samples.iter().map(|s| s.1).collect::<Vec<_>>());
            let (_, _, paper_lat, paper_inter) = PAPER[*kernel];
            parts.push(format!(
                "{} latency {:+.1}% interarrival {:+.1}%",
                KERNELS[*kernel],
                100.0 * (lat / paper_lat[2] - 1.0),
                100.0 * (inter / paper_inter[2] - 1.0)
            ));
        }
        out.notes.push(format!(
            "model error vs Table 2 at 32 CEs (mean over this run's block counts): {}",
            parts.join("; ")
        ));
    }
    out.notes.push(format!(
        "{count} experiments, {} distinct shapes",
        seen.len()
    ));
    out
}

/// Prints `key digest` for every shape of both fabric grids.
pub fn print_pins() {
    for degraded in [false, true] {
        for shape in Shape::grid(degraded) {
            let exp = run_experiment(shape, &Tracer::new(false));
            println!("{} {:016x}", shape.key(), exp.digest);
            eprintln!("{} {:.1} ms", shape.key(), exp.secs * 1e3);
        }
    }
}
