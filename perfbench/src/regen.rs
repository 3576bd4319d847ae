//! `paper_regen`: repeats one pass that regenerates Table 1, Table 2,
//! Tables 3-6 with Figure 3 and PPT4, the scale-up study, the hot-spot
//! study and the 32-cell zoo matrix, cold (no result cache) at the
//! default `CEDAR_THREADS`. Its inputs are the paper's, so the seed is
//! unused.

use std::time::Instant;

use cedar_bench::{fig3, hotspot, ppt4, scaleup, table1, table2, table3, table4, table5, table6};
use cedar_zoo::cell::{run_cell, specs, ZooCell, ZooCellSpec, HOT_PPMS};
use cedar_zoo::{hotspot_point, HotspotPoint, Machine};

use crate::common::{debug_digest, median, Ctx, Op, Outcome, Setups, Tracer};
use crate::pins;

const TABLE2_GOLDEN: &str = include_str!("../../tests/golden/table2.snap");
const FIG3_GOLDEN: &str = include_str!("../../tests/golden/fig3.snap");

/// The hot-spot zoo workload's tag and the requests per CE its full
/// (non-smoke) cells simulate.
const SYNC_HOTSPOT: u8 = 3;
const HOTSPOT_REQUESTS: u64 = 128;

/// One regenerated product: its name and whether it matched.
type Checked = (&'static str, bool);

/// What one pass produced besides its checks.
struct Pass {
    checks: Vec<Checked>,
    cells: Vec<ZooCell>,
    /// Per-cell host seconds, in spec order.
    cell_secs: Vec<f64>,
    sweep_secs: f64,
    /// Host seconds of each stage, in `STAGES` order.
    stage_secs: [f64; STAGES],
    points: u64,
}

/// Stages of a pass: Table 1, Table 2, the Perfect tables, scale-up,
/// hot-spot and the zoo sweep.
const STAGES: usize = 6;

/// Runs `f`, adding its host seconds to `secs`.
fn timed<R>(secs: &mut f64, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    *secs += started.elapsed().as_secs_f64();
    out
}

fn is_fabric_cell(spec: &ZooCellSpec) -> bool {
    spec.machine == Machine::Cedar.tag() || spec.machine == Machine::Ultra.tag()
}

fn pinned(name: &'static str, value: &impl std::fmt::Debug) -> Checked {
    (name, pins::get(name) == Some(debug_digest(value)))
}

/// Every product the pass regenerates, keyed as in `pins.txt`, for
/// pin generation.
pub fn print_pins() {
    for (name, digest) in [
        ("regen.table1", debug_digest(&table1::run())),
        ("regen.table3", debug_digest(&table3::run())),
        ("regen.table4", debug_digest(&table4::run())),
        ("regen.table5", debug_digest(&table5::run())),
        ("regen.table6", debug_digest(&table6::run())),
        (
            "regen.ppt4",
            debug_digest(&(ppt4::run_cedar(), ppt4::run_cm5())),
        ),
        ("regen.scaleup", debug_digest(&scaleup::run())),
        ("regen.hotspot", debug_digest(&hotspot::run())),
        (
            "regen.zoo",
            debug_digest(&specs(false).into_iter().map(run_cell).collect::<Vec<_>>()),
        ),
    ] {
        println!("{name} {digest:016x}");
    }
}

fn pass(tracer: &Tracer) -> Pass {
    let mut checks = Vec::new();
    let mut stage_secs = [0.0; STAGES];
    let [s_table1, s_table2, s_perfect, s_scaleup, s_hotspot, s_sweep] = &mut stage_secs;
    let t1 = timed(s_table1, || tracer.span("core.table1", table1::run));
    checks.push(pinned("regen.table1", &t1));
    let t2 = timed(s_table2, || tracer.span("net.table2", table2::report));
    checks.push(("golden.table2", t2 == TABLE2_GOLDEN));
    let t2_points = table2::PAPER.len() * table2::CES.len();
    timed(s_perfect, || {
        tracer.span("perfect.tables", || {
            let t3 = tracer.span("perfect.table3", table3::run);
            checks.push(pinned("regen.table3", &t3));
            let t4 = tracer.span("perfect.table4", table4::run);
            checks.push(pinned("regen.table4", &t4));
            let t5 = tracer.span("perfect.table5", table5::run);
            checks.push(pinned("regen.table5", &t5));
            let t6 = tracer.span("perfect.table6", table6::run);
            checks.push(pinned("regen.table6", &t6));
            let f3 = tracer.span("perfect.fig3", fig3::report);
            checks.push(("golden.fig3", f3 == FIG3_GOLDEN));
            let p4 = tracer.span("perfect.ppt4", || (ppt4::run_cedar(), ppt4::run_cm5()));
            checks.push(pinned("regen.ppt4", &p4));
        })
    });
    let su = timed(s_scaleup, || tracer.span("core.scaleup", scaleup::run));
    checks.push(pinned("regen.scaleup", &su));
    let hs = timed(s_hotspot, || tracer.span("net.hotspot", hotspot::run));
    checks.push(pinned("regen.hotspot", &hs));

    let zoo_specs = specs(false);
    let timed_cells = timed(s_sweep, || {
        tracer.span("exec.sweep", || {
            let out = cedar_exec::run_sweep(zoo_specs.clone(), |spec| {
                let started = Instant::now();
                let cell = run_cell(spec);
                (cell, started, Instant::now())
            });
            for (spec, (_, start, end)) in zoo_specs.iter().zip(&out) {
                let name = if is_fabric_cell(spec) {
                    "zoo.fabric_cell"
                } else {
                    "zoo.analytic_cell"
                };
                tracer.record(name, *start, *end);
            }
            out
        })
    });
    let sweep_secs = *s_sweep;
    let cell_secs = timed_cells
        .iter()
        .map(|(_, s, e)| e.duration_since(*s).as_secs_f64())
        .collect();
    let cells: Vec<ZooCell> = timed_cells.into_iter().map(|(c, ..)| c).collect();
    checks.push(pinned("regen.zoo", &cells));
    Pass {
        checks,
        points: (t2_points + hs.len() + cells.len()) as u64,
        cells,
        cell_secs,
        sweep_secs,
        stage_secs,
    }
}

/// The zoo's simulated hot-spot cells, recomputed point by point
/// through the servable `hotspot_point` (the same fabric runs the cells
/// make): (machine, point index, point).
fn hotspot_points() -> Vec<(Machine, usize, HotspotPoint)> {
    let mut out = Vec::new();
    for machine in [Machine::Cedar, Machine::Ultra] {
        for (i, &ppm) in HOT_PPMS.iter().enumerate() {
            out.push((
                machine,
                i,
                hotspot_point(machine, 32, HOTSPOT_REQUESTS, ppm),
            ));
        }
    }
    out
}

/// Whether the zoo's hot-spot cells hold exactly these points.
fn cells_agree(cells: &[ZooCell], points: &[(Machine, usize, HotspotPoint)]) -> bool {
    points.iter().all(|(machine, i, p)| {
        cells
            .iter()
            .find(|c| c.machine == machine.tag() && c.workload == SYNC_HOTSPOT)
            .is_some_and(|c| {
                c.primary.get(*i) == Some(&p.bandwidth)
                    && c.aux.get(*i) == Some(&p.latency_ce)
                    && c.aux.get(HOT_PPMS.len() + i) == Some(&(p.combined as f64))
            })
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let tracer = &ctx.tracer;
    let threads = cedar_exec::threads();

    // Set-up: count the simulated cycles of the zoo's fabric cells
    // (used for `sim_cycles_per_s`). Repeated through the run.
    let (mut setups, points) = Setups::first(hotspot_points);
    let hot_cycles: u64 = points.iter().map(|(.., p)| p.net_cycles).sum();

    let started = Instant::now();
    let (mut passes, mut busy, mut point_max) = (0u64, Vec::new(), Vec::new());
    // Fastest host time of each stage and of each zoo cell over the
    // passes (why the fastest: see `Setups`).
    let mut stage_best = [f64::INFINITY; STAGES];
    let mut cell_best = vec![f64::INFINITY; specs(false).len()];
    let mut points_per_pass = 0;
    let mut cells_ok = true;
    while passes == 0 || started.elapsed() < ctx.budget {
        if setups.due() {
            out.tally(setups.time(hotspot_points) == points);
        }
        let pass_started = Instant::now();
        let p = tracer.span("pass", || pass(tracer));
        let secs = pass_started.elapsed().as_secs_f64();
        for (_, ok) in &p.checks {
            out.tally(*ok);
        }
        if passes == 0 {
            cells_ok = cells_agree(&p.cells, &points);
            out.tally(cells_ok);
            let combined: u64 = points.iter().map(|(.., p)| p.combined).sum();
            out.exact.push(("zoo.words_combined", combined));
            out.layers.insert("zoo.words_combined", combined as f64);
        }
        out.ops.push(Op {
            us: secs * 1e6,
            hit: passes > 0,
        });
        for (best, s) in stage_best.iter_mut().zip(p.stage_secs) {
            *best = best.min(s);
        }
        for (best, s) in cell_best.iter_mut().zip(&p.cell_secs) {
            *best = best.min(*s);
        }
        busy.push(p.cell_secs.iter().sum::<f64>() / (threads as f64 * p.sweep_secs));
        point_max.push(p.cell_secs.iter().copied().fold(0.0, f64::max) * 1e6);
        out.run_ms.push(secs * 1e3);
        points_per_pass = p.points;
        passes += 1;
    }
    // One pass at each stage's fastest time, and the hot-spot cells'
    // simulated cycles over their fastest times.
    out.points = points_per_pass;
    out.measured_s = stage_best.iter().sum();
    out.sim_cycles = hot_cycles;
    out.sim_s = specs(false)
        .iter()
        .zip(&cell_best)
        .filter(|(spec, _)| is_fabric_cell(spec) && spec.workload == SYNC_HOTSPOT)
        .map(|(_, s)| s)
        .sum();
    out.setup_s = setups.fastest();
    out.notes.push(setups.note());
    out.notes.push(format!(
        "pooled over all {passes} passes: {:.3} points/s",
        (points_per_pass * passes) as f64 / started.elapsed().as_secs_f64()
    ));
    out.layers.insert("exec.busy_ratio", median(&busy));
    out.layers.insert("exec.point_us_max", median(&point_max));

    // Self-test: a Table 2 report with one digit changed must fail the
    // golden comparison.
    let mut corrupt = table2::report();
    let at = corrupt
        .find(|c: char| c.is_ascii_digit())
        .expect("report has digits");
    let digit = corrupt.as_bytes()[at];
    corrupt.replace_range(at..=at, if digit == b'9' { "0" } else { "9" });
    out.self_test_ok = corrupt != TABLE2_GOLDEN;

    let rows = table2::run();
    let errs: Vec<String> = rows
        .iter()
        .zip(table2::PAPER.iter())
        .map(|(row, (name, _, lat, _))| {
            format!("{name} {:+.1}%", 100.0 * (row.latency[2] / lat[2] - 1.0))
        })
        .collect();
    out.notes.push(format!(
        "seed unused: the inputs are the paper's; {passes} passes at {threads} threads; \
         zoo hot-spot cells {}; Table 2 latency error at 32 CEs: {}",
        if cells_ok {
            "agree with hotspot_point"
        } else {
            "DISAGREE with hotspot_point"
        },
        errs.join(", ")
    ));
    out
}
