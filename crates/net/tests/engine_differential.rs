//! Differential tests between the generic and specialized execution
//! engines: across fixed reference shapes and randomized
//! topology/traffic/fault cases, both engines must produce bit-identical
//! reports, bit-identical mid-run checkpoints (mid-retry ones under
//! fault plans included), and (for ineligible configurations) an
//! explicit, obs-visible fallback. Randomness comes
//! from the simulator's deterministic SplitMix64, so every failure
//! reproduces from the seed.

use cedar_faults::{FaultConfig, FaultPlan, MachineShape, RetryPolicy};
use cedar_net::fabric::{FabricConfig, FabricReport, PrefetchTraffic, RoundTripFabric};
use cedar_net::{AddressPattern, EngineKind};
use cedar_obs::{Obs, ObsConfig};
use cedar_sim::rng::SplitMix64;
use cedar_sim::watchdog::Watchdog;

const MAX_NET_CYCLES: u64 = 4_000_000;

/// A random specialization-eligible fabric: power-of-two omega
/// topologies with randomized queue depths and module timing (all
/// within the specialized engine's dimension bounds).
fn random_config(rng: &mut SplitMix64) -> FabricConfig {
    let mut cfg = FabricConfig::cedar();
    let topologies = [(8, 2), (4, 2), (4, 3), (2, 4)];
    let (radix, stages) = topologies[rng.next_below(topologies.len() as u64) as usize];
    cfg.net.radix = radix;
    cfg.net.stages = stages;
    cfg.net.queue_words = 2 + rng.next_below(3) as usize;
    cfg.net.exit_fifo_words = 2 + rng.next_below(3) as usize;
    cfg.mem_modules = cfg.net.ports() / 2;
    cfg.mem_service_net_cycles = 1 + rng.next_below(3);
    cfg.module_buffer_requests = 1 + rng.next_below(3) as usize;
    cfg
}

/// A random prefetch traffic shape, including hot-spot patterns (which
/// exercise the per-issue RNG draw both engines must replay in the
/// same order).
fn random_traffic(rng: &mut SplitMix64) -> PrefetchTraffic {
    let mut t = PrefetchTraffic::rk_aggressive(1 + rng.next_below(3) as u32);
    t.block_len = 8 << rng.next_below(3);
    t.window = 2 + rng.next_below(31) as u32;
    t.gap_ce_cycles = rng.next_below(5);
    t.streams = 1 + rng.next_below(4) as u32;
    t.writes_per_read = [0.0, 0.5, 1.0][rng.next_below(3) as usize];
    if rng.next_below(3) == 0 {
        t.pattern = AddressPattern::HotSpot {
            module: rng.next_below(4) as usize,
            fraction: 0.25,
        };
    }
    t
}

/// Runs the full experiment on the requested engine, checkpointing at
/// `cut` driven net cycles. Returns the mid-run checkpoint bytes, the
/// final report, and which engine actually drove the run.
fn run_with_engine(
    cfg: FabricConfig,
    engine: EngineKind,
    n_ces: usize,
    traffic: PrefetchTraffic,
    cut: u64,
) -> (Vec<u8>, FabricReport, Option<&'static str>) {
    let mut fabric = RoundTripFabric::new(cfg);
    fabric.set_engine(engine);
    let mut exp = fabric.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
    fabric
        .drive_experiment(&mut exp, None, Some(cut))
        .expect("no watchdog attached");
    let bytes = fabric.checkpoint_experiment(&exp);
    fabric
        .drive_experiment(&mut exp, None, None)
        .expect("no watchdog attached");
    let engine_ran = fabric.last_run_engine();
    (bytes, fabric.finish_experiment(exp), engine_ran)
}

#[test]
fn reference_shapes_match_across_engines() {
    // The paper's reference shape plus traffic variants: the configs
    // the perf suite actually measures must agree engine-to-engine,
    // including the checkpoint taken mid-flight.
    let mut aggressive = PrefetchTraffic::rk_aggressive(2);
    aggressive.block_len = 64;
    let mut hot = PrefetchTraffic::rk_aggressive(1);
    hot.block_len = 32;
    hot.pattern = AddressPattern::HotSpot {
        module: 3,
        fraction: 0.3,
    };
    let mut gappy = PrefetchTraffic::rk_aggressive(2);
    gappy.block_len = 16;
    gappy.gap_ce_cycles = 40;
    for (case, traffic) in [aggressive, hot, gappy].into_iter().enumerate() {
        let cfg = FabricConfig::cedar();
        let (gen_bytes, gen_report, gen_engine) =
            run_with_engine(cfg.clone(), EngineKind::Generic, 32, traffic, 5_000);
        let (spec_bytes, spec_report, spec_engine) =
            run_with_engine(cfg, EngineKind::Specialized, 32, traffic, 5_000);
        assert_eq!(gen_engine, Some("generic"), "case {case}");
        assert_eq!(spec_engine, Some("specialized"), "case {case}");
        assert!(gen_report.completed(), "case {case} must drain");
        assert_eq!(
            gen_bytes, spec_bytes,
            "case {case}: mid-run checkpoints diverged"
        );
        assert_eq!(gen_report, spec_report, "case {case}: reports diverged");
    }
}

#[test]
fn random_machines_match_across_engines() {
    let mut rng = SplitMix64::new(0xD1FF_CEDA);
    for case in 0..24 {
        let cfg = random_config(&mut rng);
        let traffic = random_traffic(&mut rng);
        let n_ces = 1 + rng.next_below((cfg.net.ports() / 2) as u64) as usize;
        let cut = rng.next_below(50_000);
        let (gen_bytes, gen_report, _) =
            run_with_engine(cfg.clone(), EngineKind::Generic, n_ces, traffic, cut);
        let (spec_bytes, spec_report, spec_engine) =
            run_with_engine(cfg, EngineKind::Specialized, n_ces, traffic, cut);
        assert_eq!(
            spec_engine,
            Some("specialized"),
            "case {case}: eligible config must not fall back"
        );
        assert!(gen_report.completed(), "case {case} must drain");
        assert_eq!(
            gen_bytes, spec_bytes,
            "case {case}: mid-run checkpoints diverged (cut {cut}, {n_ces} CEs)"
        );
        assert_eq!(
            gen_report, spec_report,
            "case {case}: reports diverged ({n_ces} CEs)"
        );
    }
}

/// A random degraded-machine plan for `cfg`'s geometry: the degraded
/// preset at a random drop rate with denser stuck and stall windows,
/// plus fail-stopped modules early in the run (so re-aimed retries and
/// discards happen) on some cases.
fn random_plan(rng: &mut SplitMix64, cfg: &FabricConfig) -> FaultPlan {
    let rate = [0.01, 0.02, 0.05, 0.2][rng.next_below(4) as usize];
    let mut fault_cfg = FaultConfig::degraded(rng.next_below(u64::MAX), rate);
    // Windows land anywhere in a 65536-cycle horizon; more and longer
    // ones than the preset make short runs meet them.
    fault_cfg.stuck_outputs = 8;
    fault_cfg.stuck_window_cycles = 1_000 + rng.next_below(8_000);
    fault_cfg.module_stalls = 8;
    fault_cfg.stall_window_cycles = 1_000 + rng.next_below(8_000);
    fault_cfg.failed_modules = rng.next_below(3) as u32;
    fault_cfg.fail_by_cycle = 4_000;
    let shape = MachineShape {
        radix: cfg.net.radix,
        stages: cfg.net.stages,
        ports: cfg.net.ports(),
        modules: cfg.mem_modules,
    };
    FaultPlan::generate(&fault_cfg, &shape).expect("random degraded config is valid")
}

#[test]
fn faulted_runs_specialize_and_match() {
    // Fault plans run on the specialized engine: reports and the
    // checkpoint taken mid-retry must match the generic engine
    // byte-for-byte, across machine shapes, fault seeds, drop rates
    // and retry budgets (short budgets reach abandonment).
    let mut rng = SplitMix64::new(0xFA11_CEDA);
    let (mut mid_retry, mut failed, mut discards) = (0, 0, 0);
    for case in 0..16 {
        let cfg = if case % 2 == 0 {
            FabricConfig::cedar()
        } else {
            random_config(&mut rng)
        };
        let traffic = random_traffic(&mut rng);
        let n_ces = 1 + rng.next_below((cfg.net.ports() / 2) as u64) as usize;
        let plan = random_plan(&mut rng, &cfg);
        let retry = RetryPolicy {
            base_delay_cycles: 256 << rng.next_below(5),
            max_retries: 1 + rng.next_below(8) as u32,
            max_delay_cycles: 1 << 14,
        };
        let cut = retry.base_delay_cycles + rng.next_below(retry.base_delay_cycles);
        let run = |engine: EngineKind| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.attach_faults(plan.clone(), retry);
            fabric.set_engine(engine);
            let mut exp = fabric.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
            fabric
                .drive_experiment(&mut exp, None, Some(cut))
                .expect("no watchdog attached");
            let in_retry = exp.retry_in_flight();
            let bytes = fabric.checkpoint_experiment(&exp);
            fabric
                .drive_experiment(&mut exp, None, None)
                .expect("no watchdog attached");
            let engine_ran = fabric.last_run_engine();
            (bytes, in_retry, fabric.finish_experiment(exp), engine_ran)
        };
        let (gen_bytes, in_retry, gen_report, _) = run(EngineKind::Generic);
        let (spec_bytes, _, spec_report, spec_engine) = run(EngineKind::Specialized);
        assert_eq!(
            spec_engine,
            Some("specialized"),
            "case {case}: a faulted run must not fall back"
        );
        assert!(gen_report.resolved(), "case {case} must resolve");
        assert_eq!(
            gen_bytes, spec_bytes,
            "case {case}: mid-run checkpoints diverged (cut {cut}, {n_ces} CEs)"
        );
        assert_eq!(
            gen_report, spec_report,
            "case {case}: reports diverged ({n_ces} CEs)"
        );
        mid_retry += usize::from(in_retry);
        failed += gen_report.failed_requests();
        discards += gen_report.module_discards();

        // The checkpoint resumes on the other engine too.
        let (mut resumed, mut exp) =
            RoundTripFabric::restore_experiment(&spec_bytes).expect("checkpoint decodes");
        resumed.set_engine(EngineKind::Generic);
        resumed
            .drive_experiment(&mut exp, None, None)
            .expect("no watchdog attached");
        assert_eq!(
            resumed.finish_experiment(exp),
            gen_report,
            "case {case}: specialized→generic resume diverged"
        );
    }
    assert!(
        mid_retry >= 8 && failed > 0 && discards > 0,
        "{mid_retry} of 16 checkpoints mid-retry, {failed} abandoned, {discards} \
         discarded: the cases miss a fault path"
    );
}

/// Module faults at the moment they bite. All traffic aims at the
/// faulted module, whose long service time keeps a request queued there
/// while the next is in flight, so a fail-stop or stall often lands on
/// a module holding work with no word waiting at its port: the
/// specialized engine must then visit it on its own (on the fail
/// cycle, at the stall's end) rather than on an arrival. Each fault
/// kind runs at the first eight seeds that place it early in the run.
#[test]
fn module_faults_bite_identically_across_engines() {
    let shape = MachineShape::cedar();
    let picks = |config: &dyn Fn(u64) -> FaultConfig,
                 faulted: &dyn Fn(&FaultPlan, usize, u64) -> bool| {
        (1..)
            .filter_map(|seed| {
                let plan = FaultPlan::generate(&config(seed), &shape).expect("valid config");
                let (module, at) = (0..shape.modules).find_map(|m| {
                    (1_000..8_000)
                        .find(|&c| faulted(&plan, m, c))
                        .map(|c| (m, c))
                })?;
                // Faults already in force at cycle 1000 are not "early".
                (!faulted(&plan, module, 999)).then_some((plan, module, at))
            })
            .take(8)
            .collect::<Vec<_>>()
    };
    let stalls = picks(
        &|seed| FaultConfig {
            module_stalls: 1,
            stall_window_cycles: 600,
            ..FaultConfig::none(seed)
        },
        &|plan, m, c| plan.module_stalled(m, c),
    );
    let fails = picks(
        &|seed| FaultConfig {
            failed_modules: 1,
            fail_by_cycle: 8_000,
            ..FaultConfig::none(seed)
        },
        &|plan, m, c| plan.module_failed(m, c),
    );
    let mut cfg = FabricConfig::cedar();
    cfg.mem_service_net_cycles = 24;
    for (case, (plan, module, at)) in stalls.into_iter().chain(fails).enumerate() {
        let mut traffic = PrefetchTraffic::rk_aggressive(2);
        traffic.window = 1;
        traffic.pattern = AddressPattern::HotSpot {
            module,
            fraction: 1.0,
        };
        let run = |engine: EngineKind| {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.attach_faults(plan.clone(), RetryPolicy::fabric());
            fabric.set_engine(engine);
            let mut exp = fabric.begin_experiment(1, traffic, MAX_NET_CYCLES);
            // Checkpoint right after the fault's first cycle.
            fabric
                .drive_experiment(&mut exp, None, Some(at))
                .expect("no watchdog attached");
            let bytes = fabric.checkpoint_experiment(&exp);
            fabric
                .drive_experiment(&mut exp, None, None)
                .expect("no watchdog attached");
            (
                bytes,
                fabric.finish_experiment(exp),
                fabric.last_run_engine(),
            )
        };
        let (gen_bytes, gen_report, _) = run(EngineKind::Generic);
        let (spec_bytes, spec_report, engine) = run(EngineKind::Specialized);
        assert_eq!(engine, Some("specialized"), "case {case}");
        assert!(gen_report.resolved(), "case {case} must resolve");
        assert!(
            gen_report.total_net_cycles > at,
            "case {case}: the run ended before the fault at {at}"
        );
        assert_eq!(
            gen_bytes, spec_bytes,
            "case {case}: checkpoints at {at} diverged"
        );
        assert_eq!(gen_report, spec_report, "case {case}: reports diverged");
    }
}

#[test]
fn faulted_watchdog_stalls_identically_across_engines() {
    // A plan whose every link drops every word can never complete: the
    // retry machinery keeps the run alive until the budget runs out.
    // With a watchdog tighter than the retry schedule, both engines
    // must trip at the same cycle with the same diagnostic.
    let plan = FaultPlan::generate(&FaultConfig::link_noise(7, 1.0), &MachineShape::cedar())
        .expect("valid plan");
    let mut traffic = PrefetchTraffic::rk_aggressive(1);
    traffic.block_len = 16;
    let stall = |engine: EngineKind| {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.attach_faults(plan.clone(), RetryPolicy::fabric());
        fabric.set_engine(engine);
        let mut dog = Watchdog::new(10_000, "faulted engine differential");
        let err = fabric
            .run_watched_experiment(4, traffic, MAX_NET_CYCLES, &mut dog)
            .expect_err("nothing gets through, so the watchdog must trip");
        (format!("{err:?}"), fabric.last_run_engine())
    };
    let (generic, _) = stall(EngineKind::Generic);
    let (specialized, engine) = stall(EngineKind::Specialized);
    assert_eq!(engine, Some("specialized"));
    assert_eq!(generic, specialized);
}

#[test]
fn fallback_is_obs_visible() {
    // Telemetry itself blocks specialization (the hooks are compiled
    // out of the fast path), so an obs-attached fabric asked for the
    // specialized engine falls back — and says so on the
    // `engine.fallback` counter.
    let obs = Obs::new(ObsConfig::metrics_only());
    let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
    fabric.set_obs(&obs);
    fabric.set_engine(EngineKind::Specialized);
    let mut traffic = PrefetchTraffic::rk_aggressive(1);
    traffic.block_len = 16;
    let with_obs = fabric.run_prefetch_experiment(8, traffic, MAX_NET_CYCLES);
    assert_eq!(fabric.last_run_engine(), Some("generic"));
    assert_eq!(fabric.last_fallback(), Some("telemetry attached"));
    assert_eq!(
        obs.counter_value("engine.fallback"),
        1,
        "one drive, one fallback tick"
    );
    // Attaching telemetry must not change the simulation itself, and
    // the bare fabric runs specialized.
    let mut bare = RoundTripFabric::new(FabricConfig::cedar());
    bare.set_engine(EngineKind::Specialized);
    let without_obs = bare.run_prefetch_experiment(8, traffic, MAX_NET_CYCLES);
    assert_eq!(bare.last_run_engine(), Some("specialized"));
    assert_eq!(with_obs, without_obs, "telemetry perturbed the simulation");
}

#[test]
fn structural_fallback_names_the_blocker() {
    let mut cfg = FabricConfig::cedar();
    cfg.module_buffer_requests = 65; // past the specialized bound
    let mut fabric = RoundTripFabric::new(cfg);
    fabric.set_engine(EngineKind::Specialized);
    let mut traffic = PrefetchTraffic::rk_aggressive(1);
    traffic.block_len = 16;
    fabric.run_prefetch_experiment(8, traffic, MAX_NET_CYCLES);
    assert_eq!(fabric.last_run_engine(), Some("generic"));
    assert_eq!(
        fabric.last_fallback(),
        Some("module buffers deeper than 64 requests")
    );
}

#[test]
fn watchdog_stalls_identically_across_engines() {
    // A gap so long the watchdog's budget expires between blocks: both
    // engines must trip at the same simulated cycle with the same
    // diagnostic (the specialized fast-forward honors the same
    // watchdog horizon as the generic one).
    let mut traffic = PrefetchTraffic::rk_aggressive(2);
    traffic.block_len = 16;
    traffic.gap_ce_cycles = 50_000;
    let stall = |engine: EngineKind| {
        let mut fabric = RoundTripFabric::new(FabricConfig::cedar());
        fabric.set_engine(engine);
        let mut dog = Watchdog::new(2_000, "engine differential");
        let err = fabric
            .run_watched_experiment(8, traffic, MAX_NET_CYCLES, &mut dog)
            .expect_err("the gap must out-wait the watchdog");
        format!("{err:?}")
    };
    assert_eq!(stall(EngineKind::Generic), stall(EngineKind::Specialized));
}

#[test]
fn checkpoints_resume_across_engines() {
    // A checkpoint written by one engine must be resumable by the
    // other with a bit-identical final report — in both directions.
    let mut rng = SplitMix64::new(0xC055_CEDA);
    for case in 0..6 {
        let cfg = random_config(&mut rng);
        let traffic = random_traffic(&mut rng);
        let n_ces = 1 + rng.next_below((cfg.net.ports() / 2) as u64) as usize;
        let cut = rng.next_below(30_000);
        let mut reference = RoundTripFabric::new(cfg.clone());
        reference.set_engine(EngineKind::Generic);
        let expected = reference.run_prefetch_experiment(n_ces, traffic, MAX_NET_CYCLES);
        for (first, second) in [
            (EngineKind::Generic, EngineKind::Specialized),
            (EngineKind::Specialized, EngineKind::Generic),
        ] {
            let mut fabric = RoundTripFabric::new(cfg.clone());
            fabric.set_engine(first);
            let mut exp = fabric.begin_experiment(n_ces, traffic, MAX_NET_CYCLES);
            fabric
                .drive_experiment(&mut exp, None, Some(cut))
                .expect("no watchdog attached");
            let bytes = fabric.checkpoint_experiment(&exp);
            let (mut resumed, mut exp2) =
                RoundTripFabric::restore_experiment(&bytes).expect("checkpoint decodes");
            resumed.set_engine(second);
            resumed
                .drive_experiment(&mut exp2, None, None)
                .expect("no watchdog attached");
            let report = resumed.finish_experiment(exp2);
            assert_eq!(
                expected, report,
                "case {case}: {first:?}→{second:?} resume diverged (cut {cut}, {n_ces} CEs)"
            );
        }
    }
}
