//! End-to-end cluster tests against real re-exec'd worker processes.
//!
//! The worker binary is the crate's `cluster_node` harness; Cargo
//! hands its path to integration tests via `CARGO_BIN_EXE_*`. These
//! tests cover the full acceptance story: a clean fleet matching the
//! serial sweep bit-for-bit, a chaos fleet (kills, a hang, a corrupt
//! frame) recovering to the same bytes with an exactly-once journal,
//! typed fleet loss, cache interop with the in-process cached sweep,
//! and SIGKILL-mid-write atomicity of the cache itself.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use cedar_cluster::{families, run_cluster_sweep, ClusterConfig, ClusterError};
use cedar_exec::run_sweep_on;
use cedar_faults::{RetryPolicy, WorkerFaultConfig, WorkerFaultKind, WorkerFaultPlan};
use cedar_obs::{Obs, ObsConfig};
use cedar_snap::{CacheDir, Snapshot};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_cluster_node");

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cedar-cluster-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(workers: u32) -> ClusterConfig {
    let mut c = ClusterConfig::new(workers);
    c.worker_exe = Some(PathBuf::from(WORKER_BIN));
    c.tick = Duration::from_millis(10);
    c.heartbeat_every_ticks = 5;
    c.watchdog_budget_ticks = 50;
    c.job_deadline_ticks = 500;
    c.restart = RetryPolicy {
        base_delay_cycles: 5,
        max_retries: 3,
        max_delay_cycles: 200,
    };
    c.max_ticks = 3_000; // 30 s hard wall for any single test
    c
}

#[test]
fn clean_fleet_matches_serial_sweep() {
    let inputs: Vec<u64> = (0..24).collect();
    let serial = run_sweep_on(1, inputs.clone(), families::mix);
    let report =
        run_cluster_sweep::<u64, u64>(&config(3), families::MIX, &inputs, &Obs::disabled())
            .unwrap();
    assert_eq!(
        report.results, serial,
        "cluster must equal serial, bit for bit"
    );
    assert_eq!(report.stats.jobs, 24);
    assert_eq!(
        report.stats.worker_exits, 0,
        "no worker may die in a clean run"
    );
    assert_eq!(report.stats.restarts, 0);
    assert!(report.stats.journal.iter().all(|r| r.commits == 1));
}

#[test]
fn chaos_fleet_recovers_bit_identical_with_exactly_once_journal() {
    // The acceptance scenario: 4 workers, 2 killed mid-sweep, 1
    // stalled (reaped only by the heartbeat watchdog), 1 writing a
    // garbage frame — all from one seeded plan.
    let plan = WorkerFaultPlan::generate(&WorkerFaultConfig {
        seed: 0xC1A05,
        workers: 4,
        kills: 2,
        stalls: 1,
        corrupts: 1,
        max_after_jobs: 2,
    })
    .unwrap();
    assert_eq!(
        plan.faults()
            .iter()
            .filter(|f| f.kind == WorkerFaultKind::Kill)
            .count(),
        2
    );

    let dir = scratch("chaos");
    let cache = CacheDir::new(&dir).unwrap();
    let mut c = config(4);
    c.chaos = Some(plan);
    c.cache = Some(cache.clone());
    c.cache_namespace = "cluster.e2e.chaos/1".to_owned();
    let obs = Obs::new(ObsConfig::enabled());

    let inputs: Vec<u64> = (0..24).collect();
    let serial = run_sweep_on(1, inputs.clone(), families::slow_mix);
    let report = run_cluster_sweep::<u64, u64>(&c, families::SLOW_MIX, &inputs, &obs).unwrap();

    // Bit-identical to the serial sweep.
    assert_eq!(report.results, serial);

    // The failure modes all actually happened...
    let stats = &report.stats;
    assert!(stats.worker_exits >= 2, "two seeded kills: {stats:?}");
    assert!(
        stats.hangs_reaped >= 1,
        "the stall must be reaped: {stats:?}"
    );
    assert!(
        stats.garbage_frames >= 1,
        "the corrupt frame must be caught: {stats:?}"
    );
    assert!(
        stats.restarts >= 3,
        "dead workers must come back: {stats:?}"
    );
    assert!(stats.reissues >= 2, "killed workers held jobs: {stats:?}");

    // ...and none of it broke exactly-once: every point committed
    // exactly once, no more, no less.
    assert_eq!(stats.journal.len(), 24);
    for (i, r) in stats.journal.iter().enumerate() {
        assert_eq!(r.commits, 1, "job {i} must commit exactly once: {r:?}");
        assert!(r.issues >= 1, "job {i} must have been issued: {r:?}");
    }

    // Zero corrupt cache entries left behind, and every point's entry
    // decodes to the serial value.
    assert!(cache.corrupt_entries().unwrap().is_empty());
    for (i, input) in inputs.iter().enumerate() {
        let key = input.snapshot_key("cluster.e2e.chaos/1");
        assert_eq!(
            cache.load::<u64>(&key),
            Some(serial[i]),
            "cache entry for input {input} must hold the serial result"
        );
    }

    // The supervision story is visible through obs.
    assert!(obs.counter_value("cluster.worker.exits") >= 2);
    assert!(obs.counter_value("cluster.worker.hangs_reaped") >= 1);
    assert!(obs.counter_value("cluster.worker.restarts") >= 3);
    let prom = obs.prometheus();
    assert!(prom.contains("cluster_worker_0_incarnation"), "{prom}");
    // Per-worker health series for every slot, and one commit-latency
    // sample per committed point.
    let samples = cedar_obs::export::parse_prometheus(&prom).unwrap();
    for w in 0..4 {
        for field in ["alive", "incarnation", "restarts"] {
            let series = format!("cedar_cluster_worker_{w}_{field}");
            assert!(
                samples.contains_key(&series),
                "missing {series} in:\n{prom}"
            );
        }
    }
    assert_eq!(
        samples["cedar_cluster_commit_latency_ticks_count"],
        stats.committed as f64
    );
    assert_eq!(obs.counter_value("cluster.jobs.committed"), stats.committed);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn losing_every_worker_is_a_typed_error_not_a_hang() {
    // Both workers are seeded to die on their first job and get no
    // restart budget: the coordinator must report fleet loss quickly
    // instead of spinning to the tick wall.
    let plan = WorkerFaultPlan::generate(&WorkerFaultConfig {
        seed: 7,
        workers: 2,
        kills: 2,
        stalls: 0,
        corrupts: 0,
        max_after_jobs: 1,
    })
    .unwrap();
    let mut c = config(2);
    c.chaos = Some(plan);
    c.restart = RetryPolicy {
        base_delay_cycles: 1,
        max_retries: 0,
        max_delay_cycles: 10,
    };
    let inputs: Vec<u64> = (0..8).collect();
    match run_cluster_sweep::<u64, u64>(&c, families::MIX, &inputs, &Obs::disabled()) {
        Err(ClusterError::FleetLost { pending }) => {
            assert!(pending > 0, "jobs must still be pending at fleet loss")
        }
        other => panic!("expected FleetLost, got {other:?}"),
    }
}

#[test]
fn cluster_and_cached_sweep_share_the_same_cache_entries() {
    let dir = scratch("interop");
    let cache = CacheDir::new(&dir).unwrap();
    let namespace = "cluster.e2e.interop/1";
    let inputs: Vec<u64> = (100..120).collect();

    // Cold cluster run computes and stores every point.
    let mut c = config(2);
    c.cache = Some(cache.clone());
    c.cache_namespace = namespace.to_owned();
    let report =
        run_cluster_sweep::<u64, u64>(&c, families::MIX, &inputs, &Obs::disabled()).unwrap();
    assert_eq!(report.stats.cache_hits, 0);

    // The in-process cached sweep hits every entry the fleet wrote —
    // the closure proves it by refusing to compute anything.
    let warm = cedar_exec::run_sweep_cached(Some(&cache), namespace, inputs.clone(), |_| -> u64 {
        panic!("every point must be served from the cluster's cache")
    });
    assert_eq!(warm, report.results);

    // And a warm cluster run commits everything from cache without
    // dispatching a single job.
    let rerun =
        run_cluster_sweep::<u64, u64>(&c, families::MIX, &inputs, &Obs::disabled()).unwrap();
    assert_eq!(rerun.results, report.results);
    assert_eq!(rerun.stats.cache_hits, inputs.len());
    assert_eq!(rerun.stats.dispatched, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_write_never_exposes_a_partial_entry() {
    // A writer process stores the same entry in a tight loop; we
    // SIGKILL it at varying points while reading concurrently. Every
    // read must see either a clean miss or the complete value — and a
    // torn write must never surface as a corrupt (quarantined) entry.
    let dir = scratch("sigkill");
    let key = "deadbeefcafe0123";
    let expected: Vec<u64> = (0..8192).map(|i: u64| i.wrapping_mul(0xCEDA)).collect();
    let cache = CacheDir::new(&dir).unwrap();

    for round in 0..10u64 {
        let mut child = Command::new(WORKER_BIN)
            .args(["writer", dir.to_str().unwrap(), key])
            .spawn()
            .expect("spawn writer");
        // Read while the writer is live...
        let deadline = std::time::Instant::now() + Duration::from_millis(5 + round * 3);
        while std::time::Instant::now() < deadline {
            if let Some(v) = cache.load::<Vec<u64>>(key) {
                assert_eq!(v, expected, "round {round}: torn entry observed live");
            }
        }
        // ...then SIGKILL it mid-write and read again.
        child.kill().expect("kill writer");
        child.wait().expect("reap writer");
        if let Some(v) = cache.load::<Vec<u64>>(key) {
            assert_eq!(v, expected, "round {round}: torn entry observed after kill");
        }
        assert!(
            cache.corrupt_entries().unwrap().is_empty(),
            "round {round}: a torn write surfaced as corruption"
        );
    }
    // After the first completed store the entry exists forever; ten
    // rounds guarantee at least one completed.
    assert_eq!(cache.load::<Vec<u64>>(key), Some(expected));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deterministic_job_failure_is_fatal_and_typed() {
    // An unregistered family is a deterministic failure: re-running it
    // elsewhere cannot help, so the coordinator must fail fast.
    let inputs: Vec<u64> = (0..4).collect();
    match run_cluster_sweep::<u64, u64>(&config(2), "no.such.family/1", &inputs, &Obs::disabled()) {
        Err(ClusterError::JobFailed { reason, .. }) => {
            assert!(reason.contains("unknown job family"), "{reason}")
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }
}
