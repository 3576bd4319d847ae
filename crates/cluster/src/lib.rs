//! `cedar-cluster` — a supervised multi-process worker fleet for the
//! sweep harness.
//!
//! ROADMAP item 2: the paper's tables are big parameter sweeps, and
//! the related cluster-computing literature argues the hard part of
//! distributing them is not the fan-out but *surviving member
//! failure*. This crate supplies that supervision layer:
//!
//! * [`run_cluster_sweep`] — the coordinator. Spawns N worker
//!   **processes** (re-execs of the current binary, detected via
//!   [`maybe_worker`]), consistent-hashes sweep points onto them by
//!   their content-addressed `snapshot_key`, and merges results in
//!   input order, **bit-identical to a serial
//!   [`run_sweep`](cedar_exec::run_sweep)**.
//! * Crash recovery — spontaneous exits, hangs (reaped by seeded
//!   heartbeats over the `cedar-sim` [`Watchdog`]) and garbage frames
//!   (caught by the `cedar-snap` frame checksums) all lead to the same
//!   place: the worker's jobs return to the pool, survivors pick them
//!   up, and the dead slot restarts under a jittered
//!   [`RetryPolicy`](cedar_faults::RetryPolicy) backoff until its
//!   budget is exhausted.
//! * Exactly-once commits — the coordinator-side [`JobJournal`] keeps
//!   every point in exactly one of three states (unstarted / owned /
//!   committed) and refuses results from any incarnation that is not
//!   the current owner, so a re-issued job can never commit twice; the
//!   atomic [`CacheDir`](cedar_snap::CacheDir) makes the committed
//!   bytes the only ones ever visible on disk.
//! * Deterministic chaos — a seeded
//!   [`WorkerFaultPlan`](cedar_faults::WorkerFaultPlan) kills, stalls
//!   or corrupts chosen workers at chosen points, so the whole
//!   recovery story runs under test, repeatably.
//! * Observability — per-worker health, restart counts and commit
//!   latency on a plain `cedar_obs::Obs` handle, scrapeable over HTTP
//!   through [`MetricsServer`].
//!
//! # Quick start
//!
//! A cluster-capable binary calls [`maybe_worker`] first, then may
//! coordinate:
//!
//! ```no_run
//! use cedar_cluster::{families, run_cluster_sweep, ClusterConfig};
//!
//! let registry = families::default_registry();
//! cedar_cluster::maybe_worker(&registry); // exits if spawned as a worker
//!
//! let config = ClusterConfig::new(4);
//! let report = run_cluster_sweep::<u64, u64>(
//!     &config,
//!     families::MIX,
//!     &(0..64).collect::<Vec<u64>>(),
//!     &cedar_obs::Obs::disabled(),
//! )
//! .unwrap();
//! assert_eq!(report.results.len(), 64);
//! ```

#![warn(missing_docs)]

pub mod coordinator;
pub mod families;
pub mod journal;
pub mod obs;
pub mod proto;
pub mod registry;
pub mod ring;

pub use coordinator::{
    run_cluster_sweep, ClusterConfig, ClusterError, ClusterReport, ClusterStats,
};
pub use journal::{CommitOrigin, JobJournal, JobRecord, JobState};
pub use obs::MetricsServer;
pub use proto::{FromWorker, ToWorker};
pub use registry::{maybe_worker, JobRegistry, CHAOS_ENV, ID_ENV, INCARNATION_ENV, WORKER_ENV};
pub use ring::HashRing;
