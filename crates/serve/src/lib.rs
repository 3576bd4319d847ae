//! cedar-serve: a batching, backpressure-aware simulation service.
//!
//! The Cedar paper's performance study is a pile of individual
//! simulation experiments; this crate turns the repository's simulator
//! into a long-lived service that runs them on demand. A small fixed
//! fleet of readiness-loop reactor threads (`poll(2)` over nonblocking
//! sockets — no thread per connection) multiplexes every client;
//! one listener speaks three protocols, sniffed from the first byte:
//! the `b"CSRV"` length-prefixed binary protocol, the line-delimited
//! JSON protocol, and one-shot HTTP scrapes. Admitted jobs flow
//! through a bounded priority queue with per-job deadlines into a
//! batching dispatcher that fans each batch across the `cedar-exec`
//! deterministic pool and streams completions back per job; identical
//! requests collapse in flight and memoize across runs through
//! `cedar-snap`'s content-addressed cache, whose sealed envelopes are
//! forwarded verbatim as binary `Outcome` payloads.
//!
//! Three properties carry over from the rest of the workspace:
//!
//! - **Backpressure is typed.** A full queue or a draining server is a
//!   `rejected` reply, never a hung or dropped connection.
//! - **Degradation is typed.** Fault-injected jobs complete with
//!   degraded-mode outcomes (`cedar-faults` semantics); even a
//!   watchdog stall is an `error` reply with a reason.
//! - **Everything is observable.** Queue depth, wait/service/latency
//!   histograms and per-request spans flow through one `cedar-obs`
//!   handle ([`ServerHandle::obs`]) and export as Prometheus text or a
//!   Chrome trace.
//!
//! The `serve` binary runs the server; the `loadgen` binary drives it
//! (dedup burst, fault mix, closed- and open-loop load) and writes
//! `BENCH_serve.json`.

pub mod config;
pub mod conn;
pub mod job;
pub mod json;
pub mod loadgen;
pub mod proto;
pub mod queue;
pub(crate) mod reactor;
pub mod server;
pub mod sys;

pub use config::ServeConfig;
pub use job::{JobError, JobOutcome, JobSpec};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use server::{start, JobReply, ServerHandle};
