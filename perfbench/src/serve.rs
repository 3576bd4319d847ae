//! `serve_mixed`: an in-process `cedar-serve` server with
//! `ServeConfig::default()` and a fresh cache directory, driven by one
//! open-loop client over at most `nproc` pipelined connections — `CSRV`
//! binary on all but one, line-JSON on the last.
//!
//! Nineteen requests in twenty repeat a key from a hot set warmed during
//! set-up (cache reads); the rest are unique small jobs that execute,
//! get sealed and stored (cache writes). Every request is timed from
//! when it was due to be sent.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cedar_obs::export::{parse_prometheus, sanitize_name};
use cedar_serve::json::{self, Json};
use cedar_serve::loadgen::BinClient;
use cedar_serve::proto::{FrameScanner, Request, Response, MAX_RESPONSE_PAYLOAD};
use cedar_serve::{JobOutcome, JobSpec, ServeConfig, ServerHandle};
use cedar_sim::SplitMix64;
use cedar_snap::{CacheDir, Snapshot};
use cedar_zoo::MACHINES;

use crate::common::{median, peak_rss_mb, percentile, Ctx, Op, Outcome, Setups};

/// Keys warmed during set-up; hits draw uniformly from them.
const HOT_SET: usize = 64;
const HOT_SET_SEED: u64 = 0x407;
/// Set-ups at the start of each window; the last one is kept.
const SETUPS_PER_WINDOW: usize = 3;
/// One request in `MISS_EVERY` is a unique job: 125 executions a
/// second at the nominal rate, far enough below the server's capacity
/// on two cores that a slow host does not tip it into a standing queue.
const MISS_EVERY: u64 = 20;
/// One miss in `DEGRADED_EVERY` is a degraded-mode job: two CEs, one
/// block, the degraded study's fault seed and a rate just above its
/// 1 % (the offset keeps the key unique). Each holds a worker for
/// ~35 ms of retry timeouts on the generic engine; a fresh fault seed
/// per job would spread that over 30-240 ms.
const DEGRADED_EVERY: u64 = 100;
/// Per-mille share of requests sent as line-JSON.
const LINE_PER_MILLE: u64 = 150;
/// Offered rate of the phase the latency percentiles come from.
const NOMINAL_RPS: f64 = 2500.0;
/// The latency limit `max_rps_slo` holds p99 to, in microseconds.
const SLO_US: f64 = 5000.0;
/// Offered rates tried in ascending order, 15 % apart; identical on
/// every commit.
const LADDER: [f64; 20] = [
    5000.0, 5750.0, 6610.0, 7600.0, 8750.0, 10100.0, 11600.0, 13300.0, 15300.0, 17600.0, 20200.0,
    23300.0, 26800.0, 30800.0, 35400.0, 40700.0, 46800.0, 53800.0, 61900.0, 71200.0,
];
/// Each rung sends at least this many requests and lasts at least
/// `RUNG_MIN_S`, so its p99 has ten samples beyond it. A failing rung
/// is run up to `RUNG_TRIES` times (one host stall can sink a short
/// rung), and the ladder stops after two rungs in a row fail them all.
const RUNG_REQUESTS: f64 = 1000.0;
const RUNG_MIN_S: f64 = 0.25;
const RUNG_TRIES: usize = 3;
/// Share of a traced run's budget given to the nominal phase; the
/// ladder gets the rest. Untraced runs skip the ladder: it drives both
/// cores to saturation, and on a shared host the next run's latencies
/// pay for that for tens of seconds.
const NOMINAL_SHARE: f64 = 0.4;
/// Pause after the ladder, so the run that follows starts on a host
/// that has recovered from it.
const LADDER_COOLDOWN: Duration = Duration::from_secs(10);
/// Unanswered unique jobs beyond which a rung counts as a growing
/// backlog and stops (below the default queue capacity, so the
/// benchmark never provokes a rejection).
const BACKLOG_LIMIT: usize = 40;
/// Requests whose hit/miss mix must repeat exactly between runs.
const PREFIX: usize = 1000;
/// Windows the nominal phase is split into, each on a restarted server
/// and fresh connections.
const NOMINAL_WINDOWS: usize = 5;
/// Most unique jobs re-executed directly to check their replies.
const SAMPLE_CAP: usize = 100;
/// The degraded study's lowest positive fault rate, in ppm.
const DEGRADED_PPM: u32 = 10_000;
const KERNELS: [&str; 4] = ["TM", "CG", "VF", "RK"];

/// One scheduled request.
#[derive(Clone)]
struct Req {
    /// Seconds after the phase starts that the request is due.
    due: f64,
    spec: JobSpec,
    /// Index into the hot set for a cache read.
    hot: Option<usize>,
    line: bool,
    /// Re-executed directly after the run to check its reply.
    sample: bool,
}

/// One reply as the reader saw it.
struct Reply {
    idx: usize,
    at: Instant,
    /// Whether the reply is a well-formed outcome equal to what the
    /// request must produce (checked against the hot set for reads).
    ok: bool,
    cached: bool,
    outcome: Option<JobOutcome>,
}

/// Draws unique jobs and hot keys. Families and parameter ranges of
/// hot and unique jobs are disjoint, so a unique job never hits.
struct Mix {
    rng: SplitMix64,
    unique: u32,
    degraded: u32,
    table2_pool: Vec<JobSpec>,
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut rng = SplitMix64::new(seed ^ 0x5E7E);
        let mut table2_pool = table2_pool();
        for i in (1..table2_pool.len()).rev() {
            table2_pool.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        Mix {
            rng,
            unique: 0,
            degraded: 0,
            table2_pool,
        }
    }

    /// The hot set. It is the same on every seed, so set-up does the
    /// same work on every seed; the seed picks which key each read names.
    fn hot_set() -> Vec<JobSpec> {
        let mut rng = SplitMix64::new(HOT_SET_SEED);
        (0..HOT_SET)
            .map(|i| {
                let ppm = 1 + rng.next_below(999_999) as u32;
                if i % 2 == 0 {
                    JobSpec::Hotspot {
                        hot_ppm: ppm,
                        ces: 4,
                        blocks: 2,
                    }
                } else {
                    JobSpec::Zoo {
                        machine: MACHINES[(i / 2) % MACHINES.len()].tag(),
                        ces: 4,
                        requests: 16,
                        hot_ppm: ppm,
                    }
                }
            })
            .collect()
    }

    fn unique(&mut self, degraded: bool) -> JobSpec {
        if degraded {
            self.degraded += 1;
            return JobSpec::Degraded {
                rate_ppm: DEGRADED_PPM + self.degraded,
                ces: 2,
                blocks: 1,
                seed: cedar_bench::degraded::SEED,
            };
        }
        self.unique += 1;
        let ppm = self.unique;
        // A fixed pattern over forty unique jobs, so every run serves
        // the same family mix: one Table-2 cell, twenty hot-spot points
        // and nineteen zoo points, the zoo machines taken in turn.
        match ppm % 40 {
            0 if !self.table2_pool.is_empty() => self.table2_pool.pop().expect("non-empty"),
            0..=20 => JobSpec::Hotspot {
                hot_ppm: ppm,
                ces: 2,
                blocks: 1,
            },
            _ => JobSpec::Zoo {
                machine: MACHINES[(ppm / 40) as usize % MACHINES.len()].tag(),
                ces: 2,
                requests: 8,
                hot_ppm: ppm,
            },
        }
    }

    /// `n` requests arriving as a Poisson process at `rate`; with
    /// `degraded`, one unique job in `DEGRADED_EVERY` is degraded-mode.
    fn schedule(&mut self, hot: &[JobSpec], rate: f64, n: usize, degraded: bool) -> Vec<Req> {
        let phase = self.rng.next_below(MISS_EVERY);
        let mut t = 0.0;
        (0..n as u64)
            .map(|i| {
                t += -(1.0 - self.rng.next_f64()).ln() / rate;
                let line = self.rng.next_below(1000) < LINE_PER_MILLE;
                let sample = self.rng.next_below(8) == 0;
                if i % MISS_EVERY == phase {
                    let degraded =
                        degraded && (i / MISS_EVERY) % DEGRADED_EVERY == DEGRADED_EVERY - 1;
                    Req {
                        due: t,
                        spec: self.unique(degraded),
                        hot: None,
                        line,
                        sample,
                    }
                } else {
                    let h = self.rng.next_below(hot.len() as u64) as usize;
                    Req {
                        due: t,
                        spec: hot[h].clone(),
                        hot: Some(h),
                        line,
                        sample,
                    }
                }
            })
            .collect()
    }
}

/// Every small Table-2 cell the unique jobs draw from: each kernel at
/// 1-16 CEs with one or two blocks.
fn table2_pool() -> Vec<JobSpec> {
    let mut pool = Vec::new();
    for kernel in 0..KERNELS.len() as u8 {
        for ces in 1..=16 {
            for blocks in 1..=2 {
                pool.push(JobSpec::Table2 {
                    kernel,
                    ces,
                    blocks,
                });
            }
        }
    }
    pool
}

/// The line-protocol rendering of a job.
fn spec_json(spec: &JobSpec) -> String {
    match *spec {
        JobSpec::Table2 {
            kernel,
            ces,
            blocks,
        } => format!(
            "{{\"type\":\"table2\",\"kernel\":\"{}\",\"ces\":{ces},\"blocks\":{blocks}}}",
            KERNELS[kernel as usize]
        ),
        JobSpec::Degraded {
            rate_ppm,
            ces,
            blocks,
            seed,
        } => format!(
            "{{\"type\":\"degraded\",\"rate\":{},\"ces\":{ces},\"blocks\":{blocks},\"seed\":{seed}}}",
            f64::from(rate_ppm) / 1e6
        ),
        JobSpec::Hotspot {
            hot_ppm,
            ces,
            blocks,
        } => format!(
            "{{\"type\":\"hotspot\",\"fraction\":{},\"ces\":{ces},\"blocks\":{blocks}}}",
            f64::from(hot_ppm) / 1e6
        ),
        JobSpec::Zoo {
            machine,
            ces,
            requests,
            hot_ppm,
        } => format!(
            "{{\"type\":\"zoo\",\"machine\":\"{}\",\"ces\":{ces},\"requests\":{requests},\"fraction\":{}}}",
            cedar_zoo::Machine::from_tag(machine).map_or("?", cedar_zoo::Machine::name),
            f64::from(hot_ppm) / 1e6
        ),
    }
}

/// A line-protocol outcome reply, as a `JobOutcome`.
fn line_outcome(reply: &Json) -> Option<(JobOutcome, bool)> {
    let status = reply.get("status")?.as_str()?;
    if status != "ok" && status != "degraded" {
        return None;
    }
    let f = |k: &str| reply.get(k).and_then(Json::as_f64);
    let u = |k: &str| reply.get(k).and_then(Json::as_u64);
    Some((
        JobOutcome {
            degraded: status == "degraded",
            latency: f("latency")?,
            interarrival: f("interarrival")?,
            bandwidth: f("bandwidth")?,
            net_cycles: u("net_cycles")?,
            words_dropped: u("words_dropped")?,
            retries: u("retries")?,
            failed: u("failed")?,
        },
        reply.get("cached")?.as_bool()?,
    ))
}

/// The running server with its warmed hot set.
struct Warm {
    server: ServerHandle,
    dir: PathBuf,
    hot: Vec<JobSpec>,
    /// Sealed outcome envelope of each hot key, as first served.
    envelopes: Vec<Vec<u8>>,
}

fn start_server(dir: &Path) -> Result<ServerHandle, String> {
    cedar_serve::start(ServeConfig {
        cache_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))
}

fn start_and_warm(dir: &Path, hot: &[JobSpec]) -> Result<Warm, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cache dir: {e}"))?;
    let server = start_server(dir)?;
    let mut client = BinClient::connect(&server.addr().to_string())?;
    let mut envelopes = Vec::with_capacity(hot.len());
    for (i, spec) in hot.iter().enumerate() {
        match client.request(&Request::Run {
            corr: i as u64,
            priority: 1,
            deadline_ms: None,
            spec: spec.clone(),
        })? {
            Response::Outcome { envelope, .. } => envelopes.push(envelope),
            other => return Err(format!("warm-up of {} got {other:?}", spec.describe())),
        }
    }
    Ok(Warm {
        server,
        dir: dir.to_path_buf(),
        hot: hot.to_vec(),
        envelopes,
    })
}

/// One connection of the client: its protocol and a write half.
struct Conn {
    line: bool,
    stream: TcpStream,
    sent: AtomicUsize,
}

/// What one phase measured.
struct Phase {
    replies: Vec<Reply>,
    /// Send time minus due time, microseconds, per request sent.
    late_us: Vec<f64>,
    start: Instant,
    sent: usize,
    backlogged: bool,
    errors: Vec<String>,
}

/// Reads replies from one connection until the end-of-phase sentinel
/// has come back and every request sent on it is answered.
fn read_replies(
    conn: &Conn,
    warm: &Warm,
    reqs: &[Req],
    done: &AtomicBool,
    misses: &AtomicUsize,
) -> Result<Vec<Reply>, String> {
    let mut out = Vec::new();
    let mut stream = conn.stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let mut sentinel = false;
    let mut record = |idx: usize, ok: bool, cached: bool, outcome: Option<JobOutcome>| {
        if reqs[idx].hot.is_none() {
            misses.fetch_sub(1, Ordering::SeqCst);
        }
        out.push(Reply {
            idx,
            at: Instant::now(),
            ok,
            cached,
            outcome,
        });
    };
    let finished = |sentinel: bool, n: usize| {
        sentinel && done.load(Ordering::SeqCst) && n == conn.sent.load(Ordering::SeqCst)
    };
    if conn.line {
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut n = 0;
        while !finished(sentinel, n) {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => return Err("server closed a line connection".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("line recv: {e}")),
            }
            let reply = json::parse(line.trim()).map_err(|e| format!("bad line reply: {e}"))?;
            if reply.get("op").and_then(Json::as_str) == Some("ping") {
                sentinel = true;
                continue;
            }
            let idx: usize = reply
                .get("id")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("line reply without id")?;
            n += 1;
            let req = &reqs[idx];
            match line_outcome(&reply) {
                Some((outcome, cached)) => {
                    let ok = match req.hot {
                        Some(h) => {
                            cached
                                && JobOutcome::from_snapshot_bytes(&warm.envelopes[h]).ok()
                                    == Some(outcome)
                        }
                        None => !cached,
                    };
                    record(idx, ok, cached, Some(outcome));
                }
                None => record(idx, false, false, None),
            }
        }
    } else {
        let mut scanner = FrameScanner::new(MAX_RESPONSE_PAYLOAD);
        let mut chunk = vec![0u8; 64 * 1024];
        let mut n = 0;
        while !finished(sentinel, n) {
            match scanner
                .next_frame()
                .map_err(|e| format!("bad frame: {e}"))?
            {
                Some(payload) => {
                    match Response::decode(&payload).map_err(|e| format!("bad response: {e}"))? {
                        Response::Pong { .. } => sentinel = true,
                        Response::Outcome {
                            corr,
                            cached,
                            envelope,
                        } => {
                            let idx = corr as usize;
                            n += 1;
                            let ok = match reqs[idx].hot {
                                Some(h) => cached && envelope == warm.envelopes[h],
                                None => !cached,
                            };
                            let outcome = JobOutcome::from_snapshot_bytes(&envelope).ok();
                            record(idx, ok && outcome.is_some(), cached, outcome);
                        }
                        Response::Error { corr, .. } => {
                            n += 1;
                            record(corr as usize, false, false, None);
                        }
                        other => return Err(format!("unexpected response {other:?}")),
                    }
                }
                None => match stream.read(&mut chunk) {
                    Ok(0) => return Err("server closed a binary connection".into()),
                    Ok(k) => scanner.extend(&chunk[..k]),
                    Err(e) => return Err(format!("recv: {e}")),
                },
            }
        }
    }
    Ok(out)
}

/// Sleeps until just before `due`, then yields until it passes: a
/// plain sleep overshoots by tens of microseconds, and requests are
/// timed from when they were due.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `reqs` on their schedule and collects every reply. With
/// `backlog_limit`, stops sending early when more unique jobs than
/// that are unanswered.
fn run_phase(conns: &[Conn], warm: &Warm, reqs: &[Req], backlog_limit: Option<usize>) -> Phase {
    let done = AtomicBool::new(false);
    let misses = AtomicUsize::new(0);
    let start = Instant::now();
    let mut late_us = Vec::with_capacity(reqs.len());
    let mut backlogged = false;
    let mut errors = Vec::new();
    let bin_conns = conns.len() - 1;
    let mut replies = Vec::with_capacity(reqs.len());
    let mut sent = 0;
    std::thread::scope(|s| {
        let readers: Vec<_> = conns
            .iter()
            .map(|c| s.spawn(|| read_replies(c, warm, reqs, &done, &misses)))
            .collect();
        let mut streams: Vec<&TcpStream> = conns.iter().map(|c| &c.stream).collect();
        for (idx, req) in reqs.iter().enumerate() {
            let due = start + Duration::from_secs_f64(req.due);
            wait_until(due);
            if backlog_limit.is_some_and(|limit| misses.load(Ordering::SeqCst) > limit) {
                backlogged = true;
                break;
            }
            let c = if req.line {
                conns.len() - 1
            } else {
                idx % bin_conns
            };
            let bytes = if req.line {
                format!(
                    "{{\"op\":\"run\",\"id\":\"{idx}\",\"job\":{}}}\n",
                    spec_json(&req.spec)
                )
                .into_bytes()
            } else {
                Request::Run {
                    corr: idx as u64,
                    priority: 1,
                    deadline_ms: None,
                    spec: req.spec.clone(),
                }
                .encode()
            };
            if req.hot.is_none() {
                misses.fetch_add(1, Ordering::SeqCst);
            }
            conns[c].sent.fetch_add(1, Ordering::SeqCst);
            late_us.push(due.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = streams[c].write_all(&bytes) {
                errors.push(format!("send: {e}"));
                break;
            }
            sent += 1;
        }
        done.store(true, Ordering::SeqCst);
        for (c, conn) in conns.iter().enumerate() {
            let sentinel = if conn.line {
                b"{\"op\":\"ping\"}\n".to_vec()
            } else {
                Request::Ping { corr: u64::MAX }.encode()
            };
            if let Err(e) = streams[c].write_all(&sentinel) {
                errors.push(format!("sentinel: {e}"));
            }
        }
        streams.clear();
        for r in readers {
            match r.join().expect("reader thread panicked") {
                Ok(mut got) => replies.append(&mut got),
                Err(e) => errors.push(e),
            }
        }
    });
    for c in conns {
        c.sent.store(0, Ordering::SeqCst);
    }
    Phase {
        replies,
        late_us,
        start,
        sent,
        backlogged,
        errors,
    }
}

fn connect(addr: &str, n: usize) -> Result<Vec<Conn>, String> {
    (0..n)
        .map(|i| {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let _ = stream.set_nodelay(true);
            Ok(Conn {
                line: i == n - 1,
                stream,
                sent: AtomicUsize::new(0),
            })
        })
        .collect()
}

/// Latency of each reply from its request's due time, microseconds.
fn latencies(phase: &Phase, reqs: &[Req]) -> Vec<(usize, f64)> {
    phase
        .replies
        .iter()
        .map(|r| {
            let due = phase.start + Duration::from_secs_f64(reqs[r.idx].due);
            (
                r.idx,
                r.at.saturating_duration_since(due).as_secs_f64() * 1e6,
            )
        })
        .collect()
}

/// The server's counters through a `CSRV` Metrics request.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut client = BinClient::connect(addr)?;
    match client.request(&Request::Metrics { corr: 0 })? {
        Response::MetricsText { prometheus, .. } => parse_prometheus(&prometheus),
        other => Err(format!("metrics request got {other:?}")),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .map(|e| {
                let meta = e.metadata();
                match meta {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                }
            })
            .sum()
    })
}

/// Removes the server's cache directory however the run ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(ctx, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.notes.push(format!("serve_mixed aborted: {e}"));
            out.tally(false);
        }
    }
    out
}

fn run_inner(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tracer = &ctx.tracer;
    let max_net_cycles = ServeConfig::default().max_net_cycles;
    let mut mix = Mix::new(ctx.seed);
    let hot = Mix::hot_set();
    let dir = ctx
        .work_dir
        .join(format!("serve-cache-{}", std::process::id()));
    let _cleanup = RemoveOnDrop(dir.clone());

    // Set-up: start the server on a fresh cache directory and warm the
    // hot set. Repeated at the start of every window below.
    let (mut setups, warm) = Setups::first(|| start_and_warm(&dir, &hot));
    let mut warm = warm?;
    let envelopes = warm.envelopes.clone();
    let mut addr = String::new();
    let nproc = std::thread::available_parallelism().map_or(2, usize::from);

    // Nominal phase: the latency percentiles and the hit share, in
    // windows that each set up a fresh server (a fresh cache directory
    // with the hot set warmed again) and open fresh connections. A
    // server's miss path settles into a fast or a slow regime for its whole lifetime
    // (unique-job p50 near 0.45 or 1.1 ms here); taking the median over
    // several lifetimes keeps one draw from deciding the run.
    let budget = ctx.budget.as_secs_f64();
    let nominal_share = if tracer.enabled() { NOMINAL_SHARE } else { 1.0 };
    let window_n = ((budget * nominal_share * NOMINAL_RPS) as usize / NOMINAL_WINDOWS).max(PREFIX);
    let mut late_us = Vec::new();
    let mut per_window: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut sampled: Vec<(JobSpec, JobOutcome)> = Vec::new();
    let mut seen_degraded = false;
    // Seconds spent in the windows' phases, set-ups left out.
    let mut nominal_s = 0.0;
    for window in 0..NOMINAL_WINDOWS {
        // The first window's first set-up is the one above; the last
        // server set up is kept.
        for _ in usize::from(window == 0)..SETUPS_PER_WINDOW {
            warm.server.shutdown();
            warm = setups.time(|| start_and_warm(&dir, &hot))?;
            // Warm-up replies are deterministic: the same hot set must
            // seal to the same envelopes on every server.
            out.tally(warm.envelopes == envelopes);
        }
        addr = warm.server.addr().to_string();
        let conns = connect(&addr, nproc.max(2))?;
        let reqs = mix.schedule(&warm.hot, NOMINAL_RPS, window_n, true);
        let phase_started = Instant::now();
        let phase = tracer.span("serve.nominal", || run_phase(&conns, &warm, &reqs, None));
        nominal_s += phase_started.elapsed().as_secs_f64();
        if !phase.errors.is_empty() {
            return Err(format!(
                "nominal phase at {NOMINAL_RPS} rps failed: {:?}",
                phase.errors
            ));
        }
        let mut by_idx: HashMap<usize, &Reply> = HashMap::new();
        for r in &phase.replies {
            by_idx.insert(r.idx, r);
        }
        for (idx, us) in latencies(&phase, &reqs) {
            let reply = by_idx[&idx];
            out.tally(reply.ok);
            out.ops.push(Op {
                us,
                hit: reqs[idx].hot.is_some(),
            });
            if reqs[idx].hot.is_none() {
                out.run_ms.push(us / 1e3);
            }
            if tracer.enabled() {
                let due = phase.start + Duration::from_secs_f64(reqs[idx].due);
                tracer.record(
                    if reqs[idx].hot.is_some() {
                        "serve.hit"
                    } else {
                        "serve.miss"
                    },
                    due,
                    reply.at,
                );
            }
        }
        let lat = latencies(&phase, &reqs);
        let class = |hit: bool| -> Vec<f64> {
            lat.iter()
                .filter(|(i, _)| reqs[*i].hot.is_some() == hit)
                .map(|(_, us)| *us)
                .collect()
        };
        let (hits, misses) = (class(true), class(false));
        // One served experiment is one unique job: `run_ms` is its
        // latency, as it is one experiment's time on the fabric workloads.
        let run_ms: Vec<f64> = misses.iter().map(|us| us / 1e3).collect();
        for (name, value) in [
            ("run_ms_p50", percentile(&run_ms, 0.5)),
            ("run_ms_p90", percentile(&run_ms, 0.9)),
            ("hit_us_p50", percentile(&hits, 0.5)),
            ("hit_us_p99", percentile(&hits, 0.99)),
            ("miss_us_p50", percentile(&misses, 0.5)),
            ("miss_us_p99", percentile(&misses, 0.99)),
        ] {
            per_window.entry(name).or_default().push(value);
        }
        out.sim_cycles += phase
            .replies
            .iter()
            .filter(|r| reqs[r.idx].hot.is_none())
            .filter_map(|r| r.outcome.map(|o| o.net_cycles))
            .sum::<u64>();
        let lost = (phase.sent - phase.replies.len()) as u64;
        out.attempted += lost;
        out.failed += lost;
        out.points += phase.replies.len() as u64;
        late_us.extend_from_slice(&phase.late_us);
        if window == 0 {
            let prefix_hits = (0..PREFIX)
                .filter(|i| by_idx.get(i).is_some_and(|r| r.cached))
                .count() as u64;
            out.exact.push(("serve.prefix_hits", prefix_hits));
            out.layers
                .insert("serve.hit_ratio", prefix_hits as f64 / PREFIX as f64);
        }
        for (i, r) in reqs.iter().enumerate() {
            let degraded = matches!(r.spec, JobSpec::Degraded { .. });
            if !r.sample
                || r.hot.is_some()
                || (degraded && seen_degraded)
                || sampled.len() == SAMPLE_CAP
            {
                continue;
            }
            if let Some(outcome) = by_idx.get(&i).and_then(|reply| reply.outcome) {
                seen_degraded |= degraded;
                sampled.push((r.spec.clone(), outcome));
            }
        }
    }
    out.measured_s = nominal_s;
    out.setup_s = setups.fastest();
    out.notes.push(setups.note());
    // Simulated cycles the server delivered per second: the offered
    // load's simulation work, which falls if the server falls behind.
    out.sim_s = out.measured_s;
    out.computed.extend(
        per_window
            .iter()
            .map(|(name, values)| (*name, median(values))),
    );
    out.layers
        .insert("serve.gen_late_us_p99", percentile(&late_us, 0.99));
    // Peak memory of the nominal phase: the ladder's length depends on
    // where the knee falls, and the server's trace grows per request.
    out.peak_rss_mb = peak_rss_mb();
    let conns = connect(&addr, nproc.max(2))?;

    // Ladder: the highest offered rate whose p99 meets the limit. Its
    // unique jobs leave out the degraded family: a handful of 0.1 s
    // executions would make the knee depend on which rung they land
    // in, and the nominal phase's miss tail already carries them.
    let mut max_rps = 0.0;
    let mut rungs = Vec::new();
    if tracer.enabled() {
        let ladder_budget = budget * (1.0 - NOMINAL_SHARE);
        let ladder_started = Instant::now();
        let mut failed_in_a_row = 0;
        'ladder: for rate in LADDER {
            let rung_s = (RUNG_REQUESTS / rate).max(RUNG_MIN_S);
            for _ in 0..RUNG_TRIES {
                if ladder_started.elapsed().as_secs_f64() + rung_s > ladder_budget && max_rps > 0.0
                {
                    break 'ladder;
                }
                let reqs = mix.schedule(&warm.hot, rate, (rung_s * rate) as usize, false);
                let phase = tracer.span("serve.rung", || {
                    run_phase(&conns, &warm, &reqs, Some(BACKLOG_LIMIT))
                });
                let lat: Vec<f64> = latencies(&phase, &reqs)
                    .into_iter()
                    .map(|(_, us)| us)
                    .collect();
                let all_ok = phase.replies.iter().all(|r| r.ok);
                for r in &phase.replies {
                    out.tally(r.ok);
                }
                let lost = phase.sent - phase.replies.len();
                out.attempted += lost as u64;
                out.failed += lost as u64;
                if !phase.errors.is_empty() {
                    return Err(format!("ladder rung {rate} rps: {:?}", phase.errors));
                }
                let p99 = percentile(&lat, 0.99);
                let pass = !phase.backlogged && all_ok && lost == 0 && p99 <= SLO_US;
                rungs.push(format!(
                    "{rate}:{}{p99:.0}us",
                    if pass { "" } else { "FAIL " }
                ));
                if pass {
                    max_rps = rate;
                    failed_in_a_row = 0;
                    continue 'ladder;
                }
            }
            failed_in_a_row += 1;
            if failed_in_a_row == 2 {
                break;
            }
        }
        std::thread::sleep(LADDER_COOLDOWN);
    }
    out.max_rps_slo = max_rps;

    // The server's own counters, then shutdown.
    let metrics = scrape(&addr)?;
    drop(conns);
    let m = |name: &str| metrics.get(&sanitize_name(name)).copied().unwrap_or(0.0);
    let mean_of = |name: &str| m(&format!("{name}_sum")) / m(&format!("{name}_count")).max(1.0);
    out.layers
        .insert("serve.queue_wait_us_mean", mean_of("serve.queue.wait_us"));
    out.layers
        .insert("serve.job_service_us_mean", mean_of("serve.job.service_us"));
    out.layers.insert(
        "serve.server_latency_us_mean",
        mean_of("serve.request.latency_us"),
    );
    out.layers.insert(
        "serve.wakeups_per_request",
        m("serve.reactor.wakeups") / m("serve.requests.received").max(1.0),
    );
    out.layers
        .insert("serve.coalesced", m("serve.dedup.coalesced"));
    out.layers
        .insert("serve.rejected", m("serve.queue.rejected"));
    out.layers.insert("serve.expired", m("serve.jobs.expired"));
    let Warm {
        server,
        dir,
        hot,
        envelopes,
    } = warm;
    server.shutdown();
    out.layers
        .insert("snap.cache_bytes", dir_bytes(&dir) as f64);

    // Checks: every hot key and the sampled unique jobs re-executed
    // directly must equal what the server replied.
    let mut exec_us = Vec::new();
    for (spec, envelope) in hot.iter().zip(&envelopes) {
        let direct = spec.execute(max_net_cycles).ok();
        out.tally(direct.is_some() && JobOutcome::from_snapshot_bytes(envelope).ok() == direct);
    }
    for (spec, served) in &sampled {
        let started = Instant::now();
        let direct = tracer.span("serve.execute", || spec.execute(max_net_cycles).ok());
        exec_us.push(started.elapsed().as_secs_f64() * 1e6);
        out.tally(direct == Some(*served));
    }
    out.layers.insert("serve.execute_us_p50", median(&exec_us));

    // Cache layer, timed from outside: loads of hot keys from the
    // server's directory and stores of the sampled envelopes into a
    // side directory.
    if tracer.enabled() {
        let cache = CacheDir::new(&dir).map_err(|e| format!("reopen cache: {e}"))?;
        let side_dir = dir.with_extension("side");
        let side = CacheDir::new(&side_dir).map_err(|e| format!("side cache: {e}"))?;
        let mut loads = Vec::new();
        for spec in &hot {
            let started = Instant::now();
            let bytes = tracer.span("snap.load", || cache.load_bytes(&spec.key()));
            loads.push(started.elapsed().as_secs_f64() * 1e6);
            out.tally(bytes.is_some());
        }
        let mut stores = Vec::new();
        for (spec, outcome) in &sampled {
            let bytes = outcome.to_snapshot_bytes();
            let started = Instant::now();
            let stored = tracer.span("snap.store", || side.store_bytes(&spec.key(), &bytes));
            stores.push(started.elapsed().as_secs_f64() * 1e6);
            out.tally(stored.is_ok());
        }
        out.layers.insert("snap.load_us_p50", median(&loads));
        out.layers.insert("snap.store_us_p50", median(&stores));
        let _ = std::fs::remove_dir_all(&side_dir);
    }

    // Self-test: a hot reply with one flipped byte must not pass.
    let mut corrupt = envelopes[0].clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    out.self_test_ok =
        corrupt != envelopes[0] && JobOutcome::from_snapshot_bytes(&corrupt).is_err();

    out.notes.push(format!(
        "open loop at {NOMINAL_RPS} rps for {:.1} s in {NOMINAL_WINDOWS} windows over {} connections \
         ({} CSRV, 1 line-JSON); designed hit share {:.3}, measured {:.3}; generator lateness \
         p50 {:.0} us p99 {:.0} us; {} hit and {} miss samples; ladder p99s {}",
        out.measured_s,
        nproc.max(2),
        nproc.max(2) - 1,
        1.0 - 1.0 / MISS_EVERY as f64,
        out.layers["serve.hit_ratio"],
        percentile(&late_us, 0.5),
        percentile(&late_us, 0.99),
        out.ops.iter().filter(|o| o.hit).count(),
        out.ops.iter().filter(|o| !o.hit).count(),
        rungs.join(" "),
    ));
    Ok(())
}
