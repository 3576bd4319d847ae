//! Cluster observability: per-worker health and supervision metrics
//! on a plain [`cedar_obs::Obs`] handle, and a scrape endpoint for it.
//!
//! The coordinator feeds the handle during a run (a disabled handle
//! makes every update a no-op); `Obs::prometheus` renders the standard
//! exposition, and [`MetricsServer`] exposes it over plain HTTP for
//! scrapers, exactly like the serving tier's `/metrics` endpoint.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cedar_obs::{HistogramId, Obs};

/// Pre-interns every supervision metric on `obs` (idempotent), so
/// exports show zeros, not missing series, before anything fails.
/// Returns the commit-latency histogram — ticks from a job's first
/// issue to its commit; 64 bins of 8 ticks covers multi-restart
/// recoveries, the overflow bin catches pathological tails — or `None`
/// when metrics are off.
pub(crate) fn intern_metrics(obs: &Obs) -> Option<HistogramId> {
    for name in [
        "cluster.jobs.dispatched",
        "cluster.jobs.committed",
        "cluster.jobs.cache_hits",
        "cluster.jobs.reissued",
        "cluster.results.stale",
        "cluster.worker.exits",
        "cluster.worker.hangs_reaped",
        "cluster.worker.garbage_frames",
        "cluster.worker.restarts",
        "cluster.worker.lost",
    ] {
        obs.bump(name, 0);
    }
    let _ = obs.gauge("cluster.workers.alive");
    obs.histogram("cluster.commit.latency_ticks", 64, 8)
}

/// A minimal HTTP scrape endpoint for a coordinator's [`Obs`]:
/// `GET /metrics` answers the Prometheus exposition and closes, any
/// other path is a 404. One accept thread, one connection at a time —
/// a scraper's cadence, not a serving tier's.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port), pre-interns
    /// the supervision metrics on `obs`, and starts answering scrapes
    /// of it in a background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error as a description.
    pub fn start(addr: &str, obs: Obs) -> Result<MetricsServer, String> {
        let _ = intern_metrics(&obs);
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = conn {
                    serve_scrape(stream, &obs);
                }
            }
        });
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

fn serve_scrape(stream: TcpStream, obs: &Obs) {
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).unwrap_or(0) == 0 {
        return;
    }
    // Drain the header block so the client sees a clean close.
    let mut hdr = String::new();
    loop {
        hdr.clear();
        match reader.read_line(&mut hdr) {
            Ok(0) => break,
            Ok(_) if hdr.trim().is_empty() => break,
            Ok(_) => {}
            Err(_) => return,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, ctype, body) = if path == "/metrics" {
        ("200 OK", "text/plain; version=0.0.4", obs.prometheus())
    } else {
        ("404 Not Found", "text/plain", "not found\n".to_owned())
    };
    let _ = write!(
        writer,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_obs::export;
    use cedar_obs::ObsConfig;

    #[test]
    fn supervision_metrics_are_pre_interned() {
        let obs = Obs::new(ObsConfig::enabled());
        intern_metrics(&obs);
        let samples = export::parse_prometheus(&obs.prometheus()).unwrap();
        for series in [
            "cluster.jobs.dispatched",
            "cluster.worker.exits",
            "cluster.worker.restarts",
            "cluster.workers.alive",
        ] {
            assert_eq!(
                samples.get(&export::sanitize_name(series)),
                Some(&0.0),
                "{series}"
            );
        }
        assert_eq!(
            samples.get("cedar_cluster_commit_latency_ticks_bucket{le=\"512\"}"),
            Some(&0.0)
        );
    }

    #[test]
    fn metrics_server_answers_scrapes_with_help_and_type() {
        let obs = Obs::new(ObsConfig::enabled());
        let server = MetricsServer::start("127.0.0.1:0", obs.clone()).unwrap();
        obs.bump("cluster.jobs.committed", 1);
        let addr = server.addr();

        let scrape = |path: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut text = String::new();
            use std::io::Read as _;
            s.read_to_string(&mut text).unwrap();
            text
        };
        let reply = scrape("/metrics");
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        assert!(reply.contains("cedar_cluster_jobs_committed 1"), "{reply}");
        assert!(reply.contains("# TYPE cedar_cluster_jobs_committed counter"));
        assert!(reply.contains("# HELP cedar_cluster_jobs_committed"));
        // The body must round-trip through the exposition parser, with
        // the supervision series pre-interned by `start`.
        let body = reply.split("\r\n\r\n").nth(1).unwrap();
        let parsed = export::parse_prometheus(body).unwrap();
        assert_eq!(parsed.get("cedar_cluster_jobs_committed"), Some(&1.0));
        assert_eq!(parsed.get("cedar_cluster_worker_lost"), Some(&0.0));

        assert!(scrape("/nope").starts_with("HTTP/1.1 404"));
        server.stop();
    }
}
