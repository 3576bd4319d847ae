//! Per-connection state machine, free of any socket.
//!
//! A [`Conn`] owns everything about one connection *except* the fd:
//! protocol sniffing, frame/line reassembly, the outbound buffer, the
//! request lifecycle counters behind [`ConnState`], and the two reap
//! clocks (partial-read stall, write stall). The reactor shovels bytes
//! between the socket and this machine; tests drive the same machine
//! directly with byte slices, which is what makes every transition
//! unit-testable without a kernel in the loop.
//!
//! ```text
//!                  bytes in            admitted       started
//! ReadingFrame ───────────────▶ parse ─────────▶ Queued ─────▶ Executing
//!      ▲                                            │              │
//!      │ outbuf flushed                   resolve() │    resolve() │
//!      └─────────────── WritingResponse ◀───────────┴──────────────┘
//!                             │ close_after_flush
//!                             ▼
//!                          Draining ──flush──▶ (closed)
//! ```
//!
//! The protocol is sniffed from the first byte: `b'C'` starts a
//! `b"CSRV"` binary stream, `b'G'` an HTTP scrape (`GET /metrics`),
//! anything else the line-JSON protocol — so all three coexist on one
//! listener with zero configuration.
//!
//! Every assembler is bounded: a binary frame by its payload cap, a
//! JSON line and an HTTP header block by [`MAX_LEN`] bytes. Text
//! assemblers scan only newly arrived bytes for the newline, so a line
//! trickled in small reads costs time linear in its length.

use std::time::{Duration, Instant};

use crate::json::MAX_LEN;
use crate::proto::{FrameScanner, ProtoError, Request, MAX_REQUEST_PAYLOAD};

/// Reactor-wide identifier of one connection.
pub type ConnToken = u64;

/// Outbound high-water mark: while more than this many bytes are
/// buffered, the connection stops reading new requests. The client
/// feels backpressure instead of the server buffering unboundedly for
/// a peer that won't drain its replies.
pub const OUTBUF_HIGH_WATER: usize = 256 * 1024;

/// Which protocol the first byte revealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnProto {
    /// No bytes yet.
    Unknown,
    /// `b"CSRV"` binary frames.
    Binary,
    /// Line-delimited JSON (the PR-5 protocol).
    Line,
    /// A one-shot HTTP GET (Prometheus scrape).
    Http,
}

/// The connection's position in the request lifecycle. With pipelining
/// the state reflects the most advanced pending work: a connection
/// with a reply being written *and* a job executing reports
/// `WritingResponse`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Waiting for (more of) a request.
    ReadingFrame,
    /// At least one admitted request is waiting for the dispatcher.
    Queued,
    /// At least one request's job is executing.
    Executing,
    /// Reply bytes are buffered for the wire.
    WritingResponse,
    /// Final bytes are flushing; the connection closes when empty.
    Draining,
}

/// One parsed inbound request, protocol-tagged.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// A validated binary frame.
    Binary(Request),
    /// One non-empty line (newline stripped, not yet JSON-parsed).
    Line(String),
    /// An HTTP request path (headers already consumed).
    Http(String),
}

/// Why [`Conn::tick`] wants the connection reaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reap {
    /// A request sat partially received past the line timeout
    /// (slow-loris); answer with a typed timeout and close.
    StalledRead,
    /// Buffered reply bytes made no progress for the write timeout
    /// (client stopped reading); close immediately.
    StalledWrite,
}

#[derive(Debug)]
enum Assembler {
    Sniffing,
    Binary(FrameScanner),
    Line {
        buf: Vec<u8>,
    },
    Http {
        /// The header block so far, request line included.
        buf: Vec<u8>,
        /// Bytes of `buf` already split into complete lines.
        consumed: usize,
        request_line: Option<String>,
        done: bool,
    },
}

/// Splits the complete lines out of `buf[from..]`, each trimmed, and
/// returns them with the offset just past the last newline. Bytes
/// before `scan_from` are known to hold no newline, so each call scans
/// only what arrived since the last one.
fn split_lines(buf: &[u8], from: usize, scan_from: usize) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut start = from;
    let mut at = scan_from;
    while let Some(off) = buf[at..].iter().position(|&b| b == b'\n') {
        let nl = at + off;
        lines.push(String::from_utf8_lossy(&buf[start..nl]).trim().to_owned());
        start = nl + 1;
        at = start;
    }
    (lines, start)
}

/// The typed error for a text request that outgrew [`MAX_LEN`].
fn oversize(len: usize) -> ProtoError {
    ProtoError::Oversize {
        declared: len as u64,
        cap: MAX_LEN as u64,
    }
}

/// The socket-free half of one connection. See the module docs.
#[derive(Debug)]
pub struct Conn {
    token: ConnToken,
    assembler: Assembler,
    outbuf: Vec<u8>,
    written: usize,
    queued: usize,
    executing: usize,
    partial_since: Option<Instant>,
    last_write_progress: Option<Instant>,
    close_after_flush: bool,
}

impl Conn {
    /// A fresh connection machine.
    #[must_use]
    pub fn new(token: ConnToken) -> Self {
        Conn {
            token,
            assembler: Assembler::Sniffing,
            outbuf: Vec::new(),
            written: 0,
            queued: 0,
            executing: 0,
            partial_since: None,
            last_write_progress: None,
            close_after_flush: false,
        }
    }

    /// This connection's reactor token.
    #[must_use]
    pub fn token(&self) -> ConnToken {
        self.token
    }

    /// The sniffed protocol.
    #[must_use]
    pub fn proto(&self) -> ConnProto {
        match &self.assembler {
            Assembler::Sniffing => ConnProto::Unknown,
            Assembler::Binary(_) => ConnProto::Binary,
            Assembler::Line { .. } => ConnProto::Line,
            Assembler::Http { .. } => ConnProto::Http,
        }
    }

    /// The lifecycle state (see [`ConnState`]).
    #[must_use]
    pub fn state(&self) -> ConnState {
        if self.close_after_flush {
            ConnState::Draining
        } else if self.written < self.outbuf.len() {
            ConnState::WritingResponse
        } else if self.executing > 0 {
            ConnState::Executing
        } else if self.queued > 0 {
            ConnState::Queued
        } else {
            ConnState::ReadingFrame
        }
    }

    /// Feeds raw stream bytes and returns every complete request they
    /// finished. `now` drives the partial-read reap clock.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] the moment a binary stream turns to
    /// garbage, or [`ProtoError::Oversize`] once a JSON line or an HTTP
    /// header block exceeds [`MAX_LEN`] bytes; the connection must be
    /// answered (best effort) and closed — stream state past the error
    /// is unreliable.
    pub fn on_bytes(&mut self, bytes: &[u8], now: Instant) -> Result<Vec<WireRequest>, ProtoError> {
        if bytes.is_empty() {
            return Ok(Vec::new());
        }
        if matches!(self.assembler, Assembler::Sniffing) {
            self.assembler = match bytes[0] {
                b'C' => Assembler::Binary(FrameScanner::new(MAX_REQUEST_PAYLOAD)),
                b'G' => Assembler::Http {
                    buf: Vec::new(),
                    consumed: 0,
                    request_line: None,
                    done: false,
                },
                _ => Assembler::Line { buf: Vec::new() },
            };
        }
        let mut out = Vec::new();
        match &mut self.assembler {
            Assembler::Sniffing => unreachable!("sniffed above"),
            Assembler::Binary(scanner) => {
                scanner.extend(bytes);
                while let Some(payload) = scanner.next_frame()? {
                    let req = Request::decode(&payload)?;
                    out.push(WireRequest::Binary(req));
                }
                self.partial_since = match (scanner.mid_frame(), self.partial_since) {
                    (false, _) => None,
                    (true, Some(t)) => Some(t),
                    (true, None) => Some(now),
                };
            }
            Assembler::Line { buf } => {
                let scan_from = buf.len();
                buf.extend_from_slice(bytes);
                let (lines, consumed) = split_lines(buf, 0, scan_from);
                buf.drain(..consumed);
                for line in lines {
                    if line.len() > MAX_LEN {
                        return Err(oversize(line.len()));
                    }
                    if !line.is_empty() {
                        out.push(WireRequest::Line(line));
                    }
                }
                if buf.len() > MAX_LEN {
                    return Err(oversize(buf.len()));
                }
                self.partial_since = match (buf.is_empty(), self.partial_since) {
                    (true, _) => None,
                    (false, Some(t)) => Some(t),
                    (false, None) => Some(now),
                };
            }
            Assembler::Http {
                buf,
                consumed,
                request_line,
                done,
            } => {
                if *done {
                    // One request per scrape connection; trailing
                    // bytes (a keep-alive attempt) are ignored.
                    return Ok(out);
                }
                let scan_from = buf.len();
                buf.extend_from_slice(bytes);
                let (lines, end) = split_lines(buf, *consumed, scan_from);
                *consumed = end;
                for line in lines {
                    if request_line.is_none() {
                        *request_line = Some(line);
                    } else if line.is_empty() {
                        // Blank line: headers done, emit the request.
                        let first = request_line.as_deref().expect("request line recorded");
                        let path = first.split_whitespace().nth(1).unwrap_or("/").to_owned();
                        out.push(WireRequest::Http(path));
                        *done = true;
                        *buf = Vec::new();
                        break;
                    }
                }
                if buf.len() > MAX_LEN {
                    return Err(oversize(buf.len()));
                }
                self.partial_since = if *done {
                    None
                } else {
                    // Mid-header counts as a partial request: a scraper
                    // stalling between headers gets the loris reaping.
                    Some(self.partial_since.unwrap_or(now))
                };
            }
        }
        Ok(out)
    }

    /// Records one request admitted to the queue (or dedup-coalesced
    /// onto an in-flight one).
    pub fn admitted(&mut self) {
        self.queued += 1;
    }

    /// Records an admitted request entering execution.
    pub fn started(&mut self) {
        self.queued = self.queued.saturating_sub(1);
        self.executing += 1;
    }

    /// Resolves one pending (admitted) request with its reply bytes.
    pub fn resolve(&mut self, bytes: &[u8], now: Instant) {
        if self.executing > 0 {
            self.executing -= 1;
        } else {
            self.queued = self.queued.saturating_sub(1);
        }
        self.respond(bytes, now);
    }

    /// Buffers reply bytes for a request that never queued (immediate
    /// answers: pings, cache hits, typed errors).
    pub fn respond(&mut self, bytes: &[u8], now: Instant) {
        if self.flushed() {
            // Compact before growing again so `written` cannot creep.
            self.outbuf.clear();
            self.written = 0;
            self.last_write_progress = Some(now);
        }
        self.outbuf.extend_from_slice(bytes);
    }

    /// Pending requests (admitted or executing) without a reply yet.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.queued + self.executing
    }

    /// Marks the connection to close once the outbuf drains.
    pub fn mark_close_after_flush(&mut self) {
        self.close_after_flush = true;
    }

    /// Whether this connection closes after its current flush.
    #[must_use]
    pub fn closing(&self) -> bool {
        self.close_after_flush
    }

    /// Whether every buffered byte has been written.
    #[must_use]
    pub fn flushed(&self) -> bool {
        self.written == self.outbuf.len()
    }

    /// The bytes still owed to the wire.
    #[must_use]
    pub fn writable(&self) -> &[u8] {
        &self.outbuf[self.written..]
    }

    /// Whether the reactor should poll this fd for readability. False
    /// while closing or while the peer owes us a drain (backpressure).
    #[must_use]
    pub fn wants_read(&self) -> bool {
        !self.close_after_flush && self.outbuf.len() - self.written <= OUTBUF_HIGH_WATER
    }

    /// Whether the reactor should poll this fd for writability — only
    /// while bytes are owed, which is what keeps an idle connection
    /// from busy-looping on a permanently-writable socket.
    #[must_use]
    pub fn wants_write(&self) -> bool {
        !self.flushed()
    }

    /// Records `n` bytes accepted by the socket.
    pub fn did_write(&mut self, n: usize, now: Instant) {
        self.written += n;
        debug_assert!(self.written <= self.outbuf.len());
        if n > 0 {
            self.last_write_progress = Some(now);
        }
        if self.flushed() {
            self.outbuf.clear();
            self.written = 0;
            self.last_write_progress = None;
        }
    }

    /// Checks the two reap clocks. A closing connection only answers
    /// to the write clock — its partial read is already being
    /// abandoned, so re-reporting it would double-count the reap.
    #[must_use]
    pub fn tick(
        &self,
        now: Instant,
        line_timeout: Duration,
        write_timeout: Duration,
    ) -> Option<Reap> {
        if !self.close_after_flush {
            if let Some(since) = self.partial_since {
                if now.duration_since(since) >= line_timeout {
                    return Some(Reap::StalledRead);
                }
            }
        }
        if self.wants_write() {
            if let Some(since) = self.last_write_progress {
                if now.duration_since(since) >= write_timeout {
                    return Some(Reap::StalledWrite);
                }
            }
        }
        None
    }

    /// The earliest instant at which [`tick`](Conn::tick) could fire,
    /// for sizing the reactor's poll timeout. `None` means this
    /// connection never needs a timer wakeup — the idle fast path.
    #[must_use]
    pub fn next_deadline(
        &self,
        line_timeout: Duration,
        write_timeout: Duration,
    ) -> Option<Instant> {
        let read = (!self.close_after_flush)
            .then_some(self.partial_since)
            .flatten()
            .map(|t| t + line_timeout);
        let write = self
            .wants_write()
            .then_some(self.last_write_progress)
            .flatten()
            .map(|t| t + write_timeout);
        match (read, write) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    const LINE_T: Duration = Duration::from_millis(200);
    const WRITE_T: Duration = Duration::from_millis(400);

    fn run_frame(corr: u64) -> Vec<u8> {
        Request::Run {
            corr,
            priority: 1,
            deadline_ms: None,
            spec: JobSpec::Table2 {
                kernel: 0,
                ces: 2,
                blocks: 1,
            },
        }
        .encode()
    }

    #[test]
    fn full_binary_lifecycle_walks_the_state_table() {
        let now = Instant::now();
        let mut c = Conn::new(1);
        assert_eq!(c.state(), ConnState::ReadingFrame);
        assert_eq!(c.proto(), ConnProto::Unknown);

        // Half a frame: still reading, protocol locked to binary.
        let frame = run_frame(7);
        let reqs = c.on_bytes(&frame[..5], now).unwrap();
        assert!(reqs.is_empty());
        assert_eq!(c.proto(), ConnProto::Binary);
        assert_eq!(c.state(), ConnState::ReadingFrame);

        // Rest of the frame: one request out, admitted → Queued.
        let reqs = c.on_bytes(&frame[5..], now).unwrap();
        assert_eq!(reqs.len(), 1);
        c.admitted();
        assert_eq!(c.state(), ConnState::Queued);

        c.started();
        assert_eq!(c.state(), ConnState::Executing);

        c.resolve(b"reply-bytes", now);
        assert_eq!(c.state(), ConnState::WritingResponse);
        assert_eq!(c.writable(), b"reply-bytes");

        // Partial write keeps the state; full flush returns to reading.
        c.did_write(5, now);
        assert_eq!(c.state(), ConnState::WritingResponse);
        c.did_write(6, now);
        assert_eq!(c.state(), ConnState::ReadingFrame);
        assert!(!c.wants_write(), "flushed conn must not poll POLLOUT");
    }

    #[test]
    fn draining_closes_only_after_the_flush() {
        let now = Instant::now();
        let mut c = Conn::new(2);
        c.respond(b"final", now);
        c.mark_close_after_flush();
        assert_eq!(c.state(), ConnState::Draining);
        assert!(!c.wants_read(), "a draining conn reads nothing more");
        assert!(c.wants_write());
        c.did_write(5, now);
        assert!(c.flushed() && c.closing(), "flushed + closing = closed");
    }

    #[test]
    fn line_and_http_protocols_sniff_from_the_first_byte() {
        let now = Instant::now();
        let mut c = Conn::new(3);
        let reqs = c.on_bytes(b"{\"op\":\"ping\"}\nnot json\n\n", now).unwrap();
        assert_eq!(c.proto(), ConnProto::Line);
        // Two non-empty lines; the blank line is skipped.
        assert_eq!(
            reqs,
            vec![
                WireRequest::Line("{\"op\":\"ping\"}".into()),
                WireRequest::Line("not json".into()),
            ]
        );

        let mut h = Conn::new(4);
        let reqs = h
            .on_bytes(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", now)
            .unwrap();
        assert_eq!(h.proto(), ConnProto::Http);
        assert_eq!(reqs, vec![WireRequest::Http("/metrics".into())]);
        // A second pipelined GET is ignored: scrapes are one-shot.
        assert!(h
            .on_bytes(b"GET / HTTP/1.1\r\n\r\n", now)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn lines_assemble_across_reads_up_to_the_bound() {
        let now = Instant::now();
        let mut c = Conn::new(10);
        // A line trickled in small reads, then several in one read.
        let long = format!("{{\"pad\":\"{}\"}}", "x".repeat(MAX_LEN - 10));
        assert_eq!(long.len(), MAX_LEN);
        for chunk in long.as_bytes().chunks(4096) {
            assert!(c.on_bytes(chunk, now).unwrap().is_empty());
        }
        let reqs = c.on_bytes(b"\na\nb\r\n\nc", now).unwrap();
        assert_eq!(
            reqs,
            vec![
                WireRequest::Line(long),
                WireRequest::Line("a".into()),
                WireRequest::Line("b".into()),
            ]
        );
        assert_eq!(
            c.on_bytes(b"\n", now).unwrap(),
            vec![WireRequest::Line("c".into())]
        );
    }

    #[test]
    fn overlong_lines_and_headers_are_typed_errors() {
        let now = Instant::now();
        // A partial line past the bound, with no newline in sight.
        let mut c = Conn::new(11);
        for _ in 0..MAX_LEN / 4096 {
            c.on_bytes(&[b'x'; 4096], now).unwrap();
        }
        let err = c.on_bytes(b"y", now).unwrap_err();
        assert!(
            matches!(err, ProtoError::Oversize { declared, cap }
                if declared == MAX_LEN as u64 + 1 && cap == MAX_LEN as u64),
            "{err:?}"
        );
        // A complete line past the bound, arriving in one read.
        let mut c = Conn::new(12);
        let mut line = vec![b'x'; MAX_LEN + 1];
        line.push(b'\n');
        assert!(matches!(
            c.on_bytes(&line, now),
            Err(ProtoError::Oversize { .. })
        ));
        // An HTTP header block that never ends, one short line at a
        // time: each line is small, the block is not.
        let mut h = Conn::new(13);
        h.on_bytes(b"GET /metrics HTTP/1.1\r\n", now).unwrap();
        let header = b"X-Pad: 0123456789abcdef0123456789abcdef\r\n";
        let mut result = Ok(Vec::new());
        for _ in 0..=MAX_LEN / header.len() {
            result = h.on_bytes(header, now);
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(ProtoError::Oversize { .. })));
    }

    #[test]
    fn binary_garbage_is_a_typed_error() {
        let now = Instant::now();
        let mut c = Conn::new(5);
        // 'C' sniffs binary; the next byte already breaks the magic.
        let err = c.on_bytes(b"CRAP", now).unwrap_err();
        assert!(matches!(err, ProtoError::Corrupt(_)));
    }

    #[test]
    fn partial_frame_ages_into_a_read_reap_but_idle_never_does() {
        let start = Instant::now();
        let mut c = Conn::new(6);
        // Idle forever: no clock runs.
        assert_eq!(c.tick(start + LINE_T * 100, LINE_T, WRITE_T), None);
        assert_eq!(c.next_deadline(LINE_T, WRITE_T), None);

        // First byte of a frame starts the clock...
        let frame = run_frame(1);
        c.on_bytes(&frame[..1], start).unwrap();
        assert_eq!(c.tick(start, LINE_T, WRITE_T), None);
        // ...and progress bytes must NOT reset it (anti-slow-loris).
        c.on_bytes(&frame[1..3], start + LINE_T / 2).unwrap();
        assert_eq!(
            c.tick(start + LINE_T, LINE_T, WRITE_T),
            Some(Reap::StalledRead)
        );

        // Completing the frame clears the clock.
        c.on_bytes(&frame[3..], start + LINE_T / 2).unwrap();
        assert_eq!(c.tick(start + LINE_T * 100, LINE_T, WRITE_T), None);
    }

    #[test]
    fn stalled_write_reaps_and_progress_resets_the_clock() {
        let start = Instant::now();
        let mut c = Conn::new(7);
        c.respond(b"0123456789", start);
        assert_eq!(c.tick(start, LINE_T, WRITE_T), None);
        // Progress at T/2 pushes the deadline out.
        c.did_write(4, start + WRITE_T / 2);
        assert_eq!(c.tick(start + WRITE_T, LINE_T, WRITE_T), None);
        assert_eq!(
            c.tick(start + WRITE_T / 2 + WRITE_T, LINE_T, WRITE_T),
            Some(Reap::StalledWrite)
        );
        // Full flush stops the clock entirely.
        c.did_write(6, start + WRITE_T / 2);
        assert_eq!(c.tick(start + WRITE_T * 100, LINE_T, WRITE_T), None);
    }

    #[test]
    fn outbuf_high_water_gates_reading() {
        let now = Instant::now();
        let mut c = Conn::new(8);
        assert!(c.wants_read());
        c.respond(&vec![0u8; OUTBUF_HIGH_WATER + 1], now);
        assert!(!c.wants_read(), "backpressure: stop reading while owed");
        c.did_write(2, now);
        assert!(c.wants_read(), "draining below the mark resumes reads");
    }

    #[test]
    fn pipelined_requests_keep_counters_consistent() {
        let now = Instant::now();
        let mut c = Conn::new(9);
        let bytes: Vec<u8> = run_frame(1)
            .into_iter()
            .chain(run_frame(2))
            .chain(run_frame(3))
            .collect();
        let reqs = c.on_bytes(&bytes, now).unwrap();
        assert_eq!(reqs.len(), 3);
        c.admitted();
        c.admitted();
        c.admitted();
        assert_eq!(c.inflight(), 3);
        c.started();
        assert_eq!(c.state(), ConnState::Executing);
        c.resolve(b"r1", now);
        c.resolve(b"r2", now);
        assert_eq!(c.state(), ConnState::WritingResponse);
        assert_eq!(c.inflight(), 1);
        c.did_write(4, now);
        // Replies flushed, one request still queued.
        assert_eq!(c.state(), ConnState::Queued);
        c.resolve(b"r3", now);
        c.did_write(2, now);
        assert_eq!(c.state(), ConnState::ReadingFrame);
        assert_eq!(c.inflight(), 0);
    }
}
