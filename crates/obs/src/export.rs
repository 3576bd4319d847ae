//! Deterministic exporters: Chrome trace-event JSON and
//! Prometheus-style text exposition.
//!
//! Both exporters are pure functions over already-deterministic inputs
//! (the append-ordered [`TraceEvent`] stream, the name-sorted
//! [`MetricsRegistry`] views), so identical simulations yield
//! byte-identical exports. The module also carries the matching
//! consumers used by tests and the CI smoke step: a JSON
//! well-formedness check (the [`crate::json`] parser) and a
//! line-by-line exposition parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;
use crate::trace::{SpanPhase, TraceEvent};

/// Serialises a trace stream as Chrome trace-event JSON
/// (`{"traceEvents":[...]}`), loadable in `chrome://tracing` and
/// Perfetto. One simulated cycle maps to one microsecond of trace
/// time, so cycle counts read directly off the ruler.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match e.phase {
            SpanPhase::Begin => "B",
            SpanPhase::End => "E",
            SpanPhase::Instant => "i",
        };
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            escape_json(e.name),
            e.at,
            e.pid,
            e.tid
        );
        if e.phase == SpanPhase::Instant {
            // Thread-scoped instant: renders as a marker on its track.
            out.push_str(",\"s\":\"t\"");
        }
        if let Some((key, value)) = e.arg {
            let _ = write!(out, ",\"args\":{{\"{}\":{value}}}", escape_json(key));
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Renders the registry in Prometheus text exposition format. Metric
/// names are sanitised (`.` → `_`) and prefixed `cedar_`; histograms
/// expose cumulative `_bucket{le="..."}` series plus `_sum` and
/// `_count`. Every metric carries `# HELP` (naming the original
/// dot-path) and `# TYPE` lines. Output is sorted by metric name —
/// deterministic.
#[must_use]
pub fn prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let n = sanitize_name(name);
        let _ = writeln!(
            out,
            "# HELP {n} {}",
            escape_help(&help_text(name, "counter"))
        );
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {value}");
    }
    for (name, value) in registry.gauges() {
        let n = sanitize_name(name);
        let _ = writeln!(out, "# HELP {n} {}", escape_help(&help_text(name, "gauge")));
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", format_f64(value));
    }
    for (name, entry) in registry.histograms() {
        let n = sanitize_name(name);
        let _ = writeln!(
            out,
            "# HELP {n} {}",
            escape_help(&help_text(name, "histogram"))
        );
        let _ = writeln!(out, "# TYPE {n} histogram");
        let width = entry.bins.bin_width();
        let mut cumulative = 0u64;
        for i in 0..entry.bins.bin_count() {
            cumulative += entry.bins.bin(i).unwrap_or(0);
            let le = (i as u64 + 1) * width;
            let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(
            out,
            "{n}_bucket{{le=\"+Inf\"}} {}",
            cumulative + entry.bins.overflow()
        );
        let _ = writeln!(out, "{n}_sum {}", entry.sum);
        let _ = writeln!(out, "{n}_count {}", entry.bins.total());
    }
    out
}

/// The deterministic help string for a metric: its kind and the
/// original dot-path name the sanitised exposition name was made from.
fn help_text(name: &str, kind: &str) -> String {
    format!("cedar {kind} for dot-path metric {name}")
}

/// Escapes a `# HELP` text per the exposition format: backslash and
/// newline are the only characters with escape sequences there.
#[must_use]
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Maps a dot-path metric name onto a legal Prometheus metric name.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("cedar_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn format_f64(v: f64) -> String {
    // `{}` on f64 is shortest-round-trip in Rust — deterministic and
    // parseable back; integers print without a trailing ".0".
    format!("{v}")
}

/// Escapes a string for embedding inside a JSON string literal
/// (quotes, backslashes, control characters). Shared by the trace
/// exporter here and the serving tier's wire protocol.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Checks that `input` is a single well-formed JSON value, so the
/// trace binary and CI smoke step can prove the Chrome export parses
/// without external dependencies. This is [`crate::json`]'s parser
/// with nesting bounded by [`crate::json::MAX_DEPTH`] but no length
/// bound: a Chrome trace runs to megabytes.
///
/// # Errors
///
/// Returns the byte offset and a description of the first syntax
/// error.
pub fn validate_json(input: &str) -> Result<(), String> {
    crate::json::parse_document(input).map(drop)
}

/// Parses Prometheus text exposition back into `sample line → value`,
/// where the key is the full series (name plus any labels). Comment
/// (`#`) and blank lines are skipped, but `# TYPE` lines must name a
/// known type and `# HELP` lines must name a metric. Label values are
/// scanned escape-aware, so a value containing spaces, `}` or `\"`
/// never confuses the series/value split, and an optional trailing
/// integer timestamp is accepted and ignored.
///
/// # Errors
///
/// Returns the 1-based line number and cause of the first malformed
/// line.
pub fn parse_prometheus(input: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            match parts.next() {
                Some("TYPE") => {
                    let _name = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: TYPE without metric name"))?;
                    match parts.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        other => {
                            return Err(format!("line {lineno}: unknown TYPE {other:?}"));
                        }
                    }
                }
                Some("HELP") => {
                    let _name = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: HELP without metric name"))?;
                    // The help text itself is free-form (with \\ and \n
                    // escapes) and carries no samples; skip it.
                }
                _ => {} // plain comment
            }
            continue;
        }
        let (series, value) = split_series(line).map_err(|e| format!("line {lineno}: {e}"))?;
        if out.insert(series.to_owned(), value).is_some() {
            return Err(format!("line {lineno}: duplicate series '{series}'"));
        }
    }
    Ok(out)
}

/// Splits one exposition sample line into its series key (metric name
/// plus the label block exactly as written) and its value, respecting
/// `\"`/`\\`/`\n` escapes inside label values and tolerating an
/// optional trailing integer timestamp.
fn split_series(line: &str) -> Result<(&str, f64), String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;
    // Metric name: everything up to a label block or whitespace.
    while pos < bytes.len() && !matches!(bytes[pos], b'{' | b' ' | b'\t') {
        pos += 1;
    }
    if pos == 0 {
        return Err("empty series name".to_owned());
    }
    if bytes.get(pos) == Some(&b'{') {
        pos += 1;
        let mut in_quotes = false;
        let mut closed = false;
        while pos < bytes.len() {
            match bytes[pos] {
                b'\\' if in_quotes => {
                    // An escape consumes the next byte, whatever it is;
                    // a dangling backslash at end-of-line is malformed.
                    if pos + 1 >= bytes.len() {
                        return Err("dangling escape in label value".to_owned());
                    }
                    pos += 1;
                }
                b'"' => in_quotes = !in_quotes,
                b'}' if !in_quotes => {
                    pos += 1;
                    closed = true;
                    break;
                }
                _ => {}
            }
            pos += 1;
        }
        if !closed {
            return Err(if in_quotes {
                "unterminated label value".to_owned()
            } else {
                "unterminated label block".to_owned()
            });
        }
    }
    let series = &line[..pos];
    let mut rest = line[pos..].split_whitespace();
    let value = rest.next().ok_or_else(|| "no value".to_owned())?;
    let value: f64 = value.parse().map_err(|e| format!("bad value: {e}"))?;
    if let Some(ts) = rest.next() {
        // The exposition format allows one integer timestamp (ms).
        if ts.parse::<i64>().is_err() {
            return Err(format!("bad timestamp {ts:?}"));
        }
    }
    if let Some(junk) = rest.next() {
        return Err(format!("trailing data {junk:?}"));
    }
    Ok((series, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;

    fn sample_sink() -> TraceSink {
        let mut sink = TraceSink::new();
        sink.begin(3, 77, "request", 10);
        sink.begin(3, 77, "forward_net", 10);
        sink.instant(3, 77, "retry", 14, Some(("attempt", 1)));
        sink.end(3, 77, "forward_net", 20);
        sink.end(3, 77, "request", 31);
        sink
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_fields() {
        let json = chrome_trace(sample_sink().events());
        validate_json(&json).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\",") || json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"s\":\"t\""));
        assert!(json.contains("\"args\":{\"attempt\":1}"));
        assert!(json.contains("\"pid\":3"));
        assert!(json.contains("\"tid\":77"));
    }

    #[test]
    fn chrome_trace_of_empty_stream_is_valid() {
        let json = chrome_trace(&[]);
        validate_json(&json).unwrap();
    }

    #[test]
    fn json_validator_rejects_garbage() {
        assert!(validate_json("{\"a\":").is_err());
        assert!(validate_json("[1,2,]").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{broken}").is_err());
        assert!(validate_json("[1, 2, {\"k\": [true, null, -3.5e2]}]").is_ok());
    }

    #[test]
    fn prometheus_round_trips_through_parser() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("net.fwd.blocked_transfers");
        reg.add(c, 42);
        let g = reg.gauge("net.fwd.queue_depth");
        reg.set(g, 2.5);
        let h = reg.histogram("mem.latency_cycles", 4, 10);
        for s in [5, 15, 99] {
            reg.record(h, s);
        }
        let text = prometheus(&reg);
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(samples["cedar_net_fwd_blocked_transfers"], 42.0);
        assert_eq!(samples["cedar_net_fwd_queue_depth"], 2.5);
        assert_eq!(samples["cedar_mem_latency_cycles_bucket{le=\"10\"}"], 1.0);
        assert_eq!(samples["cedar_mem_latency_cycles_bucket{le=\"20\"}"], 2.0);
        assert_eq!(samples["cedar_mem_latency_cycles_bucket{le=\"+Inf\"}"], 3.0);
        assert_eq!(samples["cedar_mem_latency_cycles_sum"], 119.0);
        assert_eq!(samples["cedar_mem_latency_cycles_count"], 3.0);
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_monotone() {
        let mut reg = MetricsRegistry::new();
        let h = reg.histogram("lat", 8, 2);
        for s in 0..16 {
            reg.record(h, s);
        }
        let text = prometheus(&reg);
        let samples = parse_prometheus(&text).unwrap();
        let mut prev = 0.0;
        for i in 1..=8u64 {
            let v = samples[&format!("cedar_lat_bucket{{le=\"{}\"}}", i * 2)];
            assert!(v >= prev, "bucket le={} not monotone", i * 2);
            prev = v;
        }
        assert_eq!(samples["cedar_lat_bucket{le=\"+Inf\"}"], 16.0);
    }

    #[test]
    fn parser_flags_malformed_lines() {
        assert!(parse_prometheus("novalue").is_err());
        assert!(parse_prometheus("x notanumber").is_err());
        assert!(parse_prometheus("# TYPE x bogus").is_err());
        assert!(parse_prometheus("x 1\nx 2").is_err());
        assert!(parse_prometheus("# plain comment\n\nx 1").is_ok());
        assert!(parse_prometheus("# HELP").is_err());
        assert!(parse_prometheus("# HELP x free text with spaces").is_ok());
    }

    #[test]
    fn exposition_carries_help_and_type_for_every_metric() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("net.fwd.blocked");
        reg.inc(c);
        let g = reg.gauge("queue.depth");
        reg.set(g, 3.0);
        let h = reg.histogram("lat", 2, 10);
        reg.record(h, 5);
        let text = prometheus(&reg);
        for (name, kind) in [
            ("cedar_net_fwd_blocked", "counter"),
            ("cedar_queue_depth", "gauge"),
            ("cedar_lat", "histogram"),
        ] {
            assert!(
                text.contains(&format!("# HELP {name} ")),
                "missing HELP for {name} in:\n{text}"
            );
            assert!(
                text.contains(&format!("# TYPE {name} {kind}")),
                "missing TYPE for {name} in:\n{text}"
            );
        }
        // HELP names the original dot-path, so a scraper can map back.
        assert!(text.contains("net.fwd.blocked"), "{text}");
        // And the parser round-trips the annotated exposition.
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(samples["cedar_net_fwd_blocked"], 1.0);
    }

    #[test]
    fn help_escaping_round_trips() {
        assert_eq!(escape_help("plain"), "plain");
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        // An escaped multi-line help text still parses as one line.
        let text = format!("# HELP cedar_x {}\ncedar_x 1\n", escape_help("two\nlines"));
        assert_eq!(parse_prometheus(&text).unwrap()["cedar_x"], 1.0);
    }

    #[test]
    fn parser_handles_escaped_label_values() {
        // Label values with spaces, escaped quotes, escaped
        // backslashes and a closing brace must not confuse the
        // series/value split.
        let text = "x{msg=\"a b\"} 1\ny{msg=\"say \\\"hi\\\" now\"} 2\nz{p=\"C:\\\\tmp\"} 3\nw{m=\"a}b\"} 4\n";
        let samples = parse_prometheus(text).unwrap();
        assert_eq!(samples["x{msg=\"a b\"}"], 1.0);
        assert_eq!(samples["y{msg=\"say \\\"hi\\\" now\"}"], 2.0);
        assert_eq!(samples["z{p=\"C:\\\\tmp\"}"], 3.0);
        assert_eq!(samples["w{m=\"a}b\"}"], 4.0);
    }

    #[test]
    fn parser_accepts_timestamps_and_rejects_garbage_tails() {
        let samples = parse_prometheus("x{l=\"v\"} 1.5 1700000000000\n").unwrap();
        assert_eq!(samples["x{l=\"v\"}"], 1.5);
        assert!(parse_prometheus("x 1 notatimestamp").is_err());
        assert!(parse_prometheus("x 1 2 3").is_err());
        assert!(parse_prometheus("x{l=\"unterminated} 1").is_err());
        assert!(parse_prometheus("x{l=\"v\" 1").is_err());
        assert!(parse_prometheus("x{l=\"v\\").is_err());
    }

    #[test]
    fn sanitize_maps_dot_paths() {
        assert_eq!(
            sanitize_name("net.fwd.stage0.blocked"),
            "cedar_net_fwd_stage0_blocked"
        );
    }

    #[test]
    fn exports_are_deterministic() {
        let sink = sample_sink();
        assert_eq!(chrome_trace(sink.events()), chrome_trace(sink.events()));
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        reg.inc(c);
        assert_eq!(prometheus(&reg), prometheus(&reg));
    }
}
