//! Chrome trace-event (Perfetto-loadable) export of flight records.
//!
//! [`render_chrome_trace`] serialises a slice of [`FlightRecord`]s into
//! the Chrome `traceEvents` JSON format, the lingua franca of
//! `ui.perfetto.dev` and `chrome://tracing`. The mapping:
//!
//! * every distinct **thread label** becomes a track (`tid`), named via a
//!   `"M"` (metadata) `thread_name` event — so executor workers
//!   (`xrank-worker-N`) and the compactor (`xrank-compactor`) land on
//!   their own swimlanes;
//! * every record becomes a `"X"` (complete) span — query text or
//!   commit/compaction label as the name, the [`OpKind`] as the
//!   category — or a `"i"` (instant) event for zero-duration records
//!   such as sheds;
//! * every [`SpanRecord`] in the record's trace becomes a child `"X"`
//!   span (category `stage`), and every [`TraceEvent`] becomes a `"i"`
//!   instant (category `event`): TA rounds, the HDIL switch, degrades,
//!   pool I/O counts, the manifest publish.
//!
//! Timestamps are microseconds from the recorder epoch; span offsets are
//! non-negative durations added to the record start, so children always
//! nest inside their operation. [`render_chrome_trace_normalized`]
//! replaces all times with deterministic placeholders (record index ×
//! 1000 µs, zero durations) for golden tests of the schema.
//!
//! [`validate_chrome_trace`] is the inverse gate: a dependency-free JSON
//! parser plus structural checks (required fields, per-track strict span
//! nesting) that `scripts/trace_smoke.sh` and `xrank trace-check` run
//! against every exported artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::recorder::{FlightRecord, OpKind};
use crate::trace::EventData;

/// Renders flight records as Chrome trace-event JSON (real timestamps).
pub fn render_chrome_trace(records: &[FlightRecord]) -> String {
    render(records, false)
}

/// Renders with normalized timestamps (record index × 1000 µs, zero
/// durations) so two runs of the same deterministic workload produce
/// byte-identical output.
pub fn render_chrome_trace_normalized(records: &[FlightRecord]) -> String {
    render(records, true)
}

fn render(records: &[FlightRecord], normalize: bool) -> String {
    let mut tids: Vec<&str> = Vec::new();
    for r in records {
        if !tids.contains(&r.thread.as_str()) {
            tids.push(&r.thread);
        }
    }
    let tid_of = |thread: &str| tids.iter().position(|t| *t == thread).unwrap_or(0) + 1;

    let mut out = String::with_capacity(4096 + records.len() * 256);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: &str| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(line);
    };

    push(
        &mut out,
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"xrank\"}}",
    );
    for (i, t) in tids.iter().enumerate() {
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                json_escape(t)
            ),
        );
    }

    for (idx, r) in records.iter().enumerate() {
        let tid = tid_of(&r.thread);
        let base = if normalize { (idx as u64 * 1000) as f64 } else { r.start_ns as f64 / 1000.0 };
        let total_us = if normalize { 0.0 } else { r.trace.total.as_secs_f64() * 1e6 };
        let args = format!(
            "{{\"outcome\":\"{}\",\"slow\":{},\"seq\":{},\
             \"dropped_spans\":{},\"dropped_events\":{}}}",
            r.outcome.name(),
            r.slow,
            r.seq,
            r.trace.dropped_spans,
            r.trace.dropped_events,
        );
        let instant_op = r.kind == OpKind::Shed
            || (r.trace.spans.is_empty() && r.trace.total.is_zero());
        if instant_op {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{},\
                     \"name\":\"{}\",\"cat\":\"{}\",\"args\":{args}}}",
                    fmt_us(base),
                    json_escape(&r.label),
                    r.kind.name(),
                ),
            );
        } else {
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"cat\":\"{}\",\"args\":{args}}}",
                    fmt_us(base),
                    fmt_us(total_us),
                    json_escape(&r.label),
                    r.kind.name(),
                ),
            );
        }
        for s in &r.trace.spans {
            let (at, dur) = if normalize {
                (0.0, 0.0)
            } else {
                (s.at.as_secs_f64() * 1e6, s.dur.as_secs_f64() * 1e6)
            };
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"cat\":\"stage\"}}",
                    fmt_us(base + at),
                    fmt_us(dur),
                    s.stage.name(),
                ),
            );
        }
        for e in &r.trace.events {
            let at = if normalize { 0.0 } else { e.at.as_secs_f64() * 1e6 };
            let (name, eargs) = event_fields(&e.data);
            push(
                &mut out,
                &format!(
                    "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{},\
                     \"name\":\"{}\",\"cat\":\"event\",\"args\":{eargs}}}",
                    fmt_us(base + at),
                    json_escape(name),
                ),
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Event → (instant name, args object) for the exporter.
fn event_fields(data: &EventData) -> (&str, String) {
    match data {
        EventData::TaRound { entries, threshold, confirmed } => (
            "ta_round",
            format!(
                "{{\"entries\":{entries},\"threshold\":{},\"confirmed\":{confirmed}}}",
                fmt_f64(*threshold)
            ),
        ),
        EventData::Switch { clock, spent, rdil_remaining, dil_estimate, confirmed, reason } => (
            "hdil_switch",
            format!(
                "{{\"reason\":\"{}\",\"clock\":\"{}\",\"spent\":{},\"rdil_remaining\":{},\
                 \"dil_estimate\":{},\"confirmed\":{confirmed}}}",
                reason.name(),
                clock.name(),
                fmt_f64(*spent),
                rdil_remaining.map_or_else(|| "null".to_string(), fmt_f64),
                fmt_f64(*dil_estimate),
            ),
        ),
        EventData::Count { what, n } => (what, format!("{{\"n\":{n}}}")),
        EventData::Degraded { reason } => {
            ("degraded", format!("{{\"reason\":\"{}\"}}", reason.name()))
        }
        EventData::Note(s) => (s, "{}".to_string()),
    }
}

/// Microsecond timestamps with fixed three-decimal precision (stable,
/// and fine-grained enough that nesting survives the round-trip).
fn fmt_us(v: f64) -> String {
    format!("{v:.3}")
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Structural validation (the smoke-test / trace-check side).
// ---------------------------------------------------------------------------

/// A parsed JSON value (just enough for trace validation).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E'))
            || (self.pos > start && matches!(self.peek(), Some(b'+') | Some(b'-')))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-UTF-8 number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("malformed number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // escape in one piece, validating exactly those bytes (neither
            // delimiter can occur inside a multibyte sequence), so every
            // input byte is looked at a constant number of times.
            let run = self.pos;
            while !matches!(self.peek(), Some(b'"') | Some(b'\\') | None) {
                self.pos += 1;
            }
            let plain = std::str::from_utf8(&self.bytes[run..self.pos])
                .map_err(|_| self.err("non-UTF-8 string"))?;
            out.push_str(plain);
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let Some(esc) = self.peek() else {
                return Err(self.err("dangling escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.parse_hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: expect a \uXXXX low half.
                        self.expect(b'\\')?;
                        self.expect(b'u')?;
                        let lo = self.parse_hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("bad low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| self.err("bad unicode escape"))?);
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("non-UTF-8 escape"))?;
        let v = u32::from_str_radix(text, 16).map_err(|_| self.err("bad hex digits"))?;
        self.pos += 4;
        Ok(v)
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_document(mut self) -> Result<Json, String> {
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing garbage"));
        }
        Ok(v)
    }
}

/// Summary of one exporter track (one thread lane).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSummary {
    /// The track's `thread_name` (or `tid-N` if unnamed).
    pub name: String,
    /// Complete (`"X"`) spans on the track.
    pub spans: usize,
    /// Instant (`"i"`) events on the track.
    pub instants: usize,
    /// Sorted distinct categories seen on the track.
    pub cats: Vec<String>,
}

/// The result of structurally validating an exported trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceCheck {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Per-track summaries, ordered by tid.
    pub tracks: Vec<TrackSummary>,
}

impl TraceCheck {
    /// Whether any track carries an event of the given category.
    pub fn has_cat(&self, cat: &str) -> bool {
        self.tracks.iter().any(|t| t.cats.iter().any(|c| c == cat))
    }

    /// Whether any track name contains `needle`.
    pub fn has_track(&self, needle: &str) -> bool {
        self.tracks.iter().any(|t| t.name.contains(needle))
    }
}

/// Tolerance when re-checking span containment after the three-decimal
/// microsecond round-trip through text.
const NEST_EPS_US: f64 = 0.01;

/// Parses `json` as Chrome trace-event output and checks it structurally:
/// required fields on every event, numeric non-negative timestamps, and
/// strict span nesting per track (a span either contains or is disjoint
/// from every other span on its track — never partially overlapping).
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let doc = Parser::new(json).parse_document()?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };

    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut spans_by_tid: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut stats: BTreeMap<u64, (usize, usize, Vec<String>)> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let ph = ev.get("ph").and_then(Json::as_str).ok_or_else(|| ctx("missing ph"))?;
        ev.get("name").and_then(Json::as_str).ok_or_else(|| ctx("missing name"))?;
        ev.get("pid").and_then(Json::as_num).ok_or_else(|| ctx("missing pid"))?;
        let tid =
            ev.get("tid").and_then(Json::as_num).ok_or_else(|| ctx("missing tid"))? as u64;
        match ph {
            "M" => {
                if ev.get("name").and_then(Json::as_str) == Some("thread_name") {
                    let thread = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .ok_or_else(|| ctx("thread_name without args.name"))?;
                    names.insert(tid, thread.to_string());
                }
            }
            "X" => {
                let ts =
                    ev.get("ts").and_then(Json::as_num).ok_or_else(|| ctx("missing ts"))?;
                let dur =
                    ev.get("dur").and_then(Json::as_num).ok_or_else(|| ctx("missing dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(ctx("negative ts/dur"));
                }
                spans_by_tid.entry(tid).or_default().push((ts, ts + dur));
                let entry = stats.entry(tid).or_default();
                entry.0 += 1;
                if let Some(cat) = ev.get("cat").and_then(Json::as_str) {
                    if !entry.2.iter().any(|c| c == cat) {
                        entry.2.push(cat.to_string());
                    }
                }
            }
            "i" => {
                let ts =
                    ev.get("ts").and_then(Json::as_num).ok_or_else(|| ctx("missing ts"))?;
                if ts < 0.0 {
                    return Err(ctx("negative ts"));
                }
                let entry = stats.entry(tid).or_default();
                entry.1 += 1;
                if let Some(cat) = ev.get("cat").and_then(Json::as_str) {
                    if !entry.2.iter().any(|c| c == cat) {
                        entry.2.push(cat.to_string());
                    }
                }
            }
            other => return Err(ctx(&format!("unexpected ph {other:?}"))),
        }
    }

    for (tid, spans) in &mut spans_by_tid {
        // Sort outermost-first so a simple stack proves containment.
        spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<f64> = Vec::new();
        for &(ts, end) in spans.iter() {
            while let Some(&top_end) = stack.last() {
                if ts >= top_end - NEST_EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top_end) = stack.last() {
                if end > top_end + NEST_EPS_US {
                    return Err(format!(
                        "track tid={tid}: span [{ts:.3}, {end:.3}] partially overlaps \
                         its enclosing span ending at {top_end:.3}"
                    ));
                }
            }
            stack.push(end);
        }
    }

    let tracks = stats
        .into_iter()
        .map(|(tid, (spans, instants, mut cats))| {
            cats.sort();
            TrackSummary {
                name: names.get(&tid).cloned().unwrap_or_else(|| format!("tid-{tid}")),
                spans,
                instants,
                cats,
            }
        })
        .collect();
    Ok(TraceCheck { events: events.len(), tracks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{FlightRecorder, OpOutcome, RecorderConfig};
    use crate::trace::{DegradeReason, QueryTrace, Stage, SwitchClock, SwitchReason};

    fn sample_records() -> Vec<FlightRecord> {
        let r = FlightRecorder::new(RecorderConfig::default());
        let t = QueryTrace::enabled();
        {
            let _outer = t.span(Stage::TaLoop);
            let _inner = t.span(Stage::BtreeProbe);
        }
        t.event(
            Stage::TaRound,
            EventData::TaRound { entries: 7, threshold: 0.25, confirmed: 1 },
        );
        t.event(
            Stage::SwitchDecision,
            EventData::Switch {
                clock: SwitchClock::Work,
                spent: 4.0,
                rdil_remaining: None,
                dil_estimate: 2.0,
                confirmed: 1,
                reason: SwitchReason::EstimateExceeded,
            },
        );
        t.event(Stage::Degraded, EventData::Degraded { reason: DegradeReason::Deadline });
        let origin = t.origin();
        let done = t.finish();
        r.record(OpKind::Query, "query[hdil] \"quoted\"", origin, OpOutcome::Ok, &done);
        r.instant(OpKind::Shed, "shed");
        r.records()
    }

    #[test]
    fn rendered_trace_validates() {
        let json = render_chrome_trace(&sample_records());
        let check = validate_chrome_trace(&json).expect("structurally valid");
        assert!(check.has_cat("query"));
        assert!(check.has_cat("shed"));
        assert!(check.has_cat("stage"));
        assert!(check.has_cat("event"));
        assert!(check.events >= 7);
        assert!(json.contains("\"reason\":\"estimate_exceeded\",\"clock\":\"work\""), "{json}");
    }

    #[test]
    fn normalized_render_is_deterministic_modulo_time() {
        let records = sample_records();
        let a = render_chrome_trace_normalized(&records);
        let b = render_chrome_trace_normalized(&records);
        assert_eq!(a, b);
        validate_chrome_trace(&a).expect("normalized output still validates");
    }

    #[test]
    fn validator_rejects_partial_overlap() {
        let json = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":0,"dur":100,"name":"a","cat":"stage"},
            {"ph":"X","pid":1,"tid":1,"ts":50,"dur":100,"name":"b","cat":"stage"}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn validator_accepts_nested_and_disjoint() {
        let json = r#"{"traceEvents":[
            {"ph":"X","pid":1,"tid":1,"ts":0,"dur":100,"name":"a","cat":"op"},
            {"ph":"X","pid":1,"tid":1,"ts":10,"dur":20,"name":"b","cat":"stage"},
            {"ph":"X","pid":1,"tid":1,"ts":40,"dur":60,"name":"c","cat":"stage"},
            {"ph":"X","pid":1,"tid":1,"ts":200,"dur":10,"name":"d","cat":"op"},
            {"ph":"i","s":"t","pid":1,"tid":1,"ts":15,"name":"e","cat":"event"}
        ]}"#;
        let check = validate_chrome_trace(json).expect("valid");
        assert_eq!(check.tracks.len(), 1);
        assert_eq!(check.tracks[0].spans, 4);
        assert_eq!(check.tracks[0].instants, 1);
    }

    #[test]
    fn validator_rejects_malformed_json_and_missing_fields() {
        assert!(validate_chrome_trace("{not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let missing_ts =
            r#"{"traceEvents":[{"ph":"X","pid":1,"tid":1,"dur":1,"name":"a"}]}"#;
        assert!(validate_chrome_trace(missing_ts).unwrap_err().contains("missing ts"));
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let nasty = "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode\u{00e9}\u{4e16}";
        let json = format!("{{\"traceEvents\":[],\"x\":\"{}\"}}", json_escape(nasty));
        let doc = Parser::new(&json).parse_document().expect("parses");
        assert_eq!(doc.get("x").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn escapes_and_surrogate_pairs_decode_between_plain_runs() {
        // Plain multibyte runs on both sides of every escape form, and a
        // surrogate pair (U+1F600) spelled as two \u escapes.
        let json = r#"{"x":"é世\u00e9界\ud83d\ude00😀\n尾"}"#;
        let doc = Parser::new(json).parse_document().expect("parses");
        assert_eq!(doc.get("x").and_then(Json::as_str), Some("é世é界😀😀\n尾"));
        for bad in [r#"{"x":"\ud83d"}"#, r#"{"x":"\ud83d\u0041"}"#, r#"{"x":"\u00e"}"#, r#"{"x":"é"#] {
            assert!(Parser::new(bad).parse_document().is_err(), "{bad}");
        }
    }

    /// The string parser once re-validated the whole remaining input per
    /// plain character, so a trace of a few megabytes took minutes.
    #[test]
    fn validating_a_multi_megabyte_trace_is_linear() {
        let mut json = String::from("{\"traceEvents\":[\n");
        let mut ts = 0u64;
        while json.len() < 2 * 1024 * 1024 {
            if ts > 0 {
                json.push_str(",\n");
            }
            let _ = write!(
                json,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{ts},\"dur\":5,\
                 \"name\":\"query[hdil] \\\"é世界 {ts}\\\"\",\"cat\":\"stage\"}}"
            );
            ts += 10;
        }
        json.push_str("\n]}");
        let start = std::time::Instant::now();
        let check = validate_chrome_trace(&json).expect("valid");
        let took = start.elapsed();
        assert_eq!(check.events as u64, ts / 10);
        // Linear parsing takes tens of milliseconds here, even unoptimized;
        // the quadratic parser needed minutes.
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }

    #[test]
    fn instant_records_become_instant_events() {
        let r = FlightRecorder::new(RecorderConfig::default());
        r.instant(OpKind::Shed, "shed");
        let json = render_chrome_trace(&r.records());
        assert!(json.contains("\"ph\":\"i\""));
        assert!(!json.contains("\"cat\":\"shed\",\"ph\":\"X\""));
        validate_chrome_trace(&json).expect("valid");
    }

    #[test]
    fn thread_tracks_get_metadata_names() {
        let r = FlightRecorder::new(RecorderConfig::default());
        let t = QueryTrace::enabled();
        t.bump(Stage::Tokenize);
        let origin = t.origin();
        let done = t.finish();
        std::thread::Builder::new()
            .name("xrank-worker-9".to_string())
            .spawn({
                let done = done.clone();
                move || {
                    // Re-anchor inside the named thread so the record
                    // carries this thread's label.
                    r.record(OpKind::Query, "q", origin, OpOutcome::Ok, &done);
                    let json = render_chrome_trace(&r.records());
                    let check = validate_chrome_trace(&json).expect("valid");
                    assert!(check.has_track("xrank-worker-9"));
                }
            })
            .expect("spawn")
            .join()
            .expect("join");
    }
}
