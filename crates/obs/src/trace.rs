//! The drained snapshot of a [`Recorder`](crate::Recorder): spans plus
//! counters, with the two exporters and the stage-time rollup.

use crate::json::escape;
use crate::SpanEvent;
use std::fmt::Write as _;
use std::path::Path;

/// A snapshot of recorded spans and counters (see
/// [`Recorder::take`](crate::Recorder::take)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Recorded spans, sorted by start time.
    pub spans: Vec<SpanEvent>,
    /// Counter snapshot, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// Per-stage duration statistics over every span sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name.
    pub name: &'static str,
    /// Number of spans.
    pub count: usize,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Median span duration (nearest rank), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile span duration (nearest rank), nanoseconds.
    pub p95_ns: u64,
    /// Longest span, nanoseconds.
    pub max_ns: u64,
}

impl Trace {
    /// Looks a counter up by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Sets (or overwrites) a counter — for folding externally held
    /// statistics (e.g. per-shard cache counters) into a trace.
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        let name = name.into();
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => {
                self.counters.push((name, value));
                self.counters.sort();
            }
        }
    }

    /// Merges another trace in: spans are appended and re-sorted,
    /// counters with equal names are summed.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.spans
            .sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns), s.tid));
        for (name, value) in other.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += value,
                None => self.counters.push((name, value)),
            }
        }
        self.counters.sort();
    }

    /// Shifts every span by `offset_ns` — used when concatenating traces
    /// of sequential runs that each started their own epoch at zero.
    pub fn shift(&mut self, offset_ns: u64) {
        for span in &mut self.spans {
            span.start_ns += offset_ns;
        }
    }

    /// Prefixes every counter name — namespacing a run's counters before
    /// merging several runs into one file.
    pub fn prefix_counters(&mut self, prefix: &str) {
        for (name, _) in &mut self.counters {
            *name = format!("{prefix}{name}");
        }
        self.counters.sort();
    }

    /// End of the latest span, nanoseconds (zero for an empty trace).
    pub fn end_ns(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0)
    }

    /// Per-stage duration statistics, grouped by span name in first-seen
    /// order.
    pub fn stage_summary(&self) -> Vec<StageStats> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .into_iter()
            .map(|name| {
                let mut durs: Vec<u64> = self
                    .spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.dur_ns)
                    .collect();
                durs.sort_unstable();
                let rank = |p: f64| -> u64 {
                    // Nearest-rank percentile on the sorted durations.
                    let idx = ((p * durs.len() as f64).ceil() as usize).clamp(1, durs.len()) - 1;
                    durs[idx]
                };
                StageStats {
                    name,
                    count: durs.len(),
                    total_ns: durs.iter().sum(),
                    p50_ns: rank(0.50),
                    p95_ns: rank(0.95),
                    max_ns: *durs.last().expect("non-empty by construction"),
                }
            })
            .collect()
    }

    /// Renders the trace as line-oriented JSONL (one object per span,
    /// then one per counter) — the same one-entry-per-line convention as
    /// the repo's `BENCH_*.json` files, parseable with no JSON
    /// dependency.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":{},\"label\":{},\"key\":{},\"tid\":{},\
                 \"start_ns\":{},\"dur_ns\":{}}}",
                escape(s.name),
                escape(&s.label),
                s.key,
                s.tid,
                s.start_ns,
                s.dur_ns
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                escape(name),
                value
            );
        }
        out
    }

    /// Renders the trace in the Chrome trace-event format (JSON object
    /// form), loadable in Perfetto or `chrome://tracing`.
    ///
    /// Every span becomes a balanced `"B"`/`"E"` pair on its thread's
    /// timeline (`ts` in microseconds); counters become `"C"` events at
    /// the end of the trace. Nested spans close before their parents, so
    /// the per-thread event stream is a well-formed stack.
    pub fn to_chrome_json(&self) -> String {
        // Per-span edges: open at start, close at end. Ties: closes sort
        // before opens; among simultaneous opens the longer span (the
        // parent) opens first; among simultaneous closes the shorter one
        // (the child) closes first.
        enum Edge<'a> {
            Begin(&'a SpanEvent),
            End,
        }
        let mut edges: Vec<(u64, u32, u8, u64, Edge)> = Vec::with_capacity(2 * self.spans.len());
        for s in &self.spans {
            edges.push((s.start_ns, s.tid, 1, u64::MAX - s.dur_ns, Edge::Begin(s)));
            edges.push((s.start_ns + s.dur_ns, s.tid, 0, s.dur_ns, Edge::End));
        }
        edges.sort_by_key(|(ts, tid, kind, dur, _)| (*ts, *tid, *kind, *dur));

        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{{\"name\":\"paradrive\"}}}}"
        );
        for (ts, tid, _, _, edge) in &edges {
            let us = *ts as f64 / 1e3;
            match edge {
                Edge::Begin(s) => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{us:.3},\
                         \"name\":{},\"args\":{{\"label\":{},\"key\":{}}}}}",
                        escape(s.name),
                        escape(&s.label),
                        s.key
                    );
                }
                Edge::End => {
                    let _ = write!(
                        out,
                        ",\n{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{us:.3}}}"
                    );
                }
            }
        }
        let counter_ts = self.end_ns() as f64 / 1e3;
        for (name, value) in &self.counters {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{counter_ts:.3},\"name\":{},\
                 \"args\":{{\"value\":{value}}}}}",
                escape(name)
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes [`Trace::to_chrome_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_chrome(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }

    /// Parses a [`Trace::to_jsonl`] export back into a trace — the import
    /// half of the shard-merge workflow, where each shard's trace file is
    /// re-read, namespaced and spliced into one timeline.
    ///
    /// Span names are interned into a process-global table (they are
    /// `&'static str` on [`SpanEvent`]); the set of distinct stage names
    /// is small and fixed, so the table stays bounded. Every number rides
    /// through an `f64` (the JSON number type), exact only below 2^53, so
    /// each must be a whole number in `0..2^53` (2^53 ns ≈ 104 days, far
    /// past any real trace) and a `tid` at most `u32::MAX`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line and, for a bad
    /// number, its field.
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut trace = Trace::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let bad = |what: &str| format!("trace line {}: {what}", i + 1);
            let v = crate::json::parse(line).map_err(|e| bad(&e.to_string()))?;
            let field_u64 = |key: &str, max: f64| -> Result<u64, String> {
                let x = v
                    .get(key)
                    .and_then(crate::json::Value::as_f64)
                    .ok_or_else(|| bad(&format!("missing numeric `{key}`")))?;
                if x.fract() != 0.0 || !(0.0..=max).contains(&x) {
                    return Err(bad(&format!(
                        "`{key}` is not a whole number in 0..={max}: {x}"
                    )));
                }
                Ok(x as u64)
            };
            let field_str = |key: &str| -> Result<&str, String> {
                v.get(key)
                    .and_then(crate::json::Value::as_str)
                    .ok_or_else(|| bad(&format!("missing string `{key}`")))
            };
            match field_str("type")? {
                "span" => trace.spans.push(SpanEvent {
                    name: intern(field_str("name")?),
                    label: field_str("label")?.to_string(),
                    key: field_u64("key", EXACT_MAX)?,
                    tid: field_u64("tid", u32::MAX as f64)? as u32,
                    start_ns: field_u64("start_ns", EXACT_MAX)?,
                    dur_ns: field_u64("dur_ns", EXACT_MAX)?,
                }),
                "counter" => trace.counters.push((
                    field_str("name")?.to_string(),
                    field_u64("value", EXACT_MAX)?,
                )),
                other => return Err(bad(&format!("unknown entry type `{other}`"))),
            }
        }
        trace
            .spans
            .sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns), s.tid));
        trace.counters.sort();
        Ok(trace)
    }
}

/// The largest of the whole numbers below 2^53, which a JSON number (an
/// `f64`) carries exactly.
const EXACT_MAX: f64 = 9_007_199_254_740_991.0;

/// Deduplicating `&'static str` intern table for imported span names.
/// Leaks at most one allocation per *distinct* name ever imported — the
/// pipeline's stage vocabulary, not per-span data.
fn intern(name: &str) -> &'static str {
    static NAMES: std::sync::OnceLock<std::sync::Mutex<Vec<&'static str>>> =
        std::sync::OnceLock::new();
    let mut table = NAMES
        .get_or_init(|| std::sync::Mutex::new(Vec::new()))
        .lock()
        .expect("intern table poisoned");
    match table.iter().find(|n| **n == name) {
        Some(n) => n,
        None => {
            let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
            table.push(leaked);
            leaked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn span(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            name,
            label: format!("{name}-label"),
            key: 0,
            tid,
            start_ns,
            dur_ns,
        }
    }

    fn nested_trace() -> Trace {
        Trace {
            spans: vec![
                span("outer", 1, 0, 1000),
                span("inner", 1, 100, 200),
                span("other", 2, 50, 500),
            ],
            counters: vec![("cache.hits".to_string(), 42)],
        }
    }

    /// Replays a chrome export's B/E events per tid and asserts stack
    /// discipline; returns the number of completed spans.
    fn assert_balanced(chrome: &str) -> usize {
        let v = json::parse(chrome).expect("chrome export parses");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        let mut stacks: std::collections::BTreeMap<i64, Vec<String>> = Default::default();
        let mut completed = 0;
        for e in events {
            let ph = e.get("ph").unwrap().as_str().unwrap();
            let tid = e.get("tid").unwrap().as_f64().unwrap() as i64;
            match ph {
                "B" => stacks
                    .entry(tid)
                    .or_default()
                    .push(e.get("name").unwrap().as_str().unwrap().to_string()),
                "E" => {
                    assert!(
                        stacks.entry(tid).or_default().pop().is_some(),
                        "E without matching B on tid {tid}"
                    );
                    completed += 1;
                }
                _ => {}
            }
        }
        for (tid, stack) in stacks {
            assert!(stack.is_empty(), "unclosed spans on tid {tid}: {stack:?}");
        }
        completed
    }

    #[test]
    fn chrome_export_is_valid_and_balanced() {
        let trace = nested_trace();
        let chrome = trace.to_chrome_json();
        assert_eq!(assert_balanced(&chrome), 3);
        let v = json::parse(&chrome).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // Counter event present with its value.
        let counter = events
            .iter()
            .find(|e| matches!(e.get("ph"), Some(Value::Str(s)) if s == "C"))
            .expect("counter event");
        assert_eq!(
            counter.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(42.0)
        );
    }

    #[test]
    fn simultaneous_edges_keep_stack_discipline() {
        // Parent and child share both start and end timestamps: the
        // parent must open first and close last.
        let trace = Trace {
            spans: vec![span("parent", 1, 0, 100), span("child", 1, 0, 100)],
            counters: vec![],
        };
        assert_eq!(assert_balanced(&trace.to_chrome_json()), 2);
    }

    #[test]
    fn jsonl_round_trips_fields() {
        let trace = nested_trace();
        let jsonl = trace.to_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            let v = json::parse(line).expect("every line is one JSON object");
            assert!(v.get("type").is_some());
        }
        let first = json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("outer"));
        assert_eq!(first.get("dur_ns").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn stage_summary_percentiles() {
        let mut spans = Vec::new();
        for i in 1..=100u64 {
            spans.push(SpanEvent {
                name: "route",
                label: String::new(),
                key: i,
                tid: 0,
                start_ns: i,
                dur_ns: i, // durations 1..=100
            });
        }
        let trace = Trace {
            spans,
            counters: vec![],
        };
        let summary = trace.stage_summary();
        assert_eq!(summary.len(), 1);
        let s = &summary[0];
        assert_eq!((s.count, s.p50_ns, s.p95_ns, s.max_ns), (100, 50, 95, 100));
        assert_eq!(s.total_ns, 5050);
    }

    #[test]
    fn merge_shift_and_prefix() {
        let mut a = nested_trace();
        let mut b = nested_trace();
        b.shift(10_000);
        b.prefix_counters("second.");
        a.merge(b);
        assert_eq!(a.spans.len(), 6);
        assert_eq!(a.counter("cache.hits"), Some(42));
        assert_eq!(a.counter("second.cache.hits"), Some(42));
        assert_eq!(a.end_ns(), 10_000 + 1000);
        // Still a valid chrome trace after the merge.
        assert_eq!(assert_balanced(&a.to_chrome_json()), 6);
    }

    #[test]
    fn escaping_survives_hostile_labels() {
        let trace = Trace {
            spans: vec![SpanEvent {
                name: "route",
                label: "we\"ird\\label\nnewline\ttab\u{1}ctl".to_string(),
                key: 0,
                tid: 0,
                start_ns: 0,
                dur_ns: 1,
            }],
            counters: vec![("count\"er".to_string(), 1)],
        };
        for text in [trace.to_chrome_json(), trace.to_jsonl()] {
            for line in text.lines().filter(|l| l.contains("label")) {
                // Each line of both exports stays parseable.
                let candidate = line.trim_end_matches(',');
                if candidate.starts_with('{') {
                    json::parse(candidate).expect("escaped line parses");
                }
            }
        }
        assert!(json::parse(&trace.to_chrome_json()).is_ok());
    }

    #[test]
    fn jsonl_import_round_trips_exactly() {
        let trace = nested_trace();
        let back = Trace::from_jsonl(&trace.to_jsonl()).unwrap();
        // Import canonicalizes span order — (start, longest-first, tid),
        // the nesting order chrome export needs — so the round trip is
        // exact up to that reordering, and a second trip is a fixpoint.
        let mut want = trace.clone();
        want.spans
            .sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns), s.tid));
        want.counters.sort();
        assert_eq!(back, want);
        assert_eq!(Trace::from_jsonl(&back.to_jsonl()).unwrap(), back);
        // Hostile labels survive the escape/unescape round trip too.
        let hostile = Trace {
            spans: vec![SpanEvent {
                name: "route",
                label: "we\"ird\\label\nnewline".to_string(),
                key: 3,
                tid: 7,
                start_ns: 12,
                dur_ns: 34,
            }],
            counters: vec![("count\"er".to_string(), 9)],
        };
        assert_eq!(Trace::from_jsonl(&hostile.to_jsonl()).unwrap(), hostile);
        // Malformed input is reported with its line number.
        let err = Trace::from_jsonl("{\"type\":\"span\"}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(Trace::from_jsonl("not json").is_err());
    }

    #[test]
    fn set_counter_overwrites() {
        let mut t = Trace::default();
        t.set_counter("a", 1);
        t.set_counter("a", 5);
        t.set_counter("b", 2);
        assert_eq!(t.counter("a"), Some(5));
        assert_eq!(t.counters.len(), 2);
    }
}
