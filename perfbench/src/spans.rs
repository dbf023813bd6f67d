//! In-memory spans for the traced run, and the per-round ledger built
//! from them.
//!
//! The benchmark records a span around each public call it makes
//! (`create`, `propose`, `complete`, ...). For a traced session it folds
//! the program's own `phase_end`, `wave` and `model_fit` trace events in
//! as child spans, so each layer's *self time* — its span's duration
//! minus the time its child spans cover — can be summed per round.
//! Spans stay in memory until the run ends, then are written as JSONL.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use aide_util::trace::{Event, Value};

/// Index of a recorded span.
pub type SpanId = usize;

/// A child span waiting for its parent phase: name, end and duration (µs).
type ChildSpan = (String, f64, f64);

/// One span: a named interval, the span that caused it, and the label
/// round it belongs to (shared by every span of that round).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `propose` or `phase.discovery`.
    pub name: String,
    /// Start, microseconds since the recorder's epoch.
    pub start_us: f64,
    /// End, microseconds since the recorder's epoch.
    pub end_us: f64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// The label round, when the span belongs to one.
    pub round: Option<u64>,
}

impl Span {
    /// Duration in microseconds.
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a top-level span (one around a public call) from `start`
    /// to `end`.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        round: Option<u64>,
    ) -> SpanId {
        let span = Span {
            name: name.to_string(),
            start_us: self.offset_us(start),
            end_us: self.offset_us(end),
            parent: None,
            round,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span of length `dur` ending at microsecond `end_us` of
    /// the recorder's clock.
    fn record_us(
        &mut self,
        name: String,
        end_us: f64,
        dur: f64,
        parent: Option<SpanId>,
        round: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_us: end_us - dur,
            end_us,
            parent,
            round: Some(round),
        });
        self.spans.len() - 1
    }

    /// Folds one traced session's events in as child spans of its
    /// `propose` / `complete` spans. `tracer_epoch` is when the session's
    /// tracer was created (its events' `t_us` count from then);
    /// `rounds[i]` holds the `propose` and `complete` span ids and the
    /// round id of the session's iteration `i`.
    ///
    /// `phase_end` becomes `phase.<name>` under `propose`; `wave` becomes
    /// `engine.wave` under its phase; a `kmeans` `model_fit` becomes
    /// `ml.kmeans` under its phase and a `cart` one `ml.cart` under
    /// `complete`. Returns the number of `eval` events met — a round must
    /// never contain one.
    pub fn fold_events(
        &mut self,
        events: &[Event],
        tracer_epoch: Instant,
        rounds: &[(SpanId, SpanId, u64)],
    ) -> usize {
        let base = self.offset_us(tracer_epoch);
        // Children are emitted before the phase_end that closes their
        // phase, so buffer them per (iteration, phase) until it arrives.
        let mut pending: BTreeMap<(u64, String), Vec<ChildSpan>> = BTreeMap::new();
        let mut evals = 0;
        for e in events {
            let field = |name: &str| e.fields.iter().find(|(n, _)| *n == name).map(|(_, v)| v);
            let num = |name: &str| match field(name) {
                Some(Value::U64(v)) => *v as f64,
                _ => 0.0,
            };
            let text = |name: &str| match field(name) {
                Some(Value::Str(s)) => s.clone(),
                _ => String::new(),
            };
            if e.kind == "eval" {
                evals += 1;
                continue;
            }
            let iter = num("iter") as u64;
            let Some(&(propose, complete, round)) = rounds.get(iter as usize) else {
                continue;
            };
            let end = base + e.t_us as f64;
            match e.kind {
                "wave" => pending.entry((iter, text("phase"))).or_default().push((
                    "engine.wave".into(),
                    end,
                    num("dur_us"),
                )),
                "model_fit" if text("model") == "kmeans" => pending
                    .entry((iter, text("phase")))
                    .or_default()
                    .push(("ml.kmeans".into(), end, num("fit_us"))),
                "model_fit" => {
                    self.record_us("ml.cart".into(), end, num("fit_us"), Some(complete), round);
                }
                "phase_end" => {
                    let phase = text("phase");
                    let id = self.record_us(
                        format!("phase.{phase}"),
                        end,
                        num("dur_us"),
                        Some(propose),
                        round,
                    );
                    for (name, end, dur) in pending.remove(&(iter, phase)).unwrap_or_default() {
                        self.record_us(name, end, dur, Some(id), round);
                    }
                }
                _ => {}
            }
        }
        evals
    }

    /// Self time per span name, summed over all spans: each span's
    /// duration minus its children's durations, in microseconds.
    pub fn self_time_us(&self) -> BTreeMap<String, f64> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.dur_us();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_us) {
            *out.entry(s.name.clone()).or_insert(0.0) += s.dur_us() - children;
        }
        out
    }

    /// Summed duration per span name, in microseconds.
    pub fn total_us(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_insert(0.0) += s.dur_us();
        }
        out
    }

    /// Number of spans per name.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let round = s.round.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"round\":{round}}}",
                s.name, s.start_us, s.end_us
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(100);
        let p = s.record("propose", t0, t1, Some(0));
        s.record_us("phase.discovery".into(), s.offset_us(t1), 60.0, Some(p), 0);
        let own = s.self_time_us();
        assert!((own["propose"] - 40.0).abs() < 1e-6);
        assert!((own["phase.discovery"] - 60.0).abs() < 1e-6);
        assert_eq!(s.count("propose"), 1);
    }
}
