//! Metric names, output checks and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by the untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("round_p50_ms", "ms"),
    ("round_p95_ms", "ms"),
    ("first_batch_p50_ms", "ms"),
    ("rounds_per_s", "1/s"),
    ("final_f", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`.
/// A workload whose path does not cross a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.create_ms", "ms"),
    ("session.propose_ms_p50", "ms"),
    ("session.propose_ms_p95", "ms"),
    ("session.complete_ms_p50", "ms"),
    ("index.engine_ms_per_round", "ms"),
    ("index.queries_per_round", "count"),
    ("index.tuples_examined_per_label", "count"),
    ("index.tuples_returned_per_label", "count"),
    ("index.cache_hit_rate", "ratio"),
    ("index.waves_per_round", "count"),
    ("select.ms_per_round", "ms"),
    ("phase.discovery_ms_per_round", "ms"),
    ("phase.misclassified_ms_per_round", "ms"),
    ("phase.boundary_ms_per_round", "ms"),
    ("ml.fit_ms_per_round", "ms"),
    ("ml.kmeans_ms_per_round", "ms"),
    ("ml.cart_ms_per_round", "ms"),
    ("ml.cart_rebuild_frac", "ratio"),
    ("ml.labels_per_session", "count"),
    ("query.formulate_us", "us"),
    ("serve.create_us_p50", "us"),
    ("serve.label_us_p50", "us"),
    ("serve.result_us_p50", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.reply_bytes_per_round", "bytes"),
    ("serve.cache_entries", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("data.load_ms", "ms"),
    ("index.build_ms", "ms"),
    ("eval.scan_ms", "ms"),
    ("ledger.residual_ms_per_round", "ms"),
    ("ledger.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.dropped", "count"),
    ("run.sessions", "count"),
    ("run.rounds", "count"),
    ("failed_frac", "ratio"),
];

/// Failure messages kept for the log; the counts go on past them.
const KEPT_FAILURES: usize = 20;

/// Counts output checks: every operation attempted and every one that
/// failed (an error frame or a broken expectation).
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    /// Books one operation; `ok == false` books it as failed, with the
    /// reason `why` produces.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(why());
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    /// Failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Everything one run measured.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Output checks.
    pub checks: Checks,
    /// Every measured value by metric name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines (the traced run's ledger), printed before
    /// the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The metric table for one mode: every end-to-end metric, or every
    /// per-layer metric (0 where the workload has no such layer).
    pub fn table(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let names = if trace { PER_LAYER } else { END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .table(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.checks.failed == 0 && self.checks.attempted > 0,
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (never expected) become 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_mode() {
        let mut o = Outcome::default();
        o.checks.check(true, String::new);
        o.set("round_p50_ms", 1.25);
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(line.contains("\"round_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":")));
        }
        assert!(aide_util::json::Json::parse(&line).is_ok());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut c = Checks::default();
        c.check(true, String::new);
        c.check(false, || "boom".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failed_frac(), 0.5);
        let o = Outcome {
            checks: c,
            ..Outcome::default()
        };
        assert!(o.result_line(true).starts_with("{\"correct\":false"));
    }
}
