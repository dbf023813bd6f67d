//! One closed-loop exploration session driven through the public
//! propose/complete API, timed per call.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_core::{evaluate_model, CallbackOracle, ExplorationSession, SessionConfig, TargetQuery};
use aide_data::NumericView;
use aide_index::{ExtractionEngine, ExtractionStats};
use aide_util::rng::Xoshiro256pp;
use aide_util::trace::Tracer;

use crate::spans::{SpanId, Spans};

/// Tracer ring size: far above the events a 100-round session emits, so
/// nothing is dropped (the traced run fails if anything is).
const TRACE_RING: usize = 1 << 20;

/// What drives a session's labels.
pub enum Labels<'a> {
    /// The simulated analyst: relevant iff the sample lies in the target.
    Target,
    /// Replay: exactly these labels, one vector per round.
    Replay(&'a [Vec<bool>]),
}

/// One session to run.
pub struct Plan<'a> {
    /// The view the session evaluates over (the engine's view).
    pub view: &'a Arc<NumericView>,
    /// The template engine the session forks.
    pub template: &'a ExtractionEngine,
    /// Session configuration; its tracer is replaced when `traced`.
    pub config: SessionConfig,
    /// The analyst's interest.
    pub target: &'a TargetQuery,
    /// The session's RNG seed.
    pub seed: u64,
    /// Label rounds to run.
    pub rounds: usize,
    /// Label source.
    pub labels: Labels<'a>,
    /// Whether to evaluate the final model (a repeat of a session
    /// already evaluated skips the scan).
    pub evaluate: bool,
}

/// One label round as measured.
#[derive(Debug, Clone)]
pub struct Round {
    /// Time inside `propose_iteration`.
    pub propose: Duration,
    /// Time inside `complete_iteration`.
    pub complete: Duration,
    /// Samples proposed.
    pub proposals: usize,
    /// The iteration report's `new_samples`.
    pub new_samples: usize,
    /// The iteration report's `total_labeled`.
    pub total_labeled: usize,
    /// The iteration report's extraction counters.
    pub extraction: ExtractionStats,
    /// The iteration report's `model_fit`.
    pub model_fit: Duration,
    /// The iteration report's `model_rebuilt`.
    pub model_rebuilt: Option<bool>,
}

impl Round {
    /// System time of the round.
    pub fn time(&self) -> Duration {
        self.propose + self.complete
    }
}

/// A finished session.
#[derive(Debug, Clone)]
pub struct Run {
    /// Time inside `with_oracle` (engine fork included).
    pub create: Duration,
    /// Rounds in order.
    pub rounds: Vec<Round>,
    /// Labels sent per round.
    pub labels: Vec<Vec<bool>>,
    /// Labeled objects at the end.
    pub total_labeled: usize,
    /// The predicted query.
    pub sql: String,
    /// Time to formulate it (`predicted_selection(..).to_sql()`).
    pub formulate: Duration,
    /// F-measure of the final model over the whole view (0 when not
    /// evaluated).
    pub f: f64,
    /// Time of that evaluation scan (harness cost, never in a round).
    pub eval: Duration,
    /// Trace events the program dropped (traced sessions only).
    pub dropped: u64,
    /// `eval` trace events met inside the session (must be 0).
    pub eval_events: usize,
    /// Why the session stopped early, if it did.
    pub error: Option<String>,
}

impl Run {
    /// Time to the first proposals: construction plus the first propose.
    pub fn first_batch(&self) -> Duration {
        self.create + self.rounds.first().map_or(Duration::ZERO, |r| r.propose)
    }

    /// All system time the session took: construction plus its rounds.
    pub fn system_time(&self) -> Duration {
        self.create + self.rounds.iter().map(Round::time).sum::<Duration>()
    }
}

/// Runs one session. With `spans`, records a span around every call and
/// turns on the session's tracer, folding its events into the spans;
/// `first_round` is the id given to the session's first round.
pub fn run(plan: Plan<'_>, spans: Option<&mut Spans>, first_round: u64) -> Run {
    let Plan {
        view,
        template,
        mut config,
        target,
        seed,
        rounds,
        labels,
        evaluate,
    } = plan;
    let tracer = if spans.is_some() {
        Tracer::ring(TRACE_RING)
    } else {
        Tracer::disabled()
    };
    let tracer_epoch = Instant::now();
    config.tracer = tracer.clone();
    let t = target.clone();
    let oracle = CallbackOracle::new(move |s: &aide_index::Sample| t.contains(&s.point));

    let create_start = Instant::now();
    let mut session = ExplorationSession::with_oracle(
        config,
        template.fork_session(),
        Arc::clone(view),
        Box::new(oracle),
        None,
        Xoshiro256pp::seed_from_u64(seed),
    );
    let create_end = Instant::now();

    let mut out = Run {
        create: create_end - create_start,
        rounds: Vec::with_capacity(rounds),
        labels: Vec::with_capacity(rounds),
        total_labeled: 0,
        sql: String::new(),
        formulate: Duration::ZERO,
        f: 0.0,
        eval: Duration::ZERO,
        dropped: 0,
        eval_events: 0,
        error: None,
    };
    let mut intervals = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let p0 = Instant::now();
        let proposals = session.propose_iteration();
        let p1 = Instant::now();
        let round_labels: Vec<bool> = match labels {
            Labels::Target => proposals
                .iter()
                .map(|s| target.contains(&s.point))
                .collect(),
            Labels::Replay(all) => match all.get(r) {
                Some(l) if l.len() == proposals.len() => l.clone(),
                other => {
                    out.error = Some(format!(
                        "round {r}: {} proposals, {} replay labels",
                        proposals.len(),
                        other.map_or(0, Vec::len)
                    ));
                    session.abandon_iteration();
                    break;
                }
            },
        };
        let c0 = Instant::now();
        let report = session.complete_iteration(&round_labels);
        let c1 = Instant::now();
        out.rounds.push(Round {
            propose: p1 - p0,
            complete: c1 - c0,
            proposals: proposals.len(),
            new_samples: report.new_samples,
            total_labeled: report.total_labeled,
            extraction: report.extraction,
            model_fit: report.model_fit,
            model_rebuilt: report.model_rebuilt,
        });
        out.labels.push(round_labels);
        intervals.push((p0, p1, c0, c1));
    }
    out.total_labeled = session.labeled().len();

    let f0 = Instant::now();
    out.sql = session.predicted_selection("data").to_sql();
    let f1 = Instant::now();
    out.formulate = f1 - f0;

    let e0 = Instant::now();
    if evaluate {
        out.f = evaluate_model(session.tree(), view, target).f_measure();
    }
    let e1 = Instant::now();
    out.eval = e1 - e0;

    if let Some(spans) = spans {
        spans.record("session.create", create_start, create_end, None);
        let ids: Vec<(SpanId, SpanId, u64)> = intervals
            .iter()
            .enumerate()
            .map(|(i, &(p0, p1, c0, c1))| {
                let round = first_round + i as u64;
                let propose = spans.record("session.propose", p0, p1, Some(round));
                let complete = spans.record("session.complete", c0, c1, Some(round));
                (propose, complete, round)
            })
            .collect();
        spans.record("query.formulate", f0, f1, None);
        if evaluate {
            spans.record("eval.scan", e0, e1, None);
        }
        out.dropped = tracer.dropped();
        out.eval_events = spans.fold_events(&tracer.drain(), tracer_epoch, &ids);
    }
    out
}
