//! `steer_1m` and `steer_long`: one simulated analyst at a time, closed
//! loop, in-process. Also the session-layer aggregation `serve_mix`
//! reuses for its in-process replays.
//!
//! A run executes its list of sessions in `spec.passes` identical passes
//! (sessions are deterministic in their seed, and each forks a private
//! cache, so every pass does exactly the same work). Each round's time is
//! its fastest execution over the passes: interference from the rest of
//! the machine only ever adds time, and a round is slow in every pass
//! only if the program is. The traced run adds one traced pass.

use std::path::Path;
use std::sync::Arc;

use aide_core::SessionConfig;
use aide_data::NumericView;
use aide_index::{ExtractionEngine, IndexKind};

use crate::data;
use crate::metrics::{Checks, Outcome};
use crate::session::{self, Labels, Plan, Run};
use crate::spans::Spans;
use crate::spec::Spec;
use crate::stats::{mean, median, ms, quantile, ratio, us};

/// Runs a steer workload.
pub fn run(
    spec: &Spec,
    seed: u64,
    data_path: &Path,
    trace: bool,
    inject_fault: bool,
) -> Result<Outcome, String> {
    let mut setup = data::SetupTimes::default();
    let build = |view: NumericView| ExtractionEngine::from_arc(Arc::new(view), IndexKind::Grid);
    let first = data::reps_before(0, spec.passes, spec.setup_reps);
    let engine = setup.run(data_path, first, build)?;
    let template = &engine;
    let view = template.view_arc();
    let targets = data::targets(view.dims(), spec.size, spec.sessions, seed);
    let seeds = data::session_seeds(spec.sessions, seed);

    let mut spans = Spans::new();
    let mut passes: Vec<Vec<Run>> = Vec::with_capacity(spec.passes);
    let mut traced_pass = Vec::new();
    let no_labels: Vec<Vec<bool>> = Vec::new();
    let mut peak_rss = 0.0;
    let total = spec.passes.max(1) + usize::from(trace);
    for pass in 0..total {
        if pass > 0 && pass < spec.passes {
            // This pass's share of the set-up repetitions; each product
            // is dropped, the sessions keep forking the first template.
            let reps = data::reps_before(pass, spec.passes, spec.setup_reps);
            drop(setup.run(data_path, reps, build)?);
        }
        let is_traced = trace && pass + 1 == total;
        let mut runs = Vec::with_capacity(spec.sessions);
        for (i, (target, &session_seed)) in targets.iter().zip(&seeds).enumerate() {
            let labels = if inject_fault && i == 0 {
                // A corrupted analyst: no labels at all for the first batch.
                Labels::Replay(&no_labels)
            } else {
                Labels::Target
            };
            let plan = Plan {
                view: &view,
                template,
                config: SessionConfig {
                    samples_per_iteration: spec.batch,
                    ..SessionConfig::default()
                },
                target,
                seed: session_seed,
                rounds: spec.rounds,
                labels,
                evaluate: pass == 0,
            };
            let first_round = (i * spec.rounds) as u64;
            runs.push(session::run(
                plan,
                is_traced.then_some(&mut spans),
                first_round,
            ));
        }
        if pass == 0 {
            // Later passes repeat the work only to time it.
            peak_rss = peak_rss_mb();
        }
        if is_traced {
            traced_pass = runs;
        } else {
            passes.push(runs);
        }
    }

    let mut out = Outcome::default();
    check_sessions(&passes[0], false, &mut out.checks);
    check_sessions(&traced_pass, true, &mut out.checks);
    for pass in passes
        .iter()
        .skip(1)
        .chain(std::iter::once(&traced_pass).filter(|p| !p.is_empty()))
    {
        check_repeat(&passes[0], pass, &mut out.checks);
    }
    let best = fastest(&passes);
    session_metrics(&best, &passes, &traced_pass, &spans, &mut out);
    out.checks.check(out.values["final_f"] >= spec.f_floor, || {
        format!(
            "mean final F {} below the floor {}",
            out.values["final_f"], spec.f_floor
        )
    });

    let round_ms: Vec<f64> = best
        .iter()
        .flat_map(|r| r.rounds.iter().map(|x| ms(x.time())))
        .collect();
    let first_ms: Vec<f64> = best.iter().map(|r| ms(r.first_batch())).collect();
    let system_s: f64 = best.iter().map(|r| r.system_time().as_secs_f64()).sum();
    out.set("round_p50_ms", median(&round_ms));
    out.set("round_p95_ms", quantile(&round_ms, 0.95));
    out.set("first_batch_p50_ms", median(&first_ms));
    out.set("rounds_per_s", ratio(round_ms.len() as f64, system_s));
    setup_metrics(&setup, peak_rss, &mut out);
    if trace {
        out.notes.extend(ledger_notes(&out));
        write_spans(&spans, spec, seed, &mut out);
    }
    Ok(out)
}

/// Each session of the first pass with every timing replaced by its
/// fastest execution over all passes: construction, formulation, and per
/// round the whole round (propose, complete and the report's engine and
/// fit times) of the pass where that round was quickest. Counts come from
/// the first pass; `check_repeat` holds the passes to equal counts.
pub fn fastest(passes: &[Vec<Run>]) -> Vec<Run> {
    let mut best = passes[0].clone();
    for pass in &passes[1..] {
        for (b, run) in best.iter_mut().zip(pass) {
            b.create = b.create.min(run.create);
            b.formulate = b.formulate.min(run.formulate);
            for (br, r) in b.rounds.iter_mut().zip(&run.rounds) {
                if r.time() < br.time() {
                    br.propose = r.propose;
                    br.complete = r.complete;
                    br.extraction.elapsed = r.extraction.elapsed;
                    br.model_fit = r.model_fit;
                }
            }
        }
    }
    best
}

/// A repeated pass must reproduce the first one: same rounds, labels,
/// counters and predicted query for every session.
pub fn check_repeat(first: &[Run], again: &[Run], checks: &mut Checks) {
    for (i, (a, b)) in first.iter().zip(again).enumerate() {
        let same_rounds = a.rounds.len() == b.rounds.len()
            && a.rounds.iter().zip(&b.rounds).all(|(x, y)| {
                let (mut ex, mut ey) = (x.extraction, y.extraction);
                ex.elapsed = Default::default();
                ey.elapsed = Default::default();
                x.proposals == y.proposals && x.new_samples == y.new_samples && ex == ey
            });
        checks.check(
            same_rounds && a.labels == b.labels && a.sql == b.sql,
            || format!("session {i}: a repeated pass diverged from the first"),
        );
    }
}

/// Per-session output checks: no session stopped early, every round
/// proposed something, the label counts add up, and a traced session
/// dropped no trace event and ran no evaluation scan.
pub fn check_sessions(runs: &[Run], traced: bool, checks: &mut Checks) {
    for (i, run) in runs.iter().enumerate() {
        checks.check(run.error.is_none(), || {
            format!("session {i}: {}", run.error.as_deref().unwrap_or(""))
        });
        let mut labeled = 0;
        for (r, round) in run.rounds.iter().enumerate() {
            let ok = round.proposals > 0
                && round.new_samples <= round.proposals
                && round.total_labeled == labeled + round.new_samples;
            checks.check(ok, || {
                format!(
                    "session {i} round {r}: {} proposals, {} new, {} labeled after {labeled}",
                    round.proposals, round.new_samples, round.total_labeled
                )
            });
            labeled = round.total_labeled;
        }
        checks.check(labeled == run.total_labeled, || {
            format!(
                "session {i}: rounds reached {labeled} labels, session holds {}",
                run.total_labeled
            )
        });
        if traced {
            checks.check(run.dropped == 0 && run.eval_events == 0, || {
                format!(
                    "session {i}: {} trace events dropped, {} eval events in rounds",
                    run.dropped, run.eval_events
                )
            });
        }
    }
}

/// Session-, index-, model- and ledger-layer metrics, plus `final_f` and
/// `eval.scan_ms`. `best` holds the fastest timings (see [`fastest`]),
/// `untraced` the untraced passes (the first is the evaluated one),
/// `traced` the traced pass (empty when untraced) whose events are in
/// `spans`.
pub fn session_metrics(
    best: &[Run],
    untraced: &[Vec<Run>],
    traced: &[Run],
    spans: &Spans,
    out: &mut Outcome,
) {
    let first = &untraced[0];
    let per_round = |runs: &[Run], f: &dyn Fn(&session::Round) -> f64| -> Vec<f64> {
        runs.iter().flat_map(|r| r.rounds.iter().map(f)).collect()
    };
    let n_rounds = best.iter().map(|r| r.rounds.len()).sum::<usize>() as f64;
    let propose = per_round(best, &|x| ms(x.propose));
    let complete = per_round(best, &|x| ms(x.complete));
    let creates: Vec<f64> = best.iter().map(|r| ms(r.create)).collect();
    out.set("session.create_ms", median(&creates));
    out.set("session.propose_ms_p50", median(&propose));
    out.set("session.propose_ms_p95", quantile(&propose, 0.95));
    out.set("session.complete_ms_p50", median(&complete));
    let engine_ms: f64 = per_round(best, &|x| ms(x.extraction.elapsed)).iter().sum();
    let fit_ms: f64 = per_round(best, &|x| ms(x.model_fit)).iter().sum();
    out.set("index.engine_ms_per_round", ratio(engine_ms, n_rounds));
    out.set("ml.fit_ms_per_round", ratio(fit_ms, n_rounds));
    let formulate: Vec<f64> = best.iter().map(|r| us(r.formulate)).collect();
    out.set("query.formulate_us", median(&formulate));

    let (mut queries, mut examined, mut returned, mut hits, mut misses) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut labels, mut fits, mut rebuilds) = (0usize, 0usize, 0usize);
    for r in first.iter().flat_map(|r| &r.rounds) {
        queries += r.extraction.queries;
        examined += r.extraction.tuples_examined;
        returned += r.extraction.tuples_returned;
        hits += r.extraction.cache_hits;
        misses += r.extraction.cache_misses;
        labels += r.new_samples;
        if let Some(rebuilt) = r.model_rebuilt {
            fits += 1;
            rebuilds += usize::from(rebuilt);
        }
    }
    out.set("index.queries_per_round", ratio(queries as f64, n_rounds));
    out.set(
        "index.tuples_examined_per_label",
        ratio(examined as f64, labels as f64),
    );
    out.set(
        "index.tuples_returned_per_label",
        ratio(returned as f64, labels as f64),
    );
    out.set(
        "index.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.set("ml.cart_rebuild_frac", ratio(rebuilds as f64, fits as f64));
    let labeled: Vec<f64> = first.iter().map(|r| r.total_labeled as f64).collect();
    out.set("ml.labels_per_session", mean(&labeled));
    let fs: Vec<f64> = first.iter().map(|r| r.f).collect();
    out.set("final_f", mean(&fs));
    let evals: Vec<f64> = first.iter().map(|r| ms(r.eval)).collect();
    out.set("eval.scan_ms", median(&evals));
    out.set("run.sessions", first.len() as f64);
    out.set("run.rounds", n_rounds);

    // The ledger, from the traced pass's spans.
    if traced.is_empty() {
        return;
    }
    let traced_rounds = spans.count("session.propose") as f64;
    let total = spans.total_us();
    let own = spans.self_time_us();
    let get =
        |m: &std::collections::BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let per_round_ms = |v: f64| ratio(v, traced_rounds) / 1e3;
    out.set(
        "index.waves_per_round",
        ratio(spans.count("engine.wave") as f64, traced_rounds),
    );
    for (metric, span) in [
        ("phase.discovery_ms_per_round", "phase.discovery"),
        ("phase.misclassified_ms_per_round", "phase.misclassified"),
        ("phase.boundary_ms_per_round", "phase.boundary"),
    ] {
        out.set(metric, per_round_ms(get(&total, span)));
    }
    let selection: f64 = own
        .iter()
        .filter(|(k, _)| k.starts_with("phase."))
        .map(|(_, v)| v)
        .sum();
    out.set("select.ms_per_round", per_round_ms(selection));
    out.set(
        "ml.kmeans_ms_per_round",
        per_round_ms(get(&total, "ml.kmeans")),
    );
    out.set("ml.cart_ms_per_round", per_round_ms(get(&total, "ml.cart")));
    out.set(
        "ledger.wave_ms_per_round",
        per_round_ms(get(&total, "engine.wave")),
    );
    let residual = get(&own, "session.propose") + get(&own, "session.complete");
    let round_us = get(&total, "session.propose") + get(&total, "session.complete");
    out.set("ledger.residual_ms_per_round", per_round_ms(residual));
    out.set("ledger.residual_frac", ratio(residual, round_us));
    out.set("ledger.round_ms", per_round_ms(round_us));
    out.set("ledger.rounds", traced_rounds);
    out.set(
        "ledger.propose_self_ms",
        per_round_ms(get(&own, "session.propose")),
    );
    out.set(
        "ledger.complete_self_ms",
        per_round_ms(get(&own, "session.complete")),
    );
    let dropped: u64 = traced.iter().map(|r| r.dropped).sum();
    out.set("trace.dropped", dropped as f64);
    // Against the untraced pass just before it, the nearest in time.
    let traced_p50 = median(&per_round(traced, &|x| ms(x.time())));
    let plain_p50 = median(&per_round(&untraced[untraced.len() - 1], &|x| ms(x.time())));
    out.set("trace.overhead_frac", ratio(traced_p50, plain_p50) - 1.0);
}

/// `setup_s` and its parts (per set-up repetition), `peak_rss_mb` (read
/// after set-up and the first pass) and the check tallies.
pub fn setup_metrics(setup: &data::SetupTimes, peak_rss_mb: f64, out: &mut Outcome) {
    let setup_s: Vec<f64> = setup
        .load_ms
        .iter()
        .zip(&setup.build_ms)
        .map(|(l, b)| (l + b) / 1e3)
        .collect();
    out.set("setup_s", median(&setup_s));
    out.set("data.load_ms", median(&setup.load_ms));
    out.set("index.build_ms", median(&setup.build_ms));
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("ok_frac", 1.0 - out.checks.failed_frac());
    out.set("failed_frac", out.checks.failed_frac());
}

/// The per-round ledger of the traced pass, as text lines.
pub fn ledger_notes(out: &Outcome) -> Vec<String> {
    let v = |k: &str| out.values.get(k).copied().unwrap_or(0.0);
    let round = v("ledger.round_ms");
    let row = |label: &str, value: f64| {
        format!(
            "  {label:<34} {value:>9.4} ms  {:>5.1}%",
            100.0 * ratio(value, round)
        )
    };
    vec![
        format!("ledger (traced pass, mean per round over {} rounds):", v("ledger.rounds")),
        row("engine waves      [index::engine]", v("ledger.wave_ms_per_round")),
        row("selection         [phases, self]", v("select.ms_per_round")),
        row("k-means fit       [ml]", v("ml.kmeans_ms_per_round")),
        row("CART fit          [ml]", v("ml.cart_ms_per_round")),
        row("propose, outside phases", v("ledger.propose_self_ms")),
        row("complete, outside fit", v("ledger.complete_self_ms")),
        row("= measured round", round),
        format!(
            "  residual (time no layer span covers) {:.4} ms/round = {:.2}% of the round",
            v("ledger.residual_ms_per_round"),
            100.0 * v("ledger.residual_frac")
        ),
        format!(
            "  tracing overhead on round p50: {:+.2}%; trace events dropped: {}; harness eval scan {:.3} ms/session (outside rounds)",
            100.0 * v("trace.overhead_frac"),
            v("trace.dropped"),
            v("eval.scan_ms")
        ),
    ]
}

/// Writes the traced run's spans next to the other run outputs.
pub fn write_spans(spans: &Spans, spec: &Spec, seed: u64, out: &mut Outcome) {
    let path =
        Path::new("target/perfbench").join(format!("spans-{}-{seed}.jsonl", spec.workload.name()));
    match spans.write_jsonl(&path) {
        Ok(()) => out
            .notes
            .push(format!("spans written to {}", path.display())),
        Err(e) => out
            .notes
            .push(format!("spans not written ({}): {e}", path.display())),
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
