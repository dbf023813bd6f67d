//! The benchmark's own checks, on small versions of the workloads: the
//! count metrics repeat exactly at a seed and move with it, a corrupted
//! request shows up in the failure count, the traced run's ledger is
//! complete, and `BENCHMARK.json` names exactly the metrics printed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use aide_perfbench::metrics::{END_TO_END, PER_LAYER};
use aide_perfbench::{data, Outcome, Spec, Workload};
use aide_util::json::Json;

/// Metrics that are counts over a deterministic session: equal at equal
/// seeds. `ml.labels_per_session` is fixed by the label budget, so only
/// the others must also move with the seed.
const COUNTS: &[&str] = &[
    "final_f",
    "ml.labels_per_session",
    "ml.cart_rebuild_frac",
    "index.tuples_examined_per_label",
    "index.tuples_returned_per_label",
    "index.queries_per_round",
];

fn run(workload: Workload, seed: u64, trace: bool, fault: bool) -> Outcome {
    let spec = Spec::small(workload);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selfcheck-{}-{seed}-{trace}-{fault}.aideview",
        workload.name()
    ));
    data::write_dataset(&spec, seed, &path).expect("dataset written");
    let out = aide_perfbench::run(&spec, seed, &path, trace, fault).expect("the run completes");
    std::fs::remove_file(&path).expect("dataset removed");
    out
}

fn counts(out: &Outcome) -> Vec<f64> {
    COUNTS.iter().map(|name| out.values[name]).collect()
}

#[test]
fn count_metrics_repeat_at_a_seed_and_move_with_it() {
    for workload in [Workload::SteerLong, Workload::ServeMix] {
        let a = run(workload, 7, true, false);
        let b = run(workload, 7, true, false);
        let c = run(workload, 8, true, false);
        assert_eq!(
            counts(&a),
            counts(&b),
            "{}: counts at one seed",
            workload.name()
        );
        for (i, name) in COUNTS
            .iter()
            .enumerate()
            .filter(|(_, n)| **n != "ml.labels_per_session")
        {
            assert_ne!(
                counts(&a)[i],
                counts(&c)[i],
                "{}: {name} ignores the seed",
                workload.name()
            );
        }
    }
}

#[test]
fn correct_runs_fail_no_check() {
    for workload in Workload::ALL {
        let out = run(workload, 3, false, false);
        assert_eq!(
            out.checks.failed,
            0,
            "{}: {:?}",
            workload.name(),
            out.checks.failures
        );
        assert!(out.checks.attempted > 0);
        assert_eq!(out.values["ok_frac"], 1.0);
        assert!(out.result_line(false).starts_with("{\"correct\":true"));
    }
}

#[test]
fn a_corrupted_request_shows_in_failed_frac() {
    for workload in [Workload::Steer1m, Workload::ServeMix] {
        let out = run(workload, 3, false, true);
        assert!(
            out.checks.failed >= 1,
            "{}: the fault went unseen",
            workload.name()
        );
        assert!(out.values["ok_frac"] < 1.0);
        assert!(out.values["failed_frac"] > 0.0);
        assert!(out.result_line(false).starts_with("{\"correct\":false"));
    }
}

#[test]
fn the_traced_run_reports_a_complete_ledger() {
    for workload in Workload::ALL {
        let out = run(workload, 5, true, false);
        assert_eq!(
            out.checks.failed,
            0,
            "{}: {:?}",
            workload.name(),
            out.checks.failures
        );
        let v = |k: &str| out.values.get(k).copied().unwrap_or(f64::NAN);
        assert_eq!(v("trace.dropped"), 0.0);
        assert!(
            v("index.waves_per_round") > 0.0,
            "{}: no waves folded in",
            workload.name()
        );
        assert!(v("phase.discovery_ms_per_round") > 0.0);
        let parts = v("ledger.wave_ms_per_round")
            + v("select.ms_per_round")
            + v("ml.kmeans_ms_per_round")
            + v("ml.cart_ms_per_round")
            + v("ledger.residual_ms_per_round");
        let round = v("ledger.round_ms");
        assert!(
            (parts - round).abs() <= 1e-6 * round.max(1.0),
            "{parts} vs {round}"
        );
        assert!(out.notes.iter().any(|l| l.contains("residual")));
        if workload == Workload::ServeMix {
            assert!(v("serve.label_us_p50") > 0.0 && v("serve.cache_entries") > 0.0);
        }
    }
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(END_TO_END));
    assert_eq!(names("per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        })
        .collect();
    let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, known);
}
