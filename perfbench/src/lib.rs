//! The AIDE label-round benchmark.
//!
//! One workload per process: `steer_1m` and `steer_long` drive
//! [`aide_core::ExplorationSession`]s in-process as a closed loop of one
//! simulated analyst at a time; `serve_mix` drives an
//! [`aide_core::serve_listener`] over loopback TCP from two client
//! connections. Every call into the library is a public one, and the
//! benchmark reads only the counters the library already returns.
//!
//! A *round* is the system time of one label round: `propose_iteration`
//! plus `complete_iteration` in-process, or one `label` request's round
//! trip over the wire. The simulated analyst's labeling and every
//! ground-truth evaluation scan happen outside all round timing.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which layer metric is expected to move which end-to-end metric.

pub mod data;
pub mod metrics;
mod serve;
mod session;
mod spans;
pub mod spec;
mod stats;
mod steer;

pub use metrics::{Checks, Outcome};
pub use spec::{Spec, Workload};

/// Runs one workload over the packed dataset at `data_path` (written
/// beforehand by [`data::write_dataset`] with the same spec and seed).
///
/// `trace` selects the traced run, which reports the per-layer metrics;
/// otherwise the end-to-end metrics are reported. `inject_fault` sends
/// one deliberately corrupted request (a wrong label count) so the
/// output checks can be seen to fire.
pub fn run(
    spec: &Spec,
    seed: u64,
    data_path: &std::path::Path,
    trace: bool,
    inject_fault: bool,
) -> Result<Outcome, String> {
    match spec.workload {
        Workload::Steer1m | Workload::SteerLong => {
            steer::run(spec, seed, data_path, trace, inject_fault)
        }
        Workload::ServeMix => serve::run(spec, seed, data_path, trace, inject_fault),
    }
}
