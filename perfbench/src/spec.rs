//! The three workloads and the fixed amount of work each run does.
//!
//! Every run does a fixed number of sessions and rounds, never "as many
//! as fit in the time": the server's memory grows with the shared region
//! cache, so a duration-bound run would make `peak_rss_mb` depend on how
//! fast the machine is. `--seconds` picks the amount of work through a
//! nominal session rate per workload, set so that a run measures about
//! that long on a 2-core x86-64 machine; the same `--seconds` always
//! means the same work.

use aide_core::SizeClass;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1M-row uniform 2-D view, Medium targets, 25 rounds per session.
    Steer1m,
    /// 100k-row SDSS-like 2-D view, Large targets, 100 rounds per session.
    SteerLong,
    /// `serve_listener` on loopback, two client connections.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Steer1m, Workload::SteerLong, Workload::ServeMix];

    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json` and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steer1m => "steer_1m",
            Workload::SteerLong => "steer_long",
            Workload::ServeMix => "serve_mix",
        }
    }
}

/// Sizes and settings of one run of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Rows in the generated view.
    pub rows: usize,
    /// Sessions run (steer) or created (serve) in the measured phase.
    pub sessions: usize,
    /// Label rounds per session.
    pub rounds: usize,
    /// Samples proposed per round.
    pub batch: usize,
    /// Size class of the target areas.
    pub size: SizeClass,
    /// Times set-up (load + index build) is repeated, split over the
    /// passes (see `data::reps_before`; at least one before each);
    /// `setup_s` is the median.
    pub setup_reps: usize,
    /// Identical passes over the session list; each round's time is its
    /// fastest execution (see `steer`).
    pub passes: usize,
    /// Floor on the run's mean final F-measure (an output check).
    pub f_floor: f64,
    /// `serve_mix`: client connections (load threads).
    pub connections: usize,
    /// `serve_mix`: live sessions each connection interleaves.
    pub live_per_connection: usize,
    /// `serve_mix`: distinct target areas the sessions draw from.
    pub target_areas: usize,
    /// `serve_mix`: one server session in this many is replayed
    /// in-process to check its result SQL bit for bit.
    pub replay_one_in: usize,
}

impl Spec {
    /// The full-size spec for a run of about `seconds` seconds.
    pub fn full(workload: Workload, seconds: u64) -> Spec {
        let mut spec = match workload {
            Workload::Steer1m => Spec {
                workload,
                rows: 1_000_000,
                sessions: 10,
                rounds: 25,
                batch: 20,
                size: SizeClass::Medium,
                setup_reps: 30,
                passes: 2,
                f_floor: STEER_1M_F_FLOOR,
                ..Spec::serve_defaults(workload)
            },
            Workload::SteerLong => Spec {
                workload,
                rows: 100_000,
                sessions: 3,
                rounds: 100,
                batch: 20,
                size: SizeClass::Large,
                setup_reps: 32,
                passes: 8,
                f_floor: STEER_LONG_F_FLOOR,
                ..Spec::serve_defaults(workload)
            },
            Workload::ServeMix => Spec::serve_defaults(workload),
        };
        // The nominal rate counts session executions over all passes;
        // `sessions` (set above to its minimum) is per pass.
        let rate = match workload {
            Workload::Steer1m => STEER_1M_SESSIONS_PER_S,
            Workload::SteerLong => STEER_LONG_SESSIONS_PER_S,
            Workload::ServeMix => SERVE_MIX_SESSIONS_PER_S,
        };
        let per_pass = seconds.max(1) as f64 * rate / spec.passes as f64;
        spec.sessions = spec.sessions.max(per_pass.round() as usize);
        spec
    }

    /// A small spec for the benchmark's own tests: the same code paths
    /// at a fraction of the size.
    pub fn small(workload: Workload) -> Spec {
        let full = Spec::full(workload, 1);
        match workload {
            Workload::Steer1m => Spec {
                rows: 50_000,
                sessions: 3,
                rounds: 8,
                setup_reps: 2,
                passes: 2,
                f_floor: 0.0,
                ..full
            },
            Workload::SteerLong => Spec {
                rows: 20_000,
                sessions: 2,
                rounds: 30,
                setup_reps: 2,
                passes: 2,
                f_floor: 0.0,
                ..full
            },
            Workload::ServeMix => Spec {
                rows: 20_000,
                sessions: 12,
                rounds: 5,
                live_per_connection: 2,
                setup_reps: 2,
                passes: 2,
                replay_one_in: 2,
                f_floor: 0.0,
                ..full
            },
        }
    }

    fn serve_defaults(workload: Workload) -> Spec {
        Spec {
            workload,
            rows: 100_000,
            sessions: 16,
            rounds: 15,
            batch: 20,
            size: SizeClass::Large,
            setup_reps: 32,
            passes: 8,
            f_floor: SERVE_MIX_F_FLOOR,
            connections: 2,
            live_per_connection: 8,
            target_areas: 64,
            replay_one_in: 2,
        }
    }
}

/// Nominal steer_1m sessions per second on the reference machine.
const STEER_1M_SESSIONS_PER_S: f64 = 5.0;
/// Nominal steer_long sessions per second on the reference machine.
const STEER_LONG_SESSIONS_PER_S: f64 = 10.0;
/// Nominal serve_mix sessions per second on the reference machine.
const SERVE_MIX_SESSIONS_PER_S: f64 = 135.0;

/// Mean final F floors, each well under the mean the workload reaches
/// (recorded in `README.md`), so only a broken model trips them.
const STEER_1M_F_FLOOR: f64 = 0.2;
const STEER_LONG_F_FLOOR: f64 = 0.5;
const SERVE_MIX_F_FLOOR: f64 = 0.3;
