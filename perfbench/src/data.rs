//! Workload inputs: the packed `aide-view/1` dataset, the targets and
//! the session seeds, all pure functions of the workload seed.

use std::path::Path;
use std::time::Instant;

use aide_core::{SizeClass, TargetQuery};
use aide_data::view::{Domain, SpaceMapper};
use aide_data::{load_view, sdss_like, write_view, NumericView};
use aide_util::geom::Rect;
use aide_util::rng::{Rng, SplitMix64, Xoshiro256pp};

use crate::spec::{Spec, Workload};

const DATA_SALT: u64 = 0xDA7A_5EED_0000_0001;
const TARGET_SALT: u64 = 0x7A26_E7A2_0000_0002;
const SESSION_SALT: u64 = 0x5E55_1014_0000_0003;

/// Generates the workload's view: a uniform 2-D view for `steer_1m`, the
/// SDSS-like table's dense `(rowc, colc)` view otherwise.
pub fn generate_view(spec: &Spec, seed: u64) -> NumericView {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ DATA_SALT);
    match spec.workload {
        Workload::Steer1m => {
            let mapper = SpaceMapper::new(
                vec!["a0".into(), "a1".into()],
                vec![Domain::new(0.0, 100.0); 2],
            );
            let lanes = (0..2)
                .map(|_| (0..spec.rows).map(|_| rng.uniform(0.0, 100.0)).collect())
                .collect();
            NumericView::from_lanes(mapper, lanes, (0..spec.rows as u32).collect())
        }
        Workload::SteerLong | Workload::ServeMix => sdss_like(spec.rows)
            .generate(&mut rng)
            .numeric_view(&["rowc", "colc"])
            .expect("the SDSS-like table has rowc and colc"),
    }
}

/// Generates the workload's view and packs it into `path`.
pub fn write_dataset(spec: &Spec, seed: u64, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    write_view(&generate_view(spec, seed), path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The time each set-up repetition of a run took.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// `load_view` time per repetition, ms.
    pub load_ms: Vec<f64>,
    /// Index (or host) build time per repetition, ms.
    pub build_ms: Vec<f64>,
}

impl SetupTimes {
    /// Loads `path` and builds on it `reps` times (at least once),
    /// dropping each product before the next repetition so only one is
    /// ever alive, and returns the last product.
    ///
    /// Runs call this before each pass with their share of the
    /// repetitions (see [`reps_before`]), so `setup_s`, the median, is
    /// sampled across the whole run rather than in its first second.
    pub fn run<T>(
        &mut self,
        path: &Path,
        reps: usize,
        mut build: impl FnMut(NumericView) -> T,
    ) -> Result<T, String> {
        let mut value = None;
        for _ in 0..reps.max(1) {
            drop(value.take());
            let start = Instant::now();
            let view = load_view(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let loaded = Instant::now();
            value = Some(build(view));
            self.load_ms.push((loaded - start).as_secs_f64() * 1e3);
            self.build_ms.push(loaded.elapsed().as_secs_f64() * 1e3);
        }
        Ok(value.expect("at least one repetition"))
    }
}

/// The set-up repetitions done before pass `pass` of `passes`: half of
/// `total` (rounded up) before the first pass, the rest split over the
/// others as evenly as whole numbers allow.
///
/// The first half runs back to back before any session, so the
/// allocator's heap has the same shape whenever the first pass starts,
/// which keeps `peak_rss_mb` (read after it) steady. The rest sample
/// set-up time across the run.
pub fn reps_before(pass: usize, passes: usize, total: usize) -> usize {
    let first = total.div_ceil(2);
    match (pass, passes.max(1) - 1) {
        (_, 0) => total,
        (0, _) => first,
        (p, others) => (total - first) * p / others - (total - first) * (p - 1) / others,
    }
}

/// `count` single-area targets of `size`, placed by Latin-hypercube
/// sampling: along every dimension the centres fall one in each of
/// `count` equal strata, in random order, and so do the widths within the
/// size class. Whether a session finds its target within the label budget
/// depends in part on where the target lies and how wide it is, so an even
/// spread keeps the mix of easy and hard targets, and with it the run's
/// mean F-measure, from swinging with the seed. Areas are clipped to the
/// domain as `TargetQuery::generate` clips them; the workloads' views are
/// uniform in both dimensions, so every area holds rows.
pub fn targets(dims: usize, size: SizeClass, count: usize, seed: u64) -> Vec<TargetQuery> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ TARGET_SALT);
    let centres: Vec<Vec<f64>> = (0..dims).map(|_| strata(count, &mut rng)).collect();
    let widths = strata(count, &mut rng);
    let (w_lo, w_hi) = size.width_range();
    (0..count)
        .map(|i| {
            let w = w_lo + (w_hi - w_lo) * widths[i];
            let (lo, hi) = centres
                .iter()
                .map(|c| {
                    let x = 100.0 * c[i];
                    ((x - w / 2.0).max(0.0), (x + w / 2.0).min(100.0))
                })
                .unzip();
            TargetQuery::new(vec![Rect::new(lo, hi)])
        })
        .collect()
}

/// One uniform draw in each of `n` equal strata of `[0, 1)`, shuffled.
fn strata(n: usize, rng: &mut Xoshiro256pp) -> Vec<f64> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .map(|k| (k as f64 + rng.next_f64()) / n as f64)
        .collect()
}

/// `count` session seeds. They stay below 2^53 so they survive the trip
/// through a JSON number unchanged.
pub fn session_seeds(count: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ SESSION_SALT);
    (0..count).map(|_| rng.next_u64() >> 11).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_reps_split_over_passes() {
        for (passes, total) in [(1, 5), (2, 15), (2, 30), (8, 32), (8, 31), (3, 5)] {
            let split: Vec<usize> = (0..passes).map(|p| reps_before(p, passes, total)).collect();
            assert_eq!(split.iter().sum::<usize>(), total, "{split:?}");
            assert!(split.iter().all(|&r| r >= 1), "{split:?}");
        }
    }
}
