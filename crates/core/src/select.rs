//! Q-fold cross-validated choice of the model order `λ`
//! (Section IV-C and Fig. 2 of the paper).
//!
//! The samples are split round-robin into `Q` folds. Each fold keeps a
//! fit on the other `Q − 1` groups, and all folds advance in
//! `λ`-lockstep: step `λ` resumes every fold's path from step `λ − 1`
//! and scores it on the held-out group. A LAR or OMP path is nested
//! (step `λ` extends step `λ − 1`), so a warm session walked `λ` by `λ`
//! yields the same fold models as fitting each fold's whole path up
//! front. The averaged curve `ε(λ)` is minimized to pick `λ*`; the
//! drivers in [`crate::solver`] then re-fit on all samples at `λ*`.
//!
//! This walk is the crate's one cross-validation engine: the batch
//! driver [`crate::solver::fit`] runs it over the full `λ` range, and
//! the pipelined [`crate::solver::fit_streaming`] may stop it early
//! once the curve flattens.

use crate::model::SparseModel;
use crate::path::SparsePath;
use crate::session::{FitSession, MethodSession};
use crate::solver::{fit_path, Method};
use crate::source::{AtomSource, RowSubsetSource};
use crate::{CoreError, Result};
use rsm_stats::metrics::relative_error;
use rsm_stats::{EarlyStopMonitor, EarlyStopRule, QFold};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cross-validation configuration.
#[derive(Debug, Clone)]
pub struct CvConfig {
    /// Number of folds `Q` (the paper's examples use 4).
    pub folds: usize,
    /// Largest model order to explore.
    pub lambda_max: usize,
    /// Apply the one-standard-error rule: instead of the exact
    /// minimizer, pick the *smallest* `λ` whose mean error is within
    /// one standard error of the minimum — a sparser model at
    /// statistically indistinguishable accuracy (Hastie et al., the
    /// paper's reference \[22\]).
    pub one_se_rule: bool,
}

impl CvConfig {
    /// 4-fold cross-validation up to `lambda_max`, matching Fig. 2.
    pub fn new(lambda_max: usize) -> Self {
        CvConfig {
            folds: 4,
            lambda_max,
            one_se_rule: false,
        }
    }

    /// Enables the one-standard-error selection rule.
    pub fn with_one_se_rule(mut self) -> Self {
        self.one_se_rule = true;
        self
    }
}

/// Outcome of a cross-validation run.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// `ε(λ)` for `λ = 1..=lambda_explored` (index 0 ↦ λ = 1).
    pub errors: Vec<f64>,
    /// Standard error of `ε(λ)` across folds (same indexing).
    pub errors_se: Vec<f64>,
    /// The selected `λ*` (exact minimizer, or the one-SE choice when
    /// [`CvConfig::one_se_rule`] is set).
    pub best_lambda: usize,
    /// `ε(λ*)`.
    pub best_error: f64,
}

/// One fold of the walk: a fit on its training rows plus a scorer for
/// its held-out rows. Both row sets are [`RowSubsetSource`] views of
/// the full source — nothing `K×M`-sized is copied.
struct Fold {
    train: Vec<usize>,
    f_train: Vec<f64>,
    fit: FoldFit,
    scorer: TestScorer,
}

/// How a fold produces its model at each `λ`.
enum FoldFit {
    /// A warm LAR or OMP session, advanced one step per `λ`.
    Session(Box<MethodSession>),
    /// STAR has no session: its path is fit once up to `lambda_max`
    /// and read with [`SparsePath::model_at`].
    Path(SparsePath),
}

impl Fold {
    fn new<S: AtomSource + ?Sized>(
        g: &S,
        f: &[f64],
        method: Method,
        lambda_max: usize,
        (train, test): (Vec<usize>, Vec<usize>),
    ) -> Result<Self> {
        let view = RowSubsetSource::new(g, &train);
        let f_train: Vec<f64> = train.iter().map(|&i| f[i]).collect();
        let fit = if method == Method::Star {
            FoldFit::Path(fit_path(method, &view, &f_train, lambda_max)?)
        } else {
            let mut session = MethodSession::new(method, lambda_max, g.num_atoms())?;
            session.extend_samples(&view, &f_train, 0..train.len())?;
            FoldFit::Session(Box::new(session))
        };
        let f_test = test.iter().map(|&i| f[i]).collect();
        Ok(Fold {
            train,
            f_train,
            fit,
            scorer: TestScorer::new(test, f_test),
        })
    }

    /// Advances the fold to step `lambda` and scores that model on the
    /// held-out rows. A path that finished early keeps its final model
    /// for larger `λ` (clamped by `model_at`).
    fn score_at<S: AtomSource + ?Sized>(&mut self, g: &S, lambda: usize) -> Result<f64> {
        let model = match &mut self.fit {
            FoldFit::Session(session) => {
                let view = RowSubsetSource::new(g, &self.train);
                session.run_to(&view, &self.f_train, lambda)?;
                session.path()?.model_at(lambda)
            }
            FoldFit::Path(path) => path.model_at(lambda),
        };
        Ok(self.scorer.score(g, &model))
    }
}

/// Scores models on one fold's held-out rows, gathering each support
/// column at most once across the whole `λ` walk.
struct TestScorer {
    test: Vec<usize>,
    f_test: Vec<f64>,
    cols: BTreeMap<usize, Vec<f64>>,
}

impl TestScorer {
    fn new(test: Vec<usize>, f_test: Vec<f64>) -> Self {
        TestScorer {
            test,
            f_test,
            cols: BTreeMap::new(),
        }
    }

    /// Relative error of `model` on the held-out rows.
    fn score<S: AtomSource + ?Sized>(&mut self, g: &S, model: &SparseModel) -> f64 {
        let view = RowSubsetSource::new(g, &self.test);
        for &(j, _) in model.coefficients() {
            if !self.cols.contains_key(&j) {
                let mut col = vec![0.0; self.test.len()];
                view.column_into(j, &mut col);
                self.cols.insert(j, col);
            }
        }
        let mut pred = vec![0.0; self.test.len()];
        for (r, p) in pred.iter_mut().enumerate() {
            // Same term order as `SparseModel::predict_row` (coefficient
            // order, from 0.0), so fold errors equal dense scoring.
            *p = model
                .coefficients()
                .iter()
                .map(|&(j, c)| c * self.cols[&j][r])
                .sum();
        }
        relative_error(&pred, &self.f_test)
    }
}

/// Cross-validates `method` on `g·α = f` by the `λ`-lockstep walk
/// described in the [module docs](self).
///
/// Folds are built and advanced in parallel, one task per fold via
/// [`rsm_runtime::par_map_indexed`]; each fold's error lands at the
/// fold's own index, so the curve is bit-identical at every thread
/// count. With `early_stop`, the walk ends once the mean curve
/// flattens under that rule, and the curve covers only the explored
/// prefix.
///
/// # Errors
///
/// - [`CoreError::ShapeMismatch`] if `f.len() != g.num_rows()`;
/// - [`CoreError::BadConfig`] for `cfg.lambda_max == 0`, a fold count
///   that cannot split the samples, or a method without a path (LS);
/// - any fold fit error (the first failing fold in fold order).
pub(crate) fn lockstep_cv<S: AtomSource + ?Sized + Sync>(
    g: &S,
    f: &[f64],
    method: Method,
    cfg: &CvConfig,
    early_stop: Option<EarlyStopRule>,
) -> Result<CvResult> {
    let k = g.num_rows();
    if f.len() != k {
        return Err(CoreError::ShapeMismatch {
            expected: format!("response of length {k}"),
            found: format!("length {}", f.len()),
        });
    }
    if cfg.lambda_max == 0 {
        return Err(CoreError::BadConfig("lambda_max must be at least 1".into()));
    }
    let folds = QFold::new(k, cfg.folds).ok_or_else(|| {
        CoreError::BadConfig(format!("cannot split {k} samples into {} folds", cfg.folds))
    })?;
    let splits: Vec<(Vec<usize>, Vec<usize>)> = folds.splits().collect();
    let built: Vec<Result<Fold>> = rsm_runtime::par_map_indexed(splits.len(), |q| {
        Fold::new(g, f, method, cfg.lambda_max, splits[q].clone())
    });
    let mut states: Vec<Mutex<Fold>> = Vec::with_capacity(built.len());
    for b in built {
        states.push(Mutex::new(b?));
    }

    let q = states.len() as f64;
    let mut errors = Vec::with_capacity(cfg.lambda_max);
    let mut errors_se = Vec::with_capacity(cfg.lambda_max);
    let mut monitor = early_stop.map(EarlyStopMonitor::new);
    for lambda in 1..=cfg.lambda_max {
        let fold_errs: Vec<Result<f64>> = rsm_runtime::par_map_indexed(states.len(), |i| {
            let mut fold = states[i].lock().unwrap_or_else(|p| p.into_inner());
            fold.score_at(g, lambda)
        });
        let mut vals = Vec::with_capacity(fold_errs.len());
        for e in fold_errs {
            vals.push(e?);
        }
        // Non-finite folds are dropped; an all-bad λ scores infinity.
        let finite: Vec<f64> = vals.into_iter().filter(|v| v.is_finite()).collect();
        let (mean, se) = if finite.is_empty() {
            (f64::INFINITY, f64::INFINITY)
        } else {
            let mean = finite.iter().sum::<f64>() / finite.len() as f64;
            let var =
                finite.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / finite.len() as f64;
            (mean, (var / q).sqrt())
        };
        errors.push(mean);
        errors_se.push(se);
        if let Some(mon) = &mut monitor {
            if mon.observe(mean) {
                break;
            }
        }
    }

    let (best_idx, &best_error) = errors
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .ok_or_else(|| CoreError::BadConfig("empty CV error curve".into()))?;
    let best_lambda = if cfg.one_se_rule {
        let threshold = best_error + errors_se[best_idx];
        errors
            .iter()
            .position(|&e| e <= threshold)
            .map(|i| i + 1)
            .unwrap_or(best_idx + 1)
    } else {
        best_idx + 1
    };
    Ok(CvResult {
        best_error: errors[best_lambda - 1],
        errors,
        errors_se,
        best_lambda,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{fit, ModelOrder};
    use rsm_linalg::Matrix;
    use rsm_stats::NormalSampler;

    /// P-sparse problem with noise, where over-fitting is possible.
    fn noisy_problem(k: usize, m: usize, p: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let mut f = vec![0.0; k];
        for i in 0..p {
            let j = (i * 13 + 5) % m;
            let v = 3.0 / (1.0 + i as f64);
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        for fr in &mut f {
            *fr += 0.3 * s.sample();
        }
        (g, f)
    }

    /// OMP cross-validated through the batch driver.
    fn omp_cv(g: &Matrix, f: &[f64], cfg: CvConfig) -> CvResult {
        let order = ModelOrder::CrossValidated(cfg);
        fit(g, f, Method::Omp, &order).unwrap().cv.unwrap()
    }

    #[test]
    fn picks_lambda_near_true_sparsity() {
        let p = 5;
        let (g, f) = noisy_problem(120, 300, p, 42);
        let cv = omp_cv(&g, &f, CvConfig::new(30));
        assert!(
            cv.best_lambda >= p && cv.best_lambda <= p + 6,
            "best λ = {} for true sparsity {p}",
            cv.best_lambda
        );
    }

    #[test]
    fn error_curve_rises_after_optimum() {
        // Over-fitting: the CV error at λ_max must exceed the minimum.
        let (g, f) = noisy_problem(60, 200, 4, 7);
        let cv = omp_cv(&g, &f, CvConfig::new(40));
        let last = *cv.errors.last().unwrap();
        assert!(
            last > cv.best_error * 1.05,
            "no overfitting detected: min {} vs last {last}",
            cv.best_error
        );
    }

    #[test]
    fn four_folds_by_default() {
        let cfg = CvConfig::new(10);
        assert_eq!(cfg.folds, 4);
        assert!(!cfg.one_se_rule);
    }

    #[test]
    fn one_se_rule_never_picks_larger_lambda() {
        let (g, f) = noisy_problem(100, 250, 5, 13);
        let plain = omp_cv(&g, &f, CvConfig::new(30));
        let one_se = omp_cv(&g, &f, CvConfig::new(30).with_one_se_rule());
        assert!(one_se.best_lambda <= plain.best_lambda);
        // The one-SE error stays within a standard error of the minimum.
        let min_idx = plain.best_lambda - 1;
        assert!(one_se.best_error <= plain.errors[min_idx] + plain.errors_se[min_idx] + 1e-12);
    }

    #[test]
    fn standard_errors_are_finite_and_nonnegative() {
        let (g, f) = noisy_problem(80, 100, 3, 17);
        let cv = omp_cv(&g, &f, CvConfig::new(15));
        assert_eq!(cv.errors_se.len(), 15);
        assert!(cv.errors_se.iter().all(|&s| s >= 0.0 && s.is_finite()));
    }
}
