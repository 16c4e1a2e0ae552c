//! Unified solver front-end: pick a [`Method`] and a [`ModelOrder`]
//! policy, get a fitted [`SparseModel`] plus diagnostics.
//!
//! There is one fit driver for the path methods (LAR, LAR(lasso),
//! OMP): [`fit_streaming`], in which runtime workers sweep sample
//! batches into [`SampleDelta`]s while the fitter applies them in row
//! order, and cross-validation may stop early once the error curve
//! flattens ([`StreamConfig::early_stop`]). [`fit`] is that driver with
//! one batch of all `K` rows, so the two agree bit for bit whenever the
//! batch covers every row. LS and STAR have no session and keep their
//! own arms in [`fit`].
//!
//! Cross-validation runs through one engine: the `λ`-lockstep walk
//! over warm per-fold fits in [`crate::select`].

use crate::lar::LarConfig;
use crate::ls::LsConfig;
use crate::model::SparseModel;
use crate::omp::OmpConfig;
use crate::select::{lockstep_cv, CvConfig, CvResult};
use crate::session::{FitSession, MethodSession, SampleDelta};
use crate::source::AtomSource;
use crate::star::StarConfig;
use crate::{CoreError, Result};
use rsm_stats::EarlyStopRule;
use std::ops::Range;
use std::time::Instant;

/// The four modeling techniques compared throughout the paper's
/// evaluation (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Least-squares fitting \[21\] — needs `K ≥ M`.
    Ls,
    /// Statistical regression, DAC 2008 \[1\].
    Star,
    /// Least angle regression, DAC 2009 \[2\] (this paper).
    Lar,
    /// Least angle regression with the lasso modification.
    LarLasso,
    /// Orthogonal matching pursuit (the journal version's proposal).
    Omp,
}

impl Method {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::Ls => "LS",
            Method::Star => "STAR",
            Method::Lar => "LAR",
            Method::LarLasso => "LAR(lasso)",
            Method::Omp => "OMP",
        }
    }

    /// All methods, in the paper's column order.
    pub fn all() -> [Method; 4] {
        [Method::Ls, Method::Star, Method::Lar, Method::Omp]
    }
}

/// How the model order `λ` is chosen.
#[derive(Debug, Clone)]
pub enum ModelOrder {
    /// Use a fixed `λ` (ignored by LS, which fits all coefficients).
    Fixed(usize),
    /// Choose `λ` by Q-fold cross-validation (Section IV-C).
    CrossValidated(CvConfig),
}

/// A fitted model with selection diagnostics.
#[derive(Debug, Clone)]
pub struct FitReport {
    /// The fitted sparse model.
    pub model: SparseModel,
    /// The method used.
    pub method: Method,
    /// The `λ` actually used (number of selected bases; `M` for LS).
    pub lambda: usize,
    /// The cross-validation curve, when [`ModelOrder::CrossValidated`]
    /// was requested.
    pub cv: Option<CvResult>,
    /// Wall-clock fitting time in seconds (the paper's "fitting cost").
    pub fit_seconds: f64,
}

/// Fits `G·α = F` with the chosen method and model-order policy.
///
/// `g` is any [`AtomSource`] — a dense [`rsm_linalg::Matrix`], a
/// streaming [`crate::source::DictionarySource`], or an adapter stack.
/// With a streaming source, nothing `K×M`-sized is materialized by any
/// sparse method (LS is the exception: it refuses underdetermined
/// problems first, so its dense fallback is bounded by `K²`).
/// Cross-validation walks the full `λ` range on
/// [`crate::source::RowSubsetSource`] fold views, folds in parallel
/// (see [`crate::select`]).
///
/// LAR, LAR(lasso) and OMP run [`fit_streaming`] with a single batch of
/// all `K` rows; its one delta sweeps `g` itself, so the source's own
/// parallel kernels do the work.
///
/// # Errors
///
/// - [`CoreError::ShapeMismatch`] / [`CoreError::BadConfig`] for a
///   misshapen or non-finite response, a zero `λ`, or a fold count that
///   cannot split the samples;
/// - the underlying solver errors; see [`OmpConfig::fit`],
///   [`LarConfig::fit`], [`StarConfig::fit`], [`LsConfig::fit`].
pub fn fit<S: AtomSource + ?Sized + Sync>(
    g: &S,
    f: &[f64],
    method: Method,
    order: &ModelOrder,
) -> Result<FitReport> {
    let t0 = Instant::now();
    let (model, lambda, cv) = match method {
        Method::Ls => {
            let model = LsConfig.fit(g, f)?;
            let lambda = model.num_bases();
            (model, lambda, None)
        }
        Method::Star => {
            let (lambda, cv) = match order {
                ModelOrder::Fixed(l) => (*l, None),
                ModelOrder::CrossValidated(cfg) => {
                    let cv = lockstep_cv(g, f, method, cfg, None)?;
                    (cv.best_lambda, Some(cv))
                }
            };
            let model = StarConfig::new(lambda).fit(g, f)?.model_at(lambda);
            (model, lambda, cv)
        }
        Method::Lar | Method::LarLasso | Method::Omp => {
            let one_batch = StreamConfig::new(g.num_rows().max(1));
            return Ok(fit_streaming(g, f, method, order, &one_batch)?.report);
        }
    };
    Ok(FitReport {
        model,
        method,
        lambda,
        cv,
        fit_seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Runs the path-producing form of a sparse method on any
/// [`AtomSource`].
///
/// # Errors
///
/// As the underlying solver; [`CoreError::BadConfig`] for [`Method::Ls`]
/// (which has no path).
pub fn fit_path<S: AtomSource + ?Sized>(
    method: Method,
    g: &S,
    f: &[f64],
    lambda_max: usize,
) -> Result<crate::path::SparsePath> {
    match method {
        Method::Ls => Err(CoreError::BadConfig(
            "LS does not produce a selection path".into(),
        )),
        Method::Star => StarConfig::new(lambda_max).fit(g, f),
        Method::Lar => LarConfig::new(lambda_max).fit(g, f),
        Method::LarLasso => LarConfig::new(lambda_max).with_lasso().fit(g, f),
        Method::Omp => OmpConfig::new(lambda_max).fit(g, f),
    }
}

/// Configuration for the pipelined driver ([`fit_streaming`]).
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Sample rows per produced batch (the pipeline's work unit).
    pub batch: usize,
    /// Stop the cross-validation `λ` walk early once the mean error
    /// curve flattens (`None` = explore the full `λ` range, as [`fit`]
    /// does).
    pub early_stop: Option<EarlyStopRule>,
}

impl StreamConfig {
    /// A pipeline producing `batch`-row sample batches, no early stop.
    pub fn new(batch: usize) -> Self {
        StreamConfig {
            batch,
            early_stop: None,
        }
    }

    /// Enables early-stopped cross-validation under the given rule.
    pub fn with_early_stop(mut self, rule: EarlyStopRule) -> Self {
        self.early_stop = Some(rule);
        self
    }
}

/// Outcome of [`fit_streaming`]: the fitted model plus pipeline
/// diagnostics.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// The fitted model and selection diagnostics (as [`fit`] returns).
    pub report: FitReport,
    /// Number of sample batches produced and consumed.
    pub batches: usize,
    /// Largest `λ` whose cross-validation error was actually measured
    /// (`< lambda_max` when early stopping fired; equals the fitted `λ`
    /// for [`ModelOrder::Fixed`]).
    pub lambda_explored: usize,
    /// Wall-clock seconds in the sample→delta production pipeline.
    pub produce_seconds: f64,
    /// Wall-clock seconds in cross-validation (0 for fixed order).
    pub cv_seconds: f64,
}

/// Fits `G·α = F` with the sample→fit pipeline: runtime workers sweep
/// `stream.batch`-row batches into [`SampleDelta`]s in parallel while
/// the fitter applies them in row order via
/// [`FitSession::apply_delta`] — fitting state accumulates while later
/// batches are still being produced. One batch (`stream.batch >= K`)
/// is folded inline, so its delta sweeps `g` with the source's own
/// parallel kernels; that is [`fit`].
///
/// With [`ModelOrder::CrossValidated`], the folds are walked in
/// `λ`-lockstep by the engine in [`crate::select`], and the walk stops
/// early once the mean error curve flattens under
/// [`StreamConfig::early_stop`]. The folds do not depend on the batch
/// size, so the explored prefix of the error curve is the same for
/// every batch size.
///
/// Multi-batch sweep accumulation differs from the single sweep in
/// low-order bits for LAR (plain OMP reads no sweep), but is
/// bit-identical across thread counts for a fixed batch size (deltas
/// fold in row order).
///
/// # Errors
///
/// - [`CoreError::ShapeMismatch`] / [`CoreError::BadConfig`] for
///   misshapen or non-finite inputs, `stream.batch == 0`, or a method
///   without path sessions (LS, STAR);
/// - any session error (first failing fold in fold order).
pub fn fit_streaming<S: AtomSource + ?Sized + Sync>(
    g: &S,
    f: &[f64],
    method: Method,
    order: &ModelOrder,
    stream: &StreamConfig,
) -> Result<StreamReport> {
    let t0 = Instant::now();
    let k = g.num_rows();
    let m = g.num_atoms();
    if f.len() != k {
        return Err(CoreError::ShapeMismatch {
            expected: format!("response of length {k}"),
            found: format!("length {}", f.len()),
        });
    }
    if f.iter().any(|v| !v.is_finite()) {
        return Err(CoreError::BadConfig(
            "response vector contains non-finite values".into(),
        ));
    }
    if stream.batch == 0 {
        return Err(CoreError::BadConfig("batch size must be at least 1".into()));
    }
    let lambda_max = match order {
        ModelOrder::Fixed(l) => *l,
        ModelOrder::CrossValidated(cfg) => cfg.lambda_max,
    };
    if lambda_max == 0 {
        return Err(CoreError::BadConfig("lambda must be at least 1".into()));
    }
    let mut full = MethodSession::new(method, lambda_max, m)?;
    let sweeps = full.sweeps();

    // Pipelined production: the map side runs on the worker pool, the
    // fold side applies deltas in row order as they arrive.
    let tp = Instant::now();
    let mut apply_err: Option<CoreError> = None;
    let mut batches = 0usize;
    rsm_runtime::par_chunks_reduce_until(
        k,
        stream.batch,
        |r: Range<usize>| SampleDelta::compute(g, f, r, sweeps),
        |d| match full.apply_delta(d) {
            Ok(()) => {
                batches += 1;
                true
            }
            Err(e) => {
                apply_err = Some(e);
                false
            }
        },
    );
    if let Some(e) = apply_err {
        return Err(e);
    }
    let produce_seconds = tp.elapsed().as_secs_f64();

    let (lambda, cv, lambda_explored, cv_seconds) = match order {
        ModelOrder::Fixed(l) => (*l, None, *l, 0.0),
        ModelOrder::CrossValidated(cfg) => {
            let tcv = Instant::now();
            let cv = lockstep_cv(g, f, method, cfg, stream.early_stop)?;
            let explored = cv.errors.len();
            (
                cv.best_lambda,
                Some(cv),
                explored,
                tcv.elapsed().as_secs_f64(),
            )
        }
    };

    full.run_to(g, f, lambda)?;
    let model = full.path()?.model_at(lambda);
    Ok(StreamReport {
        report: FitReport {
            model,
            method,
            lambda,
            cv,
            fit_seconds: t0.elapsed().as_secs_f64(),
        },
        batches,
        lambda_explored,
        produce_seconds,
        cv_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_linalg::Matrix;
    use rsm_stats::metrics::relative_error;
    use rsm_stats::NormalSampler;

    fn problem(k: usize, m: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut s = NormalSampler::seed_from_u64(seed);
        let g = Matrix::from_fn(k, m, |_, _| s.sample());
        let mut f = vec![0.0; k];
        for &(j, v) in &[(2usize, 2.0), (7, -1.0), (11, 0.5)] {
            for r in 0..k {
                f[r] += v * g[(r, j)];
            }
        }
        for fr in &mut f {
            *fr += 0.05 * s.sample();
        }
        (g, f)
    }

    #[test]
    fn all_sparse_methods_fit_fixed_order() {
        let (g, f) = problem(60, 120, 1);
        for method in [Method::Star, Method::Lar, Method::LarLasso, Method::Omp] {
            let rep = fit(&g, &f, method, &ModelOrder::Fixed(5)).unwrap();
            assert!(rep.model.num_nonzeros() <= 5, "{method:?}");
            let err = relative_error(&rep.model.predict_matrix(&g), &f);
            // STAR's greedy coefficients are deliberately less accurate
            // (that is the paper's point), so the bound is loose.
            assert!(err < 0.5, "{method:?} err {err}");
            assert!(rep.fit_seconds >= 0.0);
            assert!(rep.cv.is_none());
        }
    }

    #[test]
    fn ls_fits_overdetermined_and_reports_full_lambda() {
        let (g, f) = problem(200, 20, 2);
        let rep = fit(&g, &f, Method::Ls, &ModelOrder::Fixed(999)).unwrap();
        assert_eq!(rep.lambda, 20);
        let err = relative_error(&rep.model.predict_matrix(&g), &f);
        assert!(err < 0.1, "LS err {err}");
    }

    #[test]
    fn cross_validated_order_is_reported() {
        let (g, f) = problem(100, 150, 3);
        let order = ModelOrder::CrossValidated(CvConfig::new(20));
        let rep = fit(&g, &f, Method::Omp, &order).unwrap();
        let cv = rep.cv.expect("cv result");
        assert_eq!(cv.best_lambda, rep.lambda);
        assert_eq!(rep.model.num_nonzeros(), rep.lambda);
        assert!(cv.errors.len() == 20);
    }

    #[test]
    fn bad_configs_rejected() {
        let (g, f) = problem(20, 12, 9);
        let cv = |cfg: CvConfig| ModelOrder::CrossValidated(cfg);
        let bad_folds = cv(CvConfig {
            folds: 1,
            ..CvConfig::new(5)
        });
        let zero_lambda = cv(CvConfig {
            lambda_max: 0,
            ..CvConfig::new(5)
        });
        for method in [Method::Star, Method::Lar, Method::LarLasso, Method::Omp] {
            assert!(
                matches!(
                    fit(&g, &f, method, &bad_folds),
                    Err(CoreError::BadConfig(_))
                ),
                "{method:?}: one fold accepted"
            );
            assert!(
                matches!(
                    fit(&g, &f, method, &zero_lambda),
                    Err(CoreError::BadConfig(_))
                ),
                "{method:?}: lambda_max 0 accepted"
            );
            // A response shorter than the sample count is refused before
            // any fold indexes it.
            assert!(
                matches!(
                    fit(&g, &f[..15], method, &cv(CvConfig::new(5))),
                    Err(CoreError::ShapeMismatch { .. })
                ),
                "{method:?}: short response accepted"
            );
        }
    }

    #[test]
    fn method_names_match_paper() {
        assert_eq!(Method::Ls.name(), "LS");
        assert_eq!(Method::Star.name(), "STAR");
        assert_eq!(Method::Lar.name(), "LAR");
        assert_eq!(Method::Omp.name(), "OMP");
        assert_eq!(Method::all().len(), 4);
    }

    #[test]
    fn ls_has_no_path() {
        let (g, f) = problem(30, 15, 4);
        assert!(fit_path(Method::Ls, &g, &f, 5).is_err());
    }

    #[test]
    fn streaming_fixed_order_matches_batch_fit() {
        let (g, f) = problem(90, 120, 11);
        for method in [Method::Lar, Method::LarLasso, Method::Omp] {
            let batch = fit(&g, &f, method, &ModelOrder::Fixed(5)).unwrap();
            let stream = fit_streaming(
                &g,
                &f,
                method,
                &ModelOrder::Fixed(5),
                &StreamConfig::new(16),
            )
            .unwrap();
            assert_eq!(stream.batches, 6);
            assert_eq!(stream.lambda_explored, 5);
            assert!(stream.report.cv.is_none());
            assert_eq!(
                stream.report.model.support(),
                batch.model.support(),
                "{method:?}"
            );
            for &(j, a) in batch.model.coefficients() {
                let b = stream.report.model.coefficient(j).unwrap();
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "{method:?} atom {j}"
                );
            }
        }
    }

    #[test]
    fn streaming_cv_matches_batch_cv_without_early_stop() {
        let (g, f) = problem(100, 150, 13);
        let cfg = CvConfig::new(12);
        let order = ModelOrder::CrossValidated(cfg.clone());
        let batch = fit(&g, &f, Method::Omp, &order).unwrap();
        let stream = fit_streaming(&g, &f, Method::Omp, &order, &StreamConfig::new(100)).unwrap();
        let bcv = batch.cv.unwrap();
        let scv = stream.report.cv.unwrap();
        // Single-batch production + full λ walk: the error curve and
        // the selected order must match the batch driver exactly.
        assert_eq!(scv.best_lambda, bcv.best_lambda);
        assert_eq!(scv.errors.len(), bcv.errors.len());
        for (a, b) in scv.errors.iter().zip(&bcv.errors) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
        for (a, b) in scv.errors_se.iter().zip(&bcv.errors_se) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(stream.report.lambda, batch.lambda);
        assert_eq!(stream.report.model.support(), batch.model.support());
    }

    #[test]
    fn streaming_cv_early_stop_shortens_the_walk() {
        let (g, f) = problem(80, 100, 17);
        let cfg = CvConfig::new(40);
        let order = ModelOrder::CrossValidated(cfg);
        let rule = rsm_stats::EarlyStopRule::new().with_patience(3);
        let stream = fit_streaming(
            &g,
            &f,
            Method::Omp,
            &order,
            &StreamConfig::new(20).with_early_stop(rule),
        )
        .unwrap();
        // The 3-sparse truth overfits well before λ = 40.
        assert!(
            stream.lambda_explored < 40,
            "explored {} of 40",
            stream.lambda_explored
        );
        let cv = stream.report.cv.unwrap();
        assert_eq!(cv.errors.len(), stream.lambda_explored);
        assert!(cv.best_lambda <= stream.lambda_explored);
        assert!(stream.report.lambda >= 3 && stream.report.lambda <= 12);
        assert!(stream.cv_seconds >= 0.0 && stream.produce_seconds >= 0.0);
    }

    #[test]
    fn streaming_rejects_bad_configs() {
        let (g, f) = problem(40, 60, 19);
        // Zero batch.
        assert!(fit_streaming(
            &g,
            &f,
            Method::Lar,
            &ModelOrder::Fixed(3),
            &StreamConfig::new(0)
        )
        .is_err());
        // Methods without sessions.
        for m in [Method::Ls, Method::Star] {
            assert!(
                fit_streaming(&g, &f, m, &ModelOrder::Fixed(3), &StreamConfig::new(8)).is_err()
            );
        }
        // Non-finite response.
        let mut bad = f.clone();
        bad[7] = f64::NAN;
        assert!(fit_streaming(
            &g,
            &bad,
            Method::Lar,
            &ModelOrder::Fixed(3),
            &StreamConfig::new(8)
        )
        .is_err());
        // Zero lambda.
        assert!(fit_streaming(
            &g,
            &f,
            Method::Lar,
            &ModelOrder::Fixed(0),
            &StreamConfig::new(8)
        )
        .is_err());
    }

    #[test]
    fn streaming_is_invariant_across_batch_grids_in_support() {
        let (g, f) = problem(120, 80, 23);
        let mut supports = Vec::new();
        for batch in [7, 30, 120] {
            let rep = fit_streaming(
                &g,
                &f,
                Method::Lar,
                &ModelOrder::Fixed(4),
                &StreamConfig::new(batch),
            )
            .unwrap();
            supports.push(rep.report.model.support());
        }
        assert_eq!(supports[0], supports[1]);
        assert_eq!(supports[1], supports[2]);
    }
}
