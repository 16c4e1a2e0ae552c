//! One batch of the streaming driver is the batch fit.
//!
//! `solver::fit` runs LAR, LAR(lasso) and OMP as `fit_streaming` with a
//! single batch of all `K` rows, and a delta over all rows sweeps the
//! source itself. So `fit_streaming` with any batch of at least `K`
//! rows must return the batch fit's model, `λ` and cross-validation
//! curve to the last bit — at fixed order and under cross-validation,
//! on a dense matrix and on a streaming `DictionarySource` (whose
//! column-norm sweep is a parallel kernel a row view would not use),
//! at one and two worker threads. At fixed order the model must also
//! equal the session wrapper's (`fit_path`, fed through
//! `extend_samples`).

use sparse_rsm::basis::{Dictionary, DictionaryKind};
use sparse_rsm::core::select::CvConfig;
use sparse_rsm::core::solver::{fit, fit_path, fit_streaming, FitReport, ModelOrder, StreamConfig};
use sparse_rsm::core::source::{AtomSource, DictionarySource};
use sparse_rsm::core::{Method, SparseModel};
use sparse_rsm::linalg::Matrix;
use sparse_rsm::runtime;
use sparse_rsm::stats::NormalSampler;
use std::sync::Mutex;

/// The thread override is process-global, so the sweeps must not
/// interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

const METHODS: [Method; 3] = [Method::Lar, Method::LarLasso, Method::Omp];

/// A 120×400 Gaussian sensing matrix with a 4-sparse response plus
/// noise (K·M = 48 000, above the parallel thresholds).
fn matrix_problem() -> (Matrix, Vec<f64>) {
    let mut s = NormalSampler::seed_from_u64(99);
    let g = Matrix::from_fn(120, 400, |_, _| s.sample());
    let mut f = vec![0.0; 120];
    for &(j, v) in &[(3usize, 2.0), (41, -1.25), (160, 0.75), (399, 0.5)] {
        for (r, fr) in f.iter_mut().enumerate() {
            *fr += v * g[(r, j)];
        }
    }
    for fr in &mut f {
        *fr += 0.02 * s.sample();
    }
    (g, f)
}

/// A quadratic Hermite dictionary over 30 variables (M = 496 atoms) at
/// 80 points (K·M = 39 680), with a 3-sparse response plus noise.
fn dictionary_problem() -> (Dictionary, Matrix, Vec<f64>) {
    let dict = Dictionary::new(30, DictionaryKind::Quadratic);
    let mut s = NormalSampler::seed_from_u64(7);
    let samples = Matrix::from_fn(80, 30, |_, _| s.sample());
    let f = (0..80)
        .map(|r| {
            let x = samples.row(r);
            1.5 * dict.eval_term(5, x) - 0.8 * dict.eval_term(70, x)
                + 0.4 * dict.eval_term(200, x)
                + 0.02 * s.sample()
        })
        .collect();
    (dict, samples, f)
}

fn model_bits(m: &SparseModel) -> Vec<(usize, u64)> {
    m.coefficients()
        .iter()
        .map(|&(j, c)| (j, c.to_bits()))
        .collect()
}

fn curve_bits(curve: &[f64]) -> Vec<u64> {
    curve.iter().map(|v| v.to_bits()).collect()
}

fn assert_same_report(batch: &FitReport, stream: &FitReport, at: &str) {
    assert_eq!(stream.lambda, batch.lambda, "{at}: λ");
    assert_eq!(
        model_bits(&stream.model),
        model_bits(&batch.model),
        "{at}: model"
    );
    match (&batch.cv, &stream.cv) {
        (None, None) => {}
        (Some(b), Some(s)) => {
            assert_eq!(s.best_lambda, b.best_lambda, "{at}: selected λ");
            assert_eq!(curve_bits(&s.errors), curve_bits(&b.errors), "{at}: curve");
            assert_eq!(
                curve_bits(&s.errors_se),
                curve_bits(&b.errors_se),
                "{at}: standard errors"
            );
        }
        _ => panic!("{at}: one report has a CV curve, the other not"),
    }
}

/// Every method and order at one and two threads, with one-batch
/// streams of exactly `K` rows and of more than `K`.
fn check<S: AtomSource + ?Sized + Sync>(what: &str, g: &S, f: &[f64]) {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let k = g.num_rows();
    let orders = [
        ModelOrder::Fixed(8),
        ModelOrder::CrossValidated(CvConfig::new(12)),
    ];
    for threads in [1usize, 2] {
        runtime::set_threads(threads);
        for method in METHODS {
            for order in &orders {
                let batch = fit(g, f, method, order).unwrap();
                for rows in [k, k + 5] {
                    let at =
                        format!("{what}, {method:?}, {order:?}, batch {rows}, {threads} thread(s)");
                    let stream =
                        fit_streaming(g, f, method, order, &StreamConfig::new(rows)).unwrap();
                    assert_eq!(stream.batches, 1, "{at}");
                    assert_same_report(&batch, &stream.report, &at);
                }
                if let ModelOrder::Fixed(lambda) = order {
                    let path = fit_path(method, g, f, *lambda).unwrap();
                    assert_eq!(
                        model_bits(&path.model_at(*lambda)),
                        model_bits(&batch.model),
                        "{what}, {method:?}, {threads} thread(s): session wrapper"
                    );
                }
            }
        }
    }
    runtime::set_threads(0);
}

#[test]
fn one_batch_stream_matches_fit_on_dense_matrix() {
    let (g, f) = matrix_problem();
    check("matrix", &g, &f);
}

#[test]
fn one_batch_stream_matches_fit_on_dictionary_source() {
    let (dict, samples, f) = dictionary_problem();
    let src = DictionarySource::new(&dict, &samples);
    check("dictionary", &src, &f);
}
