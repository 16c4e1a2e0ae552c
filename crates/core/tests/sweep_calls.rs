//! Which data sweeps a fit runs.
//!
//! A session asks its `SampleDelta`s only for the sums it reads: LAR
//! needs the column square norms (and `Gᵀf`), plain OMP correlates
//! against its own residual and needs neither. A counting source shows
//! the column-norm sweeps a fit actually runs — a direct
//! `column_sq_norms` call on the source, or a row-view sweep, which
//! reads the source row by row through `row_into` (nothing else in a
//! fit reads rows).

use rsm_core::select::CvConfig;
use rsm_core::solver::{fit, fit_streaming, ModelOrder, StreamConfig};
use rsm_core::source::AtomSource;
use rsm_core::Method;
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts direct column-norm sweeps and row reads of a dense matrix.
#[derive(Debug)]
struct Counting<'a> {
    inner: &'a Matrix,
    sq_calls: AtomicUsize,
    rows_read: AtomicUsize,
}

impl<'a> Counting<'a> {
    fn new(inner: &'a Matrix) -> Self {
        Counting {
            inner,
            sq_calls: AtomicUsize::new(0),
            rows_read: AtomicUsize::new(0),
        }
    }

    /// `(column_sq_norms calls, row_into calls)` so far.
    fn counts(&self) -> (usize, usize) {
        (
            self.sq_calls.load(Ordering::SeqCst),
            self.rows_read.load(Ordering::SeqCst),
        )
    }
}

impl AtomSource for Counting<'_> {
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn num_atoms(&self) -> usize {
        self.inner.num_atoms()
    }

    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        self.inner.correlate(res)
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        self.inner.column_into(j, out);
    }

    fn row_into(&self, k: usize, out: &mut [f64]) {
        self.rows_read.fetch_add(1, Ordering::SeqCst);
        self.inner.row_into(k, out);
    }

    fn column_sq_norms(&self) -> Vec<f64> {
        self.sq_calls.fetch_add(1, Ordering::SeqCst);
        self.inner.column_sq_norms()
    }
}

const K: usize = 90;

fn problem() -> (Matrix, Vec<f64>) {
    let mut s = NormalSampler::seed_from_u64(11);
    let g = Matrix::from_fn(K, 120, |_, _| s.sample());
    let f = (0..K)
        .map(|r| 2.0 * g[(r, 2)] - g[(r, 7)] + 0.5 * g[(r, 11)] + 0.05 * s.sample())
        .collect();
    (g, f)
}

/// Runs `run` on a fresh counting source and returns its counts.
fn counts_of(g: &Matrix, run: impl FnOnce(&Counting<'_>)) -> (usize, usize) {
    let src = Counting::new(g);
    run(&src);
    src.counts()
}

#[test]
fn plain_omp_runs_no_column_norm_sweep() {
    let (g, f) = problem();
    let fixed = ModelOrder::Fixed(5);
    let cv = ModelOrder::CrossValidated(CvConfig::new(8));
    for order in [&fixed, &cv] {
        let by_fit = counts_of(&g, |src| {
            fit(src, &f, Method::Omp, order).unwrap();
        });
        assert_eq!(by_fit, (0, 0), "fit, {order:?}");
        for batch in [16, K] {
            let by_stream = counts_of(&g, |src| {
                fit_streaming(src, &f, Method::Omp, order, &StreamConfig::new(batch)).unwrap();
            });
            assert_eq!(by_stream, (0, 0), "fit_streaming, batch {batch}, {order:?}");
        }
    }
}

#[test]
fn lar_sweeps_column_norms_once_per_batch() {
    let (g, f) = problem();
    let order = ModelOrder::Fixed(5);
    // One batch: one direct sweep of the source, no row reads.
    let by_fit = counts_of(&g, |src| {
        fit(src, &f, Method::Lar, &order).unwrap();
    });
    assert_eq!(by_fit, (1, 0), "fit");
    let one_batch = counts_of(&g, |src| {
        fit_streaming(src, &f, Method::Lar, &order, &StreamConfig::new(K)).unwrap();
    });
    assert_eq!(one_batch, (1, 0), "fit_streaming, one batch");
    // Six batches of at most 16 rows: each batch's row view sweeps its
    // own rows once, so every row is read exactly once overall and the
    // full source is never swept.
    let six_batches = counts_of(&g, |src| {
        let rep = fit_streaming(src, &f, Method::Lar, &order, &StreamConfig::new(16)).unwrap();
        assert_eq!(rep.batches, 6);
    });
    assert_eq!(six_batches, (0, K), "fit_streaming, six batches");
}
