//! `TracedSource`: an [`AtomSource`] that forwards every method to the
//! wrapped source and records one span per call.
//!
//! Every one of the trait's nine methods is forwarded explicitly. A
//! wrapper that let `row_into`, `column_sq_norms`, `columns_into`,
//! `column_block_into` or `gram_active` fall back to the trait defaults
//! would replace the wrapped source's own (parallel, row-sweep)
//! implementations with column-at-a-time ones: different bits and a
//! different speed.

use crate::trace::Tracer;
use rsm_core::source::AtomSource;
use rsm_linalg::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts kept at the `correlate` boundary.
#[derive(Debug, Default)]
pub struct CorrelateCounts {
    /// Residual rows passed in, summed over calls.
    pub rows: AtomicU64,
    /// Of those, rows with a residual that is not exactly zero.
    pub nonzero_rows: AtomicU64,
}

/// Traces every call into the wrapped source.
#[derive(Debug)]
pub struct TracedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    /// Work counts at the `correlate` boundary.
    pub correlate: CorrelateCounts,
}

impl<'t, S: AtomSource> TracedSource<'t, S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TracedSource {
            inner,
            tracer,
            correlate: CorrelateCounts::default(),
        }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: AtomSource> AtomSource for TracedSource<'_, S> {
    fn num_rows(&self) -> usize {
        self.inner.num_rows()
    }

    fn num_atoms(&self) -> usize {
        self.inner.num_atoms()
    }

    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        let nonzero = res.iter().filter(|&&r| r != 0.0).count();
        self.correlate
            .rows
            .fetch_add(res.len() as u64, Ordering::Relaxed);
        self.correlate
            .nonzero_rows
            .fetch_add(nonzero as u64, Ordering::Relaxed);
        self.tracer
            .span("source.correlate", || self.inner.correlate(res))
    }

    fn column_into(&self, j: usize, out: &mut [f64]) {
        self.tracer
            .span("source.column_into", || self.inner.column_into(j, out))
    }

    fn columns_into(&self, js: &[usize], out: &mut Matrix) {
        self.tracer
            .span("source.columns_into", || self.inner.columns_into(js, out))
    }

    fn row_into(&self, k: usize, out: &mut [f64]) {
        self.tracer
            .span("source.row_into", || self.inner.row_into(k, out))
    }

    fn column_sq_norms(&self) -> Vec<f64> {
        self.tracer
            .span("source.column_sq_norms", || self.inner.column_sq_norms())
    }

    fn column_block_into(&self, col_start: usize, out: &mut Matrix) {
        self.tracer.span("source.column_block_into", || {
            self.inner.column_block_into(col_start, out)
        })
    }

    fn gram_active(&self, js: &[usize]) -> Matrix {
        self.tracer
            .span("source.gram_active", || self.inner.gram_active(js))
    }
}
