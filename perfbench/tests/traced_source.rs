//! The traced run is only valid if wrapping a source changes no bit of
//! the fit: `TracedSource` must forward all nine `AtomSource` methods
//! (a trait default would swap in a column-at-a-time sweep), and the
//! models fitted through it must equal the untraced ones at any thread
//! count.

use perfbench::problems::FitProblem;
use perfbench::source::TracedSource;
use perfbench::trace::Tracer;
use rsm_core::select::CvConfig;
use rsm_core::source::{AtomSource, DictionarySource};
use rsm_core::{solver, Method, ModelOrder, SparseModel, StreamConfig};
use rsm_linalg::Matrix;
use rsm_stats::EarlyStopRule;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A 3×4 source whose every method returns a marker value and logs
/// its call, so a method that fell back to a trait default shows up as
/// calls to `column_into` and as different output.
#[derive(Default)]
struct Recording {
    calls: RefCell<BTreeMap<&'static str, usize>>,
}

impl Recording {
    fn hit(&self, name: &'static str) {
        *self.calls.borrow_mut().entry(name).or_insert(0) += 1;
    }
}

impl AtomSource for Recording {
    fn num_rows(&self) -> usize {
        self.hit("num_rows");
        3
    }
    fn num_atoms(&self) -> usize {
        self.hit("num_atoms");
        4
    }
    fn correlate(&self, res: &[f64]) -> Vec<f64> {
        self.hit("correlate");
        vec![res.iter().sum(); 4]
    }
    fn column_into(&self, j: usize, out: &mut [f64]) {
        self.hit("column_into");
        out.fill(j as f64);
    }
    fn columns_into(&self, js: &[usize], out: &mut Matrix) {
        self.hit("columns_into");
        for c in 0..js.len() {
            out.set_col(c, &[-1.0; 3]);
        }
    }
    fn row_into(&self, k: usize, out: &mut [f64]) {
        self.hit("row_into");
        out.fill(100.0 + k as f64);
    }
    fn column_sq_norms(&self) -> Vec<f64> {
        self.hit("column_sq_norms");
        vec![7.0; 4]
    }
    fn column_block_into(&self, col_start: usize, out: &mut Matrix) {
        self.hit("column_block_into");
        for c in 0..out.cols() {
            out.set_col(c, &[-2.0 - col_start as f64; 3]);
        }
    }
    fn gram_active(&self, js: &[usize]) -> Matrix {
        self.hit("gram_active");
        Matrix::from_fn(js.len(), js.len(), |_, _| 9.0)
    }
}

#[test]
fn traced_source_forwards_every_method() {
    let tracer = Tracer::new();
    let src = TracedSource::new(Recording::default(), &tracer);
    assert_eq!(src.num_rows(), 3);
    assert_eq!(src.num_atoms(), 4);
    assert_eq!(src.correlate(&[1.0, 0.0, 2.0]), vec![3.0; 4]);
    let mut col = [0.0; 3];
    src.column_into(2, &mut col);
    assert_eq!(col, [2.0; 3]);
    let mut cols = Matrix::zeros(3, 2);
    src.columns_into(&[0, 1], &mut cols);
    assert_eq!(cols.col(1), vec![-1.0; 3]);
    let mut row = [0.0; 4];
    src.row_into(1, &mut row);
    assert_eq!(row, [101.0; 4]);
    assert_eq!(src.column_sq_norms(), vec![7.0; 4]);
    let mut block = Matrix::zeros(3, 2);
    src.column_block_into(1, &mut block);
    assert_eq!(block.col(0), vec![-3.0; 3]);
    assert_eq!(src.gram_active(&[0, 3])[(1, 0)], 9.0);

    let calls = src.inner().calls.borrow();
    for name in [
        "num_rows",
        "num_atoms",
        "correlate",
        "column_into",
        "columns_into",
        "row_into",
        "column_sq_norms",
        "column_block_into",
        "gram_active",
    ] {
        assert_eq!(
            calls.get(name),
            Some(&1),
            "{name} not forwarded exactly once"
        );
    }
    assert_eq!(
        src.correlate
            .rows
            .load(std::sync::atomic::Ordering::Relaxed),
        3
    );
    assert_eq!(
        src.correlate
            .nonzero_rows
            .load(std::sync::atomic::Ordering::Relaxed),
        2
    );
    assert_eq!(tracer.spans().len(), 7, "one span per traced call");
}

fn bits(m: &SparseModel) -> Vec<(usize, u64)> {
    m.coefficients()
        .iter()
        .map(|&(j, c)| (j, c.to_bits()))
        .collect()
}

/// Models of the three fit paths the benchmark traces: fixed-order LAR
/// and OMP through `solver::fit`, and λ-lockstep CV(LAR) with early
/// stop through `fit_streaming`.
fn fits<S: AtomSource + Sync>(src: &S, f: &[f64]) -> Vec<Vec<(usize, u64)>> {
    let lar = solver::fit(src, f, Method::Lar, &ModelOrder::Fixed(8)).unwrap();
    let omp = solver::fit(src, f, Method::Omp, &ModelOrder::Fixed(8)).unwrap();
    let cv = solver::fit_streaming(
        src,
        f,
        Method::Lar,
        &ModelOrder::CrossValidated(CvConfig::new(10)),
        &StreamConfig::new(25).with_early_stop(EarlyStopRule::new()),
    )
    .unwrap();
    vec![bits(&lar.model), bits(&omp.model), bits(&cv.report.model)]
}

#[test]
fn traced_models_are_bit_identical_at_one_and_two_threads() {
    // K·M = 200·231 is above the sources' parallel threshold, so the
    // parallel row sweeps run.
    let p = FitProblem::generate(
        20,
        200,
        10,
        &[2.0, -1.5, 1.25, -1.0, 0.75],
        &[0.1; 5],
        0.05,
        7,
    );
    let plain = DictionarySource::new(&p.dict, &p.samples);
    let mut seen = Vec::new();
    for threads in [1, 2] {
        rsm_runtime::set_threads(threads);
        let tracer = Tracer::new();
        let traced = TracedSource::new(plain.clone(), &tracer);
        let untraced_models = fits(&plain, &p.f);
        let traced_models = fits(&traced, &p.f);
        assert_eq!(traced_models, untraced_models, "threads {threads}");
        assert!(tracer.spans().iter().any(|s| s.name == "source.correlate"));
        seen.push(untraced_models);
    }
    rsm_runtime::set_threads(0);
    assert_eq!(seen[0], seen[1], "models differ between 1 and 2 threads");
}
