//! Seeded workload inputs. The same seed gives the same inputs; the
//! program under test sees only the generated arrays.

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_core::{solver, Method, ModelBundle, ModelOrder, SparseModel};
use rsm_linalg::Matrix;
use rsm_stats::metrics::relative_error;
use rsm_stats::NormalSampler;

/// Seed of the stream that places the planted atoms (the same for
/// every workload seed).
const ATOM_STREAM: u64 = 2009;

/// A sparse quadratic ground truth sampled at training and held-out
/// points.
#[derive(Debug)]
pub struct FitProblem {
    /// The quadratic Hermite dictionary over `N` variables.
    pub dict: Dictionary,
    /// `K × N` training points.
    pub samples: Matrix,
    /// Held-out points (noise-free responses).
    pub test_samples: Matrix,
    /// The planted atoms, ascending (the tail's atoms are not in it).
    pub support: Vec<usize>,
    /// Noisy training responses.
    pub f: Vec<f64>,
    /// Held-out responses.
    pub f_test: Vec<f64>,
}

impl FitProblem {
    /// Plants `planted[i]` and then `tail[i]` on distinct non-constant
    /// atoms, and draws from `seed` the `k` training points, their noise
    /// of standard deviation `noise`, and `k_test` held-out points. The
    /// coefficients come from the caller and the atoms from a fixed
    /// stream, so the held-out error depends on the problem's structure,
    /// not on which atoms a seed happened to pick.
    pub fn generate(
        n: usize,
        k: usize,
        k_test: usize,
        planted: &[f64],
        tail: &[f64],
        noise: f64,
        seed: u64,
    ) -> Self {
        let dict = Dictionary::new(n, DictionaryKind::Quadratic);
        let m = dict.len();
        let mut rng = NormalSampler::seed_from_u64(ATOM_STREAM);
        let mut truth: Vec<(usize, f64)> = Vec::with_capacity(planted.len() + tail.len());
        for &c in planted.iter().chain(tail) {
            let j = loop {
                let j = 1 + rng.uniform_index(m - 1);
                if truth.iter().all(|&(t, _)| t != j) {
                    break j;
                }
            };
            truth.push((j, c));
        }
        let mut rng = NormalSampler::seed_from_u64(seed);
        let mut support: Vec<usize> = truth[..planted.len()].iter().map(|&(j, _)| j).collect();
        support.sort_unstable();
        let samples = Matrix::from_fn(k, n, |_, _| rng.sample());
        let test_samples = Matrix::from_fn(k_test, n, |_, _| rng.sample());
        let eval = |pts: &Matrix, r: usize| -> f64 {
            truth
                .iter()
                .map(|&(j, c)| c * dict.eval_term(j, pts.row(r)))
                .sum()
        };
        let f = (0..k)
            .map(|r| eval(&samples, r) + noise * rng.sample())
            .collect();
        let f_test = (0..k_test).map(|r| eval(&test_samples, r)).collect();
        FitProblem {
            dict,
            samples,
            test_samples,
            support,
            f,
            f_test,
        }
    }

    /// Relative error of `model` on the held-out points, through the
    /// batched serving evaluator.
    pub fn test_rel_err(&self, model: &SparseModel) -> f64 {
        let pred = model
            .predict_batch(&self.dict, &self.test_samples)
            .expect("held-out points match the dictionary");
        relative_error(&pred, &self.f_test)
    }
}

/// Inputs of the serving bundle (quadratic basis, `M = 153`).
pub const SERVE_VARS: usize = 16;
/// Training points of the serving bundle's fit.
const SERVE_TRAIN_K: usize = 400;
/// Held-out points of the serving bundle: the tail's share of the
/// response, which sets its error, is read to ~1% on this many.
const SERVE_TEST_K: usize = 10_000;
/// Model order of the serving bundle.
pub const SERVE_LAMBDA: usize = 12;

/// The served bundle: OMP at `λ = 12` on a quadratic truth of 12 terms
/// with geometrically decaying coefficients plus a tail of 8 terms at
/// 0.01. The model is the 12 large terms, and its held-out error (≈ 1%)
/// is set by the tail it leaves out, not by the seed's noise draw.
#[derive(Debug)]
pub struct ServeProblem {
    /// Training problem the bundle was fitted on.
    pub problem: FitProblem,
    /// The bundle's design matrix over the training points.
    g: Matrix,
    /// The fitted bundle.
    pub bundle: ModelBundle,
}

impl ServeProblem {
    /// Generates the training data from `seed` and fits the bundle.
    ///
    /// # Errors
    ///
    /// A failed fit.
    pub fn generate(seed: u64) -> Result<Self, String> {
        let coefs: Vec<f64> = (0..12).map(|i| 2.0 * 0.7f64.powi(i)).collect();
        let problem = FitProblem::generate(
            SERVE_VARS,
            SERVE_TRAIN_K,
            SERVE_TEST_K,
            &coefs,
            &[0.01; 8],
            0.01,
            seed,
        );
        let g = problem.dict.design_matrix(&problem.samples);
        let report = fit_bundle(&g, &problem.f)?;
        let train_error = relative_error(&report.model.predict_matrix(&g), &problem.f);
        let bundle = ModelBundle {
            input_columns: (0..SERVE_VARS).map(|i| format!("dy{i}")).collect(),
            response: "delay".to_string(),
            basis: "quadratic".to_string(),
            method: report.method.name().to_string(),
            lambda: report.lambda,
            train_error,
            model: report.model,
        };
        Ok(ServeProblem { problem, g, bundle })
    }

    /// Fits the bundle again through `solver::fit` and returns the wall
    /// seconds of the fit.
    ///
    /// # Errors
    ///
    /// A failed fit, or a model that differs in any bit from the bundle.
    pub fn refit(&self) -> Result<f64, String> {
        let t = std::time::Instant::now();
        let report = fit_bundle(&self.g, &self.problem.f)?;
        let secs = t.elapsed().as_secs_f64();
        let bits = |m: &SparseModel| -> Vec<(usize, u64)> {
            m.coefficients()
                .iter()
                .map(|&(j, c)| (j, c.to_bits()))
                .collect()
        };
        if bits(&report.model) == bits(&self.bundle.model) {
            Ok(secs)
        } else {
            Err("a refit of the serving bundle changed its bits".into())
        }
    }
}

fn fit_bundle(g: &Matrix, f: &[f64]) -> Result<solver::FitReport, String> {
    solver::fit(g, f, Method::Omp, &ModelOrder::Fixed(SERVE_LAMBDA))
        .map_err(|e| format!("serving bundle fit: {e}"))
}

/// A pool of distinct predict requests and the bits `predict_point`
/// gives for every point, made before any timing starts.
#[derive(Debug)]
pub struct RequestPool {
    /// Row-major points of each request.
    pub points: Vec<Vec<f64>>,
    /// Expected answer bits of each request.
    pub expected: Vec<Vec<u64>>,
}

impl RequestPool {
    /// `requests` requests of `points_per_request` standard-normal
    /// points each.
    pub fn generate(
        model: &SparseModel,
        dict: &Dictionary,
        requests: usize,
        points_per_request: usize,
        seed: u64,
    ) -> Self {
        let mut rng = NormalSampler::seed_from_u64(seed ^ 0x5EED_F00D);
        let nv = dict.num_vars();
        let points: Vec<Vec<f64>> = (0..requests)
            .map(|_| rng.sample_vec(points_per_request * nv))
            .collect();
        let expected = points
            .iter()
            .map(|pts| {
                pts.chunks_exact(nv)
                    .map(|p| model.predict_point(dict, p).to_bits())
                    .collect()
            })
            .collect();
        RequestPool { points, expected }
    }
}
