//! Cross-crate integration: the full modeling pipeline from correlated
//! process parameters to a validated sparse model, exactly as
//! Section II–IV of the paper chains it.

use sparse_rsm::basis::{Dictionary, DictionaryKind};
use sparse_rsm::core::select::CvConfig;
use sparse_rsm::core::{solver, Method, ModelOrder};
use sparse_rsm::linalg::Matrix;
use sparse_rsm::stats::metrics::relative_error;
use sparse_rsm::stats::{FactorModel, NormalSampler, Pca};

/// A synthetic "circuit": a smooth sparse function of correlated
/// parameters, with mild quadratic content.
fn synthetic_perf(dx: &[f64]) -> f64 {
    1.0 + 2.0 * dx[3] - 1.5 * dx[11] + 0.8 * dx[3] * dx[11] + 0.3 * dx[20] * dx[20]
}

#[test]
fn pca_whitening_then_sparse_fit_recovers_performance() {
    // 1. Correlated parameter model (what foundry data gives you).
    let n = 24;
    let mut rng = NormalSampler::seed_from_u64(8);
    let loadings = Matrix::from_fn(n, 3, |_, _| 0.3 * rng.sample());
    let fm = FactorModel::new(loadings, vec![0.05; n]).unwrap();
    let cov = fm.dense_covariance();

    // 2. PCA → independent factors ΔY (Section II).
    let pca = Pca::from_covariance(&cov, 1e-12).unwrap();
    let latent = pca.latent_dim();

    // 3. Sample in ΔY space, evaluate the "circuit" in ΔX space.
    let k_train = 160;
    let k_test = 800;
    let mut draw = |k: usize| -> (Matrix, Vec<f64>) {
        let mut ys = Matrix::zeros(k, latent);
        let mut f = Vec::with_capacity(k);
        for r in 0..k {
            let dy = rng.sample_vec(latent);
            let dx = pca.color(&dy);
            f.push(synthetic_perf(&dx));
            ys.row_mut(r).copy_from_slice(&dy);
        }
        (ys, f)
    };
    let (y_train, f_train) = draw(k_train);
    let (y_test, f_test) = draw(k_test);

    // 4. Quadratic Hermite dictionary over ΔY; K << M.
    let dict = Dictionary::new(latent, DictionaryKind::Quadratic);
    assert!(dict.len() > k_train, "problem must be underdetermined");
    let g_train = dict.design_matrix(&y_train);
    let g_test = dict.design_matrix(&y_test);

    // 5. Cross-validated OMP.
    let rep = solver::fit(
        &g_train,
        &f_train,
        Method::Omp,
        &ModelOrder::CrossValidated(CvConfig::new(40)),
    )
    .unwrap();
    let err = relative_error(&rep.model.predict_matrix(&g_test), &f_test);
    // The PCA rotation spreads the ΔX-sparse truth over many ΔY
    // coordinates, so recovery is good but not exact — the paper's
    // sparsity assumption is about the post-PCA representation itself.
    assert!(err < 0.15, "pipeline error {err}");
    // The model is still far sparser than the dictionary.
    assert!(rep.model.num_nonzeros() < dict.len() / 4);
}

#[test]
fn whitened_factors_reproduce_parameter_covariance_through_pipeline() {
    // PCA color/whiten consistency when driven through sampled data.
    let cov = Matrix::from_rows(&[&[1.0, 0.6, 0.0], &[0.6, 1.0, 0.2], &[0.0, 0.2, 0.5]]).unwrap();
    let pca = Pca::from_covariance(&cov, 0.0).unwrap();
    let mut rng = NormalSampler::seed_from_u64(3);
    let k = 30_000;
    let mut acc = Matrix::zeros(3, 3);
    for _ in 0..k {
        let x = pca.sample(&mut rng);
        for i in 0..3 {
            for j in 0..3 {
                acc[(i, j)] += x[i] * x[j];
            }
        }
    }
    acc.scale(1.0 / k as f64);
    assert!(acc.max_abs_diff(&cov).unwrap() < 0.03);
}

#[test]
fn cross_validation_prevents_overfitting_under_noise() {
    // With heavy noise and many bases, CV must pick a λ far below the
    // interpolation limit and the chosen model must generalize better
    // than the most complex one.
    let mut rng = NormalSampler::seed_from_u64(10);
    let k = 90;
    let m = 300;
    let g = Matrix::from_fn(k, m, |_, _| rng.sample());
    let f: Vec<f64> = (0..k)
        .map(|r| 2.0 * g[(r, 4)] - g[(r, 77)] + 0.5 * rng.sample())
        .collect();
    let cfg = CvConfig::new(40);
    let order = ModelOrder::CrossValidated(cfg);
    let cv = solver::fit(&g, &f, Method::Omp, &order)
        .unwrap()
        .cv
        .unwrap();
    assert!(
        cv.best_lambda <= 10,
        "CV chose λ = {} under heavy noise",
        cv.best_lambda
    );
    assert!(cv.errors[39] > cv.best_error, "no overfitting signal");
}

#[test]
fn solvers_consistent_on_overdetermined_problems() {
    // When K > M and the truth is dense-ish, OMP at λ = M reproduces LS.
    let mut rng = NormalSampler::seed_from_u64(12);
    let k = 120;
    let m = 15;
    let g = Matrix::from_fn(k, m, |_, _| rng.sample());
    let truth: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).sin() + 0.2).collect();
    let f = {
        let mut f = g.matvec(&truth).unwrap();
        for v in &mut f {
            *v += 0.01 * rng.sample();
        }
        f
    };
    let ls = solver::fit(&g, &f, Method::Ls, &ModelOrder::Fixed(0)).unwrap();
    let omp = solver::fit(&g, &f, Method::Omp, &ModelOrder::Fixed(m)).unwrap();
    for j in 0..m {
        let a = ls.model.coefficient(j).unwrap_or(0.0);
        let b = omp.model.coefficient(j).unwrap_or(0.0);
        assert!((a - b).abs() < 1e-8, "coef {j}: LS {a} vs OMP {b}");
    }
}
