//! A NaN in the *sample* matrix must make LAR, OMP, STAR and lasso-CD
//! refuse with a structured error naming the atom, not return `Ok` with
//! a wrong or NaN-laden model. The response `f` is computed from the
//! clean samples first, so only the dictionary side carries the NaN.

use rsm_basis::{Dictionary, DictionaryKind};
use rsm_core::lar::LarConfig;
use rsm_core::lasso_cd::LassoCdConfig;
use rsm_core::omp::OmpConfig;
use rsm_core::source::DictionarySource;
use rsm_core::star::StarConfig;
use rsm_core::CoreError;
use rsm_linalg::Matrix;
use rsm_stats::NormalSampler;

const PLANTED: [usize; 3] = [5, 70, 200];

/// Quadratic dictionary over N = 30 variables (M = 496 atoms), K = 80
/// samples at seed 7, and a noise-free response on atoms {5, 70, 200}.
fn probe() -> (Dictionary, Matrix, Vec<f64>) {
    let mut rng = NormalSampler::seed_from_u64(7);
    let dict = Dictionary::new(30, DictionaryKind::Quadratic);
    let samples = Matrix::from_fn(80, 30, |_, _| rng.sample());
    let f = (0..80)
        .map(|r| {
            let x = samples.row(r);
            2.0 * dict.eval_term(5, x) - 1.5 * dict.eval_term(70, x) + 0.8 * dict.eval_term(200, x)
        })
        .collect();
    (dict, samples, f)
}

fn poisoned(samples: &Matrix) -> Matrix {
    let mut bad = samples.clone();
    bad[(3, 29)] = f64::NAN;
    bad
}

/// Asserts a `Numerical` refusal whose message names an atom that
/// really evaluates to NaN on the poisoned sample row. `Ok` carries the
/// support the solver would have returned.
fn assert_refused(
    result: rsm_core::Result<Vec<usize>>,
    dict: &Dictionary,
    bad: &Matrix,
    solver: &str,
) {
    match result {
        Err(CoreError::Numerical(msg)) => {
            assert!(msg.contains("NaN"), "{solver}: {msg}");
            let atom: usize = msg
                .split("atom ")
                .nth(1)
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("{solver}: no atom named in {msg:?}"));
            assert!(dict.eval_term(atom, bad.row(3)).is_nan(), "{solver}: {msg}");
        }
        Err(other) => panic!("{solver}: expected a numerical refusal, got {other}"),
        Ok(support) => panic!("{solver}: NaN samples produced Ok with support {support:?}"),
    }
}

#[test]
fn clean_probe_recovers_the_planted_atoms() {
    let (dict, samples, f) = probe();
    let src = DictionarySource::new(&dict, &samples);
    let omp = OmpConfig::new(3).fit(&src, &f).expect("clean OMP fit");
    let lar = LarConfig::new(3).fit(&src, &f).expect("clean LAR fit");
    for (solver, path) in [("omp", omp), ("lar", lar)] {
        let mut support = path.final_model().support();
        support.sort_unstable();
        assert_eq!(support, PLANTED, "{solver}");
    }
}

#[test]
fn omp_refuses_nan_samples() {
    let (dict, samples, f) = probe();
    let bad = poisoned(&samples);
    let src = DictionarySource::new(&dict, &bad);
    let fit = OmpConfig::new(3).fit(&src, &f);
    assert_refused(fit.map(|p| p.final_model().support()), &dict, &bad, "omp");
}

#[test]
fn lar_refuses_nan_samples() {
    let (dict, samples, f) = probe();
    let bad = poisoned(&samples);
    let src = DictionarySource::new(&dict, &bad);
    let fit = LarConfig::new(3).fit(&src, &f);
    assert_refused(fit.map(|p| p.final_model().support()), &dict, &bad, "lar");
}

#[test]
fn star_refuses_nan_samples() {
    let (dict, samples, f) = probe();
    let bad = poisoned(&samples);
    let src = DictionarySource::new(&dict, &bad);
    let fit = StarConfig::new(3).fit(&src, &f);
    assert_refused(fit.map(|p| p.final_model().support()), &dict, &bad, "star");
}

#[test]
fn lasso_cd_refuses_nan_samples() {
    let (dict, samples, f) = probe();
    let bad = poisoned(&samples);
    let src = DictionarySource::new(&dict, &bad);
    let fit = LassoCdConfig::new(0.1).fit(&src, &f);
    assert_refused(fit.map(|m| m.support()), &dict, &bad, "lasso-cd");
}
