//! Golden bits for cross-validated model-order selection.
//!
//! `solver::fit(.., ModelOrder::CrossValidated(..))` picks `λ` by 4-fold
//! cross-validation (Section IV-C, Fig. 2 of the paper). This suite pins
//! the IEEE-754 bit patterns of the averaged error curve `ε(λ)`, its
//! standard errors, and the selected `λ*`, for STAR, LAR, LAR(lasso)
//! and OMP on three fixtures:
//!
//! - a 120×400 Gaussian sensing matrix (the seed problem of
//!   `parallel_equivalence.rs`), above the parallel thresholds;
//! - the 40×25 masked-predictor fixture of `lasso_drop.rs`, on which
//!   the lasso-modified path takes the drop branch inside the folds, so
//!   LAR and LAR(lasso) curves differ;
//! - a quadratic Hermite dictionary over 30 variables (M = 496) at 80
//!   points, read through the streaming `DictionarySource`.
//!
//! The same bits must come out at one and two worker threads. Any
//! change to the fold split, the fold fits, held-out scoring or the
//! mean/SE aggregation shows up here as a changed bit.

use sparse_rsm::basis::{Dictionary, DictionaryKind};
use sparse_rsm::core::select::CvConfig;
use sparse_rsm::core::solver::{fit, ModelOrder};
use sparse_rsm::core::source::{AtomSource, DictionarySource};
use sparse_rsm::core::Method;
use sparse_rsm::linalg::Matrix;
use sparse_rsm::runtime;
use sparse_rsm::stats::NormalSampler;
use std::sync::Mutex;

/// Largest model order explored by every pinned run.
const LAMBDA_MAX: usize = 16;

/// The thread override is process-global, so the sweeps must not
/// interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// One pinned cross-validation outcome. The curves are whitespace-
/// separated hex `f64::to_bits` patterns, `λ = 1..=LAMBDA_MAX`.
struct Golden {
    method: Method,
    best_lambda: usize,
    errors: &'static str,
    errors_se: &'static str,
}

fn bits(curve: &str) -> Vec<u64> {
    curve
        .split_whitespace()
        .map(|h| u64::from_str_radix(h, 16).unwrap())
        .collect()
}

/// Runs every pinned case at one and two threads and compares bits.
fn check<S: AtomSource + ?Sized + Sync>(what: &str, g: &S, f: &[f64], golden: &[Golden]) {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let order = ModelOrder::CrossValidated(CvConfig::new(LAMBDA_MAX));
    for threads in [1usize, 2] {
        runtime::set_threads(threads);
        for case in golden {
            let at = format!("{what}, {:?}, {threads} thread(s)", case.method);
            let cv = fit(g, f, case.method, &order).unwrap().cv.unwrap();
            let errors: Vec<u64> = cv.errors.iter().map(|v| v.to_bits()).collect();
            let errors_se: Vec<u64> = cv.errors_se.iter().map(|v| v.to_bits()).collect();
            assert_eq!(errors, bits(case.errors), "{at}: error curve");
            assert_eq!(errors_se, bits(case.errors_se), "{at}: standard errors");
            assert_eq!(cv.best_lambda, case.best_lambda, "{at}: selected λ");
        }
    }
    runtime::set_threads(0);
}

fn matrix_problem() -> (Matrix, Vec<f64>) {
    let (k, m) = (120, 400);
    let mut s = NormalSampler::seed_from_u64(99);
    let g = Matrix::from_fn(k, m, |_, _| s.sample());
    let mut f = vec![0.0; k];
    for &(j, v) in &[(3usize, 2.0), (41, -1.25), (160, 0.75), (399, 0.5)] {
        for r in 0..k {
            f[r] += v * g[(r, j)];
        }
    }
    for fr in &mut f {
        *fr += 0.02 * s.sample();
    }
    (g, f)
}

fn drop_problem() -> (Matrix, Vec<f64>) {
    let (k, m) = (40, 25);
    let mut s = NormalSampler::seed_from_u64(0);
    let mut g = Matrix::from_fn(k, m, |_, _| s.sample());
    for r in 0..k {
        g[(r, 2)] = 0.70 * (g[(r, 0)] + g[(r, 1)]) + 0.08 * s.sample();
    }
    let f: Vec<f64> = (0..k)
        .map(|r| g[(r, 0)] + g[(r, 1)] + 0.12 * s.sample())
        .collect();
    (g, f)
}

fn dictionary_problem() -> (Dictionary, Matrix, Vec<f64>) {
    let dict = Dictionary::new(30, DictionaryKind::Quadratic);
    let mut s = NormalSampler::seed_from_u64(7);
    let samples = Matrix::from_fn(80, 30, |_, _| s.sample());
    let g = dict.design_matrix(&samples);
    let mut f = vec![0.0; 80];
    for &(j, v) in &[(5usize, 1.5), (70, -0.8), (200, 0.4)] {
        for r in 0..80 {
            f[r] += v * g[(r, j)];
        }
    }
    for fr in &mut f {
        *fr += 0.02 * s.sample();
    }
    (dict, samples, f)
}

#[test]
fn cv_bits_on_dense_matrix() {
    let (g, f) = matrix_problem();
    check("120×400 matrix", &g, &f, &MATRIX);
}

#[test]
fn cv_bits_on_lasso_drop_fixture() {
    let (g, f) = drop_problem();
    check("40×25 drop fixture", &g, &f, &DROP);
}

#[test]
fn cv_bits_on_dictionary_source() {
    let (dict, samples, f) = dictionary_problem();
    let src = DictionarySource::new(&dict, &samples);
    check("quadratic DictionarySource", &src, &f, &DICTIONARY);
}

// Captured from a per-fold cross-validation loop that fit each fold's
// whole path up front; the λ-lockstep walk must reproduce it exactly.

const MATRIX: [Golden; 4] = [
    Golden {
        method: Method::Star,
        best_lambda: 4,
        errors: "3fe5f886f8eb8bd1 3fd923b099a82c60 3fd4a6d84f23b13c 3fc41729641e8f4e \
             3fc5311a6142cda6 3fc5fbc3132c02a3 3fc63315b850833d 3fc6c1b2981e4680 \
             3fc78e56d24aeac4 3fc7fb5b5ff2f193 3fc8c2c6dbd521a8 3fc9363bd4b4ca6b \
             3fc97f1971367246 3fc90fb60171cc13 3fc8c75d42367060 3fc8d1dc47fd526f",
        errors_se: "3fa29e51898d4334 3f95c08284a8b771 3f9149cf0bd1cf38 3f8b6f054d877e1f \
             3f8de680af46b03c 3f8f19fb9dfcf2d7 3f883ccacc37c45a 3f8db2cbea82ad68 \
             3f927d97d2126f53 3f9372c0460bc1ac 3f93b96b3c4a7ec6 3f93ca6f348a8c1d \
             3f93b99c00771821 3f92d822f67ac51b 3f92896efd07f9c0 3f926ddfc9889ef9",
    },
    Golden {
        method: Method::Lar,
        best_lambda: 16,
        errors: "3febaa4d8b6935fa 3fe24232263dbe73 3fdb929de5defc13 3f84958aa3b79baa \
             3f83f1144150833c 3f83ba1bfd049020 3f83565ab25f0418 3f82da2356a38d16 \
             3f8245996e538348 3f81f7887e124d64 3f81e2372edbbe4f 3f81b61896974d5a \
             3f81aa134e0d887f 3f819e7c651bd568 3f8191eec791d6cc 3f817db74097fbe7",
        errors_se: "3f93807f8bcf9e2c 3f906d10a30e3ed4 3f8a3885b64abab2 3f47834f05529d1c \
             3f4860a127ec96cf 3f4631bd5b14f3e4 3f46c6c969a06fa1 3f465d9ca494fb98 \
             3f480dfa941f4775 3f4798f157029127 3f47c897f6edafbc 3f462fca2c770cf1 \
             3f463e12ce1e7539 3f4653d574e5b5ce 3f465d2cee6ea28e 3f468c0d197d3d58",
    },
    Golden {
        method: Method::LarLasso,
        best_lambda: 16,
        errors: "3febaa4d8b6935fa 3fe24232263dbe73 3fdb929de5defc13 3f84958aa3b79baa \
             3f83f1144150833c 3f83ba1bfd049020 3f83565ab25f0418 3f82da2356a38d16 \
             3f8245996e538348 3f81f7887e124d64 3f81e2372edbbe4f 3f81b61896974d5a \
             3f81aa134e0d887f 3f819e7c651bd568 3f8191eec791d6cc 3f817db74097fbe7",
        errors_se: "3f93807f8bcf9e2c 3f906d10a30e3ed4 3f8a3885b64abab2 3f47834f05529d1c \
             3f4860a127ec96cf 3f4631bd5b14f3e4 3f46c6c969a06fa1 3f465d9ca494fb98 \
             3f480dfa941f4775 3f4798f157029127 3f47c897f6edafbc 3f462fca2c770cf1 \
             3f463e12ce1e7539 3f4653d574e5b5ce 3f465d2cee6ea28e 3f468c0d197d3d58",
    },
    Golden {
        method: Method::Omp,
        best_lambda: 5,
        errors: "3fe54874ec3111e9 3fd6d43b496fc317 3fd1c513c050ea8d 3f805b26a6c86b88 \
             3f8037e19f923951 3f807f27186186a3 3f816fd59418c58e 3f82bd0f5beb3936 \
             3f839fa10df4a633 3f8441e24150a48e 3f852730b3e520ba 3f8629e33506f534 \
             3f86dc8a8e5a7de4 3f86f4541932650a 3f86f282737befee 3f875eaa06bc25ff",
        errors_se: "3fa62f348a75ec43 3f9def2ab49feec0 3f95423e66037074 3f4c8a79fae37136 \
             3f4edad158ddddbd 3f4e37ad110a5468 3f51b039baace093 3f52a9316939dd95 \
             3f531f2aa8767e7d 3f545d61b47f7c7a 3f55fb814a72edda 3f59221b329ad49a \
             3f58f56da7240eff 3f577de9a48b3569 3f5791321cd0eb54 3f581e16bfba9b06",
    },
];

const DROP: [Golden; 4] = [
    Golden {
        method: Method::Star,
        best_lambda: 3,
        errors: "3fd47b12d874954e 3fd25c62ad993d00 3fc73642b3555e10 3fc7562a571ca6a9 \
             3fc8788c374b5a70 3fc96ceb01270808 3fc98006956c86c1 3fcab0ad45539003 \
             3fca626eb334310a 3fcb5c016f3c47f6 3fcbf8da723e5bb4 3fcc8a09e7c77c68 \
             3fcce5bb51c31928 3fcc955eaf8e01f1 3fcc56b37fc03424 3fcc70785c6bf3ba",
        errors_se: "3fa92221b1af2dde 3f9e33d42ed5fdc3 3f970e6035ad1495 3f9e28afa8b87c4b \
             3f953e5eaf3022ba 3f91bf7688321af4 3f86e6404326ac24 3f8973c6da4413ae \
             3f89eaf000e93ccb 3f8c15da3ecc756c 3f8f573d17ca41df 3f91aecfc7869094 \
             3f8f4c8c2f9184a1 3f8e1a30cee613e6 3f8f3082252a4f35 3f8f5b036c0f831b",
    },
    Golden {
        method: Method::Lar,
        best_lambda: 16,
        errors: "3fc4b90ad108a1c6 3fc3ad695dff8123 3fc349366a30bb9b 3fc338cb3cc73288 \
             3fc364bc3eb7370a 3fc2a2d4c6ef0c14 3fc2bd2cb54271f4 3fc2bdd339c8b8d7 \
             3fc2c6af053140d9 3fc2be72045dc7e4 3fc28cc07818d2c5 3fc2607715e00c46 \
             3fc244ea922efeb8 3fc24239341827d4 3fc1b63efda1808a 3fc1aa99b0cd1070",
        errors_se: "3f8eaa39053bdb5b 3f9200cc7ad05e41 3f93363081e4cf8f 3f936a7b8c160420 \
             3f93986ce52716cf 3f9459ad9a624626 3f98279dac203d24 3f98ab488feff97a \
             3f9878379fa0dc37 3f987a3b15986d26 3f97b7e3fee533a1 3f97bc55a9d27f27 \
             3f97b0f128f9950a 3f9817293fb054b0 3f97740e3a44a7b8 3f984125d06a22fa",
    },
    Golden {
        method: Method::LarLasso,
        best_lambda: 16,
        errors: "3fc4b90ad108a1c6 3fc3ad695dff8123 3fc349366a30bb9b 3fc338cb3cc73288 \
             3fc364bc3eb7370a 3fc2a2d4c6ef0c14 3fc2bd2cb54271f4 3fc2bdd339c8b8d7 \
             3fc2c6af053140d9 3fc2be72045dc7e4 3fc28cc07818d2c5 3fc2607715e00c46 \
             3fc24622289ec66e 3fc22799a1bd79ae 3fc19ae9e6634910 3fc13702504a9023",
        errors_se: "3f8eaa39053bdb5b 3f9200cc7ad05e41 3f93363081e4cf8f 3f936a7b8c160420 \
             3f93986ce52716cf 3f9459ad9a624626 3f98279dac203d24 3f98ab488feff97a \
             3f9878379fa0dc37 3f987a3b15986d26 3f97b7e3fee533a1 3f97bc55a9d27f27 \
             3f97afd44e7136e2 3f9824f42e4aec63 3f97358d455900ac 3f97d71f760f7adc",
    },
    Golden {
        method: Method::Omp,
        best_lambda: 1,
        errors: "3fc1f7ef357c7ace 3fc27d68aeadfd90 3fc47b9d593054d8 3fc6686c3b731eec \
             3fc726844315c174 3fc76347a80caa1d 3fc8f00b6be8d081 3fc9c5eedc81d2e0 \
             3fc9a1b457774e14 3fc98242ed28f380 3fca5c6b0221e0be 3fca4ccccf60823a \
             3fc97665dc401404 3fca292944a1e31e 3fca88184c878ef6 3fcabfb2c26cb13e",
        errors_se: "3f961db18d86b941 3f927729a01b7833 3f94cea21936ebe6 3f9472344fa201f0 \
             3f9192d28430abb0 3f9100aaf44923eb 3f9add9c50bc3acd 3f99d4b096447caa \
             3f9e63aa2aab5915 3f9c3e702f2166f2 3f97975c617a913d 3f97cb5b95924b7e \
             3f95b22eb544043a 3f968a141cb974a2 3f9758f4c2945cdb 3f934943d97b97ea",
    },
];

const DICTIONARY: [Golden; 4] = [
    Golden {
        method: Method::Star,
        best_lambda: 3,
        errors: "3fdcd7b158c544fb 3fcf2158ba5cc800 3fc2a91195b3d4fd 3fc2f01897824c26 \
             3fc3e74ea9ecc896 3fc40bdf4bc7809c 3fc43062832db0e5 3fc59b290e7c268e \
             3fc5c5177ff1772c 3fc63cf3ebaab748 3fc741a7030fa10b 3fc70d861ee50db0 \
             3fc7f12dfe5888e0 3fc899608e5c90cf 3fc94a2a378604fc 3fc90e1394a63a0b",
        errors_se: "3fa2f7d46c839bcb 3f9375c06cc31a11 3fa2d7b31236509c 3fa19af582896a0a \
             3fa15a98744edb5f 3fa12e085dfdd43c 3fa16378d4178b91 3fa3a76afd0d1a23 \
             3fa4fbb61e6a6d7b 3fa2cff0bac7cad8 3fa42ac62153eb55 3fa29526a8e73529 \
             3fa22940028bcdd6 3fa3f00198cb73fe 3fa447945d3f52b8 3fa35344a36922a8",
    },
    Golden {
        method: Method::Lar,
        best_lambda: 14,
        errors: "3fe527132ccf4628 3fd342e5a4b6d86c 3f933f1cc84e8f8c 3f909e38504e2b90 \
             3f900c5d8ccb3712 3f8fe3c6a976b2d7 3f8f2ef599344ad6 3f8eb6bb52e7c818 \
             3f8e850b12f002b0 3f8e20a098e01848 3f8e1961c4afb7ea 3f8e0942ba44103f \
             3f8df7509979436c 3f8deb4119a0bb3a 3f8e18caa4a64e72 3f8df4c9fe48495f",
        errors_se: "3f931d383fd83454 3f9754aa95e6886b 3f4f5ec0bd6c8ef2 3f48d8dc2e8f0ace \
             3f476d25cbea3a98 3f470494d13a2e02 3f4572f1f11dc359 3f4541b3c2575480 \
             3f457ecd11fe98ae 3f4761081dac0215 3f4744bcb9ae552a 3f472dd1d9330ed2 \
             3f46fe87c20e638d 3f4758556742fd14 3f46d72a4a773412 3f47bf142bdd9340",
    },
    Golden {
        method: Method::LarLasso,
        best_lambda: 14,
        errors: "3fe527132ccf4628 3fd342e5a4b6d86c 3f933f1cc84e8f8c 3f909e38504e2b90 \
             3f900c5d8ccb3712 3f8fe3c6a976b2d7 3f8f2ef599344ad6 3f8eb6bb52e7c818 \
             3f8e850b12f002b0 3f8e20a098e01848 3f8e1961c4afb7ea 3f8e0942ba44103f \
             3f8df7509979436c 3f8deb4119a0bb3a 3f8e18caa4a64e72 3f8df4c9fe48495f",
        errors_se: "3f931d383fd83454 3f9754aa95e6886b 3f4f5ec0bd6c8ef2 3f48d8dc2e8f0ace \
             3f476d25cbea3a98 3f470494d13a2e02 3f4572f1f11dc359 3f4541b3c2575480 \
             3f457ecd11fe98ae 3f4761081dac0215 3f4744bcb9ae552a 3f472dd1d9330ed2 \
             3f46fe87c20e638d 3f4758556742fd14 3f46d72a4a773412 3f47bf142bdd9340",
    },
    Golden {
        method: Method::Omp,
        best_lambda: 3,
        errors: "3fdd3508eaf94cf6 3fc9b1063800c32a 3f87ee6d04109420 3f89a8709a37e033 \
             3f8c07262845d1a7 3f8ddc361ddf9e87 3f8e10be18af778f 3f8fd407bc200012 \
             3f904ee86a78e169 3f90bd4d77b48a17 3f90b48134b05a3b 3f9129d7392a0fd6 \
             3f914fed2c738930 3f915e3646a31c95 3f916f0d072eb9d5 3f91ab0ca8b6515c",
        errors_se: "3fa6a20b486066d9 3f8674d6c1d51b26 3f44bbd80812485a 3f433482e657854a \
             3f317495669a5eb7 3f33bb0958d3d7ce 3f35b5b7222a77fa 3f3ca243c2be0d59 \
             3f3cc3c97e230730 3f384709ad5d4f23 3f3b032875e5edf7 3f3c1ac1a8e85ca8 \
             3f4875bbc17f859c 3f4afd3781054721 3f50a4b7ff5d7732 3f5133b3730dc629",
    },
];
