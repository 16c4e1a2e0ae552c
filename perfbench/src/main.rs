//! `perfbench` — runs one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it runs the workload again with bench-side wrappers
//! around each layer and reports the per-layer metrics. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! machine and the sample counts. `README.md` in this directory lists
//! the workloads, the metrics and what each should move.

use perfbench::machine;
use perfbench::problems::{FitProblem, RequestPool, ServeProblem, SERVE_VARS};
use perfbench::source::TracedSource;
use perfbench::stats::{median, percentile, tail_percentile};
use perfbench::trace::{attribute, Attribution, Span, Tracer};
use perfbench::transport::TracedListener;
use rsm_core::lar::LarConfig;
use rsm_core::select::CvConfig;
use rsm_core::source::{AtomSource, DictionarySource};
use rsm_core::{
    solver, FitSession, LarSession, Method, ModelOrder, SparseModel, StepOutcome, StreamConfig,
    StreamReport,
};
use rsm_linalg::Matrix;
use rsm_serve::frame::{encode_frame, read_frame, Frame};
use rsm_serve::PredictEngine;
use rsm_stats::EarlyStopRule;
use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-ups per fit run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Connections per serve run, each with a set-up of its own: `setup_s`
/// is the median of their set-ups and `rtt_ms_p99` the lower quartile
/// of their p99s.
const SERVE_CONNECTIONS: usize = 10;
/// Training points of the fit workloads.
const FIT_K: usize = 1000;
/// Held-out points of the fit workloads.
const FIT_K_TEST: usize = 4000;
/// Noise on the fit workloads' training responses.
const FIT_NOISE: f64 = 0.05;
/// A tail of 200 terms too small for a model of order 25 to pick out.
/// The error it leaves is fixed by the coefficients, so it dominates
/// `test_rel_err` over the part that depends on the seed's noise draw.
const TAIL: [f64; 200] = [0.01; 200];
/// Untimed requests before a serve loop starts timing.
const WARMUP_REQUESTS: usize = 50;
/// Fewest timed requests per serve loop, so that p99 has ten samples
/// beyond it.
const MIN_REQUESTS: usize = 1000;
/// Seconds between bursts of refits of the serving bundle during a
/// serve loop; `fit_s` on the serve workloads is the median of every
/// refit. A burst takes about 2 ms, and the request after it is no
/// slower than the others.
const REFIT_EVERY_S: f64 = 0.25;
/// Refits per burst. A 0.5 ms refit varies by 30% from call to call, so
/// the median needs hundreds of them per run to be steady.
const REFIT_BURST: usize = 4;
/// Longest traced serve connection: serve-small records three spans per
/// request, ~200 000 requests in this time.
const TRACED_SERVE_SECS: f64 = 3.0;
/// Where the traced run writes its spans (inside the checkout).
const TRACE_DIR: &str = ".perfbench_out";

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run reports all of them; a layer that is not on the
/// workload's path reports 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("source.correlate.calls", "count"),
    ("source.correlate.busy_s", "s"),
    ("source.correlate.ns_per_atom_row", "ns"),
    ("source.correlate.bytes_computed", "bytes"),
    ("source.correlate.ceiling_frac", "ratio"),
    ("source.correlate.nonzero_row_share", "ratio"),
    ("source.column_sq_norms.busy_s", "s"),
    ("source.column_into.calls", "count"),
    ("source.column_into.busy_s", "s"),
    ("source.columns_into.calls", "count"),
    ("source.columns_into.busy_s", "s"),
    ("source.row_into.calls", "count"),
    ("source.row_into.busy_s", "s"),
    ("source.gram_active.calls", "count"),
    ("source.gram_active.busy_s", "s"),
    ("session.step.calls", "count"),
    ("session.step_ms_p50", "ms"),
    ("solver.produce_s", "s"),
    ("solver.cv_walk_s", "s"),
    ("solver.batches", "count"),
    ("solver.lambda_explored", "count"),
    ("solver.best_lambda", "count"),
    ("runtime.threads", "count"),
    ("runtime.cpu_s", "s"),
    ("runtime.cpu_per_wall", "ratio"),
    ("frame.request_encode_us", "us"),
    ("frame.request_decode_us", "us"),
    ("frame.response_encode_us", "us"),
    ("frame.response_decode_us", "us"),
    ("frame.request_bytes", "bytes"),
    ("frame.response_bytes", "bytes"),
    ("engine.handle_us", "us"),
    ("model.predict_batch_us", "us"),
    ("server.read_calls_per_request", "count"),
    ("server.read_blocked_us", "us"),
    ("server.write_us", "us"),
    ("machine.nproc", "count"),
    ("machine.triad_gbps", "GB/s"),
    ("source.self_s", "s"),
    ("session.self_s", "s"),
    ("solver.self_s", "s"),
    ("server.self_s", "s"),
    ("client.self_s", "s"),
    ("unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    LarMillion,
    CvLar,
    ServeBulk,
    ServeSmall,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "lar-million" => Workload::LarMillion,
            "cv-lar" => Workload::CvLar,
            "serve-bulk" => Workload::ServeBulk,
            "serve-small" => Workload::ServeSmall,
            _ => return None,
        })
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?.clone();
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match kv.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, not {v}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// Result of one run: operation counts, metrics, and sample counts for
/// the record line.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    info: Vec<(&'static str, String)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.info.push((key, value.to_string()));
    }

    /// Counts one operation, failed unless `outcome` is `Ok`.
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: operation failed: {e}");
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_record(args: &Args, pinned: Option<usize>, report: &Report) {
    let caches: Vec<String> = machine::caches()
        .iter()
        .map(|(l, t, s)| json_str(&format!("L{l} {t} {s}")))
        .collect();
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"pinned_cpu\": {}, \
         \"threads\": {}, \"cpu_model\": {}, \"caches\": [{}], \"samples\": {{{}}}}}",
        json_str(&args.name),
        args.seed,
        args.trace,
        machine::nproc(),
        pinned.map_or("null".to_string(), |c| c.to_string()),
        rsm_runtime::threads(),
        json_str(&machine::cpu_model()),
        caches.join(", "),
        info.join(", ")
    );
    let mut finite = true;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            finite &= value.is_finite();
            let v = if value.is_finite() { value } else { -1.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let correct = finite && report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lar-million|cv-lar|serve-bulk|serve-small> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // The serve workloads run on one CPU, with one runtime thread. On a
    // small VM a round trip between threads on different CPUs is set
    // by the hypervisor's cross-CPU wake-up, and a two-thread predict
    // call mostly by the spawning of its workers; both vary from run to
    // run far more than the request loop being measured.
    let nproc = machine::nproc();
    let pinned = matches!(args.workload, Workload::ServeBulk | Workload::ServeSmall)
        .then(machine::pin_to_one_cpu)
        .flatten();
    let threads = if pinned.is_some() {
        1
    } else {
        rsm_runtime::threads()
    };
    rsm_runtime::set_threads(threads.min(nproc));
    let report = match (args.workload, args.trace) {
        (Workload::LarMillion, false) => run_fit(&FitSpec::LAR_MILLION, &args),
        (Workload::CvLar, false) => run_fit(&FitSpec::CV_LAR, &args),
        (Workload::LarMillion, true) => trace_fit(&FitSpec::LAR_MILLION, &args),
        (Workload::CvLar, true) => trace_fit(&FitSpec::CV_LAR, &args),
        (Workload::ServeBulk, false) => run_serve(&ServeSpec::BULK, &args),
        (Workload::ServeSmall, false) => run_serve(&ServeSpec::SMALL, &args),
        (Workload::ServeBulk, true) => trace_serve(&ServeSpec::BULK, &args),
        (Workload::ServeSmall, true) => trace_serve(&ServeSpec::SMALL, &args),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        for (name, unit) in PER_LAYER {
            if !report.metrics.iter().any(|&(n, _, _)| n == name) {
                report.put(name, 0.0, unit);
            }
        }
        assert_eq!(
            report.metrics.len(),
            PER_LAYER.len(),
            "a traced metric is missing from PER_LAYER"
        );
    }
    print_record(&args, pinned, &report);
}

// ---------------------------------------------------------------------------
// Fit workloads
// ---------------------------------------------------------------------------

/// A fit workload: LAR over the quadratic dictionary of `n` variables.
#[derive(Debug)]
struct FitSpec {
    /// Input variables `N`; the dictionary has `(N+1)(N+2)/2` atoms.
    n: usize,
    /// `λ` (fixed order) or `λ_max` (cross-validated).
    lambda: usize,
    /// 4-fold λ-lockstep CV through `fit_streaming` instead of a
    /// fixed-order `solver::fit`.
    cv: bool,
    /// Fewest solves per run, so that `fit_s` is a median.
    min_solves: usize,
}

impl FitSpec {
    const LAR_MILLION: FitSpec = FitSpec {
        n: 1413,
        lambda: 25,
        cv: false,
        min_solves: 2,
    };
    const CV_LAR: FitSpec = FitSpec {
        n: 446,
        lambda: 25,
        cv: true,
        min_solves: 3,
    };
}

/// The 20 planted coefficients (the same for every seed, which draws
/// only the points and the noise).
fn planted() -> Vec<f64> {
    (0..20)
        .map(|i| {
            let i = f64::from(i);
            if i % 2.0 == 0.0 {
                1.5 + 0.1 * i
            } else {
                -1.0 - 0.05 * i
            }
        })
        .collect()
}

/// Generates the fit problem `SETUP_REPS` times; returns the last one
/// and every set-up time.
fn setup_fit(spec: &FitSpec, seed: u64) -> (FitProblem, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut problem = None;
    for _ in 0..SETUP_REPS {
        drop(problem.take());
        let t = Instant::now();
        let p = FitProblem::generate(
            spec.n,
            FIT_K,
            FIT_K_TEST,
            &planted(),
            &TAIL,
            FIT_NOISE,
            seed,
        );
        std::hint::black_box(DictionarySource::new(&p.dict, &p.samples).num_atoms());
        times.push(t.elapsed().as_secs_f64());
        problem = Some(p);
    }
    (problem.expect("at least one set-up"), times)
}

struct Solved {
    model: SparseModel,
    stream: Option<StreamReport>,
    secs: f64,
}

/// One solve through the public solver entry.
fn solve<S: AtomSource + Sync + ?Sized>(
    spec: &FitSpec,
    src: &S,
    f: &[f64],
) -> Result<Solved, String> {
    let t = Instant::now();
    if spec.cv {
        let order = ModelOrder::CrossValidated(CvConfig::new(spec.lambda));
        let cfg = StreamConfig::new(FIT_K / 8).with_early_stop(EarlyStopRule::new());
        let r =
            solver::fit_streaming(src, f, Method::Lar, &order, &cfg).map_err(|e| e.to_string())?;
        Ok(Solved {
            secs: t.elapsed().as_secs_f64(),
            model: r.report.model.clone(),
            stream: Some(r),
        })
    } else {
        let r = solver::fit(src, f, Method::Lar, &ModelOrder::Fixed(spec.lambda))
            .map_err(|e| e.to_string())?;
        Ok(Solved {
            secs: t.elapsed().as_secs_f64(),
            model: r.model,
            stream: None,
        })
    }
}

fn model_bits(m: &SparseModel) -> Vec<(usize, u64)> {
    m.coefficients()
        .iter()
        .map(|&(j, c)| (j, c.to_bits()))
        .collect()
}

/// The workload's correctness check on a fitted model. Fixed order:
/// the planted atoms are exactly the largest coefficients. CV: the
/// chosen support contains the planted atoms (CV picks `λ_max` here,
/// so an exact check would always fail).
fn check_model(spec: &FitSpec, problem: &FitProblem, model: &SparseModel) -> Result<(), String> {
    let planted = &problem.support;
    let support = model.support();
    if spec.cv {
        if planted.iter().all(|j| support.binary_search(j).is_ok()) {
            return Ok(());
        }
        return Err(format!("CV support {support:?} misses planted {planted:?}"));
    }
    let mut by_size: Vec<(usize, f64)> = model.coefficients().to_vec();
    by_size.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
    let mut top: Vec<usize> = by_size
        .iter()
        .take(planted.len())
        .map(|&(j, _)| j)
        .collect();
    top.sort_unstable();
    if &top == planted {
        Ok(())
    } else {
        Err(format!("largest atoms {top:?} are not planted {planted:?}"))
    }
}

/// Seconds of one scoring of every held-out point through
/// `SparseModel::predict_batch`, at the run's threads.
fn time_scoring(problem: &FitProblem, model: &SparseModel) -> f64 {
    let t = Instant::now();
    std::hint::black_box(
        model
            .predict_batch(&problem.dict, &problem.test_samples)
            .expect("held-out points match the dictionary"),
    );
    t.elapsed().as_secs_f64()
}

fn run_fit(spec: &FitSpec, args: &Args) -> Result<Report, String> {
    let (problem, setup) = setup_fit(spec, args.seed);
    let src = DictionarySource::new(&problem.dict, &problem.samples);
    let mut rep = Report::default();
    let mut times = Vec::new();
    let mut reference: Option<Vec<(usize, u64)>> = None;
    let mut scoring = Vec::new();
    let mut last = None;
    // Memory is the peak of one solve over the problem's data: later
    // solves in the same process reuse what the allocator kept from
    // the first, so their peaks say more about the allocator's state
    // than about the solver.
    rep.note("peak_rss_reset", machine::reset_peak_rss());
    let mut peak_rss = 0.0;
    let t0 = Instant::now();
    while rep.attempted < spec.min_solves as u64 || t0.elapsed().as_secs_f64() < args.seconds {
        let outcome = solve(spec, &src, &problem.f).and_then(|s| {
            if times.is_empty() {
                peak_rss = machine::peak_rss_mb();
            }
            times.push(s.secs);
            scoring.push(time_scoring(&problem, &s.model));
            let bits = model_bits(&s.model);
            let same = reference.get_or_insert_with(|| bits.clone()) == &bits;
            let checked = check_model(spec, &problem, &s.model);
            last = Some(s.model);
            checked?;
            if same {
                Ok(())
            } else {
                Err("model bits differ from the run's first solve".into())
            }
        });
        rep.op(outcome);
    }
    let model = last.ok_or("no solve succeeded")?;
    let fit_s = median(&times);
    rep.put("setup_s", median(&setup), "s");
    rep.put("fit_s", fit_s, "s");
    rep.put("test_rel_err", problem.test_rel_err(&model), "ratio");
    rep.put("peak_rss_mb", peak_rss, "MB");
    rep.put("ok_share", ok_share(&rep), "ratio");
    // A fit workload's job is to fit the model and score the held-out
    // points with it; predictions_per_s is the rate of that whole job.
    // The scoring alone, about 0.1% of the job, is in the record line:
    // taken on its own, its rate moved with the host's speed across
    // runs about three times as much as a solve did (0.24 and 0.29 of
    // its median on lar-million in two sets, against 0.09 for fit_s).
    let score_s = median(&scoring);
    rep.put(
        "predictions_per_s",
        FIT_K_TEST as f64 / (fit_s + score_s),
        "1/s",
    );
    rep.put("rtt_ms_p50", fit_s * 1e3, "ms");
    rep.put("rtt_ms_p99", percentile(&times, 99.0) * 1e3, "ms");
    note_tail(&mut rep, &times);
    rep.note("scoring_points_per_s", FIT_K_TEST as f64 / score_s);
    rep.note("atoms", src.num_atoms());
    rep.note("model_terms", model.num_nonzeros());
    Ok(rep)
}

/// Records the sample count and the highest percentile with at least
/// ten samples beyond it.
fn note_tail(rep: &mut Report, rtt_s: &[f64]) {
    let tail = tail_percentile(rtt_s.len());
    rep.note("rtt_samples", rtt_s.len());
    rep.note("rtt_tail_percentile", tail);
    rep.note("rtt_tail_ms", percentile(rtt_s, tail) * 1e3);
}

fn ok_share(rep: &Report) -> f64 {
    (rep.attempted - rep.failed) as f64 / rep.attempted.max(1) as f64
}

/// Calls and busy seconds of the spans named `name`.
fn span_totals(spans: &[Span], name: &str) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(n, t), s| (n + 1.0, t + s.secs()))
}

/// Per-layer self times and the reconciliation check shared by every
/// traced run.
fn put_attribution(rep: &mut Report, att: &Attribution, overhead: f64, spans: usize) {
    let known = ["source", "session", "solver", "server", "client"];
    let stray: Vec<&str> = att
        .self_s
        .keys()
        .copied()
        .filter(|l| !known.contains(l))
        .collect();
    let err = att.reconcile_error_s();
    rep.op(if err <= 1e-6 * att.wall_s.max(1.0) && stray.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "self times do not reconcile with wall (error {err} s, stray layers {stray:?})"
        ))
    });
    rep.put("source.self_s", att.layer("source"), "s");
    rep.put("session.self_s", att.layer("session"), "s");
    rep.put("solver.self_s", att.layer("solver"), "s");
    rep.put("server.self_s", att.layer("server"), "s");
    rep.put("client.self_s", att.layer("client"), "s");
    rep.put("unattributed_s", att.unattributed_s, "s");
    rep.put("trace.wall_s", att.wall_s, "s");
    rep.put("trace.overhead_frac", overhead, "ratio");
    rep.put("trace.spans", spans as f64, "count");
}

fn write_spans(tracer: &Tracer, args: &Args) {
    let path = std::path::Path::new(TRACE_DIR).join(format!("{}-{}.csv", args.name, args.seed));
    match tracer.write_csv(&path) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

/// Traced fit: one untraced solve as the reference, the same solve over
/// a `TracedSource`, then one more untraced solve as the overhead
/// baseline. Fixed-order LAR is driven through the session
/// calls `LarConfig::fit_source` makes, one span per call, and is then
/// fitted once more through `solver::fit_streaming` for the solver
/// layer's figures.
fn trace_fit(spec: &FitSpec, args: &Args) -> Result<Report, String> {
    let (problem, _) = setup_fit(spec, args.seed);
    let f = &problem.f;
    let plain = DictionarySource::new(&problem.dict, &problem.samples);
    let mut rep = Report::default();
    let reference = solve(spec, &plain, f)?;
    rep.op(check_model(spec, &problem, &reference.model));

    let tracer = Tracer::new();
    let src = TracedSource::new(plain.clone(), &tracer);
    let cpu0 = machine::process_cpu_s();
    let w0 = tracer.now_ns();
    let (model, mut stream) = if spec.cv {
        let s = tracer.span("solver.fit_streaming", || solve(spec, &src, f))?;
        (s.model, s.stream)
    } else {
        let mut session = tracer
            .span("session.new", || {
                LarSession::new(LarConfig::new(spec.lambda), src.num_atoms())
            })
            .map_err(|e| e.to_string())?;
        tracer
            .span("session.extend_samples", || {
                session.extend_samples(&src, f, 0..src.num_rows())
            })
            .map_err(|e| e.to_string())?;
        while session.steps_taken() < spec.lambda {
            let step = tracer.span("session.step", || session.step(&src, f));
            if step.map_err(|e| e.to_string())? == StepOutcome::Finished {
                break;
            }
        }
        let path = tracer
            .span("session.into_path", || session.into_path())
            .map_err(|e| e.to_string())?;
        (path.model_at(spec.lambda), None)
    };
    let w1 = tracer.now_ns();
    let cpu = machine::process_cpu_s() - cpu0;
    let wall = (w1 - w0) as f64 * 1e-9;
    rep.op(if model_bits(&model) == model_bits(&reference.model) {
        check_model(spec, &problem, &model)
    } else {
        Err("traced model bits differ from the untraced model".into())
    });
    // The overhead baseline is a second untraced solve after the traced
    // one: the first solve in a process is slower while the allocator
    // settles, which would make tracing look cheaper than it is.
    let after = solve(spec, &plain, f)?;
    rep.op(
        if model_bits(&after.model) == model_bits(&reference.model) {
            Ok(())
        } else {
            Err("untraced model bits changed between solves".into())
        },
    );
    // Fixed-order LAR has no `StreamReport` of its own; the solver
    // layer's figures come from the same fit through the streaming
    // pipeline. Its batched sweeps differ from the batch fit in
    // low-order bits, so it must give the batch fit's support and pass
    // the workload's check.
    if stream.is_none() {
        let order = ModelOrder::Fixed(spec.lambda);
        let cfg = StreamConfig::new(FIT_K / 8);
        let r = solver::fit_streaming(&plain, f, Method::Lar, &order, &cfg)
            .map_err(|e| e.to_string())?;
        rep.op(if r.report.model.support() == reference.model.support() {
            check_model(spec, &problem, &r.report.model)
        } else {
            Err("the streaming fit's support differs from the batch fit's".into())
        });
        stream = Some(r);
    }

    let spans = tracer.spans();
    let m = src.num_atoms() as f64;
    let (cor_calls, cor_busy) = span_totals(&spans, "source.correlate");
    // Wall time with at least one correlate open: fold sessions on
    // different workers correlate concurrently on cv-lar.
    let cor_wall = attribute(
        &spans
            .iter()
            .filter(|s| s.name == "source.correlate")
            .cloned()
            .collect::<Vec<_>>(),
        w0,
        w1,
    )
    .layer("source");
    let rows = src.correlate.rows.load(Ordering::Relaxed) as f64;
    let nonzero = src.correlate.nonzero_rows.load(Ordering::Relaxed) as f64;
    // Per nonzero row the row sweep writes and re-reads an M-long row
    // buffer and reads and writes an M-long accumulator: 4·8·M bytes.
    let bytes = nonzero * 32.0 * m;
    let threads = rsm_runtime::threads();
    let triad = machine::triad_gbps(threads, src.num_atoms());
    rep.put("source.correlate.calls", cor_calls, "count");
    rep.put("source.correlate.busy_s", cor_busy, "s");
    rep.put(
        "source.correlate.ns_per_atom_row",
        cor_wall * 1e9 / (rows * m).max(1.0),
        "ns",
    );
    rep.put("source.correlate.bytes_computed", bytes, "bytes");
    rep.put(
        "source.correlate.ceiling_frac",
        bytes / cor_wall.max(1e-12) / (triad * 1e9),
        "ratio",
    );
    rep.put(
        "source.correlate.nonzero_row_share",
        nonzero / rows.max(1.0),
        "ratio",
    );
    rep.put(
        "source.column_sq_norms.busy_s",
        span_totals(&spans, "source.column_sq_norms").1,
        "s",
    );
    for (calls, busy, name) in [
        (
            "source.column_into.calls",
            "source.column_into.busy_s",
            "source.column_into",
        ),
        (
            "source.columns_into.calls",
            "source.columns_into.busy_s",
            "source.columns_into",
        ),
        (
            "source.row_into.calls",
            "source.row_into.busy_s",
            "source.row_into",
        ),
        (
            "source.gram_active.calls",
            "source.gram_active.busy_s",
            "source.gram_active",
        ),
    ] {
        let (n, t) = span_totals(&spans, name);
        rep.put(calls, n, "count");
        rep.put(busy, t, "s");
    }
    let steps: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "session.step")
        .map(Span::secs)
        .collect();
    rep.put("session.step.calls", steps.len() as f64, "count");
    rep.put("session.step_ms_p50", median(&steps) * 1e3, "ms");
    let sr = stream.as_ref();
    rep.put(
        "solver.produce_s",
        sr.map_or(0.0, |s| s.produce_seconds),
        "s",
    );
    rep.put("solver.cv_walk_s", sr.map_or(0.0, |s| s.cv_seconds), "s");
    rep.put(
        "solver.batches",
        sr.map_or(0.0, |s| s.batches as f64),
        "count",
    );
    rep.put(
        "solver.lambda_explored",
        sr.map_or(0.0, |s| s.lambda_explored as f64),
        "count",
    );
    rep.put(
        "solver.best_lambda",
        sr.map_or(0.0, |s| s.report.lambda as f64),
        "count",
    );
    put_runtime(&mut rep, threads, cpu, wall);
    rep.put("machine.nproc", machine::nproc() as f64, "count");
    rep.put("machine.triad_gbps", triad, "GB/s");
    let att = attribute(&spans, w0, w1);
    put_attribution(&mut rep, &att, wall / after.secs - 1.0, spans.len());
    rep.note("untraced_fit_s", after.secs);
    rep.note("traced_fit_s", wall);
    write_spans(&tracer, args);
    Ok(rep)
}

fn put_runtime(rep: &mut Report, threads: usize, cpu: f64, wall: f64) {
    rep.put("runtime.threads", threads as f64, "count");
    rep.put("runtime.cpu_s", cpu, "s");
    rep.put("runtime.cpu_per_wall", cpu / wall.max(1e-12), "ratio");
}

// ---------------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------------

/// A serve workload: one closed-loop client sending predict frames of
/// `points` points to the in-process server over one TCP connection.
#[derive(Debug)]
struct ServeSpec {
    points: usize,
    /// Distinct requests, made with their expected bits before timing
    /// and sent in turn.
    pool: usize,
}

impl ServeSpec {
    const BULK: ServeSpec = ServeSpec {
        points: 4096,
        pool: 8,
    };
    const SMALL: ServeSpec = ServeSpec {
        points: 16,
        pool: 256,
    };
}

/// Everything a serve loop needs, made before timing starts.
struct ServeSetup {
    problem: ServeProblem,
    pool: RequestPool,
    encoded: Vec<Vec<u8>>,
    engine: PredictEngine,
}

fn build_serve(spec: &ServeSpec, seed: u64) -> Result<ServeSetup, String> {
    let problem = ServeProblem::generate(seed)?;
    let model = &problem.bundle.model;
    let pool = RequestPool::generate(model, &problem.problem.dict, spec.pool, spec.points, seed);
    let encoded = pool
        .points
        .iter()
        .map(|p| {
            encode_frame(&Frame::Predict {
                num_vars: SERVE_VARS,
                points: p.clone(),
            })
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let engine = PredictEngine::new(problem.bundle.clone()).map_err(|e| e.to_string())?;
    Ok(ServeSetup {
        problem,
        pool,
        encoded,
        engine,
    })
}

/// Serves `engine` on a loopback port for one connection and runs
/// `body` on the connected client stream. Untraced runs go through
/// `serve_tcp`; traced runs through `serve_listener` over a
/// [`TracedListener`].
fn with_server<T>(
    engine: &PredictEngine,
    tracer: Option<&Tracer>,
    body: impl FnOnce(TcpStream) -> T,
) -> Result<T, String> {
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let server = match tracer {
            None => s.spawn(move || {
                rsm_serve::serve_tcp(engine, "127.0.0.1:0", Some(1), |a| {
                    let _ = tx.send(a);
                })
            }),
            Some(tracer) => s.spawn(move || {
                let inner = TcpListener::bind("127.0.0.1:0")?;
                let _ = tx.send(inner.local_addr()?);
                rsm_serve::serve_listener(engine, &TracedListener { inner, tracer }, Some(1))
            }),
        };
        let out = match rx.recv() {
            Ok(addr) => TcpStream::connect(addr)
                .map(body)
                .map_err(|e| format!("connect: {e}")),
            Err(_) => Err("server did not bind".to_string()),
        };
        let served = server.join().expect("server thread panicked");
        let out = out?;
        served.map_err(|e| format!("server: {e}"))?;
        Ok(out)
    })
}

/// Timed request loop of one connection.
#[derive(Debug, Default)]
struct LoopStats {
    rtt_s: Vec<f64>,
    /// Seconds of each bundle refit made between requests.
    fit_s: Vec<f64>,
    points: usize,
    attempted: u64,
    failed: u64,
}

/// Sends pool requests in turn until `seconds` have passed and at
/// least `MIN_REQUESTS` were timed. The round trip is timed from the
/// first byte written to the last byte of the answer decoded; checking
/// the answer against the pool's bits happens outside it.
fn request_loop(
    stream: TcpStream,
    setup: &ServeSetup,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Result<LoopStats, String> {
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::with_capacity(1 << 20, stream);
    let mut stats = LoopStats::default();
    let mut exchange = |i: usize, timed: bool, stats: &mut LoopStats| -> bool {
        let idx = i % setup.encoded.len();
        let t = Instant::now();
        let mut round = || {
            writer
                .write_all(&setup.encoded[idx])
                .map_err(|e| e.to_string())?;
            read_frame(&mut reader).map_err(|e| e.to_string())
        };
        let answer = match tracer {
            Some(tr) if timed => tr.span("client.request", round),
            _ => round(),
        };
        let rtt = t.elapsed().as_secs_f64();
        stats.attempted += 1;
        let expected = &setup.pool.expected[idx];
        let (error, fatal) = match answer {
            Ok(Some(Frame::Predictions { values }))
                if values
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(expected.iter().copied()) =>
            {
                if timed {
                    stats.rtt_s.push(rtt);
                    stats.points += values.len();
                }
                return true;
            }
            Ok(Some(Frame::Predictions { .. })) => ("answer not bit-exact".to_string(), false),
            Ok(Some(other)) => (format!("unexpected frame {other:?}"), false),
            Ok(None) => ("server closed the stream".to_string(), true),
            Err(e) => (format!("transport error: {e}"), true),
        };
        stats.failed += 1;
        eprintln!("perfbench: request {i}: {error}");
        // A closed or broken stream cannot carry further requests.
        !fatal
    };
    for i in 0..WARMUP_REQUESTS {
        if !exchange(i, false, &mut stats) {
            return Ok(stats);
        }
    }
    let t0 = Instant::now();
    let mut i = 0;
    let mut next_refit = 0.0;
    // Past `seconds`, keep going only to reach MIN_REQUESTS answers, and
    // not at all once a request has failed.
    while t0.elapsed().as_secs_f64() < seconds
        || (stats.rtt_s.len() < MIN_REQUESTS && stats.failed == 0)
    {
        if !exchange(i, true, &mut stats) {
            break;
        }
        i += 1;
        // Refit the bundle between requests now and then, outside any
        // round trip, so fit_s samples the same stretch of time as the
        // round trips do.
        let now = t0.elapsed().as_secs_f64();
        if tracer.is_none() && now >= next_refit {
            next_refit = now + REFIT_EVERY_S;
            for _ in 0..REFIT_BURST {
                stats.attempted += 1;
                match setup.problem.refit() {
                    Ok(secs) => stats.fit_s.push(secs),
                    Err(e) => {
                        stats.failed += 1;
                        eprintln!("perfbench: {e}");
                    }
                }
            }
        }
    }
    Ok(stats)
}

/// The untraced part of a serve run.
struct ServeRun {
    /// The last set-up, kept for the traced run's in-process timings.
    setup: ServeSetup,
    setup_s: Vec<f64>,
    /// One request loop per connection.
    loops: Vec<LoopStats>,
}

/// Sets up `SERVE_CONNECTIONS` times (inputs, bundle fits, engine,
/// server bound and connected) and runs a request loop of
/// `seconds / SERVE_CONNECTIONS` on each connection. Every set-up gets
/// fresh buffers and a fresh server thread, so the loop is measured
/// over several of them rather than one.
fn serve_untraced(spec: &ServeSpec, seed: u64, seconds: f64) -> Result<ServeRun, String> {
    let slice = seconds / SERVE_CONNECTIONS as f64;
    let mut setup_s = Vec::with_capacity(SERVE_CONNECTIONS);
    let mut loops = Vec::with_capacity(SERVE_CONNECTIONS);
    // Build and free one set-up before any timing: once frame-sized
    // buffers have been freed, the allocator serves later frame-sized
    // allocations differently (round trips ~25% faster on serve-bulk),
    // and every measured connection should see the same allocator state.
    let first = build_serve(spec, seed)?;
    let bundle_bits = model_bits(&first.problem.bundle.model);
    drop(first);
    let mut last = None;
    for _ in 0..SERVE_CONNECTIONS {
        drop(last.take());
        let t = Instant::now();
        let setup = build_serve(spec, seed)?;
        if model_bits(&setup.problem.bundle.model) != bundle_bits {
            return Err("the serving bundle's refit changed its bits".into());
        }
        let stats = with_server(&setup.engine, None, |stream| {
            setup_s.push(t.elapsed().as_secs_f64());
            request_loop(stream, &setup, slice, None)
        })??;
        loops.push(stats);
        last = Some(setup);
    }
    Ok(ServeRun {
        setup: last.expect("at least one set-up"),
        setup_s,
        loops,
    })
}

impl LoopStats {
    fn merge(parts: Vec<LoopStats>) -> LoopStats {
        let mut all = LoopStats::default();
        for p in parts {
            all.rtt_s.extend(p.rtt_s);
            all.fit_s.extend(p.fit_s);
            all.points += p.points;
            all.attempted += p.attempted;
            all.failed += p.failed;
        }
        all
    }
}

fn run_serve(spec: &ServeSpec, args: &Args) -> Result<Report, String> {
    let ServeRun {
        setup,
        setup_s: setup_times,
        loops: parts,
    } = serve_untraced(spec, args.seed, args.seconds)?;
    // p99 is taken per connection and the lower quartile over
    // connections is reported: a burst of host preemption lands in a
    // few connections' tails instead of the whole run's.
    let p99s: Vec<f64> = parts.iter().map(|p| percentile(&p.rtt_s, 99.0)).collect();
    let per_conn: Vec<String> = parts
        .iter()
        .map(|p| {
            format!(
                "{:.4}/{:.4}",
                median(&p.rtt_s) * 1e3,
                percentile(&p.rtt_s, 99.0) * 1e3
            )
        })
        .collect();
    let stats = LoopStats::merge(parts);
    let mut rep = Report {
        attempted: stats.attempted,
        failed: stats.failed,
        ..Report::default()
    };
    let busy: f64 = stats.rtt_s.iter().sum();
    let problem = &setup.problem.problem;
    rep.put("setup_s", median(&setup_times), "s");
    rep.put("fit_s", median(&stats.fit_s), "s");
    rep.put(
        "test_rel_err",
        problem.test_rel_err(&setup.problem.bundle.model),
        "ratio",
    );
    rep.put("peak_rss_mb", machine::peak_rss_mb(), "MB");
    rep.put("ok_share", ok_share(&rep), "ratio");
    rep.put(
        "predictions_per_s",
        stats.points as f64 / busy.max(1e-12),
        "1/s",
    );
    rep.put("rtt_ms_p50", median(&stats.rtt_s) * 1e3, "ms");
    rep.put("rtt_ms_p99", percentile(&p99s, 25.0) * 1e3, "ms");
    note_tail(&mut rep, &stats.rtt_s);
    rep.note("points_per_request", spec.points);
    rep.note("rtt_ms_p50_p99_per_connection", per_conn.join(" "));
    Ok(rep)
}

/// Median microseconds of `f` over the pool, repeated for at least
/// 0.2 s.
fn per_request_us(pool: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::new();
    let t0 = Instant::now();
    let mut i = 0;
    while times.len() < 2 * pool || t0.elapsed().as_secs_f64() < 0.2 {
        let t = Instant::now();
        f(i % pool);
        times.push(t.elapsed().as_secs_f64() * 1e6);
        i += 1;
    }
    median(&times)
}

/// Traced serve: half the run untraced (the overhead baseline), then up
/// to `TRACED_SERVE_SECS` through a traced listener, then in-process
/// timing of the frame codec, `PredictEngine::handle` and
/// `SparseModel::predict_batch` on the same requests.
fn trace_serve(spec: &ServeSpec, args: &Args) -> Result<Report, String> {
    let half = args.seconds / 2.0;
    let run = serve_untraced(spec, args.seed, half)?;
    let setup = run.setup;
    let plain = LoopStats::merge(run.loops);
    let mut rep = Report {
        attempted: plain.attempted,
        failed: plain.failed,
        ..Report::default()
    };
    let tracer = Tracer::new();
    let cpu0 = machine::process_cpu_s();
    let mut window = (0, 0);
    let traced = with_server(&setup.engine, Some(&tracer), |stream| {
        window.0 = tracer.now_ns();
        let out = request_loop(stream, &setup, half.min(TRACED_SERVE_SECS), Some(&tracer));
        window.1 = tracer.now_ns();
        out
    })??;
    let cpu = machine::process_cpu_s() - cpu0;
    rep.attempted += traced.attempted;
    rep.failed += traced.failed;
    let (w0, w1) = window;
    let wall = (w1 - w0) as f64 * 1e-9;
    let spans: Vec<Span> = tracer
        .spans()
        .into_iter()
        .filter(|s| s.start_ns >= w0 && s.end_ns <= w1)
        .collect();
    let requests = spans.iter().filter(|s| s.name == "client.request").count() as f64;
    let (reads, read_s) = span_totals(&spans, "server.read");
    let (_, write_s) = span_totals(&spans, "server.write");

    // In-process layer timings on the workload's own requests.
    let pool = &setup.pool;
    let model = &setup.problem.bundle.model;
    let dict = &setup.problem.problem.dict;
    let frames: Vec<Frame> = pool
        .points
        .iter()
        .map(|p| Frame::Predict {
            num_vars: SERVE_VARS,
            points: p.clone(),
        })
        .collect();
    let batches: Vec<Matrix> = pool
        .points
        .iter()
        .map(|p| Matrix::from_vec(p.len() / SERVE_VARS, SERVE_VARS, p.clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let responses: Vec<Frame> = frames.iter().map(|f| setup.engine.handle(f)).collect();
    let encoded_resp: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| encode_frame(r).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let n = pool.points.len();
    let req_enc = per_request_us(n, |i| {
        std::hint::black_box(encode_frame(&frames[i]).ok());
    });
    let req_dec = per_request_us(n, |i| {
        std::hint::black_box(read_frame(&mut &setup.encoded[i][..]).ok());
    });
    let handle = per_request_us(n, |i| {
        std::hint::black_box(setup.engine.handle(&frames[i]));
    });
    let predict = per_request_us(n, |i| {
        std::hint::black_box(model.predict_batch(dict, &batches[i]).ok());
    });
    let resp_enc = per_request_us(n, |i| {
        std::hint::black_box(encode_frame(&responses[i]).ok());
    });
    let resp_dec = per_request_us(n, |i| {
        std::hint::black_box(read_frame(&mut &encoded_resp[i][..]).ok());
    });
    for (i, r) in responses.iter().enumerate() {
        let exact = matches!(r, Frame::Predictions { values }
            if values.iter().map(|v| v.to_bits()).eq(pool.expected[i].iter().copied()));
        rep.op(if exact {
            Ok(())
        } else {
            Err(format!("in-process answer {i} not bit-exact"))
        });
    }

    let threads = rsm_runtime::threads();
    let triad = machine::triad_gbps(threads, spec.points * SERVE_VARS);
    put_runtime(&mut rep, threads, cpu, wall);
    rep.put("frame.request_encode_us", req_enc, "us");
    rep.put("frame.request_decode_us", req_dec, "us");
    rep.put("frame.response_encode_us", resp_enc, "us");
    rep.put("frame.response_decode_us", resp_dec, "us");
    rep.put(
        "frame.request_bytes",
        setup.encoded[0].len() as f64,
        "bytes",
    );
    rep.put(
        "frame.response_bytes",
        encoded_resp[0].len() as f64,
        "bytes",
    );
    rep.put("engine.handle_us", handle, "us");
    rep.put("model.predict_batch_us", predict, "us");
    rep.put(
        "server.read_calls_per_request",
        reads / requests.max(1.0),
        "count",
    );
    rep.put(
        "server.read_blocked_us",
        read_s * 1e6 / requests.max(1.0),
        "us",
    );
    rep.put("server.write_us", write_s * 1e6 / requests.max(1.0), "us");
    rep.put("machine.nproc", machine::nproc() as f64, "count");
    rep.put("machine.triad_gbps", triad, "GB/s");
    let att = attribute(&spans, w0, w1);
    let overhead = median(&traced.rtt_s) / median(&plain.rtt_s) - 1.0;
    put_attribution(&mut rep, &att, overhead, spans.len());
    rep.note("untraced_requests", plain.rtt_s.len());
    rep.note("traced_requests", traced.rtt_s.len());
    write_spans(&tracer, args);
    Ok(rep)
}
