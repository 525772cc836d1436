//! The loopspec benchmark: one workload per process, checked outputs,
//! and a final JSON result line.
//!
//! ```text
//! loopspec-perfbench --workload paper|service|huge --seed N --seconds S --trace 0|1
//! loopspec-perfbench --record-digests
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the per-layer ladder with spans on and writes the
//! spans to `benchmark/out/`. See `benchmark/README.md`.

mod digest;
mod huge;
mod ladder;
mod mix;
mod paper;
mod procfs;
mod report;
mod service;
mod stats;
mod svc;
mod trace;
mod yardstick;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{m, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// A seed kept out of tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 90_017;

const USAGE: &str = "usage: loopspec-perfbench --workload paper|service|huge --seed N \
                     --seconds S --trace 0|1\n       loopspec-perfbench --record-digests";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["paper", "service", "huge"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(args))
}

/// The repository root: the parent of this package.
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
}

/// Adds `job_p50_ms` and `job_tail_ms`, stamping the tail's percentile
/// and the sample count behind both. The percentile is chosen for the
/// workload's nominal job count `basis` (or fewer, if fewer jobs ran), so
/// a faster commit that completes more jobs is not judged at a higher
/// percentile.
pub fn latency_metrics(out: &mut Outcome, ms: &[f64], basis: usize) {
    let p = stats::tail_percentile(ms.len().min(basis));
    out.metrics
        .push(m("job_p50_ms", stats::percentile(ms, 50.0), "ms"));
    out.metrics
        .push(m("job_tail_ms", stats::percentile(ms, p), "ms"));
    out.stamp.push(("samples", ms.len().to_string()));
    out.stamp.push(("tail_percentile", report::json_num(p)));
    out.stamp
        .push(("tail_beyond", stats::beyond(ms.len(), p).to_string()));
}

/// The traced run: the ladder over the workload's inputs.
fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    trace::set_enabled(true);
    let seed = args.seed;
    let inputs = match args.workload.as_str() {
        "paper" => paper::ladder_inputs(),
        "service" => service::ladder_inputs(seed),
        _ => huge::ladder_inputs(),
    };
    let unit = |obs_on, trace_on| match args.workload.as_str() {
        "paper" => paper::unit(obs_on, trace_on),
        "service" => service::unit(seed, obs_on, trace_on),
        _ => huge::unit(obs_on, trace_on),
    };
    match ladder::run(&inputs, seed, &unit, &mut out) {
        Ok(metrics) => out.metrics = metrics,
        Err(e) => out.check(Err(e)),
    }
    out.stamp.push(("ladder_reps", ladder::REPS.to_string()));
    out.stamp
        .push(("ladder_inputs", inputs.specs.len().to_string()));
    out.stamp
        .push(("overhead_pairs", ladder::OVERHEAD_PAIRS.to_string()));
    let path: PathBuf = repo_root()
        .join("benchmark/out")
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match trace::write_jsonl(&path) {
        Ok(n) => eprintln!("perfbench: {n} spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    out
}

fn main() -> ExitCode {
    // Workers the service spawns re-execute this binary; they serve
    // here and exit.
    loopspec::dist::worker::maybe_serve_stdio();

    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("paper (test scale):");
            paper::record();
            println!("huge:");
            huge::record();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut out = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "paper" => paper::run(&args),
            "service" => service::run(&args),
            _ => huge::run(&args),
        }
    };
    out.extra.push(m("fail_pct", out.fail_pct(), "%"));
    let mut stamp = vec![
        ("workload", report::json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", report::json_num(args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", report::nproc().to_string()),
        ("cpu_model", report::json_str(&report::cpu_model())),
        ("commit", report::json_str(&report::commit_in(repo_root()))),
        ("fail_pct", report::json_num(out.fail_pct())),
    ];
    stamp.append(&mut out.stamp);
    out.stamp = stamp;

    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!(
        "perfbench: workload {} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace {
            "traced ladder"
        } else {
            "end to end"
        }
    );
    print!("{}", report::summary(&out));
    println!("{}", report::stamp_line(&out));
    println!("{}", report::result_line(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
