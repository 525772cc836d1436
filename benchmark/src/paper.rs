//! `paper`: the in-process reproduction of the figures — what
//! `repro all` computes — repeated round after round.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use loopspec::core::snap::Enc;
use loopspec::cpu::{Cpu, NullTracer, RunLimits};
use loopspec::dist::{JobSpec, LaneReport};
use loopspec::isa::snap::fnv1a;
use loopspec::workloads::{Scale, Workload};
use loopspec_bench::experiments::PolicyKind;
use loopspec_bench::paper::TABLE2;
use loopspec_bench::run::{execute_all, ExecuteOptions, WorkloadRun};

use crate::report::{json_num, m, Outcome};
use crate::stats::median;
use crate::trace::timed;
use crate::yardstick::{calibrate, Yardstick};
use crate::{digest, ladder, procfs, Args};

/// Everything `repro all` turns on: the 20-lane grid, the Figure 5
/// oracle and the Figure 8 profiler.
const OPTIONS: ExecuteOptions = ExecuteOptions {
    dataspec: true,
    oracle: true,
    engine_grid: true,
};

/// The instruction budget `execute_all` gives every program.
const FUEL: u64 = 1_000_000_000;

/// Nominal rounds per run: too few for any tail, so `job_tail_ms` is the
/// median round.
const ROUNDS_BASIS: usize = 19;

/// Single-pass digests at test scale of each program's lane reports and
/// Figure 5 row (see `--record-digests`).
const DIGESTS: [(&str, u64); 18] = [
    ("applu", 0x482fe9902397c554),
    ("apsi", 0xcdc3807b2faea25d),
    ("compress", 0x466e8cebdef00b19),
    ("fpppp", 0x011ebb4736d2538f),
    ("gcc", 0xae20b8d9fcd23bd7),
    ("go", 0x35148277a6199099),
    ("hydro2d", 0x4d04d51a4fe9bcc6),
    ("ijpeg", 0x80d098789a051429),
    ("li", 0x923864065bf4941c),
    ("m88ksim", 0x81d2b0dd8d2310e1),
    ("mgrid", 0x4afc71aad261aa37),
    ("perl", 0x2eb37df948f987b4),
    ("su2cor", 0x22455589bb45fbee),
    ("swim", 0xe0c80eca50f5b31a),
    ("tomcatv", 0x59a3a5c3763e8f88),
    ("turb3d", 0x4b14b3814d241daa),
    ("vortex", 0x43a4b22ab620d410),
    ("wave5", 0xcb41fa3b501085c8),
];

/// One reproduction of the figures.
fn round(order: &[Workload]) -> Vec<WorkloadRun> {
    execute_all(order, Scale::Test, OPTIONS)
}

/// Digest of one program's lane reports and Figure 5 row.
fn lanes_digest(run: &WorkloadRun) -> u64 {
    let mut enc = Enc::new();
    enc.bytes(run.workload.name.as_bytes());
    enc.u64(run.instructions);
    for (_, _, report) in run.reports() {
        digest::put_lane(&mut enc, &LaneReport::from(report));
    }
    for ideal in [run.ideal_all(), run.ideal_prefix()] {
        enc.u64(ideal.instructions);
        enc.u64(ideal.cycles);
        enc.u64(ideal.tpc.to_bits());
    }
    fnv1a(&enc.into_bytes())
}

/// Digest of one program's Figure 8 row.
fn fig8_digest(run: &WorkloadRun) -> u64 {
    let mut enc = Enc::new();
    let d = run.dataspec.expect("the profiler is on");
    enc.u64(d.iterations);
    enc.u64(d.loops as u64);
    for pct in [
        d.same_path_percent,
        d.lr_pred_percent,
        d.lm_pred_percent,
        d.all_lr_percent,
        d.all_lm_percent,
        d.all_data_percent,
    ] {
        enc.u64(pct.to_bits());
    }
    enc.u64(d.mem_slot_overflow);
    enc.u64(d.lr_seen);
    enc.u64(d.lm_seen);
    fnv1a(&enc.into_bytes())
}

/// Mean |TPC − paper TPC| for STR(3) at 4 TUs over the programs.
fn tpc_err_vs_paper(runs: &[WorkloadRun]) -> f64 {
    let errs: Vec<f64> = runs
        .iter()
        .filter_map(|r| {
            let paper = TABLE2.iter().find(|row| row.name == r.workload.name)?;
            Some((r.report(PolicyKind::StrNested(3), 4).tpc() - paper.tpc).abs())
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len().max(1) as f64
}

/// Checks one round's lane reports and Figure 5 rows against the
/// recorded digests, and adds each Figure 8 row's digest to `fig8`.
fn check_round(
    runs: &[WorkloadRun],
    out: &mut Outcome,
    fig8: &mut BTreeMap<&'static str, BTreeSet<u64>>,
) {
    for run in runs {
        let want = DIGESTS
            .iter()
            .find(|(n, _)| *n == run.workload.name)
            .map_or(0, |&(_, d)| d);
        out.check(digest::check(run.workload.name, want, lanes_digest(run)));
        fig8.entry(run.workload.name)
            .or_default()
            .insert(fig8_digest(run));
    }
}

/// The untimed end-to-end run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // The paper's Table 1 order, as `repro all` runs it. The seed does
    // not change this workload: reordering the work queue would move
    // the long programs and with them the round time.
    let order = loopspec::workloads::all();

    // Set-up: build the programs and run each once on the bare CPU to
    // fix the instruction count every round must reproduce.
    // `execute_all` builds them again inside each round, exactly as
    // `repro all` does.
    let mut setups = Vec::new();
    let mut expected = 0;
    for i in 0..crate::SETUPS {
        let t = Instant::now();
        let _span = crate::trace::span("paper.setup", i as u64);
        expected = 0;
        for w in &order {
            let retired = w
                .build(Scale::Test)
                .map_err(|e| e.to_string())
                .and_then(|p| {
                    Cpu::new()
                        .run(&p, &mut NullTracer, RunLimits::with_fuel(FUEL))
                        .map_err(|e| e.to_string())
                });
            match retired {
                Ok(summary) => expected += summary.retired,
                Err(e) => out.check(Err(format!("{}: {e}", w.name))),
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }

    // Each round is timed right after a yardstick on as many threads as
    // `execute_all` uses, and reported in reference-host seconds.
    let mut yardstick = Yardstick::new(crate::report::nproc());
    let start = Instant::now();
    let (mut raw, mut yards, mut walls) = (Vec::new(), Vec::new(), Vec::new());
    let (mut instrs, mut tpc_err) = (0u64, 0.0);
    let mut fig8 = BTreeMap::new();
    while start.elapsed().as_secs_f64() < args.seconds || walls.is_empty() {
        let y = yardstick.measure();
        let (runs, d) = timed("paper.round", walls.len() as u64, || round(&order));
        raw.push(d.as_secs_f64());
        yards.push(y);
        walls.push(calibrate(d.as_secs_f64(), y));
        instrs = runs.iter().map(|r| r.instructions).sum();
        tpc_err = tpc_err_vs_paper(&runs);
        check_round(&runs, &mut out, &mut fig8);
        out.check(if instrs == expected {
            Ok(())
        } else {
            Err(format!(
                "round retired {instrs} instructions, the bare CPU {expected}"
            ))
        });
    }
    let wall = median(&walls);
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();

    out.metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("wall_s", wall, "s"),
        m("sim_mips", instrs as f64 / wall / 1e6, "MIPS"),
        m("jobs_per_s", 1.0 / wall, "1/s"),
    ];
    crate::latency_metrics(&mut out, &ms, ROUNDS_BASIS);
    let peak = procfs::peak_rss_mb() - yardstick.resident_mb();
    out.metrics.push(m("peak_rss_mb", peak, "MiB"));
    out.stamp.push(("raw_wall_s", json_num(median(&raw))));
    out.stamp.push(("yardstick_s", json_num(median(&yards))));
    out.extra.push(m("tpc_err_vs_paper", tpc_err, "TPC"));
    out.stamp.push(("rounds", walls.len().to_string()));
    out.stamp
        .push(("instructions_per_round", instrs.to_string()));
    out.stamp.push(("tpc_err_vs_paper", json_num(tpc_err)));
    // Figure 8 rows are not reproducible: the live-in profiler picks each
    // loop's most frequent path in hash-map order when two paths tie.
    // They are reported here rather than failed (see the README).
    let unstable: Vec<&str> = fig8
        .iter()
        .filter(|(_, d)| d.len() > 1)
        .map(|(n, _)| *n)
        .collect();
    out.stamp
        .push(("fig8_rows_unstable", unstable.len().to_string()));
    if !unstable.is_empty() {
        eprintln!(
            "perfbench: known defect: the Figure 8 row of {} took different values across rounds",
            unstable.join(", ")
        );
    }
    out
}

/// The ladder's inputs: every program as a default job (the 20-lane
/// grid); the service rung submits each twice at once, then again.
pub fn ladder_inputs() -> ladder::Inputs {
    let specs: Vec<JobSpec> = loopspec::workloads::all()
        .iter()
        .map(|w| JobSpec::new(w.name))
        .collect();
    let batches = specs
        .iter()
        .flat_map(|s| [vec![s.clone(), s.clone()], vec![s.clone()]])
        .collect();
    ladder::Inputs {
        specs,
        batches,
        cache: 6,
    }
}

/// One round with telemetry and spans switched as asked.
pub fn unit(obs_on: bool, trace_on: bool) -> Result<f64, String> {
    let order = loopspec::workloads::all();
    loopspec::obs::set_enabled(obs_on);
    crate::trace::set_enabled(trace_on);
    let (_, d) = timed("paper.round", 0, || round(&order));
    Ok(d.as_secs_f64())
}

/// Prints the single-pass digests in the form of [`DIGESTS`].
pub fn record() {
    let runs = round(&loopspec::workloads::all());
    for r in &runs {
        println!("    (\"{}\", 0x{:016x}),", r.workload.name, lanes_digest(r));
    }
}
