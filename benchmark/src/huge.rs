//! `huge`: a few long kernel-backed jobs at `Scale::Huge`, one per
//! worker, submitted as tickets to a cache-disabled service.

use std::time::Instant;

use loopspec::dist::{JobSpec, LaneSpec};
use loopspec::pipeline::Plan;
use loopspec::svc::{Client, Service};
use loopspec::workloads::Scale;

use crate::mix::Rng;
use crate::report::{json_num, m, Outcome};
use crate::stats::median;
use crate::trace::{span, timed};
use crate::yardstick::{calibrate, Yardstick};
use crate::{digest, ladder, procfs, svc, Args};

/// Instructions per job: about a second of simulation on the 2-core
/// reference host — long enough to amortize the per-job dist and svc
/// costs, short enough for some 25 rounds to take a median over.
const FUEL: u64 = 60_000_000;

/// Shards per job; each chain of shards runs serially.
const SHARDS: u64 = 10;

/// The ladder runs the same jobs on this share of the fuel.
const LADDER_DIVISOR: u64 = 16;

/// Nominal jobs per run, which fixes the tail percentile at p75 (about
/// 50 jobs complete in 30 s on the 2-core reference host).
const JOBS_BASIS: usize = 40;

/// Two kernels of near-equal speed, so the round waits for neither.
const KERNELS: [&str; 2] = ["kern:kfill", "kern:khash"];

/// Single-pass digests of the two jobs (see `--record-digests`).
const DIGESTS: [(&str, u64); 2] = [
    ("kern:kfill", 0x21f3ab91903de09e),
    ("kern:khash", 0x0ceaabe49da318f2),
];

/// The jobs at `fuel` instructions each: one STR lane at 4 TUs (the
/// lane of the `huge_grid` bench), in [`SHARDS`] snapshot-linked shards.
fn jobs(fuel: u64) -> Vec<JobSpec> {
    KERNELS
        .iter()
        .map(|k| {
            JobSpec::new(*k)
                .scale(Scale::Huge)
                .lanes([LaneSpec::Str { tus: 4 }])
                .total_fuel(fuel)
                .plan(Plan::sliced(fuel / SHARDS))
        })
        .collect()
}

/// Submits `specs` at once and returns each reply with its latency.
fn round(
    client: &Client,
    specs: &[JobSpec],
) -> Vec<(usize, Result<loopspec::svc::Completion, String>, f64)> {
    let start = Instant::now();
    let waiters: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let ticket = client.submit(spec.clone());
            std::thread::spawn(move || {
                let reply = ticket.wait().map_err(|e| e.to_string());
                (i, reply, start.elapsed().as_secs_f64())
            })
        })
        .collect();
    waiters
        .into_iter()
        .map(|w| w.join().expect("waiter thread"))
        .collect()
}

/// The untimed end-to-end run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let specs = jobs(FUEL);
    let mut rng = Rng::new(args.seed, 3);

    // Set-up: building the programs at scale, worker spawn and handshake.
    let mut setups = Vec::new();
    let mut service: Option<Service> = None;
    for i in 0..crate::SETUPS {
        let _span = span("huge.setup", i as u64);
        let t = Instant::now();
        for s in &specs {
            if let Some(Err(e)) = loopspec::workloads::build_named(&s.workload, s.scale) {
                out.check(Err(format!("{}: {e}", s.workload)));
            }
        }
        let started = svc::spawn(0, true);
        setups.push(t.elapsed().as_secs_f64());
        match started {
            Ok(s) => {
                if let Some(old) = service.replace(s) {
                    old.shutdown();
                }
            }
            Err(e) => {
                out.check(Err(e));
                return out;
            }
        }
    }
    let service = service.expect("at least one set-up");
    let client = service.client();

    // Each round is timed right after a yardstick on one thread per
    // worker, and reported in reference-host seconds.
    let mut yardstick = Yardstick::new(svc::WORKERS);
    let start = Instant::now();
    let (mut raw, mut yards, mut walls, mut ms) = (vec![], vec![], vec![], vec![]);
    while start.elapsed().as_secs_f64() < args.seconds || walls.is_empty() {
        let mut order = specs.clone();
        rng.shuffle(&mut order);
        let y = yardstick.measure();
        let (replies, d) = timed("huge.round", walls.len() as u64, || round(&client, &order));
        raw.push(d.as_secs_f64());
        yards.push(y);
        walls.push(calibrate(d.as_secs_f64(), y));
        for (i, reply, secs) in replies {
            let name = &order[i].workload;
            match reply {
                Ok(done) => {
                    ms.push(calibrate(secs, y) * 1e3);
                    let want = DIGESTS
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |(_, d)| *d);
                    out.check(digest::check(name, want, digest::of_report(&done.report)));
                }
                Err(e) => {
                    ms.push(f64::INFINITY);
                    out.check(Err(format!("{name}: {e}")));
                }
            }
        }
    }
    let peak = procfs::peak_rss_mb() - yardstick.resident_mb();
    let stats = service.stats();
    service.shutdown();
    out.check(svc::invariants(&stats));

    let wall = median(&walls);
    let per_round = FUEL * specs.len() as u64;
    out.metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("wall_s", wall, "s"),
        m("sim_mips", per_round as f64 / wall / 1e6, "MIPS"),
        m("jobs_per_s", specs.len() as f64 / wall, "1/s"),
    ];
    crate::latency_metrics(&mut out, &ms, JOBS_BASIS);
    out.metrics.push(m("peak_rss_mb", peak, "MiB"));
    out.stamp.push(("raw_wall_s", json_num(median(&raw))));
    out.stamp.push(("yardstick_s", json_num(median(&yards))));
    out.stamp.push(("rounds", walls.len().to_string()));
    out.stamp.push(("fuel_per_job", FUEL.to_string()));
    out.stamp.push(("shards_per_job", SHARDS.to_string()));
    out
}

/// The ladder's inputs: the same jobs on a sixteenth of the fuel; the
/// service rung submits each twice at once, then again.
pub fn ladder_inputs() -> ladder::Inputs {
    let specs = jobs(FUEL / LADDER_DIVISOR);
    let batches = specs
        .iter()
        .flat_map(|s| [vec![s.clone(), s.clone()], vec![s.clone()]])
        .collect();
    ladder::Inputs {
        specs,
        batches,
        cache: 1,
    }
}

/// One round of the ladder-sized jobs on a fresh service, with
/// telemetry and spans switched as asked.
pub fn unit(obs_on: bool, trace_on: bool) -> Result<f64, String> {
    let specs = jobs(FUEL / LADDER_DIVISOR);
    loopspec::obs::set_enabled(obs_on);
    crate::trace::set_enabled(trace_on);
    let service = svc::spawn(0, obs_on)?;
    let (replies, d) = timed("huge.round", 0, || round(&service.client(), &specs));
    service.shutdown();
    for (_, reply, _) in replies {
        reply?;
    }
    Ok(d.as_secs_f64())
}

/// Prints the single-pass digests in the form of [`DIGESTS`].
pub fn record() {
    for spec in jobs(FUEL) {
        match digest::single_pass(&spec) {
            Ok(r) => println!(
                "    (\"{}\", 0x{:016x}),",
                spec.workload,
                digest::of_report(&r)
            ),
            Err(e) => println!("    // {}: {e}", spec.workload),
        }
    }
}
