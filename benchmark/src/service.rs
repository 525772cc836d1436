//! `service`: a closed loop of client threads against one replay
//! service, drawing test-scale jobs from a skewed, seeded spec pool.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use loopspec::dist::JobSpec;
use loopspec::svc::{Client, Service, SvcError};

use crate::mix::{client_sequence, service_pool, Rng, Zipf, POOL_SIZE};
use crate::report::{m, Outcome};
use crate::stats::{median, pct};
use crate::trace::span;
use crate::{digest, ladder, procfs, svc, Args};

/// Client threads, each with one job outstanding.
const CLIENTS: usize = 2;

/// Report-cache capacity: well below the pool's distinct specs.
pub const CACHE: usize = 3;

/// Popularity skew over the pool's ranks. With [`CACHE`] this keeps the
/// hit share near 20 % and the generated scenarios' misses near 10 %,
/// so the median job lands inside the band of full-length misses.
const ZIPF_S: f64 = 0.5;

/// Untimed jobs per client before measuring, to fill the cache.
const WARMUP_JOBS: usize = 40;

/// Nominal measured jobs per run, which fixes the tail percentile at
/// p99 (about 7,500 jobs complete in 20 s on the 2-core reference host).
const JOBS_BASIS: usize = 5_000;

/// Completions per `wall_s` block.
const BLOCK: usize = 100;

/// One finished submission.
#[derive(Debug)]
struct Job {
    rank: usize,
    submitted: Instant,
    done: Instant,
    /// Report digest and instruction count, or why there is none.
    result: Result<(u64, u64), String>,
    cached: bool,
    measured: bool,
}

fn submit(client: &Client, pool: &[JobSpec], rank: usize, measured: bool) -> Job {
    let _span = span("service.job", pool[rank].fingerprint());
    let submitted = Instant::now();
    let reply = client.run(pool[rank].clone());
    let done = Instant::now();
    let (result, cached) = match reply {
        Ok(c) => (
            Ok((digest::of_report(&c.report), c.report.instructions)),
            c.cached,
        ),
        Err(SvcError::Rejected { queue_depth }) => {
            (Err(format!("rejected at queue depth {queue_depth}")), false)
        }
        Err(e) => (Err(e.to_string()), false),
    };
    Job {
        rank,
        submitted,
        done,
        result,
        cached,
        measured,
    }
}

/// Runs every client until `seconds` of measured traffic have passed.
/// Returns the jobs and the instant measuring began.
fn closed_loop(
    service: &Service,
    pool: &[JobSpec],
    seed: u64,
    seconds: f64,
) -> (Vec<Job>, Instant) {
    let zipf = Zipf::new(POOL_SIZE, ZIPF_S);
    let barrier = Arc::new(Barrier::new(CLIENTS + 1));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = service.client();
            let pool = pool.to_vec();
            let zipf = zipf.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut rng = Rng::new(seed, 100 + c as u64);
                let mut jobs: Vec<Job> = (0..WARMUP_JOBS)
                    .map(|_| submit(&client, &pool, zipf.sample(&mut rng), false))
                    .collect();
                barrier.wait();
                let start = Instant::now();
                while start.elapsed().as_secs_f64() < seconds {
                    jobs.push(submit(&client, &pool, zipf.sample(&mut rng), true));
                }
                jobs
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let jobs = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    (jobs, start)
}

/// The untimed end-to-end run.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let pool = service_pool(args.seed);

    // Set-up: the pool, then worker spawn and handshake.
    let mut setups = Vec::new();
    let mut service = None;
    for i in 0..crate::SETUPS {
        let _span = span("service.setup", i as u64);
        let t = Instant::now();
        let pool = service_pool(args.seed);
        let valid = pool
            .iter()
            .try_for_each(|s| s.validate().map_err(|e| e.to_string()));
        let started = valid.and_then(|()| svc::spawn(CACHE, true));
        setups.push(t.elapsed().as_secs_f64());
        match started {
            Ok(s) => {
                if let Some(old) = service.replace(s) {
                    Service::shutdown(old);
                }
            }
            Err(e) => {
                out.check(Err(e));
                return out;
            }
        }
    }
    let service = service.expect("at least one set-up");

    let (jobs, start) = closed_loop(&service, &pool, args.seed, args.seconds);
    let peak = procfs::peak_rss_mb();
    let stats = service.stats();
    service.shutdown();
    out.check(svc::invariants(&stats));

    // Every report against an in-process single pass of its spec.
    let mut want: HashMap<usize, u64> = HashMap::new();
    for job in &jobs {
        let got = match &job.result {
            Ok((d, _)) => *d,
            Err(e) => {
                out.check(Err(format!("{}: {e}", pool[job.rank].workload)));
                continue;
            }
        };
        let reference = *want.entry(job.rank).or_insert_with(|| {
            digest::single_pass(&pool[job.rank]).map_or(0, |r| digest::of_report(&r))
        });
        let what = format!("{} (cached: {})", pool[job.rank].workload, job.cached);
        out.check(digest::check(&what, reference, got));
    }

    let measured: Vec<&Job> = jobs.iter().filter(|j| j.measured).collect();
    let end = measured.iter().map(|j| j.done).max().unwrap_or(start);
    let elapsed = (end - start).as_secs_f64();
    let ok = measured.iter().filter(|j| j.result.is_ok()).count();
    let instrs: u64 = measured
        .iter()
        .filter_map(|j| j.result.as_ref().ok().map(|(_, n)| *n))
        .sum();
    // A refused or failed job is slower than any limit.
    let ms: Vec<f64> = measured
        .iter()
        .map(|j| match j.result {
            Ok(_) => (j.done - j.submitted).as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        })
        .collect();
    let mut done: Vec<Instant> = measured.iter().map(|j| j.done).collect();
    done.sort_unstable();
    let blocks: Vec<f64> = done
        .chunks_exact(BLOCK)
        .scan(start, |prev, block| {
            let last = *block.last().expect("non-empty block");
            let d = (last - *prev).as_secs_f64();
            *prev = last;
            Some(d)
        })
        .collect();
    let hits = measured.iter().filter(|j| j.cached).count();

    out.metrics = vec![
        m("setup_s", median(&setups), "s"),
        m("wall_s", median(&blocks), "s"),
        m("sim_mips", instrs as f64 / elapsed / 1e6, "MIPS"),
        m("jobs_per_s", ok as f64 / elapsed, "1/s"),
    ];
    crate::latency_metrics(&mut out, &ms, JOBS_BASIS);
    out.metrics.push(m("peak_rss_mb", peak, "MiB"));
    out.extra
        .push(m("hit_pct", pct(hits as f64, measured.len() as f64), "%"));
    out.extra
        .push(m("svc_coalesced", stats.coalesced as f64, "count"));
    out.extra
        .push(m("svc_evictions", stats.evictions as f64, "count"));
    out.stamp.push(("clients", CLIENTS.to_string()));
    out.stamp.push(("cache_capacity", CACHE.to_string()));
    out.stamp.push(("pool_size", POOL_SIZE.to_string()));
    out.stamp.push(("wall_block_jobs", BLOCK.to_string()));
    out
}

/// The ladder's inputs: the whole pool once per rung; the service rung
/// replays the start of client 0's sequence one job at a time, after
/// one pair submitted at once (which coalesces).
pub fn ladder_inputs(seed: u64) -> ladder::Inputs {
    let pool = service_pool(seed);
    let seq = client_sequence(seed, 0, 120, &Zipf::new(POOL_SIZE, ZIPF_S));
    let mut batches = vec![vec![pool[seq[0]].clone(), pool[seq[0]].clone()]];
    batches.extend(seq[1..].iter().map(|&r| vec![pool[r].clone()]));
    ladder::Inputs {
        specs: pool,
        batches,
        cache: CACHE,
    }
}

/// The ladder's service traffic on a fresh service, with telemetry and
/// spans switched as asked.
pub fn unit(seed: u64, obs_on: bool, trace_on: bool) -> Result<f64, String> {
    let inputs = ladder_inputs(seed);
    loopspec::obs::set_enabled(obs_on);
    crate::trace::set_enabled(trace_on);
    let service = svc::spawn(CACHE, obs_on)?;
    let client = service.client();
    let t = Instant::now();
    for batch in &inputs.batches {
        let _span = span("service.unit", batch[0].fingerprint());
        let tickets: Vec<_> = batch.iter().map(|s| client.submit(s.clone())).collect();
        for ticket in tickets {
            ticket.wait().map_err(|e| e.to_string())?;
        }
    }
    let d = t.elapsed().as_secs_f64();
    service.shutdown();
    Ok(d)
}
