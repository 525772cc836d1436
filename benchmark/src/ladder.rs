//! The traced run: a ladder of cumulative rungs over one workload's
//! inputs, from which each layer's self time is the difference between
//! adjacent rungs.
//!
//! ```text
//! cpu        Cpu::run into a NullTracer
//! cls        + Session: event delivery and the CLS detector
//! lane       + one engine lane (STR, 4 TUs)
//! grid       + the job's whole lane grid (the single-pass reference)
//! oracle     grid + the two-phase Figure 5 oracle
//! dataspec   grid + the Figure 8 live-in profiler
//! shards     grid, cut into the job's snapshot-linked shards
//! workers    + worker processes and the wire (cache-disabled service)
//! service    + the report cache, coalescing and admission
//! ```
//!
//! `oracle` and `dataspec` sit beside `grid` rather than above each
//! other: each one's self time is its rung minus `grid`. Rungs run in
//! alternating order from one repetition to the next, so host drift
//! cancels out of the differences; every time is the median over the
//! repetitions, and every count must repeat exactly.

use std::collections::HashMap;
use std::time::Instant;

use loopspec::asm::Program;
use loopspec::core::{EventCollector, LoopEvent, LoopEventSink};
use loopspec::cpu::{Cpu, NullTracer, RunLimits};
use loopspec::dataspec::LiveInProfiler;
use loopspec::dist::{JobSpec, LaneSpec, Report};
use loopspec::mt::{
    ideal_tpc_streaming, ideal_tpc_with_feed, prefix_split, EngineGrid, IterationCountLog,
};
use loopspec::pipeline::{Session, Snapshot};
use loopspec::svc::Completion;
use loopspec_bench::experiments::FIG5_PREFIX_FRACTION;

use crate::report::{m, Metric, Outcome};
use crate::stats::{ladder_self, median, overhead_pct, pct};
use crate::trace::timed;
use crate::{digest, procfs, svc};

/// Repetitions of the whole ladder.
pub const REPS: usize = 3;

/// Pairs of interleaved off/on samples behind each overhead figure.
pub const OVERHEAD_PAIRS: usize = 3;

/// A workload's inputs to the ladder.
#[derive(Debug)]
pub struct Inputs {
    /// Distinct jobs every rung runs once.
    pub specs: Vec<JobSpec>,
    /// The `service` rung's traffic: each batch is submitted at once and
    /// then awaited. Every spec must also be in `specs`.
    pub batches: Vec<Vec<JobSpec>>,
    /// Report-cache capacity of the `service` rung.
    pub cache: usize,
}

/// Counts that must repeat exactly in every repetition.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Counts {
    instrs: u64,
    kernel_instrs: u64,
    loop_events: u64,
    loop_executions: u64,
    threads_spawned: u64,
    verified: u64,
    squashed: u64,
    snapshot_bytes: u64,
    shards: u64,
    jobs_dispatched: u64,
    handoff_bytes: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    rejected: u64,
}

/// One repetition's measurements (seconds unless noted).
#[derive(Debug, Default)]
struct Rep {
    build: f64,
    gen: f64,
    cpu: f64,
    cls: f64,
    lane: f64,
    grid: f64,
    oracle: f64,
    dataspec: f64,
    shards: f64,
    checkpoint: f64,
    spawn: f64,
    workers: f64,
    busy_pct: f64,
    workers_lost: u64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    miss_overhead_ms: Vec<f64>,
    counts: Counts,
}

/// A built input.
struct Prog {
    spec: JobSpec,
    program: Program,
    fp: u64,
}

impl Prog {
    fn limits(&self) -> RunLimits {
        RunLimits::with_fuel(self.spec.total_fuel)
    }

    fn grid(&self) -> Result<EngineGrid, String> {
        LaneSpec::build_grid(&self.spec.lane_specs()).map_err(|e| e.to_string())
    }
}

/// Counts loop events and detected loop executions.
#[derive(Debug, Default)]
struct LoopCounter {
    events: u64,
    executions: u64,
}

impl LoopEventSink for LoopCounter {
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        self.events += 1;
        if matches!(ev, LoopEvent::ExecutionStart { .. }) {
            self.executions += 1;
        }
    }
}

fn run_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn build(specs: &[JobSpec]) -> Result<Vec<Prog>, String> {
    specs
        .iter()
        .map(|spec| {
            let fp = spec.fingerprint();
            let (program, _) = timed("ladder.build", fp, || {
                loopspec::workloads::build_named(&spec.workload, spec.scale)
            });
            let program = program
                .ok_or_else(|| format!("unknown workload {}", spec.workload))?
                .map_err(|e| run_err(&spec.workload, e))?;
            Ok(Prog {
                spec: spec.clone(),
                program,
                fp,
            })
        })
        .collect()
}

/// Compiles one scenario of every generated family at test scale.
fn gen_compile(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    for family in loopspec::gen::families() {
        let name = loopspec::workloads::families::name_of(family.name, seed);
        let (built, _) = timed("ladder.gen", seed, || {
            loopspec::workloads::build_named(&name, loopspec::workloads::Scale::Test)
        });
        built
            .ok_or_else(|| format!("unknown scenario {name}"))?
            .map_err(|e| run_err(&name, e))?;
    }
    Ok(t.elapsed().as_secs_f64())
}

fn rung_cpu(progs: &[Prog], rep: &mut Rep) -> Result<(), String> {
    for p in progs {
        let (out, d) = timed("ladder.cpu", p.fp, || {
            Cpu::new().run(&p.program, &mut NullTracer, p.limits())
        });
        rep.counts.instrs += out.map_err(|e| run_err(&p.spec.workload, e))?.retired;
        rep.cpu += d.as_secs_f64();
    }
    Ok(())
}

fn rung_cls(progs: &[Prog], rep: &mut Rep) -> Result<(), String> {
    let kernel = loopspec::obs::counter(loopspec::obs::names::CPU_KERNEL_INSTRS);
    let before = kernel.get();
    for p in progs {
        let mut counter = LoopCounter::default();
        let (out, d) = timed("ladder.cls", p.fp, || {
            let mut session = Session::new();
            session.observe_loops(&mut counter);
            session.run(&p.program, p.limits())
        });
        out.map_err(|e| run_err(&p.spec.workload, e))?;
        rep.cls += d.as_secs_f64();
        rep.counts.loop_events += counter.events;
        rep.counts.loop_executions += counter.executions;
    }
    rep.counts.kernel_instrs = kernel.get() - before;
    Ok(())
}

fn rung_lane(progs: &[Prog], rep: &mut Rep) -> Result<(), String> {
    for p in progs {
        let mut grid =
            LaneSpec::build_grid(&[LaneSpec::Str { tus: 4 }]).map_err(|e| e.to_string())?;
        let (out, d) = timed("ladder.lane", p.fp, || {
            let mut session = Session::new();
            session.observe_checkpointable(&mut grid);
            session.run(&p.program, p.limits())
        });
        out.map_err(|e| run_err(&p.spec.workload, e))?;
        rep.lane += d.as_secs_f64();
    }
    Ok(())
}

/// The single-pass reference: also returns each input's report and its
/// own time.
fn rung_grid(progs: &[Prog], rep: &mut Rep) -> Result<Vec<(Report, f64)>, String> {
    let mut out = Vec::with_capacity(progs.len());
    for p in progs {
        let mut grid = p.grid()?;
        let (summary, d) = timed("ladder.grid", p.fp, || {
            let mut session = Session::new();
            session.observe_checkpointable(&mut grid);
            session.run(&p.program, p.limits())
        });
        let summary = summary.map_err(|e| run_err(&p.spec.workload, e))?;
        rep.grid += d.as_secs_f64();
        let report = digest::grid_report(&grid, summary.instructions)?;
        for lane in grid.reports().unwrap_or(&[]) {
            let s = &lane.spec;
            rep.counts.threads_spawned += s.threads_spawned;
            rep.counts.verified += s.verified;
            rep.counts.squashed += s.squashed_misspec + s.squashed_policy + s.squashed_stale;
        }
        out.push((report, d.as_secs_f64()));
    }
    Ok(out)
}

fn rung_oracle(progs: &[Prog], rep: &mut Rep) -> Result<(), String> {
    for p in progs {
        let mut grid = p.grid()?;
        let (checked, d) = timed("ladder.oracle", p.fp, || {
            let mut collector = EventCollector::default();
            let mut log = IterationCountLog::new();
            let mut session = Session::new();
            session.observe_loops(&mut collector);
            session.observe_loops(&mut grid);
            session.observe_loops(&mut log);
            session.run(&p.program, p.limits())?;
            let (events, n) = collector.into_parts();
            let feed = log.into_feed();
            let all = ideal_tpc_with_feed(&events, n, &feed);
            let (split, cut) = prefix_split(&events, n, FIG5_PREFIX_FRACTION);
            let prefix = ideal_tpc_streaming(&events[..split], cut);
            Ok::<_, loopspec::pipeline::SnapshotError>(
                all.instructions == n && prefix.instructions <= n,
            )
        });
        if !checked.map_err(|e| run_err(&p.spec.workload, e))? {
            return Err(format!(
                "{}: oracle instruction counts disagree",
                p.spec.workload
            ));
        }
        rep.oracle += d.as_secs_f64();
    }
    Ok(())
}

fn rung_dataspec(progs: &[Prog], rep: &mut Rep) -> Result<(), String> {
    for p in progs {
        let mut grid = p.grid()?;
        let mut profiler = LiveInProfiler::new();
        let (out, d) = timed("ladder.dataspec", p.fp, || {
            let mut session = Session::new();
            session.observe_loops(&mut grid);
            session.observe_both(&mut profiler);
            session.run(&p.program, p.limits())
        });
        out.map_err(|e| run_err(&p.spec.workload, e))?;
        std::hint::black_box(profiler.report());
        rep.dataspec += d.as_secs_f64();
    }
    Ok(())
}

/// One job cut into its plan's shards, each in a fresh session resumed
/// from its predecessor's serialized snapshot.
fn sharded(p: &Prog, rep: &mut Rep) -> Result<Report, String> {
    let total = p.spec.total_fuel;
    let plan = p.spec.plan;
    let mut handoff: Option<Vec<u8>> = None;
    for shard in 0.. {
        let _span = crate::trace::span("ladder.shard", p.fp);
        let mut session = Session::new();
        session.add_sink(p.grid()?);
        let executed = match &handoff {
            Some(bytes) => {
                let (resumed, d) = timed("ladder.restore", p.fp, || {
                    let snapshot = Snapshot::from_bytes(bytes)?;
                    session.resume(&snapshot)?;
                    Ok::<_, loopspec::pipeline::SnapshotError>(snapshot.instructions())
                });
                rep.checkpoint += d.as_secs_f64();
                resumed.map_err(|e| run_err("resume", e))?
            }
            None => 0,
        };
        let budget = plan.budget(total, executed);
        let summary = session
            .advance(&p.program, RunLimits::with_fuel(budget))
            .map_err(|e| run_err(&p.spec.workload, e))?;
        rep.counts.shards += 1;
        if !session.is_ended() && (plan.is_last(shard) || summary.instructions >= total) {
            session.finish();
        }
        if session.is_ended() {
            let grid: EngineGrid = session.into_sink(0).ok_or("shard lost its grid")?;
            return digest::grid_report(&grid, summary.instructions);
        }
        let (bytes, d) = timed("ladder.checkpoint", p.fp, || {
            session.checkpoint().map(|s| s.to_bytes())
        });
        rep.checkpoint += d.as_secs_f64();
        let bytes = bytes.map_err(|e| run_err("checkpoint", e))?;
        rep.counts.snapshot_bytes += bytes.len() as u64;
        handoff = Some(bytes);
    }
    unreachable!("the shard loop only ends by returning")
}

fn rung_shards(progs: &[Prog], rep: &mut Rep) -> Result<Vec<Report>, String> {
    let mut out = Vec::with_capacity(progs.len());
    for p in progs {
        let (report, d) = timed("ladder.shards", p.fp, || sharded(p, rep));
        rep.shards += d.as_secs_f64();
        out.push(report?);
    }
    Ok(out)
}

/// Every input once, submitted and awaited one at a time through a
/// cache-disabled service.
fn rung_workers(progs: &[Prog], rep: &mut Rep) -> Result<Vec<Report>, String> {
    let (service, d) = timed("ladder.spawn", 0, || svc::spawn(0, true));
    rep.spawn += d.as_secs_f64();
    let service = service?;
    let client = service.client();
    let before = service.stats();
    let cpu_before = procfs::children_cpu_seconds();
    let mut out = Vec::with_capacity(progs.len());
    let t = Instant::now();
    for p in progs {
        let (reply, _) = timed("ladder.workers", p.fp, || client.run(p.spec.clone()));
        out.push(reply.map_err(|e| run_err(&p.spec.workload, e))?.report);
    }
    let wall = t.elapsed().as_secs_f64();
    rep.workers += wall;
    let busy = procfs::children_cpu_seconds() - cpu_before;
    rep.busy_pct = pct(busy, svc::WORKERS as f64 * wall);
    let after = service.stats();
    svc::invariants(&after)?;
    rep.counts.jobs_dispatched += after.jobs_dispatched - before.jobs_dispatched;
    rep.counts.handoff_bytes += after.handoff_bytes - before.handoff_bytes;
    rep.workers_lost += after.workers_lost - before.workers_lost;
    service.shutdown();
    Ok(out)
}

/// Submits every batch to a service with the report cache on. Returns
/// each completion with the fingerprint of its spec.
fn rung_service(
    inputs: &Inputs,
    single: &HashMap<u64, f64>,
    rep: &mut Rep,
) -> Result<Vec<(u64, Completion)>, String> {
    let service = svc::spawn(inputs.cache, true)?;
    let client = service.client();
    let mut out = Vec::new();
    for batch in &inputs.batches {
        let _span = crate::trace::span("ladder.service", batch[0].fingerprint());
        let start = Instant::now();
        let tickets: Vec<_> = batch
            .iter()
            .map(|s| (s.fingerprint(), client.submit(s.clone())))
            .collect();
        for (fp, ticket) in tickets {
            let done = ticket.wait().map_err(|e| run_err("service job", e))?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            if done.cached {
                rep.hit_ms.push(ms);
            } else {
                rep.miss_ms.push(ms);
                if let Some(s) = single.get(&fp) {
                    rep.miss_overhead_ms.push(ms - s * 1e3);
                }
            }
            out.push((fp, done));
        }
    }
    let stats = service.stats();
    svc::invariants(&stats)?;
    rep.counts.hits += stats.cache_hits;
    rep.counts.misses += stats.cache_misses;
    rep.counts.coalesced += stats.coalesced;
    rep.counts.evictions += stats.evictions;
    rep.counts.rejected += stats.rejected;
    rep.workers_lost += stats.workers_lost;
    service.shutdown();
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Cpu,
    Cls,
    Lane,
    Grid,
    Oracle,
    Dataspec,
    Shards,
    Workers,
    Service,
}

const RUNGS: [Rung; 9] = [
    Rung::Cpu,
    Rung::Cls,
    Rung::Lane,
    Rung::Grid,
    Rung::Oracle,
    Rung::Dataspec,
    Rung::Shards,
    Rung::Workers,
    Rung::Service,
];

/// One repetition: every rung, in `forward` or reverse order, then the
/// digest checks of every path against the single-pass grid.
fn repetition(inputs: &Inputs, seed: u64, forward: bool, out: &mut Outcome) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let t = Instant::now();
    let progs = build(&inputs.specs)?;
    rep.build = t.elapsed().as_secs_f64();
    rep.gen = gen_compile(seed)?;

    // The service rung needs each input's single-pass time, so the grid
    // rung always precedes it; the rest alternate direction.
    let mut order: Vec<Rung> = RUNGS.to_vec();
    if !forward {
        order.reverse();
        let g = order.iter().position(|&r| r == Rung::Grid).unwrap();
        order.remove(g);
        let s = order.iter().position(|&r| r == Rung::Service).unwrap();
        order.insert(s, Rung::Grid);
    }
    let mut reference: Vec<(Report, f64)> = Vec::new();
    let mut paths: Vec<(&str, Vec<Report>)> = Vec::new();
    let mut served: Vec<(u64, Completion)> = Vec::new();
    for rung in order {
        match rung {
            Rung::Cpu => rung_cpu(&progs, &mut rep)?,
            Rung::Cls => rung_cls(&progs, &mut rep)?,
            Rung::Lane => rung_lane(&progs, &mut rep)?,
            Rung::Grid => reference = rung_grid(&progs, &mut rep)?,
            Rung::Oracle => rung_oracle(&progs, &mut rep)?,
            Rung::Dataspec => rung_dataspec(&progs, &mut rep)?,
            Rung::Shards => paths.push(("sharded", rung_shards(&progs, &mut rep)?)),
            Rung::Workers => paths.push(("worker", rung_workers(&progs, &mut rep)?)),
            Rung::Service => {
                let single: HashMap<u64, f64> = progs
                    .iter()
                    .zip(&reference)
                    .map(|(p, (_, s))| (p.fp, *s))
                    .collect();
                served = rung_service(inputs, &single, &mut rep)?;
            }
        }
    }

    let want: HashMap<u64, u64> = progs
        .iter()
        .zip(&reference)
        .map(|(p, (r, _))| (p.fp, digest::of_report(r)))
        .collect();
    for (path, reports) in &paths {
        for (p, r) in progs.iter().zip(reports) {
            let what = format!("{} {path} report", p.spec.workload);
            out.check(digest::check(&what, want[&p.fp], digest::of_report(r)));
        }
    }
    for (fp, done) in &served {
        let what = format!("service report (cached: {})", done.cached);
        out.check(digest::check(
            &what,
            want[fp],
            digest::of_report(&done.report),
        ));
    }
    Ok(rep)
}

/// Runs the ladder `REPS` times plus the overhead pairs and returns the
/// per-layer metrics. `unit(obs_on, trace_on)` runs the workload's own
/// operation once and returns its host seconds.
pub fn run(
    inputs: &Inputs,
    seed: u64,
    unit: &dyn Fn(bool, bool) -> Result<f64, String>,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let mut reps = Vec::with_capacity(REPS);
    for i in 0..REPS {
        reps.push(repetition(inputs, seed, i % 2 == 0, out)?);
    }
    for r in &reps[1..] {
        out.check(if r.counts == reps[0].counts {
            Ok(())
        } else {
            Err(format!(
                "simulated counts drifted between repetitions: {:?} vs {:?}",
                r.counts, reps[0].counts
            ))
        });
    }

    // Interleaved off/on pairs, alternating which side runs first.
    let (mut obs_off, mut obs_on, mut tr_off, mut tr_on) = (vec![], vec![], vec![], vec![]);
    for k in 0..OVERHEAD_PAIRS {
        let first = k % 2 == 0;
        for side in [first, !first] {
            if side {
                obs_on.push(unit(true, false)?);
            } else {
                obs_off.push(unit(false, false)?);
            }
        }
        for side in [first, !first] {
            if side {
                tr_on.push(unit(true, true)?);
            } else {
                tr_off.push(unit(true, false)?);
            }
        }
    }
    loopspec::obs::set_enabled(true);
    crate::trace::set_enabled(true);

    let ms = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(|r| f(r) * 1e3).collect::<Vec<_>>());
    let rung_ms: Vec<f64> = [
        ms(&|r| r.cpu),
        ms(&|r| r.cls),
        ms(&|r| r.lane),
        ms(&|r| r.grid),
        ms(&|r| r.shards),
        ms(&|r| r.workers),
    ]
    .to_vec();
    let selfs = ladder_self(&rung_ms);
    let grid_ms = rung_ms[3];
    let c = &reps[0].counts;
    let instrs = c.instrs as f64;
    let pooled = |f: &dyn Fn(&Rep) -> &Vec<f64>| -> f64 {
        median(
            &reps
                .iter()
                .flat_map(|r| f(r).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let lookups = (c.hits + c.misses + c.coalesced) as f64;

    Ok(vec![
        m("build.ms", ms(&|r| r.build), "ms"),
        m("gen.compile_ms", ms(&|r| r.gen), "ms"),
        m("cpu.ms", selfs[0], "ms"),
        m("cpu.instrs", instrs, "count"),
        m("cpu.mips", instrs / (selfs[0] * 1e3), "MIPS"),
        m(
            "cpu.kernel_instr_pct",
            pct(c.kernel_instrs as f64, instrs),
            "%",
        ),
        m("core.self_ms", selfs[1], "ms"),
        m("core.ns_per_instr", selfs[1] * 1e6 / instrs, "ns"),
        m("core.loop_events", c.loop_events as f64, "count"),
        m("core.loop_executions", c.loop_executions as f64, "count"),
        m("mt.lane_self_ms", selfs[2], "ms"),
        m("mt.grid_self_ms", selfs[3], "ms"),
        m("mt.grid_over_lane", grid_ms / rung_ms[2], "x"),
        m("mt.oracle_ms", ms(&|r| r.oracle) - grid_ms, "ms"),
        m("mt.threads_spawned", c.threads_spawned as f64, "count"),
        m(
            "mt.verified_pct",
            pct(c.verified as f64, c.threads_spawned as f64),
            "%",
        ),
        m("mt.squashed", c.squashed as f64, "count"),
        m("dataspec.self_ms", ms(&|r| r.dataspec) - grid_ms, "ms"),
        m("pipeline.shard_self_ms", selfs[4], "ms"),
        m("pipeline.checkpoint_ms", ms(&|r| r.checkpoint), "ms"),
        m("pipeline.snapshot_bytes", c.snapshot_bytes as f64, "bytes"),
        m("pipeline.shards", c.shards as f64, "count"),
        m("dist.spawn_ms", ms(&|r| r.spawn), "ms"),
        m("dist.self_ms", selfs[5], "ms"),
        m("dist.handoff_bytes", c.handoff_bytes as f64, "bytes"),
        m("dist.jobs_dispatched", c.jobs_dispatched as f64, "count"),
        m(
            "dist.worker_busy_pct",
            median(&reps.iter().map(|r| r.busy_pct).collect::<Vec<_>>()),
            "%",
        ),
        m(
            "dist.workers_lost",
            reps.iter().map(|r| r.workers_lost).sum::<u64>() as f64,
            "count",
        ),
        m("svc.hit_ms_p50", pooled(&|r| &r.hit_ms), "ms"),
        m("svc.miss_ms_p50", pooled(&|r| &r.miss_ms), "ms"),
        m(
            "svc.miss_overhead_ms",
            pooled(&|r| &r.miss_overhead_ms),
            "ms",
        ),
        m("svc.hit_pct", pct(c.hits as f64, lookups), "%"),
        m("svc.coalesced", c.coalesced as f64, "count"),
        m("svc.evictions", c.evictions as f64, "count"),
        m("svc.rejected", c.rejected as f64, "count"),
        m(
            "obs.overhead_pct",
            overhead_pct(median(&obs_off), median(&obs_on)),
            "%",
        ),
        m(
            "trace.overhead_pct",
            overhead_pct(median(&tr_off), median(&tr_on)),
            "%",
        ),
    ])
}
