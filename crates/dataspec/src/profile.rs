//! The §4 profiler: paths, live-ins and their predictability.

use loopspec_core::hash::FastMap;
use loopspec_core::{LoopDetector, LoopEvent, LoopEventSink, LoopId};
use loopspec_cpu::{InstrEvent, Tracer};
use loopspec_isa::ControlKind;

use crate::frame::{InstrFacts, IterFrame};
use crate::value_pred::Stride;

/// The sums [`aggregate`] needs over the closed iterations of one
/// (loop, path) pair.
///
/// The most-frequent-path filter is applied *post hoc*, exactly like
/// the paper's two-phase measurement ("we have first identified for
/// each loop the different control flows…; for these iterations we have
/// measured…"); aggregating per path as iterations close keeps memory
/// proportional to the distinct paths, not the iterations.
#[derive(Debug, Clone, Copy, Default)]
struct PathBucket {
    /// Iterations that took this path.
    iterations: u64,
    /// Live-in registers observed, and how many were predicted.
    lr_seen: u64,
    lr_correct: u64,
    /// Live-in memory locations observed, and how many were predicted
    /// (address *and* value).
    lm_seen: u64,
    lm_correct: u64,
    /// Iterations with every live-in register predicted (vacuously true
    /// with none), every live-in memory location, and both.
    all_lr: u64,
    all_lm: u64,
    all_data: u64,
}

/// The Figure 8 statistics, as percentages over iterations of each loop's
/// most frequent path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSpecReport {
    /// Profiled iterations (detected iterations of multi-iteration
    /// loops).
    pub iterations: u64,
    /// Distinct loops profiled.
    pub loops: usize,
    /// `same path`: % of iterations covered by their loop's most frequent
    /// path.
    pub same_path_percent: f64,
    /// `lr pred`: % of live-in registers correctly predicted.
    pub lr_pred_percent: f64,
    /// `lm pred`: % of live-in memory locations correctly predicted.
    pub lm_pred_percent: f64,
    /// `all lr`: % of iterations with *all* live-in registers correct.
    pub all_lr_percent: f64,
    /// `all lm`: % of iterations with *all* live-in memory locations
    /// correct.
    pub all_lm_percent: f64,
    /// `all data`: % of iterations with every live-in value correct.
    pub all_data_percent: f64,
    /// Live-in loads dropped by the per-iteration slot cap.
    pub mem_slot_overflow: u64,
    /// Live-in registers observed on most-frequent-path iterations
    /// (denominator of `lr_pred_percent`).
    pub lr_seen: u64,
    /// Live-in memory locations observed on most-frequent-path
    /// iterations (denominator of `lm_pred_percent`; `0` means the
    /// memory percentages are vacuous).
    pub lm_seen: u64,
}

/// One loop's row of the live-in table: a stride predictor per register
/// slot and, per live-in load slot, one for the address and one for the
/// value.
#[derive(Debug)]
struct LoopPredictors {
    regs: [Stride; 64],
    mem: Vec<(Stride, Stride)>,
}

impl Default for LoopPredictors {
    fn default() -> Self {
        LoopPredictors {
            regs: [Stride::default(); 64],
            mem: Vec::new(),
        }
    }
}

/// The live-in analysis proper, detached from loop detection: charges
/// instructions to the open iteration frames and rolls the
/// stride predictors at the iteration boundaries *somebody else*
/// announces.
///
/// It implements [`Tracer`] for the per-instruction half and
/// [`LoopEventSink`] for the boundary half, so a
/// `loopspec_pipeline::Session` can drive it from the session's CLS
/// (register it with `observe_both`). When driving a CPU directly, use
/// [`DataSpecProfiler`], which bundles a detector and keeps the two
/// halves synchronised.
#[derive(Debug, Default)]
pub struct LiveInProfiler {
    /// Open iteration frames, oldest first.
    frames: Vec<IterFrame>,
    /// Closed frames kept for reuse.
    spare: Vec<IterFrame>,
    predictors: FastMap<LoopId, Box<LoopPredictors>>,
    buckets: FastMap<(LoopId, u64), PathBucket>,
    mem_overflow: u64,
}

impl LiveInProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finalises nothing (frames still open are discarded — they belong
    /// to iterations whose end was never observed) and aggregates the
    /// Figure 8 report.
    pub fn report(&self) -> DataSpecReport {
        aggregate(&self.buckets, self.mem_overflow)
    }

    /// Charges one retired instruction to every open iteration frame.
    ///
    /// Must be called *before* the loop events that instruction produced
    /// are delivered to [`LoopEventSink::on_loop_event`] — the closing
    /// branch belongs to the iteration it ends. Both drivers (the bundled
    /// [`DataSpecProfiler`] and the pipeline `Session`) preserve this
    /// order.
    #[inline]
    pub fn observe_instr(&mut self, ev: &InstrEvent) {
        // Instructions of nested loops and called subroutines belong to
        // all enclosing executions.
        if self.frames.is_empty() {
            return;
        }
        let facts = InstrFacts::new(ev);
        for frame in &mut self.frames {
            frame.charge(&facts);
        }
    }

    fn close_frame(&mut self, loop_id: LoopId) {
        let Some(idx) = self.frames.iter().rposition(|f| f.loop_id == loop_id) else {
            return;
        };
        let frame = self.frames.remove(idx);
        self.mem_overflow += frame.mem_overflow;

        let preds = self.predictors.entry(loop_id).or_default();
        let (mut lr_seen, mut lr_correct) = (0u64, 0u64);
        for (slot, value) in frame.livein_regs() {
            lr_seen += 1;
            lr_correct += preds.regs[slot as usize].observe(value).is_correct() as u64;
        }
        let lm_seen = frame.livein_mem.len() as u64;
        if preds.mem.len() < frame.livein_mem.len() {
            preds.mem.resize(frame.livein_mem.len(), Default::default());
        }
        let mut lm_correct = 0u64;
        for ((addr_pred, val_pred), &(addr, value)) in preds.mem.iter_mut().zip(&frame.livein_mem) {
            // Both predictors train even when the other missed; a cold
            // observation counts as not-predicted.
            let a = addr_pred.observe(addr);
            let v = val_pred.observe(value);
            lm_correct += (a.is_correct() && v.is_correct()) as u64;
        }
        let bucket = self.buckets.entry((loop_id, frame.path_hash)).or_default();
        let (all_lr, all_lm) = (lr_correct == lr_seen, lm_correct == lm_seen);
        bucket.iterations += 1;
        bucket.lr_seen += lr_seen;
        bucket.lr_correct += lr_correct;
        bucket.lm_seen += lm_seen;
        bucket.lm_correct += lm_correct;
        bucket.all_lr += all_lr as u64;
        bucket.all_lm += all_lm as u64;
        bucket.all_data += (all_lr && all_lm) as u64;
        self.spare.push(frame);
    }

    fn open_frame(&mut self, loop_id: LoopId) {
        let frame = match self.spare.pop() {
            Some(mut frame) => {
                frame.reset(loop_id);
                frame
            }
            None => IterFrame::new(loop_id),
        };
        self.frames.push(frame);
    }
}

/// The per-instruction half, for registration as a plain tracer.
impl Tracer for LiveInProfiler {
    #[inline]
    fn on_retire(&mut self, ev: &InstrEvent) {
        self.observe_instr(ev);
    }
}

/// The boundary half: iteration starts/ends roll the live-in frames.
impl LoopEventSink for LiveInProfiler {
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        match *ev {
            LoopEvent::IterationStart { loop_id, .. } => {
                self.close_frame(loop_id);
                self.open_frame(loop_id);
            }
            LoopEvent::ExecutionEnd { loop_id, .. } | LoopEvent::Evicted { loop_id, .. } => {
                self.close_frame(loop_id);
            }
            LoopEvent::ExecutionStart { .. } | LoopEvent::OneShot { .. } => {}
        }
    }

    // The default `on_loop_events` (a loop over `on_loop_event`) is
    // exactly right for this sink: boundary handling is inherently
    // per-event, and the default body monomorphizes per impl, so there
    // is nothing to override.
}

/// ATOM-style tracer computing the paper's data-speculation statistics:
/// a [`LiveInProfiler`] bundled with its own [`LoopDetector`] so a bare
/// `Cpu::run` drives both halves in the right order.
///
/// In a streaming `Session` (one shared CLS feeding many analyses),
/// register a [`LiveInProfiler`] instead — running a second detector
/// there would duplicate work.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Default)]
pub struct DataSpecProfiler {
    detector: LoopDetector,
    inner: LiveInProfiler,
}

impl DataSpecProfiler {
    /// Creates a profiler with the default 16-entry CLS.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregates the Figure 8 report (see [`LiveInProfiler::report`]).
    pub fn report(&self) -> DataSpecReport {
        self.inner.report()
    }
}

impl Tracer for DataSpecProfiler {
    fn on_retire(&mut self, ev: &InstrEvent) {
        // 1. Charge the instruction to every open iteration.
        self.inner.observe_instr(ev);

        // 2. Roll iteration boundaries (the detector and the analysis are
        //    disjoint fields, so the event slice can be consumed without
        //    an intermediate buffer).
        if !matches!(ev.control.kind, ControlKind::None) {
            for e in self.detector.process(ev) {
                self.inner.on_loop_event(e);
            }
        }
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Folds the per-(loop, path) buckets into the Figure 8 report. Each
/// loop's most frequent path wins; ties go to the smallest path hash, so
/// the report does not depend on the order the buckets are visited in.
fn aggregate<'a>(
    buckets: impl IntoIterator<Item = (&'a (LoopId, u64), &'a PathBucket)>,
    mem_overflow: u64,
) -> DataSpecReport {
    let mut iterations = 0u64;
    let mut best: FastMap<LoopId, (u64, &PathBucket)> = FastMap::default();
    for (&(loop_id, path), bucket) in buckets {
        iterations += bucket.iterations;
        let (best_path, best_bucket) = best.entry(loop_id).or_insert((path, bucket));
        let count = (bucket.iterations, best_bucket.iterations);
        if count.0 > count.1 || (count.0 == count.1 && path < *best_path) {
            (*best_path, *best_bucket) = (path, bucket);
        }
    }

    let mut on = PathBucket::default();
    for (_, b) in best.values() {
        on.iterations += b.iterations;
        on.lr_seen += b.lr_seen;
        on.lr_correct += b.lr_correct;
        on.lm_seen += b.lm_seen;
        on.lm_correct += b.lm_correct;
        on.all_lr += b.all_lr;
        on.all_lm += b.all_lm;
        on.all_data += b.all_data;
    }

    DataSpecReport {
        iterations,
        loops: best.len(),
        same_path_percent: percent(on.iterations, iterations),
        lr_pred_percent: percent(on.lr_correct, on.lr_seen),
        lm_pred_percent: percent(on.lm_correct, on.lm_seen),
        all_lr_percent: percent(on.all_lr, on.iterations),
        all_lm_percent: percent(on.all_lm, on.iterations),
        all_data_percent: percent(on.all_data, on.iterations),
        mem_slot_overflow: mem_overflow,
        lr_seen: on.lr_seen,
        lm_seen: on.lm_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_asm::ProgramBuilder;
    use loopspec_cpu::{Cpu, RunLimits};
    use loopspec_isa::{AluOp, Cond, Reg};

    fn profile(build: impl FnOnce(&mut ProgramBuilder)) -> DataSpecReport {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.finish().expect("assembles");
        let mut prof = DataSpecProfiler::new();
        Cpu::new()
            .run(&p, &mut prof, RunLimits::default())
            .expect("runs");
        prof.report()
    }

    #[test]
    fn induction_variables_are_predictable() {
        // Live-ins of a bare counted loop: the induction register
        // (stride 1) and the bound (stride 0) — both predictable once the
        // predictors warm up. (The final iteration takes a different path
        // — its closing branch falls through — so same-path is 58/59.)
        let r = profile(|b| b.counted_loop(60, |_b, _| {}));
        assert_eq!(r.loops, 1);
        assert!(r.same_path_percent > 95.0, "{r:?}");
        assert!(r.lr_pred_percent > 85.0, "{r:?}");
        assert!(r.all_lr_percent > 85.0, "{r:?}");
    }

    #[test]
    fn work_filler_is_not_live_in() {
        // `work` starts with a fresh constant load, so the scratch
        // accumulator is written before read — the loop's live-ins stay
        // the (predictable) induction registers.
        let r = profile(|b| b.counted_loop(60, |b, _| b.work(4)));
        assert!(r.lr_pred_percent > 85.0, "{r:?}");
        assert!(r.all_lr_percent > 85.0, "{r:?}");
    }

    #[test]
    fn loop_carried_computed_values_dilute_predictability() {
        // A register that carries a non-linear recurrence across
        // iterations is live-in every iteration and never predicts.
        let r = profile(|b| {
            let acc = b.alloc_reg();
            b.li(acc, 7);
            b.counted_loop(60, |b, _| {
                b.op_imm(AluOp::Xor, acc, acc, 0x5a);
                b.op_imm(AluOp::Mul, acc, acc, 3);
            });
        });
        assert!(
            r.lr_pred_percent > 40.0 && r.lr_pred_percent < 90.0,
            "mixed live-ins: {r:?}"
        );
        assert!(r.all_lr_percent < 10.0, "{r:?}");
    }

    #[test]
    fn memory_accumulator_is_predictable() {
        // g starts at 0 and grows by 3 per iteration: constant address,
        // strided value.
        let r = profile(|b| {
            let g = b.alloc_static(1);
            let x = b.alloc_reg();
            b.counted_loop(60, |b, _| {
                b.load_static(x, g);
                b.addi(x, x, 3);
                b.store_static(x, g);
            });
        });
        assert!(r.lm_pred_percent > 85.0, "{r:?}");
        assert!(r.all_lm_percent > 85.0, "{r:?}");
    }

    #[test]
    fn random_values_are_not_predictable() {
        // The LCG state register is live-in every iteration but its
        // values follow no linear stride.
        let r = profile(|b| {
            let x = b.alloc_reg();
            b.counted_loop(60, |b, _| {
                b.rng_below(x, 1000);
            });
        });
        // r6 (rng state) is live-in and wrong; induction + bound right:
        // per-register accuracy must sit strictly between.
        assert!(r.lr_pred_percent < 90.0, "{r:?}");
        assert!(r.all_lr_percent < 10.0, "rng state spoils all-lr: {r:?}");
    }

    #[test]
    fn alternating_branch_splits_paths() {
        let r = profile(|b| {
            let parity = b.alloc_reg();
            b.counted_loop(61, |b, i| {
                b.op_imm(AluOp::Rem, parity, i, 2);
                b.if_else(Cond::Eq, parity, Reg::ZERO, |b| b.work(2), |b| b.work(6));
            });
        });
        assert!(
            r.same_path_percent > 35.0 && r.same_path_percent < 65.0,
            "two alternating paths: {r:?}"
        );
    }

    #[test]
    fn nested_loops_profile_both_levels() {
        let r = profile(|b| {
            b.counted_loop(10, |b, _| {
                b.counted_loop(10, |b, _| b.work(2));
            });
        });
        assert_eq!(r.loops, 2);
        assert!(r.iterations > 80);
    }

    #[test]
    fn no_loops_no_records() {
        let r = profile(|b| b.work(50));
        assert_eq!(r.iterations, 0);
        assert_eq!(r.loops, 0);
        assert_eq!(r.same_path_percent, 0.0);
    }

    #[test]
    fn strided_array_walk_memory_is_address_predictable() {
        // a[i] = a[i] (+ values pre-initialised to 7*i): address strides
        // by 1, value strides by 7 → predictable.
        let r = profile(|b| {
            let base = b.alloc_static(128);
            let x = b.alloc_reg();
            // init: a[i] = 7*i (one-shot-ish loop noise is fine)
            b.counted_loop(100, |b, i| {
                b.op_imm(AluOp::Mul, x, i, 7);
                b.store_idx(x, base, i);
            });
            // walk: read a[i]
            b.counted_loop(100, |b, i| {
                b.load_idx(x, base, i);
            });
        });
        // The walking loop's loads: addr stride 1, value stride 7.
        assert!(r.lm_pred_percent > 80.0, "{r:?}");
    }

    #[test]
    fn tied_paths_resolve_to_the_smallest_path_hash_in_any_order() {
        let l = LoopId(loopspec_isa::Addr::new(1));
        let good = PathBucket {
            iterations: 3,
            lr_seen: 6,
            lr_correct: 6,
            all_lr: 3,
            all_lm: 3,
            all_data: 3,
            ..PathBucket::default()
        };
        let bad = PathBucket {
            iterations: 3,
            lr_seen: 6,
            all_lm: 3,
            ..PathBucket::default()
        };
        let entries = [((l, 7), good), ((l, 9), bad)];
        let forward = aggregate(entries.iter().map(|(k, b)| (k, b)), 0);
        let backward = aggregate(entries.iter().rev().map(|(k, b)| (k, b)), 0);
        assert_eq!(forward, backward);
        assert_eq!(forward.lr_pred_percent, 100.0, "path 7 wins the tie");
        assert_eq!(forward.same_path_percent, 50.0);

        // Swapping the hashes swaps the winner.
        let entries = [((l, 9), good), ((l, 7), bad)];
        let forward = aggregate(entries.iter().map(|(k, b)| (k, b)), 0);
        let backward = aggregate(entries.iter().rev().map(|(k, b)| (k, b)), 0);
        assert_eq!(forward, backward);
        assert_eq!(forward.lr_pred_percent, 0.0, "path 7 wins the tie");
    }

    #[test]
    fn the_more_frequent_path_beats_a_smaller_hash() {
        let l = LoopId(loopspec_isa::Addr::new(1));
        let small = PathBucket {
            iterations: 1,
            ..PathBucket::default()
        };
        let big = PathBucket {
            iterations: 2,
            lr_seen: 1,
            lr_correct: 1,
            ..PathBucket::default()
        };
        let r = aggregate([(&(l, 1), &small), (&(l, 2), &big)], 4);
        assert_eq!((r.iterations, r.loops, r.lr_seen), (3, 1, 1));
        assert_eq!(r.mem_slot_overflow, 4);
    }
}
