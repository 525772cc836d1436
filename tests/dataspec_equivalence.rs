//! The Figure 8 live-in profiler against a reference oracle.
//!
//! [`reference`] is the straightforward form of the profiler: every open
//! iteration frame walks each instruction's register reads one by one,
//! keeps its stores in a map and its live-in loads in a list it scans
//! linearly, and every closed iteration leaves a record that the report
//! aggregates afterwards. The production `LiveInProfiler` digests each
//! instruction once, intersects bitmasks per frame, recycles frames and
//! aggregates per (loop, path) as iterations close. Both must produce
//! the same `DataSpecReport`, field for field with percentages compared
//! as bits, on every workload, on the generated families, and on the
//! corner cases below.

use loopspec::cpu::{ArchReg, ControlOutcome, MemAccess, RegRead, RegWrite};
use loopspec::dataspec::{DataSpecReport, MAX_MEM_SLOTS};
use loopspec::isa::{ControlKind, FReg};
use loopspec::prelude::*;

mod reference {
    use std::collections::HashMap;

    use loopspec::cpu::{ArchReg, InstrEvent, Tracer};
    use loopspec::dataspec::{DataSpecReport, MAX_MEM_SLOTS};
    use loopspec::isa::ControlKind;
    use loopspec::prelude::{LoopDetector, LoopEvent, LoopEventSink, LoopId};

    fn reg_slot(reg: ArchReg) -> usize {
        match reg {
            ArchReg::Int(r) => r.index(),
            ArchReg::Fp(r) => 32 + r.index(),
        }
    }

    /// Last value + stride per key: `true` when `last + stride` matched,
    /// which needs two earlier observations.
    struct StridePredictor<K> {
        states: HashMap<K, (u64, i64, u32)>,
    }

    impl<K> Default for StridePredictor<K> {
        fn default() -> Self {
            StridePredictor {
                states: HashMap::new(),
            }
        }
    }

    impl<K: std::hash::Hash + Eq> StridePredictor<K> {
        fn observe(&mut self, key: K, value: u64) -> bool {
            match self.states.get_mut(&key) {
                None => {
                    self.states.insert(key, (value, 0, 1));
                    false
                }
                Some((last, stride, seen)) => {
                    let hit = *seen >= 2 && last.wrapping_add(*stride as u64) == value;
                    *stride = value.wrapping_sub(*last) as i64;
                    *last = value;
                    *seen += 1;
                    hit
                }
            }
        }
    }

    fn fnv_mix(hash: u64, word: u64) -> u64 {
        let mut h = hash;
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    struct IterFrame {
        loop_id: LoopId,
        path_hash: u64,
        written_regs: u64,
        livein_regs: u64,
        livein_values: [u64; 64],
        written_mem: HashMap<u64, ()>,
        livein_mem: Vec<(u64, u64)>,
        mem_overflow: u64,
    }

    impl IterFrame {
        fn new(loop_id: LoopId) -> Self {
            IterFrame {
                loop_id,
                path_hash: 0xcbf2_9ce4_8422_2325,
                written_regs: 0,
                livein_regs: 0,
                livein_values: [0; 64],
                written_mem: HashMap::new(),
                livein_mem: Vec::new(),
                mem_overflow: 0,
            }
        }

        fn note_reg_read(&mut self, reg: ArchReg, value: u64) {
            if matches!(reg, ArchReg::Int(r) if r.is_zero()) {
                return;
            }
            let slot = reg_slot(reg);
            let bit = 1u64 << slot;
            if self.written_regs & bit == 0 && self.livein_regs & bit == 0 {
                self.livein_regs |= bit;
                self.livein_values[slot] = value;
            }
        }

        fn note_load(&mut self, addr: u64, value: u64) {
            if self.written_mem.contains_key(&addr) {
                return;
            }
            if self.livein_mem.iter().any(|&(a, _)| a == addr) {
                return;
            }
            if self.livein_mem.len() >= MAX_MEM_SLOTS {
                self.mem_overflow += 1;
                return;
            }
            self.livein_mem.push((addr, value));
        }
    }

    struct IterRecord {
        loop_id: LoopId,
        path: u64,
        lr_seen: u64,
        lr_correct: u64,
        lm_seen: u64,
        lm_correct: u64,
    }

    /// The per-frame profiler, driven by the loop events of its own
    /// detector when used as a [`Tracer`] (or fed by hand through
    /// [`Profiler::instr`] / [`LoopEventSink`]).
    #[derive(Default)]
    pub struct Profiler {
        detector: LoopDetector,
        frames: Vec<IterFrame>,
        reg_pred: StridePredictor<(LoopId, u8)>,
        mem_addr_pred: StridePredictor<(LoopId, u16)>,
        mem_val_pred: StridePredictor<(LoopId, u16)>,
        records: Vec<IterRecord>,
        mem_overflow: u64,
    }

    impl Profiler {
        pub fn instr(&mut self, ev: &InstrEvent) {
            let divergence = match ev.control.kind {
                ControlKind::CondBranch { .. } => Some(ev.control.taken as u32),
                ControlKind::IndirectJump | ControlKind::IndirectCall | ControlKind::Ret => {
                    Some(ev.control.target.index())
                }
                _ => None,
            };
            for frame in &mut self.frames {
                for read in ev.reads.iter().flatten() {
                    frame.note_reg_read(read.reg, read.value);
                }
                if let Some(w) = ev.write {
                    frame.written_regs |= 1u64 << reg_slot(w.reg);
                }
                if let Some(m) = ev.mem_read {
                    frame.note_load(m.addr, m.value);
                }
                if let Some(m) = ev.mem_write {
                    frame.written_mem.insert(m.addr, ());
                }
                if let Some(d) = divergence {
                    let word = ((ev.pc.index() as u64) << 32) | d as u64;
                    frame.path_hash = fnv_mix(frame.path_hash, word);
                }
            }
        }

        fn close_frame(&mut self, loop_id: LoopId) {
            let Some(idx) = self.frames.iter().rposition(|f| f.loop_id == loop_id) else {
                return;
            };
            let frame = self.frames.remove(idx);
            self.mem_overflow += frame.mem_overflow;
            let mut rec = IterRecord {
                loop_id,
                path: frame.path_hash,
                lr_seen: 0,
                lr_correct: 0,
                lm_seen: 0,
                lm_correct: 0,
            };
            for slot in 0..64usize {
                if frame.livein_regs & (1u64 << slot) != 0 {
                    rec.lr_seen += 1;
                    let value = frame.livein_values[slot];
                    if self.reg_pred.observe((loop_id, slot as u8), value) {
                        rec.lr_correct += 1;
                    }
                }
            }
            for (slot, &(addr, value)) in frame.livein_mem.iter().enumerate() {
                rec.lm_seen += 1;
                let a = self.mem_addr_pred.observe((loop_id, slot as u16), addr);
                let v = self.mem_val_pred.observe((loop_id, slot as u16), value);
                if a && v {
                    rec.lm_correct += 1;
                }
            }
            self.records.push(rec);
        }

        pub fn report(&self) -> DataSpecReport {
            let percent = |num: u64, den: u64| {
                if den == 0 {
                    0.0
                } else {
                    100.0 * num as f64 / den as f64
                }
            };
            let mut paths: HashMap<LoopId, HashMap<u64, u64>> = HashMap::new();
            for r in &self.records {
                *paths
                    .entry(r.loop_id)
                    .or_default()
                    .entry(r.path)
                    .or_insert(0) += 1;
            }
            // Most frequent path per loop; ties go to the smallest hash.
            let mfp: HashMap<LoopId, u64> = paths
                .iter()
                .map(|(l, m)| {
                    let best = m
                        .iter()
                        .max_by_key(|(&p, &c)| (c, std::cmp::Reverse(p)))
                        .map(|(&p, _)| p)
                        .expect("non-empty path map");
                    (*l, best)
                })
                .collect();
            let mut on_path = 0u64;
            let (mut lr_seen, mut lr_ok, mut lm_seen, mut lm_ok) = (0u64, 0u64, 0u64, 0u64);
            let (mut all_lr, mut all_lm, mut all_data) = (0u64, 0u64, 0u64);
            for r in &self.records {
                if mfp.get(&r.loop_id) != Some(&r.path) {
                    continue;
                }
                on_path += 1;
                lr_seen += r.lr_seen;
                lr_ok += r.lr_correct;
                lm_seen += r.lm_seen;
                lm_ok += r.lm_correct;
                let (lr, lm) = (r.lr_correct == r.lr_seen, r.lm_correct == r.lm_seen);
                all_lr += lr as u64;
                all_lm += lm as u64;
                all_data += (lr && lm) as u64;
            }
            let n = self.records.len() as u64;
            DataSpecReport {
                iterations: n,
                loops: paths.len(),
                same_path_percent: percent(on_path, n),
                lr_pred_percent: percent(lr_ok, lr_seen),
                lm_pred_percent: percent(lm_ok, lm_seen),
                all_lr_percent: percent(all_lr, on_path),
                all_lm_percent: percent(all_lm, on_path),
                all_data_percent: percent(all_data, on_path),
                mem_slot_overflow: self.mem_overflow,
                lr_seen,
                lm_seen,
            }
        }
    }

    impl LoopEventSink for Profiler {
        fn on_loop_event(&mut self, ev: &LoopEvent) {
            match *ev {
                LoopEvent::IterationStart { loop_id, .. } => {
                    self.close_frame(loop_id);
                    self.frames.push(IterFrame::new(loop_id));
                }
                LoopEvent::ExecutionEnd { loop_id, .. } | LoopEvent::Evicted { loop_id, .. } => {
                    self.close_frame(loop_id);
                }
                LoopEvent::ExecutionStart { .. } | LoopEvent::OneShot { .. } => {}
            }
        }
    }

    impl Tracer for Profiler {
        fn on_retire(&mut self, ev: &InstrEvent) {
            self.instr(ev);
            let events = self.detector.process(ev).to_vec();
            for e in &events {
                self.on_loop_event(e);
            }
        }
    }
}

/// Every report field, percentages as bits.
fn fields(r: &DataSpecReport) -> [u64; 11] {
    [
        r.iterations,
        r.loops as u64,
        r.same_path_percent.to_bits(),
        r.lr_pred_percent.to_bits(),
        r.lm_pred_percent.to_bits(),
        r.all_lr_percent.to_bits(),
        r.all_lm_percent.to_bits(),
        r.all_data_percent.to_bits(),
        r.mem_slot_overflow,
        r.lr_seen,
        r.lm_seen,
    ]
}

/// Profiles `program` through a session (the production path) and
/// through the reference, and requires identical reports.
fn check_program(label: &str, program: &Program) -> DataSpecReport {
    let mut reference = reference::Profiler::default();
    Cpu::new()
        .run(program, &mut reference, RunLimits::default())
        .unwrap_or_else(|e| panic!("{label}: reference run failed: {e}"));

    let mut profiler = LiveInProfiler::new();
    let mut session = Session::new();
    session.observe_both(&mut profiler);
    let out = session
        .run(program, RunLimits::default())
        .unwrap_or_else(|e| panic!("{label}: session run failed: {e}"));
    assert!(out.halted(), "{label}: did not halt");

    let (got, want) = (profiler.report(), reference.report());
    assert_eq!(fields(&got), fields(&want), "{label}: {got:?} != {want:?}");
    got
}

#[test]
fn all_workloads_match_the_reference_profiler() {
    let mut iterations = 0;
    for w in all_workloads() {
        let program = w.build(Scale::Test).expect("assembles");
        iterations += check_program(w.name, &program).iterations;
    }
    assert!(iterations > 100_000, "the suite profiles real loops");
}

#[test]
fn generated_families_match_the_reference_profiler() {
    for family in families() {
        for seed in [0u64, 1] {
            let ast = family.generate(seed, 1);
            let program = compile_ast(&ast).expect("family compiles");
            let label = format!("{}:{seed}", family.name);
            let got = check_program(&label, &program);

            // The bundled form (its own detector, driven by a bare CPU)
            // agrees too.
            let mut bundled = DataSpecProfiler::new();
            Cpu::new()
                .run(&program, &mut bundled, RunLimits::default())
                .expect("runs");
            assert_eq!(fields(&bundled.report()), fields(&got), "{label}: bundled");
        }
    }
}

// ---- hand-fed corner cases -------------------------------------------

const LOOP_A: LoopId = LoopId(Addr::new(100));
const LOOP_B: LoopId = LoopId(Addr::new(200));

fn nop() -> InstrEvent {
    InstrEvent {
        seq: 0,
        pc: Addr::new(10),
        instr: Instruction::Nop,
        control: ControlOutcome {
            kind: ControlKind::None,
            taken: false,
            target: Addr::new(11),
        },
        reads: [None; 5],
        write: None,
        mem_read: None,
        mem_write: None,
    }
}

fn load(addr: u64, value: u64) -> InstrEvent {
    InstrEvent {
        mem_read: Some(MemAccess { addr, value }),
        ..nop()
    }
}

fn store(addr: u64) -> InstrEvent {
    InstrEvent {
        mem_write: Some(MemAccess { addr, value: 0 }),
        ..nop()
    }
}

fn reads(regs: &[(ArchReg, u64)]) -> InstrEvent {
    let mut ev = nop();
    for (slot, &(reg, value)) in regs.iter().enumerate() {
        ev.reads[slot] = Some(RegRead { reg, value });
    }
    ev
}

fn start(loop_id: LoopId, iter: u32) -> LoopEvent {
    LoopEvent::IterationStart {
        loop_id,
        iter,
        pos: 0,
    }
}

fn evicted(loop_id: LoopId) -> LoopEvent {
    LoopEvent::Evicted {
        loop_id,
        iterations: 0,
        pos: 0,
    }
}

fn end(loop_id: LoopId) -> LoopEvent {
    LoopEvent::ExecutionEnd {
        loop_id,
        iterations: 0,
        pos: 0,
    }
}

enum Step {
    Instr(InstrEvent),
    Loop(LoopEvent),
}

/// Feeds `steps` to both profilers and requires identical reports.
fn feed(steps: &[Step]) -> DataSpecReport {
    let mut reference = reference::Profiler::default();
    let mut profiler = LiveInProfiler::new();
    for step in steps {
        match step {
            Step::Instr(ev) => {
                reference.instr(ev);
                profiler.observe_instr(ev);
            }
            Step::Loop(ev) => {
                reference.on_loop_event(ev);
                profiler.on_loop_event(ev);
            }
        }
    }
    let (got, want) = (profiler.report(), reference.report());
    assert_eq!(fields(&got), fields(&want), "{got:?} != {want:?}");
    got
}

/// `iters` iterations of `LOOP_A`, each running `body(i)`.
fn iterations(iters: u32, body: impl Fn(u32) -> Vec<InstrEvent>) -> Vec<Step> {
    let mut steps = Vec::new();
    for i in 0..iters {
        steps.push(Step::Loop(start(LOOP_A, i)));
        steps.extend(body(i).into_iter().map(Step::Instr));
    }
    steps.push(Step::Loop(end(LOOP_A)));
    steps
}

#[test]
fn repeated_loads_past_the_slot_cap_count_every_time() {
    let cap = MAX_MEM_SLOTS as u64;
    let r = feed(&iterations(3, |_| {
        let mut body: Vec<_> = (0..cap + 2).map(|a| load(a, a)).collect();
        body.extend((0..4).map(|_| load(cap, 0)));
        body.extend((0..4).map(|_| load(cap + 1, 0)));
        body
    }));
    assert_eq!(r.mem_slot_overflow, 3 * 10);
    assert_eq!(r.lm_seen, 3 * cap);
}

#[test]
fn a_store_hides_a_later_load_of_the_same_word() {
    let r = feed(&iterations(4, |i| {
        vec![store(8), load(8, i as u64 * 3), load(9, 5)]
    }));
    assert_eq!(r.lm_seen, 4, "only word 9 is live-in");
    assert_eq!(r.lm_pred_percent, 50.0, "predicted from the third on");
}

#[test]
fn reads_of_the_zero_register_are_not_live_ins() {
    let zero = ArchReg::Int(Reg::R0);
    let r = feed(&iterations(3, |_| vec![reads(&[(zero, 0), (zero, 0)])]));
    assert_eq!((r.iterations, r.lr_seen), (3, 0));
    assert_eq!(r.all_lr_percent, 100.0, "vacuously all predicted");
}

#[test]
fn an_instruction_reading_and_writing_one_register_makes_it_live_in() {
    let r5 = ArchReg::Int(Reg::R5);
    let f2 = ArchReg::Fp(FReg::F2);
    let r = feed(&iterations(5, |i| {
        let bump = InstrEvent {
            write: Some(RegWrite {
                reg: r5,
                value: i as u64 + 1,
            }),
            ..reads(&[(r5, i as u64), (f2, 7), (r5, i as u64)])
        };
        vec![bump, reads(&[(r5, i as u64 + 1)])]
    }));
    assert_eq!(r.lr_seen, 10, "r5 and f2 once per iteration");
    assert_eq!(r.lr_pred_percent, 60.0);
}

#[test]
fn nested_frames_closing_out_of_order_through_evictions() {
    let r6 = ArchReg::Int(Reg::R6);
    let mut steps = Vec::new();
    for i in 0..6u64 {
        steps.push(Step::Loop(start(LOOP_A, i as u32)));
        steps.push(Step::Instr(reads(&[(r6, i)])));
        steps.push(Step::Loop(start(LOOP_B, 0)));
        steps.push(Step::Instr(load(40 + i, i)));
        // The outer iteration is evicted while the inner one is open;
        // the inner frame outlives it and closes later.
        steps.push(Step::Loop(evicted(LOOP_A)));
        steps.push(Step::Instr(store(7)));
        steps.push(Step::Instr(load(7, 1)));
        steps.push(Step::Loop(start(LOOP_B, 1)));
        steps.push(Step::Instr(load(50, i)));
        steps.push(Step::Loop(end(LOOP_B)));
    }
    // An eviction of a loop with no open frame is a no-op.
    steps.push(Step::Loop(evicted(LOOP_A)));
    let r = feed(&steps);
    assert_eq!((r.iterations, r.loops), (18, 2));
}
