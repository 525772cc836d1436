//! Per-iteration live-in tracking frames.
//!
//! Every retired instruction is charged to every open iteration frame
//! (1.6–5.1 of them per instruction on the SPEC95-shaped suite), so the
//! per-frame step is kept to bit operations plus, for a load or store,
//! one or two operations on the frame's address set: [`InstrFacts`]
//! digests the instruction once, and each frame only intersects masks
//! with it.

use loopspec_core::hash::FastSet;
use loopspec_core::LoopId;
use loopspec_cpu::{ArchReg, InstrEvent};
use loopspec_isa::ControlKind;

use crate::MAX_MEM_SLOTS;

/// Dense index of an architectural register in `0..64` (integer file
/// first, then FP).
#[inline]
fn reg_slot(reg: ArchReg) -> usize {
    match reg {
        ArchReg::Int(r) => r.index(),
        ArchReg::Fp(r) => 32 + r.index(),
    }
}

/// What one retired instruction contributes to an iteration frame,
/// computed once and applied to every open frame.
#[derive(Debug, Default)]
pub(crate) struct InstrFacts {
    /// Registers read (bit = reg slot), excluding the hardwired zero
    /// register: it is trivially constant, not a meaningful live-in.
    read_mask: u64,
    /// The first observed value of each register in `read_mask`, in
    /// read order.
    reads: [(u8, u64); 5],
    n_reads: usize,
    /// The register written (bit = reg slot), or 0.
    write_mask: u64,
    /// Load (address, value).
    load: Option<(u64, u64)>,
    /// Store address.
    store: Option<u64>,
    /// Path-signature word of a dynamically divergent control transfer.
    divergence: Option<u64>,
}

impl InstrFacts {
    /// Digests `ev`. The path signature covers every *dynamically
    /// divergent* control transfer: conditional branches by outcome,
    /// indirect jumps/calls and returns by target (a "path" is the exact
    /// instruction sequence of the iteration, paper §4).
    #[inline]
    pub fn new(ev: &InstrEvent) -> Self {
        let mut facts = InstrFacts::default();
        for read in ev.reads.iter().flatten() {
            if matches!(read.reg, ArchReg::Int(r) if r.is_zero()) {
                continue;
            }
            let slot = reg_slot(read.reg);
            let bit = 1u64 << slot;
            if facts.read_mask & bit == 0 {
                facts.read_mask |= bit;
                facts.reads[facts.n_reads] = (slot as u8, read.value);
                facts.n_reads += 1;
            }
        }
        if let Some(w) = ev.write {
            facts.write_mask = 1u64 << reg_slot(w.reg);
        }
        facts.load = ev.mem_read.map(|m| (m.addr, m.value));
        facts.store = ev.mem_write.map(|m| m.addr);
        let outcome = match ev.control.kind {
            ControlKind::CondBranch { .. } => Some(ev.control.taken as u32),
            ControlKind::IndirectJump | ControlKind::IndirectCall | ControlKind::Ret => {
                Some(ev.control.target.index())
            }
            _ => None,
        };
        facts.divergence = outcome.map(|o| ((ev.pc.index() as u64) << 32) | o as u64);
        facts
    }
}

/// Capacity above which a recycled frame's address set is dropped
/// rather than cleared: clearing costs the capacity, not the length, so
/// one huge iteration must not tax every small one that reuses its frame.
const RECYCLE_SET_CAPACITY: usize = 256;

/// Live-in observation state for one open loop iteration.
///
/// A register or memory word is live-in when it is read before any write
/// to it *within this iteration*. Registers use bitmasks plus a value
/// array (the architectural file is only 64 registers); memory uses one
/// set of the words this iteration has stored to or recorded as live-in.
/// Frames are recycled: [`IterFrame::reset`] readies a closed one for a
/// new iteration without allocating.
#[derive(Debug)]
pub(crate) struct IterFrame {
    pub loop_id: LoopId,
    /// FNV-1a running hash over the divergence words of the iteration.
    pub path_hash: u64,
    /// Registers written so far (bit = reg slot).
    written_regs: u64,
    /// Registers recorded as live-in (bit = reg slot).
    livein_regs: u64,
    /// First-read value per register slot (valid where `livein_regs` set).
    livein_values: [u64; 64],
    /// Memory words stored to or recorded live-in so far. Loads dropped
    /// by the slot cap are *not* added, so each repeat counts again.
    touched: FastSet<u64>,
    /// Live-in loads in first-access order: (address, first value).
    pub livein_mem: Vec<(u64, u64)>,
    /// Live-in loads dropped because `MAX_MEM_SLOTS` was reached.
    pub mem_overflow: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fnv_mix(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl IterFrame {
    pub fn new(loop_id: LoopId) -> Self {
        IterFrame {
            loop_id,
            path_hash: FNV_OFFSET,
            written_regs: 0,
            livein_regs: 0,
            livein_values: [0; 64],
            touched: FastSet::default(),
            livein_mem: Vec::new(),
            mem_overflow: 0,
        }
    }

    /// Readies a closed frame for a new iteration of `loop_id`.
    pub fn reset(&mut self, loop_id: LoopId) {
        self.loop_id = loop_id;
        self.path_hash = FNV_OFFSET;
        self.written_regs = 0;
        self.livein_regs = 0;
        if self.touched.capacity() > RECYCLE_SET_CAPACITY {
            self.touched = FastSet::default();
        } else {
            self.touched.clear();
        }
        self.livein_mem.clear();
        self.mem_overflow = 0;
    }

    /// Charges one instruction to this iteration.
    #[inline]
    pub fn charge(&mut self, ins: &InstrFacts) {
        let fresh = ins.read_mask & !(self.written_regs | self.livein_regs);
        if fresh != 0 {
            for &(slot, value) in &ins.reads[..ins.n_reads] {
                if fresh & (1u64 << slot) != 0 {
                    self.livein_values[slot as usize] = value;
                }
            }
            self.livein_regs |= fresh;
        }
        self.written_regs |= ins.write_mask;
        if let Some((addr, value)) = ins.load {
            self.note_load(addr, value);
        }
        if let Some(addr) = ins.store {
            self.touched.insert(addr);
        }
        if let Some(word) = ins.divergence {
            self.path_hash = fnv_mix(self.path_hash, word);
        }
    }

    #[inline]
    fn note_load(&mut self, addr: u64, value: u64) {
        if self.touched.contains(&addr) {
            return;
        }
        if self.livein_mem.len() >= MAX_MEM_SLOTS {
            self.mem_overflow += 1;
            return;
        }
        self.touched.insert(addr);
        self.livein_mem.push((addr, value));
    }

    /// The live-in registers, by slot in ascending order, with their
    /// first-read values.
    pub fn livein_regs(&self) -> impl Iterator<Item = (u8, u64)> + '_ {
        let mut bits = self.livein_regs;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let slot = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some((slot as u8, self.livein_values[slot]))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_cpu::{ControlOutcome, MemAccess, RegRead, RegWrite};
    use loopspec_isa::{Addr, FReg, Instruction, Reg};

    fn frame() -> IterFrame {
        IterFrame::new(LoopId(Addr::new(1)))
    }

    fn event() -> InstrEvent {
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

    fn read(reg: ArchReg, value: u64) -> InstrFacts {
        let mut ev = event();
        ev.reads[0] = Some(RegRead { reg, value });
        InstrFacts::new(&ev)
    }

    fn write(reg: ArchReg) -> InstrFacts {
        let mut ev = event();
        ev.write = Some(RegWrite { reg, value: 0 });
        InstrFacts::new(&ev)
    }

    fn load(addr: u64, value: u64) -> InstrFacts {
        let mut ev = event();
        ev.mem_read = Some(MemAccess { addr, value });
        InstrFacts::new(&ev)
    }

    fn store(addr: u64) -> InstrFacts {
        let mut ev = event();
        ev.mem_write = Some(MemAccess { addr, value: 0 });
        InstrFacts::new(&ev)
    }

    fn branch(taken: bool) -> InstrFacts {
        let mut ev = event();
        ev.control.kind = ControlKind::CondBranch {
            target: Addr::new(3),
        };
        ev.control.taken = taken;
        InstrFacts::new(&ev)
    }

    const R5: ArchReg = ArchReg::Int(Reg::R5);

    #[test]
    fn read_before_write_is_live_in() {
        let mut f = frame();
        f.charge(&read(R5, 99));
        f.charge(&write(R5));
        let l: Vec<_> = f.livein_regs().collect();
        assert_eq!(l, vec![(5, 99)]);
    }

    #[test]
    fn write_before_read_is_not_live_in() {
        let mut f = frame();
        f.charge(&write(R5));
        f.charge(&read(R5, 99));
        assert_eq!(f.livein_regs().count(), 0);
    }

    #[test]
    fn first_read_value_sticks() {
        let mut f = frame();
        f.charge(&read(R5, 1));
        f.charge(&read(R5, 2));
        assert_eq!(f.livein_regs().next().unwrap().1, 1);
    }

    #[test]
    fn zero_register_is_ignored() {
        let mut f = frame();
        f.charge(&read(ArchReg::Int(Reg::R0), 0));
        assert_eq!(f.livein_regs().count(), 0);
    }

    #[test]
    fn read_and_write_of_one_register_in_one_instruction_is_live_in() {
        let mut ev = event();
        ev.reads[0] = Some(RegRead { reg: R5, value: 4 });
        ev.write = Some(RegWrite { reg: R5, value: 5 });
        let mut f = frame();
        f.charge(&InstrFacts::new(&ev));
        f.charge(&read(R5, 5));
        assert_eq!(f.livein_regs().collect::<Vec<_>>(), vec![(5, 4)]);
    }

    #[test]
    fn fp_registers_live_in_separate_slots() {
        let mut f = frame();
        f.charge(&read(ArchReg::Int(Reg::R3), 7));
        f.charge(&read(ArchReg::Fp(FReg::F3), 8));
        let l: Vec<_> = f.livein_regs().collect();
        assert_eq!(l, vec![(3, 7), (35, 8)]);
    }

    #[test]
    fn memory_live_in_order_and_dedup() {
        let mut f = frame();
        f.charge(&store(100));
        f.charge(&load(100, 5)); // stored first: not live-in
        f.charge(&load(200, 6));
        f.charge(&load(200, 7)); // duplicate
        f.charge(&load(300, 8));
        f.charge(&store(300)); // already live-in: stays
        assert_eq!(f.livein_mem, vec![(200, 6), (300, 8)]);
    }

    #[test]
    fn memory_slots_cap_and_repeats_past_the_cap_count_again() {
        let mut f = frame();
        for a in 0..(MAX_MEM_SLOTS as u64 + 10) {
            f.charge(&load(a + 1000, a));
        }
        assert_eq!(f.livein_mem.len(), MAX_MEM_SLOTS);
        assert_eq!(f.mem_overflow, 10);
        f.charge(&load(MAX_MEM_SLOTS as u64 + 1000, 0));
        assert_eq!(f.mem_overflow, 11);
        f.charge(&store(MAX_MEM_SLOTS as u64 + 1000));
        f.charge(&load(MAX_MEM_SLOTS as u64 + 1000, 0));
        assert_eq!(f.mem_overflow, 11, "a stored word is no longer live-in");
    }

    #[test]
    fn path_hash_depends_on_outcomes() {
        let mut a = frame();
        let mut b = frame();
        a.charge(&branch(true));
        b.charge(&branch(false));
        assert_ne!(a.path_hash, b.path_hash);
        let mut c = frame();
        c.charge(&branch(true));
        assert_eq!(a.path_hash, c.path_hash);
    }

    #[test]
    fn reset_frames_start_clean() {
        let mut f = frame();
        f.charge(&read(R5, 1));
        f.charge(&load(7, 7));
        f.charge(&store(8));
        f.charge(&branch(true));
        f.reset(LoopId(Addr::new(2)));
        let fresh = IterFrame::new(LoopId(Addr::new(2)));
        assert_eq!(f.path_hash, fresh.path_hash);
        assert_eq!(f.livein_regs().count(), 0);
        f.charge(&load(8, 1));
        assert_eq!(f.livein_mem, vec![(8, 1)], "the old store is forgotten");
    }
}
