//! The cycle-accurate pipeline simulator (paper §3.4): consistent with
//! the RTL pipeline model — in-order issue, operand scoreboarding against
//! unit latencies, register-bank read ports, single write-back ports per
//! bank (with conflicts either stalling issue or absorbed by the
//! write-back ring buffers — the HW1/HW2 pair of Table 7), and the
//! non-pipelined iterative inversion unit.
//!
//! This simulator is the experimental infrastructure the compiler's
//! affinity optimisation and the DSE loop read their cycle counts from,
//! and it produces the issue-queue occupancy traces of Figure 9.

use finesse_hw::HwModel;
use finesse_isa::{MachineOp, Opcode, Reg, WideInst};

/// What occupied an issue slot in a given cycle (Figure 9 waterfall).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotKind {
    /// A Long (multiplicative / conversion) instruction issued.
    Long,
    /// A Short (linear) instruction issued.
    Short,
    /// The iterative inversion issued.
    Inverse,
    /// Bubble.
    Empty,
}

/// Per-cycle issue trace over a window.
#[derive(Clone, Debug, Default)]
pub struct IssueTrace {
    /// First recorded cycle.
    pub start: u64,
    /// One entry per cycle per slot.
    pub slots: Vec<Vec<SlotKind>>,
}

impl IssueTrace {
    /// Fraction of recorded slots that are bubbles.
    pub fn bubble_fraction(&self) -> f64 {
        let total: usize = self.slots.iter().map(Vec::len).sum();
        if total == 0 {
            return 0.0;
        }
        let empty: usize = self
            .slots
            .iter()
            .flatten()
            .filter(|s| **s == SlotKind::Empty)
            .count();
        empty as f64 / total as f64
    }

    /// Compact one-character-per-slot rendering (`M` Long, `a` Short,
    /// `I` inverse, `.` bubble), one line per cycle.
    pub fn render(&self) -> String {
        self.slots
            .iter()
            .map(|cycle| {
                cycle
                    .iter()
                    .map(|s| match s {
                        SlotKind::Long => 'M',
                        SlotKind::Short => 'a',
                        SlotKind::Inverse => 'I',
                        SlotKind::Empty => '.',
                    })
                    .collect::<String>()
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Simulation result.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total cycles until the last write-back completes.
    pub cycles: u64,
    /// Executed operations (non-NOP slots).
    pub instructions: u64,
    /// Issue stalls (cycles where the next word could not issue).
    pub stall_cycles: u64,
    /// Write-back port conflicts that stalled issue: without a write-back
    /// FIFO, one per stall cycle in which a slot's bank already had a
    /// write-back at the slot's completion cycle. With the FIFO present,
    /// write-back ports are not tracked and this is always 0; the
    /// conflicts the ring buffers absorb are not counted.
    pub wb_conflicts: u64,
    /// Optional issue trace for a cycle window.
    pub trace: Option<IssueTrace>,
}

impl SimReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

fn kind_of(op: Opcode) -> SlotKind {
    match op {
        Opcode::Mul | Opcode::Sqr | Opcode::Cvt | Opcode::Icv => SlotKind::Long,
        Opcode::Inv => SlotKind::Inverse,
        Opcode::Nop => SlotKind::Empty,
        _ => SlotKind::Short,
    }
}

/// `table[bank][i]`, or 0 where the table has not grown that far.
fn at(table: &[Vec<u64>], bank: u8, i: usize) -> u64 {
    table
        .get(usize::from(bank))
        .and_then(|row| row.get(i))
        .copied()
        .unwrap_or(0)
}

/// `table[bank][i]`, growing the table with zeros on demand.
fn at_mut(table: &mut Vec<Vec<u64>>, bank: u8, i: usize) -> &mut u64 {
    let bank = usize::from(bank);
    if table.len() <= bank {
        table.resize_with(bank + 1, Vec::new);
    }
    let row = &mut table[bank];
    if row.len() <= i {
        row.resize(i + 1, 0);
    }
    &mut row[i]
}

/// The registers a slot reads.
fn sources(slot: &MachineOp) -> impl Iterator<Item = Reg> {
    [slot.src1, slot.src2].into_iter().take(slot.op.n_sources())
}

/// Simulates an instruction stream on a hardware model.
///
/// `trace_window` records the issue pattern for cycles in
/// `[window.0, window.1)`.
pub fn simulate(insts: &[WideInst], hw: &HwModel, trace_window: Option<(u64, u64)>) -> SimReport {
    // Dense per-bank tables, grown on demand: the cycle each register's
    // value is ready, and one bit per cycle whose write-back port is taken
    // (recorded only without a FIFO).
    let mut reg_ready: Vec<Vec<u64>> = Vec::new();
    let mut wb_taken: Vec<Vec<u64>> = Vec::new();
    // Reads per bank of the word being issued.
    let mut reads = [0u16; 256];
    let mut inv_busy_until = 0u64;
    let mut t = 0u64;
    let mut last_completion = 0u64;
    let mut instructions = 0u64;
    let mut stalls = 0u64;
    let mut wb_conflicts = 0u64;
    let mut trace = trace_window.map(|(s, _)| IssueTrace {
        start: s,
        slots: Vec::new(),
    });

    for wide in insts {
        // Read ports depend only on the word, not on the cycle.
        let srcs = || wide.slots.iter().flat_map(sources);
        srcs().for_each(|s| reads[usize::from(s.bank)] += 1);
        let ports_ok = srcs().all(|s| reads[usize::from(s.bank)] <= u16::from(hw.reads_per_bank));
        srcs().for_each(|s| reads[usize::from(s.bank)] -= 1);
        // Find the earliest cycle >= t at which this word can issue.
        loop {
            let mut ok = ports_ok;
            let mut conflict_here = false;
            for slot in wide.slots.iter().filter(|s| s.op != Opcode::Nop) {
                // Operand readiness.
                if sources(slot).any(|s| at(&reg_ready, s.bank, usize::from(s.index)) > t) {
                    ok = false;
                }
                // Inversion unit is not pipelined.
                if slot.op == Opcode::Inv && t < inv_busy_until {
                    ok = false;
                }
                // Write-back port at completion (CVT writes the I/O
                // interface, not a bank). Ports are recorded only without
                // a FIFO, where a taken one stalls the word.
                if slot.op != Opcode::Cvt {
                    let c = (t + hw.latency_of(slot.op) as u64) as usize;
                    if (at(&wb_taken, slot.dst.bank, c / 64) >> (c % 64)) & 1 == 1 {
                        conflict_here = true;
                        ok = false;
                    }
                }
            }
            if ok {
                break;
            }
            if conflict_here {
                wb_conflicts += 1;
            }
            // Stall one cycle.
            if let (Some(tr), Some((ws, we))) = (trace.as_mut(), trace_window) {
                if t >= ws && t < we {
                    tr.slots
                        .push(vec![SlotKind::Empty; hw.issue_width as usize]);
                }
            }
            stalls += 1;
            t += 1;
        }

        // Issue at t.
        if let (Some(tr), Some((ws, we))) = (trace.as_mut(), trace_window) {
            if t >= ws && t < we {
                let mut row = Vec::with_capacity(hw.issue_width as usize);
                for i in 0..hw.issue_width as usize {
                    row.push(
                        wide.slots
                            .get(i)
                            .map(|s| kind_of(s.op))
                            .unwrap_or(SlotKind::Empty),
                    );
                }
                tr.slots.push(row);
            }
        }
        for slot in &wide.slots {
            if slot.op == Opcode::Nop {
                continue;
            }
            instructions += 1;
            let lat = hw.latency_of(slot.op) as u64;
            let done = t + lat;
            last_completion = last_completion.max(done);
            if slot.op == Opcode::Inv {
                inv_busy_until = done;
            }
            if slot.op != Opcode::Cvt {
                *at_mut(&mut reg_ready, slot.dst.bank, usize::from(slot.dst.index)) = done;
                if !hw.wb_fifo {
                    let c = done as usize;
                    *at_mut(&mut wb_taken, slot.dst.bank, c / 64) |= 1 << (c % 64);
                }
            }
        }
        t += 1;
    }

    SimReport {
        cycles: last_completion,
        instructions,
        stall_cycles: stalls,
        wb_conflicts,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(o: Opcode, d: u16, s1: u16, s2: u16) -> MachineOp {
        MachineOp {
            op: o,
            dst: Reg { bank: 0, index: d },
            src1: Reg { bank: 0, index: s1 },
            src2: Reg { bank: 0, index: s2 },
        }
    }

    fn single(ops: Vec<MachineOp>) -> Vec<WideInst> {
        ops.into_iter()
            .map(|o| WideInst { slots: vec![o] })
            .collect()
    }

    #[test]
    fn dependent_chain_stalls_for_latency() {
        let hw = HwModel::paper_default();
        // ICV r0; MUL r1 = r0·r0; MUL r2 = r1·r1 — each MUL waits 38.
        let prog = single(vec![
            op(Opcode::Icv, 0, 0, 0),
            op(Opcode::Mul, 1, 0, 0),
            op(Opcode::Mul, 2, 1, 1),
        ]);
        let r = simulate(&prog, &hw, None);
        // ICV at 0 (done 38), MUL at 38 (done 76), MUL at 76 (done 114).
        assert_eq!(r.cycles, 114);
        assert_eq!(r.instructions, 3);
        assert!(r.stall_cycles > 70);
    }

    #[test]
    fn independent_ops_pipeline_fully() {
        let hw = HwModel::paper_default();
        // One ICV then many independent squarings of r0.
        let mut ops = vec![op(Opcode::Icv, 0, 0, 0)];
        for i in 1..=20 {
            ops.push(op(Opcode::Sqr, i, 0, 0));
        }
        let r = simulate(&single(ops), &hw, None);
        // After the ICV completes at 38, SQRs issue back-to-back.
        assert_eq!(r.cycles, 38 + 20 + 37);
        assert!(r.ipc() > 0.2);
    }

    #[test]
    fn writeback_conflict_stalls_without_fifo() {
        let hw = HwModel::paper_default();
        // MUL at t, Short at t+30 would complete together at t+38 on the
        // same bank (Long 38, Short 8 → collision when issued 30 apart).
        let mut ops = vec![op(Opcode::Icv, 0, 0, 0)];
        ops.push(op(Opcode::Mul, 1, 0, 0)); // issues at 38, done 76
                                            // 29 independent shorts to advance time to 67...
        for i in 0..29 {
            ops.push(op(Opcode::Dbl, 10 + i, 0, 0));
        }
        // This short issues at cycle 68, completing at 76 → conflict.
        ops.push(op(Opcode::Dbl, 60, 0, 0));
        let r1 = simulate(&single(ops.clone()), &hw, None);
        assert!(r1.wb_conflicts > 0, "conflict detected");

        let hw2 = HwModel::paper_default().with_fifo();
        let r2 = simulate(&single(ops), &hw2, None);
        assert!(r2.cycles <= r1.cycles, "fifo absorbs the conflict");
    }

    #[test]
    fn inversion_unit_is_exclusive() {
        let hw = HwModel::paper_default();
        let prog = single(vec![
            op(Opcode::Icv, 0, 0, 0),
            op(Opcode::Inv, 1, 0, 0),
            op(Opcode::Inv, 2, 0, 0),
        ]);
        let r = simulate(&prog, &hw, None);
        // Second INV waits for the first (inv_lat = 560 each).
        assert!(r.cycles >= 38 + 2 * 560);
    }

    #[test]
    fn trace_window_records_issue_pattern() {
        let hw = HwModel::paper_default();
        let mut ops = vec![op(Opcode::Icv, 0, 0, 0)];
        for i in 1..=5 {
            ops.push(op(Opcode::Sqr, i, 0, 0));
        }
        let r = simulate(&single(ops), &hw, Some((0, 50)));
        let tr = r.trace.unwrap();
        // ICV at cycle 0, stalls for cycles 1..=37, SQRs at 38..=42.
        assert_eq!(tr.slots.len(), 43);
        assert!(
            tr.bubble_fraction() > 0.5,
            "leading ICV latency shows as bubbles"
        );
        assert!(tr.render().contains('M'));
    }
}
