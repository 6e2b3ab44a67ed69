//! BankAlloc + PackSched: operation packing and scheduling
//! (paper §3.5, Algorithm 2, Figure 7).
//!
//! Values are first assigned to register banks (residual assignment — the
//! paper's effective baseline). Scheduling then walks the dependence DAG
//! top-down, one issue cycle at a time:
//!
//! * candidates are operations whose operands have completed by the
//!   current cycle;
//! * candidate order follows **issue-slot affinity**: each
//!   `(Long − Short)`-cycle window reserves a fraction of slots for Long
//!   instructions proportional to their share of the program (plus the
//!   tunable β), so Long and Short write-backs interleave without port
//!   conflicts (Figure 7); within a class, latency-weighted critical-path
//!   height breaks ties;
//! * candidates are packed into the slot first-fit in that order: each
//!   one joins if it still fits the per-bank read ports, unit counts,
//!   issue width and — without a write-back FIFO — its bank's single
//!   write-back port at its completion cycle. This greedy pass stands in
//!   for Algorithm 2's dynamic program (`solveMaxValidInstrPack`); it
//!   keeps the first valid set in affinity order and does not search for
//!   the largest one.
//!
//! The output is an *ordered stream* of (possibly wide) instruction
//! groups; hardware issues them in order, so the cycle-accurate simulator
//! remains the ground truth for the achieved cycle count.

use finesse_hw::HwModel;
use finesse_ir::{FpOp, FpProgram, OpClass};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scheduling strategy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedStrategy {
    /// Emit in program order, one op per group (the Table 7 "Init."
    /// baseline).
    ProgramOrder,
    /// Affinity-driven list scheduling with first-fit packing
    /// (Algorithm 2).
    AffinityList,
}

/// Scheduler options.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleOptions {
    /// Strategy.
    pub strategy: SchedStrategy,
    /// Affinity threshold offset β (paper §3.5).
    pub affinity_beta: f64,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            strategy: SchedStrategy::AffinityList,
            affinity_beta: 0.05,
        }
    }
}

/// A scheduled program: ordered issue groups over executable ops.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Issue groups in order; each group holds instruction ids of the
    /// original [`FpProgram`] (≤ issue width, resource-valid).
    pub groups: Vec<Vec<u32>>,
    /// Register-bank assignment per value id.
    pub bank_of: Vec<u8>,
    /// The scheduler's predicted makespan in cycles (the simulator is the
    /// ground truth).
    pub predicted_cycles: u64,
}

/// Residual bank assignment (BankAlloc): executable results and inputs
/// cycle through banks by id; constants co-rotate.
pub fn assign_banks(prog: &FpProgram, hw: &HwModel) -> Vec<u8> {
    let n = hw.n_banks.max(1) as u32;
    prog.insts
        .iter()
        .enumerate()
        .map(|(i, _)| (i as u32 % n) as u8)
        .collect()
}

/// Latency-weighted height of each op (standard list-scheduling
/// priority).
fn heights(prog: &FpProgram, hw: &HwModel) -> Vec<u64> {
    let n = prog.insts.len();
    let mut h = vec![0u64; n];
    for i in (0..n).rev() {
        let lat = op_latency(&prog.insts[i], hw) as u64;
        let base = h[i] + lat;
        for o in prog.insts[i].operands() {
            let cell = &mut h[o as usize];
            if *cell < base {
                *cell = base;
            }
        }
    }
    h
}

fn op_latency(op: &FpOp, hw: &HwModel) -> u32 {
    match op.class() {
        OpClass::Long => hw.long_lat,
        OpClass::Short => hw.short_lat,
        OpClass::Inverse => hw.inv_lat,
        OpClass::Meta => {
            if matches!(op, FpOp::Input(_)) {
                hw.long_lat // ICV conversions run through the mmul
            } else {
                0 // constants are preloaded
            }
        }
    }
}

/// True if the op occupies an issue slot (constants are preloads).
fn is_schedulable(op: &FpOp) -> bool {
    !matches!(op, FpOp::Const(_))
}

/// Schedules a program for a hardware model.
pub fn schedule(prog: &FpProgram, hw: &HwModel, opts: &ScheduleOptions) -> Schedule {
    let bank_of = assign_banks(prog, hw);
    match opts.strategy {
        SchedStrategy::ProgramOrder => schedule_program_order(prog, hw, bank_of),
        SchedStrategy::AffinityList => schedule_affinity(prog, hw, bank_of, opts.affinity_beta),
    }
}

fn schedule_program_order(prog: &FpProgram, hw: &HwModel, bank_of: Vec<u8>) -> Schedule {
    let mut groups = Vec::new();
    let mut completion = vec![0u64; prog.insts.len()];
    let mut t = 0u64;
    for (i, op) in prog.insts.iter().enumerate() {
        if !is_schedulable(op) {
            continue;
        }
        let ready = op
            .operands()
            .iter()
            .map(|&o| completion[o as usize])
            .max()
            .unwrap_or(0);
        t = t.max(ready) + 1;
        completion[i] = t - 1 + op_latency(op, hw) as u64;
        groups.push(vec![i as u32]);
    }
    let predicted = completion.iter().copied().max().unwrap_or(0);
    Schedule {
        groups,
        bank_of,
        predicted_cycles: predicted,
    }
}

/// Bound on the Short candidates drawn per cycle.
const CAND_LIMIT: usize = 24;

/// Ready-set index of the Long-unit ops (Long, ICV and inversion) and of
/// the Short ops.
const LONG: usize = 0;
const SHORT: usize = 1;

/// A ready op keyed for the draw: greater height first, then older id.
type Ready = (u64, Reverse<u32>);

/// The machine state candidates are packed against.
struct Resources {
    /// Reads per bank in the cycle being packed.
    reads: Vec<u16>,
    /// Without a write-back FIFO: one bit per `(completion cycle, bank)`
    /// whose write port is taken, at `cycle · banks + bank`.
    wb_taken: Vec<u64>,
    /// The iterative inversion unit is not pipelined.
    inv_busy_until: u64,
}

impl Resources {
    /// Takes `bank`'s write-back port at cycle `done`; false if it was
    /// already taken.
    fn claim_wb(&mut self, bank: u8, done: u64) -> bool {
        let b = done as usize * self.reads.len() + usize::from(bank);
        if self.wb_taken.len() <= b / 64 {
            self.wb_taken.resize(b / 64 + 1, 0);
        }
        let free = (self.wb_taken[b / 64] >> (b % 64)) & 1 == 0;
        self.wb_taken[b / 64] |= 1 << (b % 64);
        free
    }
}

fn schedule_affinity(prog: &FpProgram, hw: &HwModel, bank_of: Vec<u8>, beta: f64) -> Schedule {
    let n = prog.insts.len();
    let h = heights(prog, hw);

    // Long-instruction share drives the affinity threshold.
    let stats = prog.stats();
    let long_frac = if stats.executable() > 0 {
        (stats.mul + stats.sqr) as f64 / stats.executable() as f64
    } else {
        0.5
    };
    let period = hw.affinity_period() as u64;
    let threshold = ((long_frac + beta) * period as f64).ceil() as u64;
    let long_affine = |t: u64| -> bool { (t % period) < threshold };

    // Dependence bookkeeping: the users of `o` are
    // `users[user_start[o]..user_start[o + 1]]`. Constants are always
    // ready and impose no ordering.
    let schedulable = || (0..n).filter(|&i| is_schedulable(&prog.insts[i]));
    let deps = schedulable().flat_map(move |i| {
        let operands = prog.insts[i].operands().into_iter();
        operands
            .filter(move |&o| is_schedulable(&prog.insts[o as usize]))
            .map(move |o| (o as usize, i as u32))
    });
    let (user_start, users) = csr(n, deps.clone());
    let mut indegree = vec![0u32; n];
    for (_, i) in deps {
        indegree[i as usize] += 1;
    }

    let mut completion = vec![0u64; n];
    // pending: ops whose deps issued, keyed by earliest issue cycle.
    let mut pending: BinaryHeap<Reverse<(u64, u32)>> = schedulable()
        .filter(|&i| indegree[i] == 0)
        .map(|i| Reverse((0, i as u32)))
        .collect();
    // Ready ops per class, indexed by `LONG`/`SHORT`.
    let mut ready: [BinaryHeap<Ready>; 2] = Default::default();
    let mut remaining = schedulable().count();

    let mut res = Resources {
        reads: vec![0; usize::from(hw.n_banks.max(1))],
        wb_taken: Vec::new(),
        inv_busy_until: 0,
    };
    let mut groups: Vec<Vec<u32>> = Vec::new();
    let mut t = 0u64;
    let mut makespan = 0u64;

    while remaining > 0 {
        // Promote pending ops that become ready at or before t.
        while let Some(&Reverse((rt, id))) = pending.peek() {
            if rt > t {
                break;
            }
            pending.pop();
            let k = match class_of(&prog.insts[id as usize]) {
                OpClass::Short => SHORT,
                _ => LONG,
            };
            ready[k].push((h[id as usize], Reverse(id)));
        }

        let mut group = pack_group(prog, hw, &bank_of, &mut ready, long_affine(t), t, &mut res);

        if group.is_empty() {
            // Bubble.
            t += 1;
            // Fast-forward across dead time when nothing is in flight.
            if ready.iter().all(BinaryHeap::is_empty) {
                if let Some(&Reverse((rt, _))) = pending.peek() {
                    t = t.max(rt);
                }
            }
            continue;
        }

        // Commit the group.
        for &id in &group {
            let i = id as usize;
            completion[i] = t + op_latency(&prog.insts[i], hw) as u64;
            makespan = makespan.max(completion[i]);
            if class_of(&prog.insts[i]) == OpClass::Inverse {
                res.inv_busy_until = completion[i];
            }
            for &u in &users[user_start[i]..user_start[i + 1]] {
                indegree[u as usize] -= 1;
                if indegree[u as usize] == 0 {
                    let rt = prog.insts[u as usize]
                        .operands()
                        .iter()
                        .map(|&o| completion[o as usize])
                        .max()
                        .unwrap_or(0);
                    pending.push(Reverse((rt, u)));
                }
            }
        }
        remaining -= group.len();
        // The groups outlive the pass: keep each at its exact size.
        group.shrink_to_fit();
        groups.push(group);
        t += 1;
    }

    Schedule {
        groups,
        bank_of,
        predicted_cycles: makespan,
    }
}

/// Groups `(key, value)` pairs by key into one CSR table `(start, values)`:
/// the values of key `k` are `values[start[k]..start[k + 1]]`, in input
/// order.
pub(crate) fn csr(
    keys: usize,
    pairs: impl Iterator<Item = (usize, u32)> + Clone,
) -> (Vec<usize>, Vec<u32>) {
    let mut start = vec![0usize; keys + 1];
    for (k, _) in pairs.clone() {
        start[k + 1] += 1;
    }
    for k in 1..=keys {
        start[k] += start[k - 1];
    }
    let mut values = vec![0; start[keys]];
    let mut fill = start.clone();
    for (k, v) in pairs {
        values[fill[k]] = v;
        fill[k] += 1;
    }
    (start, values)
}

/// Issue class for packing: ICV conversions run through the mmul.
fn class_of(op: &FpOp) -> OpClass {
    match op {
        FpOp::Input(_) => OpClass::Long,
        op => op.class(),
    }
}

/// Packs one issue group at cycle `t`, first-fit in affinity order (see
/// the module docs: no search for a larger valid set).
///
/// Candidates are drawn from the preferred class's ready set, then from
/// the other. The draw is class-aware: only one mmul can issue per cycle,
/// so a handful of Long candidates suffices, while the Short pool scales
/// with the number of linear units (otherwise a Long-heavy ready set would
/// starve the linear slots). The draw stops once the group is as wide as
/// the issue width. Accepted ops take their read and write-back ports in
/// `res`; drawn ops that did not fit return to their ready set.
fn pack_group(
    prog: &FpProgram,
    hw: &HwModel,
    bank_of: &[u8],
    ready: &mut [BinaryHeap<Ready>; 2],
    prefer_long: bool,
    t: u64,
    res: &mut Resources,
) -> Vec<u32> {
    let quota = [4, (hw.n_linear_units as usize * 3).min(CAND_LIMIT)];
    let draw = if prefer_long {
        [LONG, SHORT]
    } else {
        [SHORT, LONG]
    };
    let mut group = Vec::with_capacity(hw.issue_width as usize);
    let mut rejected = Vec::new();
    let (mut longs, mut shorts, mut invs) = (0u8, 0u8, 0u8);
    res.reads.fill(0);
    'draw: for k in draw {
        for _ in 0..quota[k] {
            if group.len() >= hw.issue_width as usize {
                break 'draw;
            }
            // Once the linear units are full, every further Short draw
            // would be turned away.
            if k == SHORT && shorts == hw.n_linear_units {
                break;
            }
            let Some(entry) = ready[k].pop() else {
                break;
            };
            let i = entry.1 .0 as usize;
            let op = &prog.insts[i];
            let class = class_of(op);
            let unit_free = match class {
                OpClass::Long | OpClass::Meta => longs < hw.n_mul_units,
                OpClass::Short => shorts < hw.n_linear_units,
                OpClass::Inverse => invs == 0 && t >= res.inv_busy_until,
            };
            // Every bank the op reads must stay within its read ports once
            // the op's own reads of it are added.
            let operands = op.operands();
            let reads_fit = operands.iter().all(|&o| {
                let b = bank_of[o as usize];
                let mine = operands.iter().filter(|&&p| bank_of[p as usize] == b);
                res.reads[usize::from(b)] as usize + mine.count() <= hw.reads_per_bank as usize
            });
            // The write-back port is claimed last, only once all else fits.
            let done = t + op_latency(op, hw) as u64;
            if !(unit_free && reads_fit && (hw.wb_fifo || res.claim_wb(bank_of[i], done))) {
                rejected.push((k, entry));
                continue;
            }
            for o in operands {
                res.reads[usize::from(bank_of[o as usize])] += 1;
            }
            match class {
                OpClass::Long | OpClass::Meta => longs += 1,
                OpClass::Short => shorts += 1,
                OpClass::Inverse => invs += 1,
            }
            group.push(i as u32);
        }
    }
    for (k, entry) in rejected {
        ready[k].push(entry);
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_ir::FpProgram;
    use std::collections::HashMap;

    /// A small synthetic program: a chain of muls with independent adds
    /// that can hide the Long latency.
    fn mix_program(chain: usize, indep: usize) -> FpProgram {
        let mut p = FpProgram {
            inputs: vec!["a".into(), "b".into()],
            ..Default::default()
        };
        let a = p.push(FpOp::Input(0));
        let b = p.push(FpOp::Input(1));
        let mut acc = a;
        for _ in 0..chain {
            acc = p.push(FpOp::Mul(acc, b));
        }
        let mut adds = Vec::new();
        let mut x = b;
        for _ in 0..indep {
            x = p.push(FpOp::Add(x, a));
            adds.push(x);
        }
        p.outputs.push(acc);
        if let Some(&last) = adds.last() {
            p.outputs.push(last);
        }
        p
    }

    fn all_ids(s: &Schedule) -> Vec<u32> {
        let mut v: Vec<u32> = s.groups.iter().flatten().copied().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn both_strategies_schedule_every_op_once() {
        let p = mix_program(10, 20);
        let hw = HwModel::paper_default();
        for strat in [SchedStrategy::ProgramOrder, SchedStrategy::AffinityList] {
            let s = schedule(
                &p,
                &hw,
                &ScheduleOptions {
                    strategy: strat,
                    affinity_beta: 0.05,
                },
            );
            let ids = all_ids(&s);
            let expect: Vec<u32> = p
                .insts
                .iter()
                .enumerate()
                .filter(|(_, op)| is_schedulable(op))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(ids, expect, "{strat:?}");
        }
    }

    #[test]
    fn schedule_respects_dependences() {
        let p = mix_program(6, 6);
        let hw = HwModel::paper_default();
        let s = schedule(&p, &hw, &ScheduleOptions::default());
        let mut pos = HashMap::new();
        for (gi, g) in s.groups.iter().enumerate() {
            for &id in g {
                pos.insert(id, gi);
            }
        }
        for (i, op) in p.insts.iter().enumerate() {
            if !is_schedulable(op) {
                continue;
            }
            for o in op.operands() {
                if is_schedulable(&p.insts[o as usize]) {
                    assert!(pos[&(o)] < pos[&(i as u32)], "dep order");
                }
            }
        }
    }

    #[test]
    fn list_scheduling_beats_program_order_prediction() {
        // Interleaved mul chain + adds: reordering hides Long latency.
        let p = mix_program(40, 200);
        let hw = HwModel::paper_default();
        let naive = schedule(
            &p,
            &hw,
            &ScheduleOptions {
                strategy: SchedStrategy::ProgramOrder,
                affinity_beta: 0.0,
            },
        );
        let smart = schedule(&p, &hw, &ScheduleOptions::default());
        assert!(
            smart.predicted_cycles < naive.predicted_cycles,
            "smart {} vs naive {}",
            smart.predicted_cycles,
            naive.predicted_cycles
        );
    }

    #[test]
    fn vliw_groups_respect_width_and_units() {
        let p = mix_program(8, 40);
        let hw = HwModel::vliw(4, 8, 2);
        let s = schedule(&p, &hw, &ScheduleOptions::default());
        for g in &s.groups {
            assert!(g.len() <= hw.issue_width as usize);
            let longs = g
                .iter()
                .filter(|&&id| {
                    matches!(
                        p.insts[id as usize],
                        FpOp::Mul(..) | FpOp::Sqr(_) | FpOp::Input(_)
                    )
                })
                .count();
            assert!(longs <= 1, "one mmul per cycle");
        }
    }

    #[test]
    fn bank_assignment_is_residual() {
        let p = mix_program(3, 3);
        let hw = HwModel::vliw(2, 8, 2);
        let banks = assign_banks(&p, &hw);
        for (i, &b) in banks.iter().enumerate() {
            assert_eq!(b as usize, i % hw.n_banks as usize);
        }
    }
}
