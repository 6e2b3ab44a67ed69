//! RegAlloc: sequential register allocation within banks, based on
//! liveness over the scheduled order (paper §3.5).
//!
//! Values keep the bank BankAlloc chose; within a bank, indices come from
//! a free list. A value's register frees once its last consumer has
//! *issued* (reads happen at issue; in-order issue plus data dependences
//! make the reuse hazard-free — see the scheduling module). Constants and
//! program outputs are pinned.

use crate::schedule::{csr, Schedule};
use finesse_ir::{FpOp, FpProgram};
use finesse_isa::Reg;

/// Allocation result.
#[derive(Clone, Debug)]
pub struct RegAllocation {
    /// Register per value id (meta values included).
    pub reg_of: Vec<Reg>,
    /// Peak simultaneously-live registers per bank.
    pub peak_per_bank: Vec<u32>,
    /// Peak total live registers (drives the DMem area model).
    pub peak_live: u32,
}

/// Error: a bank ran out of registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegPressureError {
    /// The saturated bank.
    pub bank: u8,
    /// The quota that was exceeded.
    pub quota: u16,
}

impl std::fmt::Display for RegPressureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "register bank {} exceeded its quota of {}",
            self.bank, self.quota
        )
    }
}

impl std::error::Error for RegPressureError {}

/// Allocates registers over a schedule.
///
/// # Errors
///
/// Returns [`RegPressureError`] if a bank's quota is exhausted.
pub fn allocate(
    prog: &FpProgram,
    sched: &Schedule,
    quota: u16,
) -> Result<RegAllocation, RegPressureError> {
    let n = prog.insts.len();
    // Linear position of each op in the scheduled stream; constants and
    // (never-scheduled) meta get position 0 (live from the start).
    let mut pos = vec![0usize; n];
    for (gi, g) in sched.groups.iter().enumerate() {
        for &id in g {
            pos[id as usize] = gi + 1;
        }
    }
    // Last read position per value.
    let mut last_use = vec![0usize; n];
    for (i, op) in prog.insts.iter().enumerate() {
        for o in op.operands() {
            let p = pos[i];
            let cell = &mut last_use[o as usize];
            if *cell < p {
                *cell = p;
            }
        }
    }
    // Outputs stay live to the end.
    let end = sched.groups.len() + 2;
    for &o in &prog.outputs {
        last_use[o as usize] = end;
    }
    // Constants are pinned for the whole program.
    let consts = (0..n).filter(|&i| matches!(prog.insts[i], FpOp::Const(_)));
    for i in consts.clone() {
        last_use[i] = end;
    }

    let n_banks = sched.bank_of.iter().copied().max().unwrap_or(0) as usize + 1;
    let mut free: Vec<Vec<u16>> = vec![Vec::new(); n_banks];
    let mut next_fresh: Vec<u16> = vec![0; n_banks];
    let mut live_now: Vec<u32> = vec![0; n_banks];
    let mut peak: Vec<u32> = vec![0; n_banks];
    let mut reg_of = vec![Reg::default(); n];

    // Events: allocations in schedule order (constants first), frees as
    // we pass their last use.
    let order = consts.chain(sched.groups.iter().flatten().map(|&id| id as usize));

    // Frees by position, as one CSR table: the values whose last use is
    // position `q` are `frees[free_start[q]..free_start[q + 1]]`, in
    // ascending id order.
    let (free_start, frees) = csr(
        end,
        (0..n)
            .filter(|&i| last_use[i] < end)
            .map(|i| (last_use[i], i as u32)),
    );

    let mut cur_pos = 0usize;
    for i in order {
        let p = pos[i];
        // Release registers whose last use has passed.
        while cur_pos < p {
            cur_pos += 1;
            for &v in &frees[free_start[cur_pos]..free_start[cur_pos + 1]] {
                let b = sched.bank_of[v as usize] as usize;
                free[b].push(reg_of[v as usize].index);
                live_now[b] -= 1;
            }
        }
        let b = sched.bank_of[i] as usize;
        let idx = if let Some(r) = free[b].pop() {
            r
        } else {
            let r = next_fresh[b];
            if r >= quota {
                return Err(RegPressureError {
                    bank: b as u8,
                    quota,
                });
            }
            next_fresh[b] = r + 1;
            r
        };
        reg_of[i] = Reg {
            bank: b as u8,
            index: idx,
        };
        live_now[b] += 1;
        peak[b] = peak[b].max(live_now[b]);
    }

    let peak_live = peak.iter().sum();
    Ok(RegAllocation {
        reg_of,
        peak_per_bank: peak,
        peak_live,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{schedule, ScheduleOptions};
    use finesse_hw::HwModel;

    fn chain_program(len: usize) -> FpProgram {
        let mut p = FpProgram {
            inputs: vec!["a".into()],
            ..Default::default()
        };
        let a = p.push(FpOp::Input(0));
        let mut acc = a;
        for _ in 0..len {
            acc = p.push(FpOp::Sqr(acc));
        }
        p.outputs.push(acc);
        p
    }

    #[test]
    fn chain_reuses_registers() {
        let p = chain_program(100);
        let hw = HwModel::paper_default();
        let s = schedule(&p, &hw, &ScheduleOptions::default());
        let a = allocate(&p, &s, 512).unwrap();
        // A pure chain needs only a handful of registers, not 100.
        assert!(a.peak_live <= 4, "peak {}", a.peak_live);
    }

    #[test]
    fn quota_violation_is_reported() {
        // Many simultaneously-live values (all feed the final sum).
        let mut p = FpProgram {
            inputs: vec!["a".into()],
            ..Default::default()
        };
        let a = p.push(FpOp::Input(0));
        let vals: Vec<_> = (0..40).map(|_| p.push(FpOp::Dbl(a))).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = p.push(FpOp::Add(acc, v));
        }
        p.outputs.push(acc);
        let hw = HwModel::paper_default();
        let s = schedule(&p, &hw, &ScheduleOptions::default());
        let err = allocate(&p, &s, 8).unwrap_err();
        assert_eq!(err.quota, 8);
        assert!(allocate(&p, &s, 64).is_ok());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // pairwise (i, j) scan over parallel index-keyed tables
    fn no_two_live_values_share_a_register() {
        let p = chain_program(30);
        let hw = HwModel::paper_default();
        let s = schedule(&p, &hw, &ScheduleOptions::default());
        let a = allocate(&p, &s, 512).unwrap();
        // Check pairwise: overlapping live ranges ⇒ different registers.
        let mut pos = vec![0usize; p.insts.len()];
        for (gi, g) in s.groups.iter().enumerate() {
            for &id in g {
                pos[id as usize] = gi + 1;
            }
        }
        let mut last_use = vec![0usize; p.insts.len()];
        for (i, op) in p.insts.iter().enumerate() {
            for o in op.operands() {
                last_use[o as usize] = last_use[o as usize].max(pos[i]);
            }
        }
        for i in 0..p.insts.len() {
            for j in (i + 1)..p.insts.len() {
                if a.reg_of[i] == a.reg_of[j] {
                    // i's range must end before j is defined.
                    assert!(
                        last_use[i] <= pos[j],
                        "%{i} and %{j} share {} but overlap",
                        a.reg_of[i]
                    );
                }
            }
        }
    }
}
