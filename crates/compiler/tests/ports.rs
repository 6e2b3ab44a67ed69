//! Write-back port rules on register banks above 63: without a FIFO the
//! scheduler must never issue into a taken `(bank, cycle)` write-back
//! slot, for every bank a `u8` can name, not only for the banks a 64-bit
//! mask can hold.

use finesse_compiler::{schedule, Schedule, ScheduleOptions};
use finesse_ff::BigUint;
use finesse_hw::HwModel;
use finesse_ir::{FpOp, FpProgram};

/// Schedules `a = input; m = a·a; d = 2a` on a single-issue core with 70
/// banks, no write-back FIFO, Long 3 and Short 2. Constant loads pad the
/// program so that `m` and `d` get the ids `mul_id` and `dbl_id`, and so
/// the banks `id % 70` of the residual bank assignment.
fn mul_and_dbl_at(mul_id: usize, dbl_id: usize) -> Schedule {
    let mut p = FpProgram {
        inputs: vec!["a".into()],
        constants: vec![BigUint::from_u64(1)],
        ..Default::default()
    };
    let a = p.push(FpOp::Input(0));
    for (id, op) in [(mul_id, FpOp::Mul(a, a)), (dbl_id, FpOp::Dbl(a))] {
        while p.insts.len() < id {
            p.push(FpOp::Const(0));
        }
        let v = p.push(op);
        p.outputs.push(v);
    }
    assert_eq!(p.validate(), Ok(()));
    let hw = HwModel {
        n_banks: 70,
        ..HwModel::single_issue(3, 2)
    };
    schedule(&p, &hw, &ScheduleOptions::default())
}

#[test]
fn a_taken_writeback_slot_on_bank_65_is_not_issued_into() {
    // The input converts over cycles 0..3, the MUL issues at 3 and writes
    // back to bank 65 at 6. A DBL issued at 4 would write back at 6 too,
    // so the DBL on bank 65 waits one cycle.
    let s = mul_and_dbl_at(65, 135);
    assert_eq!(s.groups, [[0], [65], [135]]);
    assert_eq!(s.predicted_cycles, 7);
}

#[test]
fn writeback_slots_on_banks_1_and_65_are_distinct() {
    // MUL on bank 65 and DBL on bank 1, then the other way round: the
    // two write-backs at cycle 6 do not collide, so nothing waits.
    assert_eq!(mul_and_dbl_at(65, 71).predicted_cycles, 6);
    assert_eq!(mul_and_dbl_at(71, 135).predicted_cycles, 6);
}
