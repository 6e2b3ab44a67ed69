//! Write-back port rules on register banks above 63: the simulator's
//! port table must be exact for every bank a `u8` can name, not only for
//! the banks a 64-bit mask can hold.

use finesse_hw::HwModel;
use finesse_isa::{MachineOp, Opcode, Reg, WideInst};
use finesse_sim::simulate;

/// A single-issue core with 70 banks and no write-back FIFO. Long 3 and
/// Short 2, so a MUL and a DBL issued one cycle later complete together.
fn seventy_banks() -> HwModel {
    HwModel {
        n_banks: 70,
        ..HwModel::single_issue(3, 2)
    }
}

/// `MUL` into bank `mul_bank`, then `DBL` into bank `dbl_bank`, both
/// reading a register that is ready from the start.
fn mul_then_dbl(mul_bank: u8, dbl_bank: u8) -> Vec<WideInst> {
    let src = Reg { bank: 0, index: 1 };
    [(Opcode::Mul, mul_bank), (Opcode::Dbl, dbl_bank)]
        .into_iter()
        .map(|(op, bank)| WideInst {
            slots: vec![MachineOp {
                op,
                dst: Reg { bank, index: 0 },
                src1: src,
                src2: src,
            }],
        })
        .collect()
}

#[test]
fn writebacks_on_banks_1_and_65_in_one_cycle_do_not_collide() {
    for (a, b) in [(1, 65), (65, 1)] {
        let r = simulate(&mul_then_dbl(a, b), &seventy_banks(), None);
        // The MUL issues at 0 and the DBL at 1; both write back at 3.
        let got = (r.cycles, r.stall_cycles, r.wb_conflicts);
        assert_eq!(got, (3, 0, 0), "banks {a} and {b}");
    }
}

#[test]
fn two_writebacks_on_bank_65_in_one_cycle_collide() {
    let r = simulate(&mul_then_dbl(65, 65), &seventy_banks(), None);
    // The DBL stalls one cycle, so it writes back at 4 instead of 3.
    assert_eq!((r.cycles, r.stall_cycles, r.wb_conflicts), (4, 1, 1));
}
