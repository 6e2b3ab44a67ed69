//! The F_p-level program: fully lowered straight-line SSA whose operations
//! map 1:1 onto the accelerator ISA (`ADD SUB NEG DBL TPL MUL SQR INV`),
//! plus the `Input`/`Const` value sources that become `ICV` conversions
//! and the preloaded constant table in hardware.
//!
//! [`FpProgram::evaluate`] is the arithmetic core of the paper's
//! single-cycle functional simulator: it executes the SSA stream on real
//! Montgomery field elements so compiled programs can be cross-checked
//! against the reference pairing library.

use finesse_ff::{BigUint, Fp, FpCtx};
use std::fmt;
use std::sync::Arc;

/// SSA value id in an [`FpProgram`] (index of defining instruction).
pub type FpId = u32;

/// An F_p-level operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FpOp {
    /// External input (slot index).
    Input(u32),
    /// Constant-table load (table index).
    Const(u32),
    /// Addition.
    Add(FpId, FpId),
    /// Subtraction.
    Sub(FpId, FpId),
    /// Negation.
    Neg(FpId),
    /// Doubling.
    Dbl(FpId),
    /// Tripling.
    Tpl(FpId),
    /// Multiplication.
    Mul(FpId, FpId),
    /// Squaring.
    Sqr(FpId),
    /// Inversion.
    Inv(FpId),
}

/// Pipeline class of an operation (paper §3.3: `mmul` is the Long unit,
/// linear ops are Short units, `minv` is iterative).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OpClass {
    /// Executes on a Short (linear) unit.
    Short,
    /// Executes on the Long (modular multiplier) unit.
    Long,
    /// Executes on the iterative inversion unit.
    Inverse,
    /// No execution resource (register preload / I/O conversion).
    Meta,
}

/// The operand ids an [`FpOp`] reads: at most two, held inline, so walking
/// a program's dependences allocates nothing. Derefs to `&[FpId]` and
/// iterates by value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Operands {
    ids: [FpId; 2],
    len: u8,
}

impl std::ops::Deref for Operands {
    type Target = [FpId];

    fn deref(&self) -> &[FpId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl IntoIterator for Operands {
    type Item = FpId;
    type IntoIter = std::iter::Take<std::array::IntoIter<FpId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(usize::from(self.len))
    }
}

impl FpOp {
    /// Operand ids read by the op.
    pub fn operands(&self) -> Operands {
        let (ids, len) = match *self {
            FpOp::Input(_) | FpOp::Const(_) => ([0, 0], 0),
            FpOp::Add(a, b) | FpOp::Sub(a, b) | FpOp::Mul(a, b) => ([a, b], 2),
            FpOp::Neg(a) | FpOp::Dbl(a) | FpOp::Tpl(a) | FpOp::Sqr(a) | FpOp::Inv(a) => ([a, 0], 1),
        };
        Operands { ids, len }
    }

    /// Rewrites operand ids through a mapping (pass plumbing).
    pub fn map_operands(&self, f: impl Fn(FpId) -> FpId) -> FpOp {
        match *self {
            FpOp::Input(s) => FpOp::Input(s),
            FpOp::Const(c) => FpOp::Const(c),
            FpOp::Add(a, b) => FpOp::Add(f(a), f(b)),
            FpOp::Sub(a, b) => FpOp::Sub(f(a), f(b)),
            FpOp::Neg(a) => FpOp::Neg(f(a)),
            FpOp::Dbl(a) => FpOp::Dbl(f(a)),
            FpOp::Tpl(a) => FpOp::Tpl(f(a)),
            FpOp::Mul(a, b) => FpOp::Mul(f(a), f(b)),
            FpOp::Sqr(a) => FpOp::Sqr(f(a)),
            FpOp::Inv(a) => FpOp::Inv(f(a)),
        }
    }

    /// The pipeline class.
    pub fn class(&self) -> OpClass {
        match self {
            FpOp::Input(_) | FpOp::Const(_) => OpClass::Meta,
            FpOp::Add(..) | FpOp::Sub(..) | FpOp::Neg(_) | FpOp::Dbl(_) | FpOp::Tpl(_) => {
                OpClass::Short
            }
            FpOp::Mul(..) | FpOp::Sqr(_) => OpClass::Long,
            FpOp::Inv(_) => OpClass::Inverse,
        }
    }
}

/// Instruction-count statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpStats {
    /// Multiplications.
    pub mul: usize,
    /// Squarings.
    pub sqr: usize,
    /// Linear ops (add/sub/neg/dbl/tpl).
    pub linear: usize,
    /// Inversions.
    pub inv: usize,
    /// Meta ops (inputs + constant loads).
    pub meta: usize,
}

impl FpStats {
    /// Total executable (non-meta) instructions.
    pub fn executable(&self) -> usize {
        self.mul + self.sqr + self.linear + self.inv
    }
}

impl fmt::Display for FpStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instr (M {}, S {}, lin {}, inv {})",
            self.executable(),
            self.mul,
            self.sqr,
            self.linear,
            self.inv
        )
    }
}

/// A fully lowered F_p-level SSA program.
#[derive(Clone, Debug, Default)]
pub struct FpProgram {
    /// Instructions; id `i` is defined by `insts[i]`.
    pub insts: Vec<FpOp>,
    /// Input slot names (flattened coordinates, e.g. `"P.x"`, `"Q.x[1]"`).
    pub inputs: Vec<String>,
    /// Constant table (canonical values).
    pub constants: Vec<BigUint>,
    /// Output value ids.
    pub outputs: Vec<FpId>,
}

impl FpProgram {
    /// Appends an instruction.
    pub fn push(&mut self, op: FpOp) -> FpId {
        let id = self.insts.len() as FpId;
        self.insts.push(op);
        id
    }

    /// Instruction-count statistics.
    pub fn stats(&self) -> FpStats {
        let mut s = FpStats::default();
        for op in &self.insts {
            match op.class() {
                OpClass::Long => {
                    if matches!(op, FpOp::Sqr(_)) {
                        s.sqr += 1;
                    } else {
                        s.mul += 1;
                    }
                }
                OpClass::Short => s.linear += 1,
                OpClass::Inverse => s.inv += 1,
                OpClass::Meta => s.meta += 1,
            }
        }
        s
    }

    /// Validates SSA ordering and slot references.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed instruction.
    pub fn validate(&self) -> Result<(), String> {
        for (i, op) in self.insts.iter().enumerate() {
            for o in op.operands() {
                if o as usize >= i {
                    return Err(format!("instruction {i} uses undefined value %{o}"));
                }
            }
            match op {
                FpOp::Input(s) if *s as usize >= self.inputs.len() => {
                    return Err(format!("instruction {i}: bad input slot {s}"));
                }
                FpOp::Const(c) if *c as usize >= self.constants.len() => {
                    return Err(format!("instruction {i}: bad constant index {c}"));
                }
                _ => {}
            }
        }
        for o in &self.outputs {
            if *o as usize >= self.insts.len() {
                return Err(format!("output references undefined value %{o}"));
            }
        }
        Ok(())
    }

    /// Executes the program on concrete field elements (the functional
    /// simulator's arithmetic core).
    ///
    /// # Panics
    ///
    /// Panics if the program is malformed or `inputs` has the wrong
    /// length; run [`FpProgram::validate`] first for a graceful error.
    pub fn evaluate(&self, ctx: &Arc<FpCtx>, inputs: &[Fp]) -> Vec<Fp> {
        assert_eq!(inputs.len(), self.inputs.len(), "input count mismatch");
        let consts: Vec<Fp> = self.constants.iter().map(|c| ctx.from_biguint(c)).collect();
        let mut vals: Vec<Fp> = Vec::with_capacity(self.insts.len());
        for op in &self.insts {
            let v = match *op {
                FpOp::Input(s) => inputs[s as usize].clone(),
                FpOp::Const(c) => consts[c as usize].clone(),
                FpOp::Add(a, b) => &vals[a as usize] + &vals[b as usize],
                FpOp::Sub(a, b) => &vals[a as usize] - &vals[b as usize],
                FpOp::Neg(a) => -&vals[a as usize],
                FpOp::Dbl(a) => vals[a as usize].double(),
                FpOp::Tpl(a) => vals[a as usize].triple(),
                FpOp::Mul(a, b) => &vals[a as usize] * &vals[b as usize],
                FpOp::Sqr(a) => vals[a as usize].square(),
                FpOp::Inv(a) => vals[a as usize].invert(),
            };
            vals.push(v);
        }
        self.outputs
            .iter()
            .map(|&o| vals[o as usize].clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Arc<FpCtx> {
        FpCtx::new(BigUint::from_u64(1_000_000_007)).unwrap()
    }

    #[test]
    fn evaluate_small_program() {
        // out = (a + b)² − a·b
        let mut p = FpProgram {
            inputs: vec!["a".into(), "b".into()],
            ..Default::default()
        };
        let a = p.push(FpOp::Input(0));
        let b = p.push(FpOp::Input(1));
        let s = p.push(FpOp::Add(a, b));
        let sq = p.push(FpOp::Sqr(s));
        let ab = p.push(FpOp::Mul(a, b));
        let out = p.push(FpOp::Sub(sq, ab));
        p.outputs.push(out);
        assert!(p.validate().is_ok());
        let c = ctx();
        let r = p.evaluate(&c, &[c.from_u64(3), c.from_u64(5)]);
        assert_eq!(r[0], c.from_u64(49)); // 64 − 15
        let st = p.stats();
        assert_eq!((st.mul, st.sqr, st.linear, st.meta), (1, 1, 2, 2));
    }

    #[test]
    fn validate_catches_use_before_def() {
        let mut p = FpProgram::default();
        p.push(FpOp::Add(5, 6));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_slots() {
        let mut p = FpProgram::default();
        p.push(FpOp::Input(3));
        assert!(p.validate().is_err());
    }
}
