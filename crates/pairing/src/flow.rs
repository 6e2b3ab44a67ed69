//! The optimal-Ate pairing algorithm, written once against an abstract
//! evaluator.
//!
//! [`PairingFlow`] is the paper's key co-design trick realised in Rust: the
//! *same* algorithm skeleton ([`emit_pairing`]) drives
//!
//! 1. the reference library ([`crate::value::ValueFlow`]) — operations
//!    execute on concrete field elements; and
//! 2. the compiler front-end (`finesse-compiler`'s `IrFlow`) — operations
//!    are recorded as hierarchical SSA IR for lowering and scheduling.
//!
//! Because both paths share one control skeleton (loop unrolling, NAF
//! digits, line placement, final-exponentiation chains), the functional
//! simulator's output can be compared bit-for-bit against the reference
//! pairing, reproducing the paper's validation flow.
//!
//! All control flow is static: NAF digits, Frobenius indices and chain
//! structure derive from curve parameters only, never from data — which is
//! also why the paper's accelerator is constant-time by construction.

use finesse_curves::{Curve, Family, TwistKind};
use finesse_ff::{BigInt, Fq};

/// Abstract evaluator for the pairing algorithm.
///
/// Methods take `&mut self` so recording implementations can append to
/// their program; compute implementations simply ignore the mutability.
pub trait PairingFlow {
    /// Base-field value handle.
    type Fp: Clone;
    /// Twist-field value handle.
    type Fq: Clone;
    /// Target-field value handle.
    type Fpk: Clone;

    /// Declares the G1 input point, returning `(x, y)`.
    fn input_p(&mut self) -> (Self::Fp, Self::Fp);
    /// Declares the G2 input point (twist coordinates), returning `(x, y)`.
    fn input_q(&mut self) -> (Self::Fq, Self::Fq);
    /// Declares the GT output.
    fn output(&mut self, f: &Self::Fpk);

    /// Materialises a curve constant (twist coefficient, ψ constants, 1).
    fn fq_constant(&mut self, value: &Fq, label: &str) -> Self::Fq;

    /// F_q addition.
    fn fq_add(&mut self, a: &Self::Fq, b: &Self::Fq) -> Self::Fq;
    /// F_q subtraction.
    fn fq_sub(&mut self, a: &Self::Fq, b: &Self::Fq) -> Self::Fq;
    /// F_q negation.
    fn fq_neg(&mut self, a: &Self::Fq) -> Self::Fq;
    /// F_q multiplication.
    fn fq_mul(&mut self, a: &Self::Fq, b: &Self::Fq) -> Self::Fq;
    /// F_q squaring.
    fn fq_sqr(&mut self, a: &Self::Fq) -> Self::Fq;
    /// F_q small-integer scaling.
    fn fq_muli(&mut self, a: &Self::Fq, k: u64) -> Self::Fq;
    /// F_q × F_p mixed scaling (line coefficients by P's coordinates).
    fn fq_mul_fp(&mut self, a: &Self::Fq, s: &Self::Fp) -> Self::Fq;
    /// F_q Frobenius.
    fn fq_frob(&mut self, a: &Self::Fq, j: usize) -> Self::Fq;

    /// The constant one of F_p^k.
    fn fpk_one(&mut self) -> Self::Fpk;
    /// F_p^k multiplication.
    fn fpk_mul(&mut self, a: &Self::Fpk, b: &Self::Fpk) -> Self::Fpk;
    /// F_p^k squaring.
    fn fpk_sqr(&mut self, a: &Self::Fpk) -> Self::Fpk;
    /// Cyclotomic squaring (only called on cyclotomic-subgroup values).
    fn fpk_cyclo_sqr(&mut self, a: &Self::Fpk) -> Self::Fpk;
    /// Conjugation (p^(k/2) Frobenius).
    fn fpk_conj(&mut self, a: &Self::Fpk) -> Self::Fpk;
    /// Inversion (exactly one per pairing, in the easy part).
    fn fpk_inv(&mut self, a: &Self::Fpk) -> Self::Fpk;
    /// Frobenius.
    fn fpk_frob(&mut self, a: &Self::Fpk, j: usize) -> Self::Fpk;
    /// Assembles a sparse element from `w`-power coefficients.
    fn fpk_sparse(&mut self, coeffs: [Option<Self::Fq>; 6]) -> Self::Fpk;

    /// Multiplies the accumulator by a sparse element (a Miller line).
    ///
    /// The default densifies and multiplies — recording flows keep their
    /// program shape unchanged (the compiler's constant-zero propagation
    /// recovers the sparsity, §4.3). Computing flows override this with a
    /// dedicated sparse kernel that skips the zero coefficients outright.
    fn fpk_mul_sparse(&mut self, a: &Self::Fpk, coeffs: [Option<Self::Fq>; 6]) -> Self::Fpk {
        let l = self.fpk_sparse(coeffs);
        self.fpk_mul(a, &l)
    }
}

/// A G2 point in homogeneous projective twist coordinates inside a flow.
struct ProjPoint<F: PairingFlow + ?Sized> {
    x: F::Fq,
    y: F::Fq,
    z: F::Fq,
}

impl<F: PairingFlow + ?Sized> Clone for ProjPoint<F> {
    fn clone(&self) -> Self {
        ProjPoint {
            x: self.x.clone(),
            y: self.y.clone(),
            z: self.z.clone(),
        }
    }
}

/// Line coefficients `(ly, lx, lt)` produced by a step: the line is
/// `ly·yP + lx·xP·w + lt·w³` (D-twist placement) or the `w³`-scaled
/// M-twist arrangement.
struct LineCoeffs<F: PairingFlow + ?Sized> {
    ly: F::Fq,
    lx: F::Fq,
    lt: F::Fq,
}

/// Emits the full optimal-Ate pairing `e(P, Q)` through a flow:
/// inputs, Miller loop, final exponentiation, output.
pub fn emit_pairing<F: PairingFlow>(curve: &Curve, flow: &mut F) {
    let (px, py) = flow.input_p();
    let (qx, qy) = flow.input_q();
    let f = emit_miller_loop(curve, flow, &px, &py, &qx, &qy);
    let g = emit_final_exponentiation(curve, flow, &f);
    flow.output(&g);
}

/// Emits the Miller loop only (inputs already declared by the caller).
pub fn emit_miller_loop<F: PairingFlow>(
    curve: &Curve,
    flow: &mut F,
    px: &F::Fp,
    py: &F::Fp,
    qx: &F::Fq,
    qy: &F::Fq,
) -> F::Fpk {
    let tower = curve.tower();
    let bt = flow.fq_constant(curve.b_twist(), "b_twist");
    let one = flow.fq_constant(&tower.fq_one(), "fq_one");

    let param = curve.miller_param();
    let negative = param.is_negative();
    let naf = param.magnitude().naf();

    let q = (qx.clone(), qy.clone());
    let q_neg = (qx.clone(), flow.fq_neg(qy));

    let mut t = ProjPoint::<F> {
        x: qx.clone(),
        y: qy.clone(),
        z: one,
    };
    let mut f = flow.fpk_one();

    for i in (0..naf.len().saturating_sub(1)).rev() {
        f = flow.fpk_sqr(&f);
        let line = dbl_step(flow, &mut t, &bt);
        f = apply_line(curve, flow, &f, line, px, py);
        let digit = naf[i];
        if digit != 0 {
            let (ax, ay) = if digit == 1 { &q } else { &q_neg };
            let line = add_step(flow, &mut t, ax, ay);
            f = apply_line(curve, flow, &f, line, px, py);
        }
    }

    if negative {
        // f_{−|u|} ≡ conj(f_{|u|}) modulo final exponentiation; the point
        // accumulator flips sign with it.
        f = flow.fpk_conj(&f);
        t.y = flow.fq_neg(&t.y);
    }

    if curve.family() == Family::Bn {
        // BN tail: lines through Q1 = ψ(Q) and Q2 = −ψ²(Q).
        let (q1x, q1y) = emit_psi(curve, flow, qx, qy);
        let (q2x, q2y_pos) = emit_psi(curve, flow, &q1x, &q1y);
        let q2y = flow.fq_neg(&q2y_pos);
        let line = add_step(flow, &mut t, &q1x, &q1y);
        f = apply_line(curve, flow, &f, line, px, py);
        let line = add_step(flow, &mut t, &q2x, &q2y);
        f = apply_line(curve, flow, &f, line, px, py);
    }

    f
}

/// Runs the Q-side of one Miller loop and records each line's
/// `(ly, lx, lt)` coefficients **in consumption order** — the
/// `G2Prepared` precomputation. The schedule (NAF digits, BN ψ-tail) is
/// static per curve, so the recorded sequence replays against any G1
/// point via [`emit_miller_loop_with_lines`] — alone or sharing one
/// squaring chain with other pairs' schedules — skipping every
/// `dbl_step`/`add_step` of the ordinary loop. The coefficients are
/// exactly the values the interleaved loop would produce, so the replayed
/// accumulator is bit-identical to [`emit_miller_loop`].
pub fn emit_g2_line_schedule<F: PairingFlow>(
    curve: &Curve,
    flow: &mut F,
    qx: &F::Fq,
    qy: &F::Fq,
) -> Vec<[F::Fq; 3]> {
    let tower = curve.tower();
    let bt = flow.fq_constant(curve.b_twist(), "b_twist");
    let one = flow.fq_constant(&tower.fq_one(), "fq_one");

    let param = curve.miller_param();
    let negative = param.is_negative();
    let naf = param.magnitude().naf();

    let q = (qx.clone(), qy.clone());
    let q_neg = (qx.clone(), flow.fq_neg(qy));

    let mut t = ProjPoint::<F> {
        x: qx.clone(),
        y: qy.clone(),
        z: one,
    };
    let mut lines = Vec::with_capacity(naf.len() * 2);
    for i in (0..naf.len().saturating_sub(1)).rev() {
        let line = dbl_step(flow, &mut t, &bt);
        lines.push([line.ly, line.lx, line.lt]);
        let digit = naf[i];
        if digit != 0 {
            let (ax, ay) = if digit == 1 { &q } else { &q_neg };
            let line = add_step(flow, &mut t, ax, ay);
            lines.push([line.ly, line.lx, line.lt]);
        }
    }

    if negative {
        // The conjugation lives on the accumulator (replay side); only
        // the point accumulator's sign flip matters for the tail lines.
        t.y = flow.fq_neg(&t.y);
    }

    if curve.family() == Family::Bn {
        let (q1x, q1y) = emit_psi(curve, flow, qx, qy);
        let (q2x, q2y_pos) = emit_psi(curve, flow, &q1x, &q1y);
        let q2y = flow.fq_neg(&q2y_pos);
        let line = add_step(flow, &mut t, &q1x, &q1y);
        lines.push([line.ly, line.lx, line.lt]);
        let line = add_step(flow, &mut t, &q2x, &q2y);
        lines.push([line.ly, line.lx, line.lt]);
    }

    lines
}

/// One pairing of a multi-Miller replay: a G1 point's `(x, y)` and the
/// G2 line schedule recorded by [`emit_g2_line_schedule`].
pub type ReplayPair<'a, F> = (
    &'a <F as PairingFlow>::Fp,
    &'a <F as PairingFlow>::Fp,
    &'a [[<F as PairingFlow>::Fq; 3]],
);

/// Replays recorded line schedules (see [`emit_g2_line_schedule`])
/// against their G1 points as **one** multi-Miller loop: the squaring
/// chain, sparse line multiplications, and negative-parameter
/// conjugation of [`emit_miller_loop`], with every Q-side
/// doubling/addition replaced by a recorded coefficient triple.
///
/// Each [`ReplayPair`] `(px, py, lines)` is one pairing. The pairs
/// share a single accumulator, so each NAF step pays one `fpk_sqr`
/// however many pairs there are, then multiplies in every pair's line(s)
/// for that step.
/// Since (Π fᵢ)² = Π fᵢ² and conjugation is a field automorphism, the
/// result is bit-identical to the in-order product of the pairs'
/// separate interleaved loops; one entry is exactly one Miller loop.
///
/// # Panics
///
/// Panics if any schedule does not hold exactly the curve's schedule
/// length — a schedule recorded for a different curve is a programmer
/// error, never a data-dependent condition.
pub fn emit_miller_loop_with_lines<F: PairingFlow>(
    curve: &Curve,
    flow: &mut F,
    pairs: &[ReplayPair<'_, F>],
) -> F::Fpk {
    let param = curve.miller_param();
    let negative = param.is_negative();
    let naf = param.magnitude().naf();

    // Every schedule shares the curve's static layout, so one cursor
    // indexes the current step's line(s) in all of them.
    let mut next = 0usize;
    let mut f = flow.fpk_one();
    let mul_lines = |flow: &mut F, mut f: F::Fpk, next: usize, count: usize| {
        for (px, py, lines) in pairs {
            for line in &lines[next..next + count] {
                f = apply_line_coeffs(curve, flow, &f, line, px, py);
            }
        }
        f
    };
    for i in (0..naf.len().saturating_sub(1)).rev() {
        f = flow.fpk_sqr(&f);
        let count = if naf[i] != 0 { 2 } else { 1 };
        f = mul_lines(flow, f, next, count);
        next += count;
    }

    if negative {
        f = flow.fpk_conj(&f);
    }

    if curve.family() == Family::Bn {
        f = mul_lines(flow, f, next, 2);
        next += 2;
    }

    for (_, _, lines) in pairs {
        assert_eq!(
            next,
            lines.len(),
            "line schedule length matches the curve's Miller schedule"
        );
    }
    f
}

/// Applies the untwist–Frobenius endomorphism ψ inside a flow.
fn emit_psi<F: PairingFlow>(curve: &Curve, flow: &mut F, qx: &F::Fq, qy: &F::Fq) -> (F::Fq, F::Fq) {
    let (cx, cy) = curve.psi_constants();
    let gx = flow.fq_constant(cx, "psi_x");
    let gy = flow.fq_constant(cy, "psi_y");
    let fx = flow.fq_frob(qx, 1);
    let fy = flow.fq_frob(qy, 1);
    (flow.fq_mul(&fx, &gx), flow.fq_mul(&fy, &gy))
}

/// Projective doubling with fused tangent-line computation, halving-free
/// (all coordinates uniformly scaled by 4, which is projective-invariant
/// and scales the line by an F_q constant that dies in the final
/// exponentiation).
fn dbl_step<F: PairingFlow>(flow: &mut F, t: &mut ProjPoint<F>, bt: &F::Fq) -> LineCoeffs<F> {
    let xy = flow.fq_mul(&t.x, &t.y);
    let b = flow.fq_sqr(&t.y);
    let c = flow.fq_sqr(&t.z);
    let c3 = flow.fq_muli(&c, 3);
    let e = flow.fq_mul(bt, &c3);
    let f3 = flow.fq_muli(&e, 3);
    let yz = flow.fq_add(&t.y, &t.z);
    let yz2 = flow.fq_sqr(&yz);
    let bc = flow.fq_add(&b, &c);
    let h = flow.fq_sub(&yz2, &bc);
    let i = flow.fq_sub(&e, &b);
    let j = flow.fq_sqr(&t.x);
    let e2 = flow.fq_sqr(&e);

    // X3 = 2·XY·(b − f3)
    let bmf = flow.fq_sub(&b, &f3);
    let xy2 = flow.fq_muli(&xy, 2);
    let x3 = flow.fq_mul(&xy2, &bmf);
    // Y3 = (b + f3)² − 12·e²
    let bpf = flow.fq_add(&b, &f3);
    let bpf2 = flow.fq_sqr(&bpf);
    let e12 = flow.fq_muli(&e2, 12);
    let y3 = flow.fq_sub(&bpf2, &e12);
    // Z3 = 4·b·h
    let bh = flow.fq_mul(&b, &h);
    let z3 = flow.fq_muli(&bh, 4);

    t.x = x3;
    t.y = y3;
    t.z = z3;

    let ly = flow.fq_neg(&h);
    let lx = flow.fq_muli(&j, 3);
    LineCoeffs { ly, lx, lt: i }
}

/// Mixed addition (projective T + affine A) with fused chord-line
/// computation.
fn add_step<F: PairingFlow>(
    flow: &mut F,
    t: &mut ProjPoint<F>,
    ax: &F::Fq,
    ay: &F::Fq,
) -> LineCoeffs<F> {
    let ayz = flow.fq_mul(ay, &t.z);
    let theta = flow.fq_sub(&t.y, &ayz);
    let axz = flow.fq_mul(ax, &t.z);
    let lambda = flow.fq_sub(&t.x, &axz);
    let c = flow.fq_sqr(&theta);
    let d = flow.fq_sqr(&lambda);
    let e = flow.fq_mul(&lambda, &d);
    let ff = flow.fq_mul(&t.z, &c);
    let g = flow.fq_mul(&t.x, &d);
    let g2 = flow.fq_muli(&g, 2);
    let ef = flow.fq_add(&e, &ff);
    let h = flow.fq_sub(&ef, &g2);
    let x3 = flow.fq_mul(&lambda, &h);
    let gmh = flow.fq_sub(&g, &h);
    let tgmh = flow.fq_mul(&theta, &gmh);
    let ey = flow.fq_mul(&e, &t.y);
    let y3 = flow.fq_sub(&tgmh, &ey);
    let z3 = flow.fq_mul(&t.z, &e);
    t.x = x3;
    t.y = y3;
    t.z = z3;

    let tx = flow.fq_mul(&theta, ax);
    let ly2 = flow.fq_mul(&lambda, ay);
    let j = flow.fq_sub(&tx, &ly2);
    let neg_theta = flow.fq_neg(&theta);
    LineCoeffs {
        ly: lambda,
        lx: neg_theta,
        lt: j,
    }
}

/// Multiplies the accumulator by a line, placing coefficients according to
/// twist type (D: w⁰,w¹,w³ — M: w⁰,w²,w³).
fn apply_line<F: PairingFlow>(
    curve: &Curve,
    flow: &mut F,
    f: &F::Fpk,
    line: LineCoeffs<F>,
    px: &F::Fp,
    py: &F::Fp,
) -> F::Fpk {
    apply_line_coeffs(curve, flow, f, &[line.ly, line.lx, line.lt], px, py)
}

/// [`apply_line`] on a recorded `[ly, lx, lt]` triple — shared by the
/// interleaved loop and the prepared-line replay so both paths mix P in
/// with the identical operations.
fn apply_line_coeffs<F: PairingFlow>(
    curve: &Curve,
    flow: &mut F,
    f: &F::Fpk,
    line: &[F::Fq; 3],
    px: &F::Fp,
    py: &F::Fp,
) -> F::Fpk {
    let [ly, lx, lt] = line;
    let cy = flow.fq_mul_fp(ly, py);
    let cx = flow.fq_mul_fp(lx, px);
    match curve.twist() {
        TwistKind::D => {
            flow.fpk_mul_sparse(f, [Some(cy), Some(cx), None, Some(lt.clone()), None, None])
        }
        TwistKind::M => {
            flow.fpk_mul_sparse(f, [Some(lt.clone()), None, Some(cx), Some(cy), None, None])
        }
    }
}

/// Cyclotomic exponentiation by a signed parameter (NAF digits, conjugate
/// for inverses and negative exponents).
fn emit_cyclo_exp<F: PairingFlow>(flow: &mut F, base: &F::Fpk, e: &BigInt) -> F::Fpk {
    if e.is_zero() {
        return flow.fpk_one();
    }
    let naf = e.magnitude().naf();
    let base_inv = flow.fpk_conj(base);
    let mut acc = base.clone(); // leading NAF digit is always 1
    for i in (0..naf.len().saturating_sub(1)).rev() {
        acc = flow.fpk_cyclo_sqr(&acc);
        match naf[i] {
            1 => acc = flow.fpk_mul(&acc, base),
            -1 => acc = flow.fpk_mul(&acc, &base_inv),
            _ => {}
        }
    }
    if e.is_negative() {
        acc = flow.fpk_conj(&acc);
    }
    acc
}

/// Emits the final exponentiation (easy part + family-specific hard part).
///
/// BN uses the Scott et al. vectorial addition chain (exact exponent);
/// BLS12/BLS24 use the Hayashida–Kiyomura–Teruya decomposition, which
/// computes `e(P,Q)^(3·(p^k−1)/r)` — still a bilinear non-degenerate
/// pairing since `gcd(3, r) = 1`; all Finesse components use the same
/// convention (tests cross-check it against cubed oracle values).
pub fn emit_final_exponentiation<F: PairingFlow>(
    curve: &Curve,
    flow: &mut F,
    f: &F::Fpk,
) -> F::Fpk {
    // Easy part: f^((p^(k/2) − 1)(p^(k/6·?) + 1)) projecting into the
    // cyclotomic subgroup: k=12 → (p⁶−1)(p²+1); k=24 → (p¹²−1)(p⁴+1).
    let conj = flow.fpk_conj(f);
    let inv = flow.fpk_inv(f);
    let m = flow.fpk_mul(&conj, &inv);
    let j = match curve.k() {
        12 => 2,
        24 => 4,
        _ => unreachable!("k is 12 or 24"),
    };
    let mf = flow.fpk_frob(&m, j);
    let m = flow.fpk_mul(&mf, &m);

    match curve.family() {
        Family::Bn => emit_bn_hard_part(curve, flow, &m),
        Family::Bls12 => emit_bls12_hard_part(curve, flow, &m),
        Family::Bls24 => emit_bls24_hard_part(curve, flow, &m),
    }
}

/// BN hard part: Scott–Benger–Charlemagne–Perez–Kachisa vectorial
/// addition chain computing `m^((p⁴−p²+1)/r)` exactly.
fn emit_bn_hard_part<F: PairingFlow>(curve: &Curve, flow: &mut F, m: &F::Fpk) -> F::Fpk {
    let x = curve.t();
    let fx = emit_cyclo_exp(flow, m, x);
    let fx2 = emit_cyclo_exp(flow, &fx, x);
    let fx3 = emit_cyclo_exp(flow, &fx2, x);

    let fp1 = flow.fpk_frob(m, 1);
    let fp2 = flow.fpk_frob(m, 2);
    let fp3 = flow.fpk_frob(m, 3);
    let y0 = {
        let t = flow.fpk_mul(&fp1, &fp2);
        flow.fpk_mul(&t, &fp3)
    };
    let y1 = flow.fpk_conj(m);
    let y2 = flow.fpk_frob(&fx2, 2);
    let y3 = {
        let t = flow.fpk_frob(&fx, 1);
        flow.fpk_conj(&t)
    };
    let y4 = {
        let t = flow.fpk_frob(&fx2, 1);
        let t = flow.fpk_mul(&fx, &t);
        flow.fpk_conj(&t)
    };
    let y5 = flow.fpk_conj(&fx2);
    let y6 = {
        let t = flow.fpk_frob(&fx3, 1);
        let t = flow.fpk_mul(&fx3, &t);
        flow.fpk_conj(&t)
    };

    // Olivos chain for y0·y1²·y2⁶·y3¹²·y4¹⁸·y5³⁰·y6³⁶.
    let mut t0 = flow.fpk_cyclo_sqr(&y6);
    t0 = flow.fpk_mul(&t0, &y4);
    t0 = flow.fpk_mul(&t0, &y5);
    let mut t1 = flow.fpk_mul(&y3, &y5);
    t1 = flow.fpk_mul(&t1, &t0);
    t0 = flow.fpk_mul(&t0, &y2);
    t1 = flow.fpk_cyclo_sqr(&t1);
    t1 = flow.fpk_mul(&t1, &t0);
    t1 = flow.fpk_cyclo_sqr(&t1);
    t0 = flow.fpk_mul(&t1, &y1);
    t1 = flow.fpk_mul(&t1, &y0);
    t0 = flow.fpk_cyclo_sqr(&t0);
    flow.fpk_mul(&t0, &t1)
}

/// BLS12 hard part (Hayashida–Kiyomura–Teruya):
/// `3(p⁴−p²+1)/r = (x−1)²(x+p)(x²+p²−1) + 3`.
fn emit_bls12_hard_part<F: PairingFlow>(curve: &Curve, flow: &mut F, m: &F::Fpk) -> F::Fpk {
    let x = curve.t();
    let xm1 = x - &BigInt::one();
    // y = m^((x−1)²)
    let y = emit_cyclo_exp(flow, m, &xm1);
    let y = emit_cyclo_exp(flow, &y, &xm1);
    // y ^= (x + p)
    let yx = emit_cyclo_exp(flow, &y, x);
    let yp = flow.fpk_frob(&y, 1);
    let y = flow.fpk_mul(&yx, &yp);
    // y ^= (x² + p² − 1)
    let yx2 = {
        let t = emit_cyclo_exp(flow, &y, x);
        emit_cyclo_exp(flow, &t, x)
    };
    let yp2 = flow.fpk_frob(&y, 2);
    let yinv = flow.fpk_conj(&y);
    let y = {
        let t = flow.fpk_mul(&yx2, &yp2);
        flow.fpk_mul(&t, &yinv)
    };
    // result = y · m³
    let m2 = flow.fpk_cyclo_sqr(m);
    let m3 = flow.fpk_mul(&m2, m);
    flow.fpk_mul(&y, &m3)
}

/// BLS24 hard part (generalised HKT):
/// `3(p⁸−p⁴+1)/r = (x−1)²(x+p)(x²+p²)(x⁴+p⁴−1) + 3`.
fn emit_bls24_hard_part<F: PairingFlow>(curve: &Curve, flow: &mut F, m: &F::Fpk) -> F::Fpk {
    let x = curve.t();
    let xm1 = x - &BigInt::one();
    let y = emit_cyclo_exp(flow, m, &xm1);
    let y = emit_cyclo_exp(flow, &y, &xm1);
    // y ^= (x + p)
    let yx = emit_cyclo_exp(flow, &y, x);
    let yp = flow.fpk_frob(&y, 1);
    let y = flow.fpk_mul(&yx, &yp);
    // y ^= (x² + p²)
    let yx2 = {
        let t = emit_cyclo_exp(flow, &y, x);
        emit_cyclo_exp(flow, &t, x)
    };
    let yp2 = flow.fpk_frob(&y, 2);
    let y = flow.fpk_mul(&yx2, &yp2);
    // y ^= (x⁴ + p⁴ − 1)
    let yx4 = {
        let t = emit_cyclo_exp(flow, &y, x);
        let t = emit_cyclo_exp(flow, &t, x);
        let t = emit_cyclo_exp(flow, &t, x);
        emit_cyclo_exp(flow, &t, x)
    };
    let yp4 = flow.fpk_frob(&y, 4);
    let yinv = flow.fpk_conj(&y);
    let y = {
        let t = flow.fpk_mul(&yx4, &yp4);
        flow.fpk_mul(&t, &yinv)
    };
    let m2 = flow.fpk_cyclo_sqr(m);
    let m3 = flow.fpk_mul(&m2, m);
    flow.fpk_mul(&y, &m3)
}
