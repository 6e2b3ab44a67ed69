//! Generic short-Weierstrass point arithmetic (`y² = x³ + b`, `a = 0`).
//!
//! One Jacobian-coordinate implementation serves both G1 (coordinates in
//! F_p) and G2 (coordinates in the twist field F_q) through the small
//! [`FieldOps`] abstraction, so the group law exists exactly once in the
//! codebase. The pairing crate layers its own fused line/point formulas on
//! top of the same trait.

use finesse_ff::{BigUint, Fp, FpCtx, Fq, TowerCtx};
use std::fmt::Debug;
use std::sync::Arc;

/// Minimal field interface needed by the group law.
pub trait FieldOps {
    /// The element type.
    type El: Clone + PartialEq + Debug;

    /// Addition.
    fn add(&self, a: &Self::El, b: &Self::El) -> Self::El;
    /// Subtraction.
    fn sub(&self, a: &Self::El, b: &Self::El) -> Self::El;
    /// Negation.
    fn neg(&self, a: &Self::El) -> Self::El;
    /// Multiplication.
    fn mul(&self, a: &Self::El, b: &Self::El) -> Self::El;
    /// Squaring.
    fn sqr(&self, a: &Self::El) -> Self::El;
    /// Inversion (panics on zero, as in the underlying fields).
    fn inv(&self, a: &Self::El) -> Self::El;
    /// The additive identity.
    fn zero(&self) -> Self::El;
    /// The multiplicative identity.
    fn one(&self) -> Self::El;
    /// Zero test.
    fn is_zero(&self, a: &Self::El) -> bool;

    /// Doubling (`2a`); default via addition.
    fn dbl(&self, a: &Self::El) -> Self::El {
        self.add(a, a)
    }

    /// Small-scalar multiple via an addition chain.
    fn mul_small(&self, a: &Self::El, k: u64) -> Self::El {
        let mut acc = self.zero();
        let mut base = a.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                acc = self.add(&acc, &base);
            }
            base = self.dbl(&base);
            k >>= 1;
        }
        acc
    }

    /// Inverts every element of a slice in place with Montgomery's trick:
    /// one field inversion plus `3(n−1)` multiplications.
    ///
    /// Panics on zero elements, matching [`FieldOps::inv`].
    fn batch_inv(&self, elems: &mut [Self::El]) {
        if elems.is_empty() {
            return;
        }
        let mut prefix = Vec::with_capacity(elems.len());
        let mut acc = self.one();
        for e in elems.iter() {
            prefix.push(acc.clone());
            acc = self.mul(&acc, e);
        }
        let mut inv = self.inv(&acc);
        for (e, pre) in elems.iter_mut().zip(prefix.iter()).rev() {
            let out = self.mul(&inv, pre);
            inv = self.mul(&inv, e);
            *e = out;
        }
    }
}

/// [`FieldOps`] over the base prime field (G1 coordinates).
#[derive(Clone)]
pub struct FpOps(pub Arc<FpCtx>);

impl FieldOps for FpOps {
    type El = Fp;
    fn add(&self, a: &Fp, b: &Fp) -> Fp {
        a + b
    }
    fn sub(&self, a: &Fp, b: &Fp) -> Fp {
        a - b
    }
    fn neg(&self, a: &Fp) -> Fp {
        -a
    }
    fn mul(&self, a: &Fp, b: &Fp) -> Fp {
        a * b
    }
    fn sqr(&self, a: &Fp) -> Fp {
        a.square()
    }
    fn inv(&self, a: &Fp) -> Fp {
        a.invert()
    }
    fn zero(&self) -> Fp {
        self.0.zero()
    }
    fn one(&self) -> Fp {
        self.0.one()
    }
    fn is_zero(&self, a: &Fp) -> bool {
        a.is_zero()
    }
}

/// [`FieldOps`] over the twist field F_q (G2 coordinates).
#[derive(Clone)]
pub struct FqOps<'a>(pub &'a TowerCtx);

impl FieldOps for FqOps<'_> {
    type El = Fq;
    fn add(&self, a: &Fq, b: &Fq) -> Fq {
        self.0.fq_add(a, b)
    }
    fn sub(&self, a: &Fq, b: &Fq) -> Fq {
        self.0.fq_sub(a, b)
    }
    fn neg(&self, a: &Fq) -> Fq {
        self.0.fq_neg(a)
    }
    fn mul(&self, a: &Fq, b: &Fq) -> Fq {
        self.0.fq_mul(a, b)
    }
    fn sqr(&self, a: &Fq) -> Fq {
        self.0.fq_sqr(a)
    }
    fn inv(&self, a: &Fq) -> Fq {
        self.0.fq_inv(a)
    }
    fn zero(&self) -> Fq {
        self.0.fq_zero()
    }
    fn one(&self) -> Fq {
        self.0.fq_one()
    }
    fn is_zero(&self, a: &Fq) -> bool {
        self.0.fq_is_zero(a)
    }
}

/// An affine point, with an explicit point at infinity.
#[derive(Clone, PartialEq, Debug)]
pub struct Affine<E> {
    /// x coordinate (meaningless at infinity).
    pub x: E,
    /// y coordinate (meaningless at infinity).
    pub y: E,
    /// Point-at-infinity flag.
    pub infinity: bool,
}

impl<E: Clone> Affine<E> {
    /// A finite point.
    pub fn new(x: E, y: E) -> Self {
        Affine {
            x,
            y,
            infinity: false,
        }
    }

    /// The point at infinity (coordinates are placeholders).
    pub fn infinity(placeholder: E) -> Self {
        Affine {
            x: placeholder.clone(),
            y: placeholder,
            infinity: true,
        }
    }
}

/// A Jacobian point `(X : Y : Z)` representing `(X/Z², Y/Z³)`; `Z = 0` is
/// the point at infinity.
#[derive(Clone, Debug)]
pub struct Jacobian<E> {
    /// X coordinate.
    pub x: E,
    /// Y coordinate.
    pub y: E,
    /// Z coordinate.
    pub z: E,
}

/// Checks the curve equation `y² = x³ + b` for an affine point.
pub fn is_on_curve<O: FieldOps>(ops: &O, pt: &Affine<O::El>, b: &O::El) -> bool {
    if pt.infinity {
        return true;
    }
    let lhs = ops.sqr(&pt.y);
    let rhs = ops.add(&ops.mul(&ops.sqr(&pt.x), &pt.x), b);
    lhs == rhs
}

/// Lifts an affine point to Jacobian coordinates.
pub fn to_jacobian<O: FieldOps>(ops: &O, pt: &Affine<O::El>) -> Jacobian<O::El> {
    if pt.infinity {
        Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        }
    } else {
        Jacobian {
            x: pt.x.clone(),
            y: pt.y.clone(),
            z: ops.one(),
        }
    }
}

/// Normalises a Jacobian point to affine coordinates (one inversion).
pub fn to_affine<O: FieldOps>(ops: &O, pt: &Jacobian<O::El>) -> Affine<O::El> {
    if ops.is_zero(&pt.z) {
        return Affine::infinity(ops.zero());
    }
    let zinv = ops.inv(&pt.z);
    let zinv2 = ops.sqr(&zinv);
    let zinv3 = ops.mul(&zinv2, &zinv);
    Affine::new(ops.mul(&pt.x, &zinv2), ops.mul(&pt.y, &zinv3))
}

/// Normalises many Jacobian points with a single field inversion
/// ([`FieldOps::batch_inv`], Montgomery's trick) — the standard way to
/// amortise the one expensive operation when emitting precomputed tables
/// or fixed-base windows.
pub fn batch_to_affine<O: FieldOps>(ops: &O, pts: &[Jacobian<O::El>]) -> Vec<Affine<O::El>> {
    // Gather the non-identity z coordinates and invert them together.
    let mut zs: Vec<O::El> = pts
        .iter()
        .filter(|p| !ops.is_zero(&p.z))
        .map(|p| p.z.clone())
        .collect();
    ops.batch_inv(&mut zs);
    let mut inv_iter = zs.into_iter();
    pts.iter()
        .map(|p| {
            if ops.is_zero(&p.z) {
                return Affine::infinity(ops.zero());
            }
            // The zs vector holds exactly one inverse per finite point,
            // consumed in the same filter order; fall back to the
            // identity if the iterator is somehow exhausted.
            let Some(zinv) = inv_iter.next() else {
                return Affine::infinity(ops.zero());
            };
            let zinv2 = ops.sqr(&zinv);
            let zinv3 = ops.mul(&zinv2, &zinv);
            Affine::new(ops.mul(&p.x, &zinv2), ops.mul(&p.y, &zinv3))
        })
        .collect()
}

/// Jacobian doubling (`a = 0` curve).
pub fn jac_double<O: FieldOps>(ops: &O, p: &Jacobian<O::El>) -> Jacobian<O::El> {
    if ops.is_zero(&p.z) || ops.is_zero(&p.y) {
        return Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
    }
    let a = ops.sqr(&p.x);
    let b = ops.sqr(&p.y);
    let c = ops.sqr(&b);
    // D = 2((X+B)² − A − C)
    let t = ops.sqr(&ops.add(&p.x, &b));
    let d = ops.dbl(&ops.sub(&ops.sub(&t, &a), &c));
    let e = ops.add(&ops.dbl(&a), &a); // 3A
    let f = ops.sqr(&e);
    let x3 = ops.sub(&f, &ops.dbl(&d));
    let c8 = ops.mul_small(&c, 8);
    let y3 = ops.sub(&ops.mul(&e, &ops.sub(&d, &x3)), &c8);
    let z3 = ops.dbl(&ops.mul(&p.y, &p.z));
    Jacobian {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// General Jacobian addition (`a = 0` curve), handling doubling and
/// identity cases.
pub fn jac_add<O: FieldOps>(ops: &O, p: &Jacobian<O::El>, q: &Jacobian<O::El>) -> Jacobian<O::El> {
    if ops.is_zero(&p.z) {
        return q.clone();
    }
    if ops.is_zero(&q.z) {
        return p.clone();
    }
    let z1z1 = ops.sqr(&p.z);
    let z2z2 = ops.sqr(&q.z);
    let u1 = ops.mul(&p.x, &z2z2);
    let u2 = ops.mul(&q.x, &z1z1);
    let s1 = ops.mul(&ops.mul(&p.y, &q.z), &z2z2);
    let s2 = ops.mul(&ops.mul(&q.y, &p.z), &z1z1);
    if u1 == u2 {
        if s1 == s2 {
            return jac_double(ops, p);
        }
        // P + (−P) = O
        return Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
    }
    let h = ops.sub(&u2, &u1);
    let i = ops.sqr(&ops.dbl(&h));
    let j = ops.mul(&h, &i);
    let r = ops.dbl(&ops.sub(&s2, &s1));
    let v = ops.mul(&u1, &i);
    let x3 = ops.sub(&ops.sub(&ops.sqr(&r), &j), &ops.dbl(&v));
    let y3 = ops.sub(&ops.mul(&r, &ops.sub(&v, &x3)), &ops.dbl(&ops.mul(&s1, &j)));
    let z3 = ops.mul(
        &ops.sub(&ops.sqr(&ops.add(&p.z, &q.z)), &ops.add(&z1z1, &z2z2)),
        &h,
    );
    Jacobian {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Scalar multiplication by a non-negative big integer (double-and-add).
pub fn scalar_mul<O: FieldOps>(ops: &O, p: &Affine<O::El>, k: &BigUint) -> Jacobian<O::El> {
    let mut acc = Jacobian {
        x: ops.one(),
        y: ops.one(),
        z: ops.zero(),
    };
    if p.infinity || k.is_zero() {
        return acc;
    }
    let base = to_jacobian(ops, p);
    for i in (0..k.bits()).rev() {
        acc = jac_double(ops, &acc);
        if k.bit(i) {
            acc = jac_add(ops, &acc, &base);
        }
    }
    acc
}

/// Width of the [`jac_mul`] signed window: width-4 recoding uses the odd
/// digits `±1, ±3, ±5, ±7` (four precomputed multiples) and cuts
/// additions to roughly one per five doublings on pairing-sized scalars.
const WNAF_WINDOW: u32 = 4;

/// Odd-multiples table size for the width-4 window: entries `(2i+1)·P`
/// for `i < 4` cover every odd digit magnitude up to 7.
const WNAF_TABLE: usize = 1 << (WNAF_WINDOW - 2);

/// Reusable recoding scratch for the wNAF recoder, so interleaved
/// multi-scalar recoding (one call per GLV/GLS sub-scalar) does not
/// allocate a fresh limb buffer per sub-scalar.
#[derive(Default)]
pub struct WnafScratch {
    limbs: Vec<u64>,
}

/// Recodes a scalar into width-`w` non-adjacent form, appending into
/// `digits` (cleared first): each digit is zero or odd in
/// `±(1 .. 2^(w−1))`, and any two non-zero digits are at least `w`
/// positions apart.
fn wnaf_digits_into(k: &BigUint, w: u32, scratch: &mut WnafScratch, digits: &mut Vec<i64>) {
    digits.clear();
    let limbs = &mut scratch.limbs;
    limbs.clear();
    limbs.extend_from_slice(k.limbs());
    // One spare limb so the +|d| correction for negative digits cannot
    // overflow the scratch.
    limbs.push(0);
    let mask = (1u64 << w) - 1;
    let half = 1i64 << (w - 1);
    let is_zero = |l: &[u64]| l.iter().all(|&x| x == 0);
    // In-place helpers on the little-endian limb scratch.
    let shr1 = |l: &mut [u64]| {
        let mut top = 0u64;
        for limb in l.iter_mut().rev() {
            let next = *limb & 1;
            *limb = (*limb >> 1) | (top << 63);
            top = next;
        }
    };
    let sub_small = |l: &mut [u64], v: u64| {
        let mut borrow = v;
        for limb in l.iter_mut() {
            let (d, b) = limb.overflowing_sub(borrow);
            *limb = d;
            borrow = b as u64;
            if borrow == 0 {
                break;
            }
        }
    };
    let add_small = |l: &mut [u64], v: u64| {
        let mut carry = v;
        for limb in l.iter_mut() {
            let (s, c) = limb.overflowing_add(carry);
            *limb = s;
            carry = c as u64;
            if carry == 0 {
                break;
            }
        }
        debug_assert_eq!(carry, 0, "wNAF scratch overflow");
    };
    digits.reserve(k.bits() + 1);
    while !is_zero(limbs) {
        if limbs[0] & 1 == 1 {
            let mut d = (limbs[0] & mask) as i64;
            if d >= half {
                d -= 1 << w;
            }
            if d >= 0 {
                sub_small(limbs, d as u64);
            } else {
                add_small(limbs, (-d) as u64);
            }
            digits.push(d);
        } else {
            digits.push(0);
        }
        shr1(limbs);
    }
}

/// One-shot wNAF recoding (allocating convenience wrapper around
/// [`wnaf_digits_into`]).
fn wnaf_digits(k: &BigUint, w: u32) -> Vec<i64> {
    let mut scratch = WnafScratch::default();
    let mut digits = Vec::new();
    wnaf_digits_into(k, w, &mut scratch, &mut digits);
    digits
}

/// Builds the odd-multiples table `[P, 3P, 5P, 7P]` for one width-4 wNAF
/// operand.
fn odd_multiples<O: FieldOps>(ops: &O, base: Jacobian<O::El>) -> [Jacobian<O::El>; WNAF_TABLE] {
    let two_p = jac_double(ops, &base);
    let mut table: [Jacobian<O::El>; WNAF_TABLE] = std::array::from_fn(|_| base.clone());
    for i in 1..WNAF_TABLE {
        table[i] = jac_add(ops, &table[i - 1], &two_p);
    }
    table
}

/// Scalar multiplication by a non-negative big integer using a signed
/// width-4 windowed NAF: one fixed table of 4 odd multiples, then one
/// doubling per scalar bit and one addition per non-zero digit (~bits/5).
///
/// This is the fast path used by the curve-level `g1_mul`/`g2_mul` when no
/// endomorphism decomposition applies; [`scalar_mul`] remains as the
/// minimal double-and-add reference.
pub fn jac_mul<O: FieldOps>(ops: &O, p: &Affine<O::El>, k: &BigUint) -> Jacobian<O::El> {
    let identity = Jacobian {
        x: ops.one(),
        y: ops.one(),
        z: ops.zero(),
    };
    if p.infinity || k.is_zero() {
        return identity;
    }
    let table = odd_multiples(ops, to_jacobian(ops, p));
    let digits = wnaf_digits(k, WNAF_WINDOW);
    let mut acc = identity;
    for &d in digits.iter().rev() {
        acc = jac_double(ops, &acc);
        if d > 0 {
            acc = jac_add(ops, &acc, &table[(d as usize - 1) / 2]);
        } else if d < 0 {
            let t = &table[((-d) as usize - 1) / 2];
            let neg = Jacobian {
                x: t.x.clone(),
                y: ops.neg(&t.y),
                z: t.z.clone(),
            };
            acc = jac_add(ops, &acc, &neg);
        }
    }
    acc
}

/// Mixed addition `P + Q` with `Q` affine (`Z2 = 1`), the madd-2007-bl
/// formulas: 7M + 4S instead of the 11M + 5S of the general
/// [`jac_add`]. Handles identity and doubling edge cases.
pub fn jac_add_affine<O: FieldOps>(
    ops: &O,
    p: &Jacobian<O::El>,
    q: &Affine<O::El>,
) -> Jacobian<O::El> {
    if q.infinity {
        return p.clone();
    }
    if ops.is_zero(&p.z) {
        return to_jacobian(ops, q);
    }
    let z1z1 = ops.sqr(&p.z);
    let u2 = ops.mul(&q.x, &z1z1);
    let s2 = ops.mul(&ops.mul(&q.y, &p.z), &z1z1);
    if u2 == p.x {
        if s2 == p.y {
            return jac_double(ops, p);
        }
        return Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
    }
    let h = ops.sub(&u2, &p.x);
    let hh = ops.sqr(&h);
    let i = ops.dbl(&ops.dbl(&hh));
    let j = ops.mul(&h, &i);
    let rr = ops.dbl(&ops.sub(&s2, &p.y));
    let v = ops.mul(&p.x, &i);
    let x3 = ops.sub(&ops.sub(&ops.sqr(&rr), &j), &ops.dbl(&v));
    let y3 = ops.sub(
        &ops.mul(&rr, &ops.sub(&v, &x3)),
        &ops.dbl(&ops.mul(&p.y, &j)),
    );
    let z3 = ops.sub(&ops.sub(&ops.sqr(&ops.add(&p.z, &h)), &z1z1), &hh);
    Jacobian {
        x: x3,
        y: y3,
        z: z3,
    }
}

/// Comb window width (rows) for a fixed-base table serving scalars of the
/// given bit length: the evaluation loop costs `⌈bits/w⌉` doublings plus
/// at most as many mixed additions, while the table holds `2^w − 1` affine
/// points, so widening pays off as long as the table stays cache-friendly.
/// Width 8 (255 entries, ≈24 KiB of G1 coordinates on a 381-bit curve)
/// covers every Table 2 group order; the 638-bit curves take one more row
/// to keep the column count down, and tiny test curves shrink the table
/// instead of building 255 entries for a handful of bits.
pub fn comb_window(bits: usize) -> usize {
    match bits {
        0..=96 => 4,
        97..=512 => 8,
        _ => 9,
    }
}

/// A fixed-base comb (Lim–Lee) precomputation for one base point.
///
/// The scalar's bits are viewed as a `w × d` matrix (`w` rows of
/// `d = ⌈bits/w⌉` columns, row `i` holding bits `i·d .. (i+1)·d`); entry
/// `j` of the table is `Σ_{i ∈ bits(j)} [2^{i·d}]P`, so one column of the
/// matrix is resolved per iteration with a single mixed addition:
/// `d` doublings and at most `d` additions per multiplication, against
/// `bits` doublings for a ladder. The table is batch-normalised to affine
/// (one inversion via [`batch_to_affine`]) at construction, which is what
/// makes the evaluation loop all-mixed-additions.
///
/// Build cost is `(w−1)·d` doublings plus `2^w − w − 1` additions plus one
/// batched inversion — amortised after a handful of multiplications, which
/// is why the curve layer builds one only for a registered base (see
/// [`crate::precompute`]) and routes exact hits on that base through it.
pub struct CombTable<E> {
    base: Affine<E>,
    window: usize,
    cols: usize,
    table: Vec<Affine<E>>,
}

impl<E: Clone + PartialEq + Debug> CombTable<E> {
    /// Precomputes the comb for `base`, sized for scalars up to
    /// `scalar_bits` bits (callers pass the group-order bit length and
    /// reduce scalars first).
    pub fn build<O: FieldOps<El = E>>(ops: &O, base: &Affine<E>, scalar_bits: usize) -> Self {
        let window = comb_window(scalar_bits.max(1));
        let cols = scalar_bits.max(1).div_ceil(window);
        // strides[i] = [2^(i·cols)]·base
        let mut strides: Vec<Jacobian<E>> = Vec::with_capacity(window);
        strides.push(to_jacobian(ops, base));
        for i in 1..window {
            let mut b = strides[i - 1].clone();
            for _ in 0..cols {
                b = jac_double(ops, &b);
            }
            strides.push(b);
        }
        // Entry j (1-indexed) = entry of j minus its top bit, plus that
        // bit's stride — every entry is one addition on an earlier one.
        let mut table: Vec<Jacobian<E>> = Vec::with_capacity((1 << window) - 1);
        for j in 1usize..1 << window {
            let top = usize::BITS as usize - 1 - j.leading_zeros() as usize;
            if j == 1 << top {
                table.push(strides[top].clone());
            } else {
                let rest = table[j - (1 << top) - 1].clone();
                table.push(jac_add(ops, &rest, &strides[top]));
            }
        }
        CombTable {
            base: base.clone(),
            window,
            cols,
            table: batch_to_affine(ops, &table),
        }
    }

    /// True iff this table was built for exactly `base` (infinity never
    /// matches: a comb for the point at infinity is meaningless and the
    /// curve layer must fall through to the generic path).
    pub fn matches_base(&self, base: &Affine<E>) -> bool {
        !base.infinity && !self.base.infinity && self.base == *base
    }

    /// Scalar capacity in bits (`window · cols`).
    pub fn capacity_bits(&self) -> usize {
        self.window * self.cols
    }

    /// Number of precomputed affine points held by the table.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// `[k]·base` for `k` within [`CombTable::capacity_bits`].
    ///
    /// # Panics
    ///
    /// Panics if `k` has more bits than the table was sized for (the
    /// curve layer reduces scalars mod r before routing here).
    pub fn mul<O: FieldOps<El = E>>(&self, ops: &O, k: &BigUint) -> Jacobian<E> {
        assert!(
            k.bits() <= self.capacity_bits(),
            "comb table sized for {} bits, got {}",
            self.capacity_bits(),
            k.bits()
        );
        let mut acc = Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
        for col in (0..self.cols).rev() {
            if col + 1 != self.cols {
                acc = jac_double(ops, &acc);
            }
            let mut digit = 0usize;
            for row in 0..self.window {
                if k.bit(row * self.cols + col) {
                    digit |= 1 << row;
                }
            }
            if digit != 0 {
                acc = jac_add_affine(ops, &acc, &self.table[digit - 1]);
            }
        }
        acc
    }
}

/// One `(point, scalar)` operand of a multi-scalar multiplication
/// ([`msm`]). `negate` subtracts instead of adds, which is how signed
/// GLV/GLS sub-scalars are fed without touching the scalar itself.
#[derive(Clone, Debug)]
pub struct MulTerm<E> {
    /// The base point.
    pub point: Affine<E>,
    /// The non-negative sub-scalar magnitude.
    pub scalar: BigUint,
    /// If true, the term contributes `−scalar·point`.
    pub negate: bool,
}

/// An endomorphism on affine points (φ is `x ↦ βx`, ψ the
/// untwist–Frobenius), applied to normalised table entries in [`msm`].
pub type EndoMap<'a, E> = &'a dyn Fn(&Affine<E>) -> Affine<E>;

/// A table-reuse hint for [`msm`]: entry `i` says term `i`'s point is
/// `f(terms[source].point)` for a *group homomorphism* `f`, so its
/// odd-multiples table is the source's table mapped through `f`
/// entry-by-entry (a few coordinate maps instead of one doubling plus
/// three full additions).
pub type TableMap<'a, E> = Option<(usize, EndoMap<'a, E>)>;

/// Shamir double multiplication `±k₀·P₀ ± k₁·P₁` via joint-sparse-form
/// recoding ([`crate::glv::jsf`]): one shared doubling chain, roughly one
/// addition every other column, and only the `{P₀, P₁, P₀ + P₁, P₀ − P₁}`
/// table — the single-column entries stay affine (mixed additions), the
/// two combined entries are built with two mixed additions and kept
/// Jacobian, so the kernel never pays a field inversion. Negated terms
/// flip their digit row's signs, exactly like the wNAF kernel.
///
/// Both points must be finite and both scalars non-zero (the caller,
/// [`msm`], filters dead terms first).
fn jsf_double_mul<O: FieldOps>(
    ops: &O,
    t0: &MulTerm<O::El>,
    t1: &MulTerm<O::El>,
) -> Jacobian<O::El> {
    let columns = crate::glv::jsf(&t0.scalar, &t1.scalar);
    let (s0, s1) = (
        if t0.negate { -1i8 } else { 1 },
        if t1.negate { -1i8 } else { 1 },
    );
    let p0 = &t0.point;
    let p1 = &t1.point;
    let neg0 = affine_neg(ops, p0);
    let neg1 = affine_neg(ops, p1);
    let sum = jac_add_affine(ops, &to_jacobian(ops, p0), p1);
    let diff = jac_add_affine(ops, &to_jacobian(ops, p0), &neg1);
    let jac_neg = |p: &Jacobian<O::El>| Jacobian {
        x: p.x.clone(),
        y: ops.neg(&p.y),
        z: p.z.clone(),
    };
    let (neg_sum, neg_diff) = (jac_neg(&sum), jac_neg(&diff));
    let mut acc = Jacobian {
        x: ops.one(),
        y: ops.one(),
        z: ops.zero(),
    };
    for (j, &(u0, u1)) in columns.iter().enumerate().rev() {
        if j + 1 != columns.len() {
            acc = jac_double(ops, &acc);
        }
        match (u0 * s0, u1 * s1) {
            (0, 0) => {}
            (1, 0) => acc = jac_add_affine(ops, &acc, p0),
            (-1, 0) => acc = jac_add_affine(ops, &acc, &neg0),
            (0, 1) => acc = jac_add_affine(ops, &acc, p1),
            (0, -1) => acc = jac_add_affine(ops, &acc, &neg1),
            (1, 1) => acc = jac_add(ops, &acc, &sum),
            (-1, -1) => acc = jac_add(ops, &acc, &neg_sum),
            (1, -1) => acc = jac_add(ops, &acc, &diff),
            (-1, 1) => acc = jac_add(ops, &acc, &neg_diff),
            _ => unreachable!("JSF digits are in {{-1, 0, 1}}"),
        }
    }
    acc
}

/// Interleaved Straus/Shamir multi-scalar multiplication with width-4
/// wNAF digits over the live terms `live` (indices into `terms`):
/// computes `Σᵢ ±kᵢ·Pᵢ` sharing one doubling chain across all terms, so
/// an m-way GLV/GLS split costs `max bits(kᵢ)` doublings instead of
/// `Σ bits(kᵢ)`.
///
/// The odd-multiples tables are batch-normalised to affine with one
/// inversion, so every loop addition is a mixed addition. A term whose
/// `table_maps` entry names a live earlier term maps that term's table
/// entry-by-entry instead of building its own (sources may themselves
/// be mapped, as in ψ-power chains); any other entry builds a fresh
/// table.
fn straus<O: FieldOps>(
    ops: &O,
    terms: &[MulTerm<O::El>],
    live: &[usize],
    table_maps: &[TableMap<O::El>],
) -> Jacobian<O::El> {
    // Recode every live term, reusing one limb scratch across terms.
    // Negation is handled by flipping digit signs at use, so tables are
    // always of the original point (which keeps them shareable).
    let mut scratch = WnafScratch::default();
    let digit_sets: Vec<Vec<i64>> = live
        .iter()
        .map(|&i| {
            let mut digits = Vec::new();
            wnaf_digits_into(&terms[i].scalar, WNAF_WINDOW, &mut scratch, &mut digits);
            digits
        })
        .collect();
    let mut live_pos: Vec<Option<usize>> = vec![None; terms.len()];
    for (pos, &i) in live.iter().enumerate() {
        live_pos[i] = Some(pos);
    }
    // The live position of term `i`'s map source, when the map is usable.
    let map_of = |i: usize| -> Option<(usize, EndoMap<O::El>)> {
        let (src, f) = table_maps.get(i).copied().flatten()?;
        let src_pos = live_pos.get(src).copied().flatten()?;
        (src < i).then_some((src_pos, f))
    };
    // Build fresh tables only, normalise them with one shared inversion,
    // then derive mapped tables in live order (so ψ-power chains can map
    // from mapped tables).
    let mut fresh: Vec<Jacobian<O::El>> = Vec::new();
    for &i in live {
        if map_of(i).is_none() {
            fresh.extend(odd_multiples(ops, to_jacobian(ops, &terms[i].point)));
        }
    }
    let mut fresh = batch_to_affine(ops, &fresh).into_iter();
    let mut tables: Vec<Vec<Affine<O::El>>> = Vec::with_capacity(live.len());
    for &i in live {
        let table = match map_of(i) {
            Some((src_pos, f)) => tables[src_pos].iter().map(f).collect(),
            None => fresh.by_ref().take(WNAF_TABLE).collect(),
        };
        tables.push(table);
    }
    let max_len = digit_sets.iter().map(Vec::len).max().unwrap_or(0);
    let mut acc = Jacobian {
        x: ops.one(),
        y: ops.one(),
        z: ops.zero(),
    };
    for pos in (0..max_len).rev() {
        acc = jac_double(ops, &acc);
        for ((digits, table), &i) in digit_sets.iter().zip(&tables).zip(live) {
            let mut d = digits.get(pos).copied().unwrap_or(0);
            if terms[i].negate {
                d = -d;
            }
            if d > 0 {
                acc = jac_add_affine(ops, &acc, &table[(d as usize - 1) / 2]);
            } else if d < 0 {
                let flip = affine_neg(ops, &table[((-d) as usize - 1) / 2]);
                acc = jac_add_affine(ops, &acc, &flip);
            }
        }
    }
    acc
}

/// Pippenger bucket window width for `n` points (the usual
/// `~log n − log log n` heuristic, clamped to a sane range).
fn pippenger_window(n: usize) -> usize {
    if n < 32 {
        3
    } else {
        ((usize::BITS - 1 - n.leading_zeros()) as usize * 69 / 100 + 2).min(16)
    }
}

/// Extracts the `c`-bit window of `k` starting at bit `pos`.
fn window_digit(k: &BigUint, pos: usize, c: usize) -> usize {
    debug_assert!(c <= 32);
    let limbs = k.limbs();
    let (li, off) = (pos / 64, pos % 64);
    let mut v = limbs.get(li).copied().unwrap_or(0) >> off;
    if off + c > 64 {
        if let Some(&hi) = limbs.get(li + 1) {
            v |= hi << (64 - off);
        }
    }
    (v as usize) & ((1 << c) - 1)
}

/// Window `w` of `k` recoded to a signed base-2^`c` digit in
/// `[−2^(c−1) + 1, 2^(c−1)]`, threading the borrow through `carry`: a raw
/// digit above `2^(c−1)` becomes `digit − 2^c` and lends 1 to the next
/// window, so `Σ dᵂ·2^(wc) = k` while every window needs only
/// `2^(c−1)` buckets (negative digits subtract the point instead) — half
/// the bucket count, and so half the running-sum collapse cost, of the
/// unsigned form. The caller iterates one window past the top bit so the
/// final carry resolves to a plain `+1` digit.
fn signed_window_digit(k: &BigUint, w: usize, c: usize, carry: &mut usize) -> i64 {
    let half = 1i64 << (c - 1);
    let d = window_digit(k, w * c, c) as i64 + *carry as i64;
    if d > half {
        *carry = 1;
        d - (1i64 << c)
    } else {
        *carry = 0;
        d
    }
}

/// Number of live terms below which [`msm`] uses the interleaved Straus
/// kernel instead of Pippenger buckets: with `n` points and window `c`,
/// the bucket collapse costs `~2·2^c` general additions per window, which
/// dominates until `n` well exceeds the bucket count; the Straus kernel's
/// batch-normalised affine tables keep every loop addition mixed.
pub const MSM_STRAUS_MAX: usize = 256;

/// Number of live terms at or above which [`msm`] shards its Pippenger
/// bucket pass across threads (when [`finesse_parallel::current_threads`]
/// allows more than one). Below this the per-shard window collapse — which
/// every shard repeats — does not amortise against the divided bucket
/// accumulation.
pub const MSM_PARALLEL_MIN: usize = 512;

/// One Pippenger shard: accumulates `chunk`'s terms into a private
/// windows × buckets matrix (own arena, own [`AffineAddBatcher`], one
/// shared batch inversion per conflict round) using signed
/// 2^(c−1)-bucket digits ([`signed_window_digit`]). A digit whose sign,
/// after the term's own sign, is negative enqueues the negated point,
/// interned lazily so a point whose digits are all one sign costs a
/// single arena entry. Each window then collapses with the running-sum
/// trick. Returns the per-window sums — the doubling chain between
/// windows is the caller's, so shard results combine with plain
/// per-window additions.
fn pippenger_window_sums<O: FieldOps>(
    ops: &O,
    chunk: &[&MulTerm<O::El>],
    c: usize,
    windows: usize,
) -> Vec<Jacobian<O::El>> {
    let slots = 1usize << (c - 1);
    let inf = Affine::infinity(ops.zero());
    let mut buckets: Vec<Affine<O::El>> = vec![inf; windows * slots];
    let mut batcher = AffineAddBatcher::new(chunk.len() * windows);
    for t in chunk {
        // At most one arena entry per point per sign; the per-window
        // queue entries are 8-byte index pairs, so round scheduling
        // never moves coordinates.
        let mut pos_idx: Option<u32> = None;
        let mut neg_idx: Option<u32> = None;
        let mut carry = 0usize;
        for w in 0..windows {
            let mut d = signed_window_digit(&t.scalar, w, c, &mut carry);
            if t.negate {
                d = -d;
            }
            if d == 0 {
                continue;
            }
            let idx = if d > 0 {
                *pos_idx.get_or_insert_with(|| batcher.intern(t.point.clone()))
            } else {
                *neg_idx.get_or_insert_with(|| batcher.intern(affine_neg(ops, &t.point)))
            };
            batcher.enqueue(w * slots + d.unsigned_abs() as usize - 1, idx);
        }
        debug_assert_eq!(carry, 0, "the extra top window absorbs the carry");
    }
    batcher.accumulate(ops, &mut buckets);
    // Per window: running-sum collapse (Σ d·B_d as suffix sums — all
    // mixed adds now that buckets are affine).
    let identity = Jacobian {
        x: ops.one(),
        y: ops.one(),
        z: ops.zero(),
    };
    (0..windows)
        .map(|w| {
            let mut suffix = identity.clone();
            let mut window_sum = identity.clone();
            for b in buckets[w * slots..(w + 1) * slots].iter().rev() {
                suffix = jac_add_affine(ops, &suffix, b);
                window_sum = jac_add(ops, &window_sum, &suffix);
            }
            window_sum
        })
        .collect()
}

/// Multi-scalar multiplication `Σᵢ ±kᵢ·Pᵢ` over a term list — the one
/// place that picks a scalar-multiplication kernel.
///
/// Terms with an infinity point or a zero scalar drop out first; the
/// live-term count then selects the kernel:
///
/// - 0: the identity;
/// - 1: the [`jac_mul`] wNAF ladder (a negated term flips `y`);
/// - 2: the JSF pair kernel (joint sparse form, [`crate::glv::jsf`]),
///   which needs only the `{P₀, P₁, P₀ ± P₁}` table and never inverts;
/// - 3 to [`MSM_STRAUS_MAX`]` − 1`: the interleaved Straus kernel, one
///   shared doubling chain over affine odd-multiples tables, where
///   `table_maps` (parallel to `terms`; missing entries mean "build
///   fresh") lets GLV/GLS callers derive φ- and ψ-image tables from
///   their source term's table;
/// - otherwise: Pippenger's bucket method with batch-affine bucket
///   accumulation. The window width scales with the term count; each
///   term's signed window digits pick a bucket, with the term's sign
///   folded into the digit, and the buckets collapse with the
///   running-sum trick `Σ d·B_d = Σ (suffix sums)`. Cost is roughly
///   `bits/c · (n + 2^(c−1))` additions plus `bits` doublings.
///
/// From [`MSM_PARALLEL_MIN`] live terms the bucket pass is sharded over
/// term-chunks across [`finesse_parallel::current_threads`] scoped
/// threads — each shard owns its bucket matrix and batch-affine state —
/// and the per-window partial sums combine in a pairwise tree before one
/// serial doubling chain. The group value is identical at every thread
/// count (shards only re-associate the bucket sums); only the Jacobian
/// representative may differ, so compare results through [`to_affine`].
///
/// Scalars are used as given (callers wanting reduction mod r should
/// reduce first — the curve-level `g1_msm`/`g2_msm` do, and additionally
/// split each scalar along the curve endomorphism before calling here).
pub fn msm<O>(ops: &O, terms: &[MulTerm<O::El>], table_maps: &[TableMap<O::El>]) -> Jacobian<O::El>
where
    O: FieldOps + Sync,
    O::El: Send + Sync,
{
    let identity = Jacobian {
        x: ops.one(),
        y: ops.one(),
        z: ops.zero(),
    };
    let live: Vec<usize> = (0..terms.len())
        .filter(|&i| !terms[i].point.infinity && !terms[i].scalar.is_zero())
        .collect();
    if live.len() < MSM_STRAUS_MAX {
        return match *live.as_slice() {
            [] => identity,
            [i] => {
                let t = &terms[i];
                let mut acc = jac_mul(ops, &t.point, &t.scalar);
                if t.negate {
                    acc.y = ops.neg(&acc.y);
                }
                acc
            }
            [i, j] => jsf_double_mul(ops, &terms[i], &terms[j]),
            _ => straus(ops, terms, &live, table_maps),
        };
    }
    let live: Vec<&MulTerm<O::El>> = live.iter().map(|&i| &terms[i]).collect();
    let c = pippenger_window(live.len());
    let max_bits = live.iter().map(|t| t.scalar.bits()).max().unwrap_or(0);
    // One window past the top bit so the signed-digit carry always
    // resolves inside the matrix.
    let windows = max_bits.div_ceil(c) + 1;
    // The window geometry is fixed from the full live set before
    // sharding, so every shard fills the same matrix shape and partial
    // sums align window-by-window.
    let partials: Vec<Vec<Jacobian<O::El>>> =
        if live.len() >= MSM_PARALLEL_MIN && finesse_parallel::current_threads() > 1 {
            finesse_parallel::par_map_chunks(&live, MSM_PARALLEL_MIN / 2, |chunk| {
                pippenger_window_sums(ops, chunk, c, windows)
            })
        } else {
            vec![pippenger_window_sums(ops, &live, c, windows)]
        };
    // tree_reduce returns None only for an empty input; the live set is
    // non-empty here, so there is always at least one shard.
    let Some(window_sums) = finesse_parallel::tree_reduce(partials, |a, b| {
        a.iter().zip(&b).map(|(x, y)| jac_add(ops, x, y)).collect()
    }) else {
        return identity;
    };
    // Serial doubling chain over the combined per-window sums.
    let mut acc = identity;
    for w in (0..windows).rev() {
        if w + 1 != windows {
            for _ in 0..c {
                acc = jac_double(ops, &acc);
            }
        }
        acc = jac_add(ops, &acc, &window_sums[w]);
    }
    acc
}

/// One affine addition scheduled against a round's shared inversion.
/// Operand `a` is either the target bucket itself (`a_bucket`) or an
/// arena entry; operand `b` is always an arena entry. The result
/// `(x₃, y₃)` overwrites the bucket (`write_bucket`) or re-enters the
/// queue as a fresh arena entry for slot `target`.
struct AffineAddJob<E> {
    target: u32,
    write_bucket: bool,
    a_bucket: bool,
    a_idx: u32,
    b_idx: u32,
    /// Slope numerator (`y₂ − y₁`, or `3x²` for a doubling), captured at
    /// schedule time alongside the denominator.
    num: E,
}

/// Schedules the affine chord-and-tangent addition
/// (`λ = (y₂ − y₁)/(x₂ − x₁)`, or `3x²/2y` for a doubling) of two finite
/// points against a round's shared inversion: the denominator joins
/// `dens`, the rest of the job joins `jobs`. A cancelling pair (`P − P`,
/// or a doubling with `y = 0`) returns `false` — the sum is the identity
/// and nothing is scheduled. `meta` is the job routing
/// `(target, write_bucket, a_bucket, a_idx, b_idx)`.
fn schedule_affine_add<O: FieldOps>(
    ops: &O,
    dens: &mut Vec<O::El>,
    jobs: &mut Vec<AffineAddJob<O::El>>,
    a: &Affine<O::El>,
    b: &Affine<O::El>,
    meta: (u32, bool, bool, u32, u32),
) -> bool {
    debug_assert!(!a.infinity && !b.infinity);
    let (target, write_bucket, a_bucket, a_idx, b_idx) = meta;
    let num = if a.x == b.x {
        if a.y != b.y || ops.is_zero(&a.y) {
            return false;
        }
        let xx = ops.sqr(&a.x);
        dens.push(ops.dbl(&a.y));
        ops.add(&ops.dbl(&xx), &xx)
    } else {
        dens.push(ops.sub(&b.x, &a.x));
        ops.sub(&b.y, &a.y)
    };
    jobs.push(AffineAddJob {
        target,
        write_bucket,
        a_bucket,
        a_idx,
        b_idx,
        num,
    });
    true
}

/// Scratch state for batch-affine bucket accumulation.
///
/// Points live in an append-only arena; the pending queue holds 8-byte
/// `(slot, arena index)` pairs, so the per-round sort-and-group never
/// moves coordinates. Per round, each slot group schedules one
/// `bucket + entry` addition plus a binary-tree layer of independent
/// `entry + entry` pair additions, so a slot with `m` entries resolves
/// in `O(log m)` rounds instead of serialising `m` bucket additions
/// (structured scalar sets — e.g. hundreds of equal-length sub-scalars
/// sharing their top-window digit — make such hot slots common, not
/// pathological). Every scheduled addition contributes one slope
/// denominator to a single [`FieldOps::batch_inv`] (Montgomery's trick)
/// and then finishes in affine coordinates for ~`2M + 1S` plus the 3
/// shared-inversion multiplications — in place of a `7M + 4S` Jacobian
/// mixed add, with the buckets staying affine for the final collapse.
/// Identity, negation, and `y = 0` edge cases resolve immediately and
/// never reach the inversion.
struct AffineAddBatcher<E> {
    arena: Vec<Affine<E>>,
    /// `(slot, arena index)` additions still owed to the buckets.
    pending: Vec<(u32, u32)>,
    /// Entries produced for the next round (pair-add results and odd
    /// leftovers).
    deferred: Vec<(u32, u32)>,
    /// Slope denominators for the shared batch inversion.
    dens: Vec<E>,
    jobs: Vec<AffineAddJob<E>>,
}

impl<E: Clone + PartialEq + Debug> AffineAddBatcher<E> {
    fn new(capacity: usize) -> Self {
        AffineAddBatcher {
            arena: Vec::new(),
            pending: Vec::with_capacity(capacity),
            deferred: Vec::new(),
            dens: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// Stores a point in the arena, returning its index for
    /// [`AffineAddBatcher::enqueue`] (one interned point can back many
    /// queue entries — e.g. one per Pippenger window).
    fn intern(&mut self, p: Affine<E>) -> u32 {
        self.arena.push(p);
        (self.arena.len() - 1) as u32
    }

    /// Queues `buckets[slot] += arena[idx]` for the next
    /// [`AffineAddBatcher::accumulate`] run.
    fn enqueue(&mut self, slot: usize, idx: u32) {
        self.pending.push((slot as u32, idx));
    }

    /// Drains the queue, summing each slot's entries into `buckets`.
    fn accumulate<O: FieldOps<El = E>>(&mut self, ops: &O, buckets: &mut [Affine<E>]) {
        let mut pending = std::mem::take(&mut self.pending);
        let mut deferred = std::mem::take(&mut self.deferred);
        while !pending.is_empty() {
            self.dens.clear();
            deferred.clear();
            pending.sort_unstable();
            let mut i = 0;
            while i < pending.len() {
                let slot = pending[i].0;
                let mut j = i;
                while j < pending.len() && pending[j].0 == slot {
                    j += 1;
                }
                // The bucket absorbs the first entry; the rest pair up
                // among themselves (independent additions, same shared
                // inversion), halving the group every round.
                let first = pending[i].1;
                let bucket = &buckets[slot as usize];
                if self.arena[first as usize].infinity {
                    // Identity entry: nothing owed.
                } else if bucket.infinity {
                    buckets[slot as usize] = self.arena[first as usize].clone();
                } else if !schedule_affine_add(
                    ops,
                    &mut self.dens,
                    &mut self.jobs,
                    bucket,
                    &self.arena[first as usize],
                    (slot, true, true, slot, first),
                ) {
                    buckets[slot as usize] = Affine::infinity(ops.zero());
                }
                let mut k = i + 1;
                while k + 1 < j {
                    let (ai, bi) = (pending[k].1, pending[k + 1].1);
                    if self.arena[ai as usize].infinity {
                        deferred.push((slot, bi));
                    } else if self.arena[bi as usize].infinity {
                        deferred.push((slot, ai));
                    } else {
                        // A cancelling pair sums to the identity and
                        // simply drops out of the tree.
                        let _ = schedule_affine_add(
                            ops,
                            &mut self.dens,
                            &mut self.jobs,
                            &self.arena[ai as usize],
                            &self.arena[bi as usize],
                            (slot, false, false, ai, bi),
                        );
                    }
                    k += 2;
                }
                if k < j {
                    deferred.push((slot, pending[k].1));
                }
                i = j;
            }
            ops.batch_inv(&mut self.dens);
            let mut jobs = std::mem::take(&mut self.jobs);
            for (job, dinv) in jobs.drain(..).zip(&self.dens) {
                let a = if job.a_bucket {
                    &buckets[job.a_idx as usize]
                } else {
                    &self.arena[job.a_idx as usize]
                };
                let b = &self.arena[job.b_idx as usize];
                let lambda = ops.mul(&job.num, dinv);
                let x3 = ops.sub(&ops.sub(&ops.sqr(&lambda), &a.x), &b.x);
                let y3 = ops.sub(&ops.mul(&lambda, &ops.sub(&a.x, &x3)), &a.y);
                let out = Affine::new(x3, y3);
                if job.write_bucket {
                    buckets[job.target as usize] = out;
                } else {
                    let idx = self.arena.len() as u32;
                    self.arena.push(out);
                    deferred.push((job.target, idx));
                }
            }
            self.jobs = jobs;
            std::mem::swap(&mut pending, &mut deferred);
        }
        self.deferred = deferred;
    }
}

/// Affine negation.
pub fn affine_neg<O: FieldOps>(ops: &O, p: &Affine<O::El>) -> Affine<O::El> {
    if p.infinity {
        p.clone()
    } else {
        Affine::new(p.x.clone(), ops.neg(&p.y))
    }
}

/// True iff the Jacobian point is the identity.
pub fn is_identity<O: FieldOps>(ops: &O, p: &Jacobian<O::El>) -> bool {
    ops.is_zero(&p.z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_ff::FpCtx;

    /// Tiny curve for exhaustive checking: y² = x³ + 7 over F_61
    /// (#E = 61 + 1 − (−1)... determined empirically below).
    fn tiny() -> (FpOps, Fp) {
        let ctx = FpCtx::new(BigUint::from_u64(61)).unwrap();
        let b = ctx.from_u64(7);
        (FpOps(ctx), b)
    }

    fn points_on_tiny(ops: &FpOps, b: &Fp) -> Vec<Affine<Fp>> {
        let mut pts = Vec::new();
        for x in 0..61u64 {
            for y in 0..61u64 {
                let p = Affine::new(ops.0.from_u64(x), ops.0.from_u64(y));
                if is_on_curve(ops, &p, b) {
                    pts.push(p);
                }
            }
        }
        pts
    }

    #[test]
    fn group_closure_and_identity() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        assert!(!pts.is_empty());
        let order = pts.len() as u64 + 1; // plus infinity
        for p in pts.iter().take(8) {
            // [order]P = O for all points (Lagrange).
            let r = scalar_mul(&ops, p, &BigUint::from_u64(order));
            assert!(is_identity(&ops, &r), "order {order} should annihilate");
            // P + (−P) = O
            let s = jac_add(
                &ops,
                &to_jacobian(&ops, p),
                &to_jacobian(&ops, &affine_neg(&ops, p)),
            );
            assert!(is_identity(&ops, &s));
            // on-curve stays on-curve through doubling
            let d = to_affine(&ops, &jac_double(&ops, &to_jacobian(&ops, p)));
            assert!(is_on_curve(&ops, &d, &b));
        }
    }

    #[test]
    fn add_commutes_and_associates() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        let (p, q, r) = (&pts[0], &pts[3], &pts[5]);
        let pj = to_jacobian(&ops, p);
        let qj = to_jacobian(&ops, q);
        let rj = to_jacobian(&ops, r);
        let pq = to_affine(&ops, &jac_add(&ops, &pj, &qj));
        let qp = to_affine(&ops, &jac_add(&ops, &qj, &pj));
        assert_eq!(pq, qp);
        assert!(is_on_curve(&ops, &pq, &b));
        let left = to_affine(&ops, &jac_add(&ops, &jac_add(&ops, &pj, &qj), &rj));
        let right = to_affine(&ops, &jac_add(&ops, &pj, &jac_add(&ops, &qj, &rj)));
        assert_eq!(left, right);
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        let p = &pts[1];
        let mut acc = Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
        let pj = to_jacobian(&ops, p);
        for k in 0..10u64 {
            let via_mul = to_affine(&ops, &scalar_mul(&ops, p, &BigUint::from_u64(k)));
            let via_add = to_affine(&ops, &acc);
            assert_eq!(via_mul, via_add, "k = {k}");
            acc = jac_add(&ops, &acc, &pj);
        }
    }

    #[test]
    fn jac_mul_matches_double_and_add() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        let p = &pts[2];
        // Small scalars exhaustively, plus a few larger multi-window ones.
        for k in (0..40u64).chain([97, 255, 256, 1023, 0xFFFF_FFFF]) {
            let k = BigUint::from_u64(k);
            let fast = to_affine(&ops, &jac_mul(&ops, p, &k));
            let slow = to_affine(&ops, &scalar_mul(&ops, p, &k));
            assert_eq!(fast, slow, "k = {k:?}");
        }
        // Identity inputs.
        let inf = Affine::infinity(ops.zero());
        assert!(is_identity(
            &ops,
            &jac_mul(&ops, &inf, &BigUint::from_u64(5))
        ));
        assert!(is_identity(&ops, &jac_mul(&ops, p, &BigUint::zero())));
    }

    #[test]
    fn batch_to_affine_matches_individual() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        let mut jacs: Vec<Jacobian<Fp>> = pts
            .iter()
            .take(6)
            .enumerate()
            .map(|(i, p)| jac_mul(&ops, p, &BigUint::from_u64(i as u64 + 2)))
            .collect();
        // Include an identity in the middle to exercise the skip path.
        jacs.insert(
            3,
            Jacobian {
                x: ops.one(),
                y: ops.one(),
                z: ops.zero(),
            },
        );
        let batch = batch_to_affine(&ops, &jacs);
        for (j, a) in jacs.iter().zip(&batch) {
            assert_eq!(*a, to_affine(&ops, j));
        }
        assert!(batch[3].infinity);
        assert!(batch_to_affine(&ops, &[]).is_empty());
    }

    /// The BLS12-381 base field: a realistic 381-bit modulus.
    fn bls12_381_fp() -> Arc<FpCtx> {
        let p = BigUint::from_hex(
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
        )
        .unwrap();
        FpCtx::new(p).unwrap()
    }

    #[test]
    fn fp_ops_batch_inv_matches_individual() {
        // The `FieldOps::batch_inv` default over `FpOps` (G1 coordinates,
        // Pippenger buckets, Lagrange denominators) agrees with one
        // Fermat inversion per element, at every size.
        let c = bls12_381_fp();
        let ops = FpOps(Arc::clone(&c));
        let mut batch: Vec<Fp> = (1..20u64).map(|s| c.sample(s)).collect();
        let individual: Vec<Fp> = batch.iter().map(Fp::invert).collect();
        ops.batch_inv(&mut batch);
        assert_eq!(batch, individual);
        // Degenerate sizes.
        let mut empty: Vec<Fp> = vec![];
        ops.batch_inv(&mut empty);
        let mut single = vec![c.sample(5)];
        let expect = single[0].invert();
        ops.batch_inv(&mut single);
        assert_eq!(single[0], expect);
    }

    #[test]
    #[should_panic(expected = "inversion of zero")]
    fn fp_ops_batch_inv_zero_panics() {
        let c = bls12_381_fp();
        let mut batch = vec![c.one(), c.zero()];
        FpOps(Arc::clone(&c)).batch_inv(&mut batch);
    }

    #[test]
    fn fq_ops_batch_inv_matches_individual() {
        // The `FieldOps::batch_inv` default over `FqOps`, on the BLS12-381
        // twist field F_p2 (G2 coordinates): Montgomery's trick must agree
        // with one `fq_inv` per element.
        let fp = bls12_381_fp();
        let tower = TowerCtx::sextic_over_fp2(&fp, fp.from_i64(-1), (fp.one(), fp.one())).unwrap();
        let ops = FqOps(&tower);
        let mut elems: Vec<Fq> = (1..9u64).map(|s| tower.fq_sample(s)).collect();
        let expected: Vec<Fq> = elems.iter().map(|e| tower.fq_inv(e)).collect();
        ops.batch_inv(&mut elems);
        assert_eq!(elems, expected);
        ops.batch_inv(&mut []);
    }

    #[test]
    fn wnaf_digits_reconstruct() {
        for v in [1u64, 2, 3, 15, 16, 17, 255, 0xDEAD_BEEF, u64::MAX] {
            let digits = wnaf_digits(&BigUint::from_u64(v), WNAF_WINDOW);
            let mut acc: i128 = 0;
            for (i, &d) in digits.iter().enumerate() {
                acc += (d as i128) << i;
            }
            assert_eq!(acc, v as i128, "v = {v}");
            for &d in &digits {
                assert!(d == 0 || d % 2 != 0, "digits are zero or odd");
                assert!(d.abs() < 1 << (WNAF_WINDOW - 1));
            }
        }
        assert!(wnaf_digits(&BigUint::zero(), WNAF_WINDOW).is_empty());
    }

    #[test]
    fn doubling_identity_edge_cases() {
        let (ops, _) = tiny();
        let inf: Jacobian<Fp> = Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
        assert!(is_identity(&ops, &jac_double(&ops, &inf)));
        assert!(is_identity(&ops, &jac_add(&ops, &inf, &inf)));
    }

    #[test]
    fn mixed_addition_matches_general() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        // Unrelated points, the doubling case, inverse points, and both
        // identity sides.
        for (i, j) in [(0usize, 4usize), (2, 2), (1, 5), (3, 0)] {
            let pj = jac_mul(&ops, &pts[i], &BigUint::from_u64(3));
            let mixed = jac_add_affine(&ops, &pj, &pts[j]);
            let general = jac_add(&ops, &pj, &to_jacobian(&ops, &pts[j]));
            assert_eq!(
                to_affine(&ops, &mixed),
                to_affine(&ops, &general),
                "i={i}, j={j}"
            );
        }
        let p = &pts[1];
        let pj = to_jacobian(&ops, p);
        // P + P (doubling through the mixed path)
        assert_eq!(
            to_affine(&ops, &jac_add_affine(&ops, &pj, p)),
            to_affine(&ops, &jac_double(&ops, &pj))
        );
        // P + (−P) = O
        assert!(is_identity(
            &ops,
            &jac_add_affine(&ops, &pj, &affine_neg(&ops, p))
        ));
        // O + Q = Q, P + O = P
        let inf_jac: Jacobian<Fp> = Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
        assert_eq!(to_affine(&ops, &jac_add_affine(&ops, &inf_jac, p)), *p);
        let inf_aff = Affine::infinity(ops.zero());
        assert_eq!(to_affine(&ops, &jac_add_affine(&ops, &pj, &inf_aff)), *p);
    }

    /// `Σ ±k·P` on the tiny curve by double-and-add, the oracle for
    /// every [`msm`] kernel.
    fn naive_terms(ops: &FpOps, terms: &[MulTerm<Fp>]) -> Affine<Fp> {
        let mut want = Jacobian {
            x: ops.one(),
            y: ops.one(),
            z: ops.zero(),
        };
        for t in terms {
            let base = if t.negate {
                affine_neg(ops, &t.point)
            } else {
                t.point.clone()
            };
            want = jac_add(ops, &want, &scalar_mul(ops, &base, &t.scalar));
        }
        to_affine(ops, &want)
    }

    #[test]
    fn multi_mul_matches_term_sums() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        // Terms with mixed signs, a zero scalar, and an infinity point,
        // covering the ladder, JSF and Straus kernels.
        let cases: Vec<Vec<(usize, u64, bool)>> = vec![
            vec![(0, 5, false)],
            vec![(0, 5, true)],
            vec![(0, 5, false), (2, 7, true)],
            vec![(0, 3, false), (1, 0, false), (2, 9, true), (3, 11, false)],
            vec![(4, 1, true), (5, 2, false), (6, 13, true), (0, 8, false)],
        ];
        for case in cases {
            let terms: Vec<MulTerm<Fp>> = case
                .iter()
                .map(|&(i, k, neg)| MulTerm {
                    point: pts[i].clone(),
                    scalar: BigUint::from_u64(k),
                    negate: neg,
                })
                .collect();
            let got = to_affine(&ops, &msm(&ops, &terms, &[]));
            assert_eq!(got, naive_terms(&ops, &terms), "case {case:?}");
        }
        // Infinity / empty inputs.
        let inf = Affine::infinity(ops.zero());
        assert!(is_identity(
            &ops,
            &msm(
                &ops,
                &[MulTerm {
                    point: inf,
                    scalar: BigUint::from_u64(3),
                    negate: false
                }],
                &[]
            )
        ));
        assert!(is_identity(&ops, &msm::<FpOps>(&ops, &[], &[])));
    }

    #[test]
    fn msm_matches_naive_on_tiny_curve() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        for n in [0usize, 1, 2, 3, 4, 7, 12] {
            let terms: Vec<MulTerm<Fp>> = (0..n)
                .map(|i| MulTerm {
                    point: pts[i % pts.len()].clone(),
                    scalar: BigUint::from_u64((i as u64 * 7 + 3) % 61),
                    negate: false,
                })
                .collect();
            let got = to_affine(&ops, &msm(&ops, &terms, &[]));
            assert_eq!(got, naive_terms(&ops, &terms), "n = {n}");
        }
        // Zero scalars and infinity points drop out.
        let inf = Affine::infinity(ops.zero());
        let terms: Vec<MulTerm<Fp>> = [(pts[0].clone(), 4), (inf, 9), (pts[1].clone(), 0)]
            .into_iter()
            .chain([(pts[2].clone(), 5)])
            .map(|(point, k)| MulTerm {
                point,
                scalar: BigUint::from_u64(k),
                negate: false,
            })
            .collect();
        let got = to_affine(&ops, &msm(&ops, &terms, &[]));
        let want = jac_add(
            &ops,
            &scalar_mul(&ops, &pts[0], &BigUint::from_u64(4)),
            &scalar_mul(&ops, &pts[2], &BigUint::from_u64(5)),
        );
        assert_eq!(got, to_affine(&ops, &want));
    }

    #[test]
    fn comb_table_matches_scalar_mul() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        let p = &pts[1];
        let comb = CombTable::build(&ops, p, 12);
        assert!(comb.capacity_bits() >= 12);
        assert!(comb.entries() > 0);
        for k in (0..70u64).chain([255, 256, 1023, 4095]) {
            let k = BigUint::from_u64(k);
            assert_eq!(
                to_affine(&ops, &comb.mul(&ops, &k)),
                to_affine(&ops, &scalar_mul(&ops, p, &k)),
                "k = {k:?}"
            );
        }
        // Base matching is exact: a different point or infinity never
        // matches, which is what keeps a cached comb generator-only.
        assert!(comb.matches_base(p));
        assert!(!comb.matches_base(&pts[2]));
        assert!(!comb.matches_base(&Affine::infinity(ops.zero())));
    }

    #[test]
    #[should_panic(expected = "comb table sized for")]
    fn comb_table_rejects_oversized_scalars() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        let comb = CombTable::build(&ops, &pts[0], 8);
        let _ = comb.mul(&ops, &BigUint::from_u64(1 << 20));
    }

    #[test]
    fn msm_pippenger_batch_affine_matches_naive() {
        let (ops, b) = tiny();
        let pts = points_on_tiny(&ops, &b);
        // ≥ MSM_STRAUS_MAX live terms forces the batch-affine Pippenger
        // path; wrap-around duplicates and negated copies land in shared
        // buckets and exercise the batcher's doubling and cancellation
        // scheduling edges, zero scalars its dead-entry filtering, and
        // negated terms the sign folded into the bucket choice.
        let n = MSM_STRAUS_MAX + 44;
        let terms: Vec<MulTerm<Fp>> = (0..n)
            .map(|i| {
                let p = pts[i % pts.len()].clone();
                MulTerm {
                    point: if i % 5 == 0 { affine_neg(&ops, &p) } else { p },
                    scalar: BigUint::from_u64((i as u64).wrapping_mul(0x9E37_79B9) % 2048),
                    negate: i % 3 == 0,
                }
            })
            .collect();
        let got = to_affine(&ops, &msm(&ops, &terms, &[]));
        assert_eq!(got, naive_terms(&ops, &terms));
    }

    #[test]
    fn window_digit_extracts_bits() {
        let k = BigUint::from_limbs(vec![0xFEDC_BA98_7654_3210, 0x0000_0000_0000_00AB]);
        assert_eq!(window_digit(&k, 0, 4), 0x0);
        assert_eq!(window_digit(&k, 4, 4), 0x1);
        assert_eq!(window_digit(&k, 60, 8), 0xBF); // spans the limb boundary
        assert_eq!(window_digit(&k, 64, 8), 0xAB);
        assert_eq!(window_digit(&k, 128, 5), 0, "past the top");
    }

    #[test]
    fn signed_window_digits_reconstruct_the_scalar() {
        // Σ d_w·2^(w·c) over the signed digits must equal k, with every
        // |d| ≤ 2^(c−1) and the final carry absorbed by the extra
        // window. Scalars stay below 2^100 so even the carry window's
        // shift (bits rounded up to c, plus one window) fits i128.
        let scalars = [
            BigUint::from_u64(0),
            BigUint::from_u64(1),
            BigUint::from_u64(0xFFFF_FFFF_FFFF_FFFF),
            BigUint::from_limbs(vec![0xDEAD_BEEF_0123_4567, 0xF_FFFF_FFFF]),
            BigUint::from_limbs(vec![u64::MAX, (1u64 << 36) - 1]),
        ];
        for c in 1..=13usize {
            let half = 1i64 << (c - 1);
            for k in &scalars {
                let expected = k
                    .limbs()
                    .iter()
                    .enumerate()
                    .map(|(i, &l)| (l as i128) << (64 * i))
                    .sum::<i128>();
                let windows = k.bits().max(1).div_ceil(c) + 1;
                let mut carry = 0usize;
                let mut acc = 0i128;
                for w in 0..windows {
                    let d = signed_window_digit(k, w, c, &mut carry);
                    assert!(d.abs() <= half, "c={c} w={w}: digit {d} out of range");
                    acc += (d as i128) << (w * c);
                }
                assert_eq!(carry, 0, "c={c}: carry must resolve in the top window");
                assert_eq!(acc, expected, "c={c} k={k:?}");
            }
        }
    }
}
