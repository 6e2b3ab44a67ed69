//! Prime-field arithmetic in Montgomery form, allocation-free on the hot
//! path.
//!
//! [`FpCtx`] owns everything derived from the modulus (limb width, `n0'`,
//! `R^2 mod p`). Contexts are interned: one per modulus, built on first
//! request and kept for the life of the process. [`Fp`] is a fixed-width
//! element holding a plain `&'static` reference to its context, so it
//! shares no mutable state with any other element — cloning copies bytes,
//! dropping does nothing, and threads working on elements of one field
//! never write a common cache line. Elements of different fields can never
//! be mixed silently: mixing panics in debug and release alike.
//!
//! # Representation
//!
//! Elements store their limbs inline in a [`Limbs`] value
//! (`[u64; MAX_LIMBS]` plus an active width), sized for the largest
//! Table-2 curve (BN638/BLS12-638 ⇒ [`MAX_LIMBS`]` = 10`). Every field
//! operation — [`Fp::mul`], [`Fp::square`], [`Fp::add`], [`Fp::sub`],
//! [`Fp::neg`] and their `*_assign` forms — runs entirely on the stack:
//! after context construction no heap allocation occurs, matching the
//! paper's premise that the modular-multiplication substrate (`mmul`)
//! dominates pairing cost and must not be throttled by the allocator.
//!
//! Multiplication is CIOS (coarsely integrated operand scanning)
//! Montgomery multiplication, the standard software algorithm matching the
//! word-serial structure of the paper's `mmul` hardware unit.
//! [`FpCtx::mont_mul_into`] is the one fixed-width Montgomery product:
//! squaring is that kernel with both operands equal, just as the
//! accelerator runs `SQR` on the same `mmul` unit as `MUL`, and
//! [`Fp::pow`] is a square-and-multiply ladder over it. Inversion is
//! Fermat (`x^(p−2)`); batches of inversions should use
//! `finesse-curves`' `FieldOps::batch_inv` (Montgomery's trick: one
//! inversion plus `3(n−1)` multiplications). The extension tower's lazy
//! kernels ([`Unreduced`], [`WideAcc`], [`FpCtx::redc`]) are the only
//! double-width path.
//!
//! # When `BigUint` is still the right type
//!
//! [`crate::BigUint`] remains the representation for everything *outside*
//! the field hot path: curve-parameter synthesis (evaluating family
//! polynomials), exponent bookkeeping (final-exponentiation chains, NAF
//! recoding), primality testing, scalars at API boundaries (group-layer
//! scalar multiplication, wire-level claims), and moduli wider than
//! [`MAX_LIMBS`] limbs (e.g. `BigUint::modpow` over p^k-sized integers).
//! Arithmetic *in* a scalar field F_r is field arithmetic like any other:
//! polynomial commitments run it on an `Fp` over r, and the
//! [`crate::scalar`] helpers are kept only as a `BigUint` oracle.
//! Converting between the two costs one Montgomery multiplication: do it
//! once at a boundary, never inside an arithmetic loop.

use crate::limbs::{
    adc, add_assign_slices, cmp_slices, mac, mont_neg_inv, sub_assign_slices, Limbs, MAX_LIMBS,
};
use crate::BigUint;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Context for a prime field F_p: the modulus and Montgomery constants.
///
/// # Examples
///
/// ```
/// use finesse_ff::{BigUint, FpCtx};
///
/// let p = BigUint::from_u64(1_000_000_007);
/// let ctx = FpCtx::new(p).unwrap();
/// let a = ctx.from_u64(3);
/// let b = ctx.from_u64(5);
/// assert_eq!((&a * &b).to_biguint(), BigUint::from_u64(15));
/// ```
pub struct FpCtx {
    p: BigUint,
    p_limbs: Limbs,
    width: usize,
    n0: u64,
    r2: Limbs,
    one_mont: Limbs,
    p_minus_2: BigUint,
    /// `(p − 1)/2`, the Euler-criterion exponent of [`Fp::legendre`].
    p_minus_1_half: BigUint,
    /// `(p + 1)/4`, the square-root exponent of [`Fp::sqrt`], when
    /// `p ≡ 3 (mod 4)`.
    p_plus_1_quarter: Option<BigUint>,
    modulus_bits: usize,
    /// `p²` over `2·width` limbs — the offset added to double-width
    /// accumulators before a subtraction so lazy kernels never go negative.
    p2: [u64; 2 * MAX_LIMBS],
    /// `64·width − modulus_bits`: spare bits above the modulus in a
    /// single-width buffer. An unreduced value bounded by `k·p` is
    /// representable iff `k ≤ 2^headroom`, and a double-width value
    /// bounded by `k·p²` is Montgomery-reducible iff `k ≤ 2^headroom`
    /// (both reduce to `k·p ≤ R`).
    headroom: u32,
    /// The leaked table handle this context was interned as; set by
    /// [`intern`] before the context is visible to anyone else.
    handle: OnceLock<&'static Arc<FpCtx>>,
}

/// Every field context of the process, one per modulus. Entries are
/// leaked and never removed, so an element can reference its context with
/// a plain `&'static`; the table grows only with the number of distinct
/// moduli, and a handful of curves needs no faster lookup than a scan.
static CONTEXTS: Mutex<Vec<&'static Arc<FpCtx>>> = Mutex::new(Vec::new());

/// Returns the process-wide context for the odd modulus `p` (at most
/// [`MAX_LIMBS`] limbs), building and registering it on first request.
fn intern(p: BigUint) -> &'static Arc<FpCtx> {
    // The table only ever gains fully built entries, so a lock poisoned by
    // a panicking thread still guards a valid table.
    let mut table = CONTEXTS.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&ctx) = table.iter().find(|c| c.p == p) {
        return ctx;
    }
    let ctx: &'static Arc<FpCtx> = Box::leak(Box::new(Arc::new(FpCtx::build(p))));
    ctx.handle.get_or_init(|| ctx);
    table.push(ctx);
    ctx
}

/// A single-width value under *incomplete* (lazy) reduction: the integer
/// is only guaranteed to be `< bound·p`, not `< p`.
///
/// Built by [`Fp::as_unreduced`], [`FpCtx::add_noreduce`] and
/// [`FpCtx::sub_with_kp`], and consumed by [`FpCtx::mul_wide`]: the
/// operand sums and offset differences of the tower's lazy Karatsuba
/// kernels. The `bound` field is threaded through every operation and
/// debug-asserted against the context's [`FpCtx::headroom_bits`]
/// envelope, so a chain that could overflow the inline buffers fails
/// loudly in debug builds (the differential tests drive every chain at
/// the 10-limb `MAX_LIMBS` edge).
#[derive(Clone, Copy, Debug)]
pub struct Unreduced {
    v: Limbs,
    /// The value is `< bound · p`.
    bound: u32,
}

impl Unreduced {
    /// The raw limbs (value `< bound()·p`, same width as the field).
    pub fn limbs(&self) -> &Limbs {
        &self.v
    }

    /// The tracked bound multiple: the value is `< bound·p`.
    pub fn bound(&self) -> u32 {
        self.bound
    }
}

/// A double-width Montgomery accumulator: the plain (un-reduced) product
/// of two single-width values, or a ± combination of such products.
///
/// Karatsuba cross terms accumulate here *before* any Montgomery
/// reduction, so an F_p2/F_q multiplication pays one [`FpCtx::redc`]
/// per output coefficient instead of one interleaved reduction per
/// sub-product. The value is interpreted mod `2^(128·width)`; subtraction
/// may wrap transiently as long as the final accumulated value is the true
/// non-negative integer (lazy call sites add a `k·p²` offset via
/// [`FpCtx::wide_add_kp2`] where an operand could otherwise dominate).
#[derive(Clone, Copy, Debug)]
pub struct WideAcc {
    w: [u64; 2 * MAX_LIMBS],
    /// Upper bound on the accumulated value as a multiple of `p²`.
    bound: u32,
}

impl WideAcc {
    /// The raw double-width limbs (little-endian, zero-padded).
    pub fn limbs(&self) -> &[u64] {
        &self.w
    }

    /// Upper bound on the value as a multiple of `p²`.
    pub fn bound(&self) -> u32 {
        self.bound
    }

    /// Tightens the tracked bound to a caller-proven value.
    ///
    /// Interval tracking through `±` chains is conservative (subtracting a
    /// non-negative quantity cannot raise a bound, but the tracker keeps
    /// the operand sum); call sites that know a tighter mathematical bound
    /// — e.g. a Karatsuba cross term `(a0+a1)(b0+b1) − a0b0 − a1b1 =
    /// a0b1 + a1b0 < 2p²` — annotate it here. Must only tighten.
    pub fn assume_bound(&mut self, bound: u32) {
        debug_assert!(
            bound <= self.bound,
            "assume_bound may only tighten ({bound} > {})",
            self.bound
        );
        self.bound = bound;
    }
}

/// Error constructing an [`FpCtx`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldCtxError {
    /// The modulus was zero, one, or even (Montgomery form needs odd `p >= 3`).
    InvalidModulus,
    /// The modulus failed the primality test.
    NotPrime,
    /// The modulus needs more than [`MAX_LIMBS`] limbs; wider moduli
    /// belong to [`BigUint::modpow`]'s arbitrary-width path.
    TooWide,
}

impl fmt::Display for FieldCtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldCtxError::InvalidModulus => f.write_str("modulus must be an odd integer >= 3"),
            FieldCtxError::NotPrime => f.write_str("modulus is not prime"),
            FieldCtxError::TooWide => write!(
                f,
                "modulus exceeds {MAX_LIMBS} limbs ({} bits)",
                64 * MAX_LIMBS
            ),
        }
    }
}

impl std::error::Error for FieldCtxError {}

/// Error decoding a field element from canonical bytes
/// ([`FpCtx::from_bytes_be`], [`crate::TowerCtx::fq_from_bytes_be`]).
///
/// Encodings are strict: exactly [`FpCtx::byte_len`] big-endian bytes per
/// base-field coefficient, value `< p`. Anything else is rejected — a
/// decoded element re-encodes to the identical bytes, so untrusted input
/// has exactly one accepted representation per field element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldBytesError {
    /// The byte slice has the wrong length for this field.
    Length {
        /// Bytes the codec expects ([`FpCtx::byte_len`] per coefficient).
        expected: usize,
        /// Bytes actually supplied.
        got: usize,
    },
    /// The encoded integer is `>= p` — a valid residue has exactly one
    /// canonical representative, so out-of-range limbs are rejected
    /// rather than silently reduced.
    NonCanonical,
}

impl fmt::Display for FieldBytesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldBytesError::Length { expected, got } => {
                write!(f, "field encoding must be {expected} bytes, got {got}")
            }
            FieldBytesError::NonCanonical => {
                f.write_str("field encoding is not a canonical residue (value >= p)")
            }
        }
    }
}

impl std::error::Error for FieldBytesError {}

impl FpCtx {
    /// Returns the field context for `p`, verifying the modulus is an odd
    /// probable prime.
    ///
    /// Contexts are interned: every call with the same modulus returns a
    /// handle to the same context (so their elements mix freely), built on
    /// the first call and kept for the life of the process. Memory is
    /// bounded by the number of distinct moduli, not by the number of
    /// calls.
    ///
    /// # Errors
    ///
    /// Returns [`FieldCtxError::InvalidModulus`] for even/small moduli,
    /// [`FieldCtxError::TooWide`] beyond [`MAX_LIMBS`] limbs, and
    /// [`FieldCtxError::NotPrime`] for composite ones.
    pub fn new(p: BigUint) -> Result<Arc<Self>, FieldCtxError> {
        if p.is_even() || p.is_one() || p.is_zero() {
            return Err(FieldCtxError::InvalidModulus);
        }
        if p.limbs().len() > MAX_LIMBS {
            return Err(FieldCtxError::TooWide);
        }
        if !p.is_probable_prime(40) {
            return Err(FieldCtxError::NotPrime);
        }
        Ok(Arc::clone(intern(p)))
    }

    /// Returns the context for `p` without the primality check (any odd
    /// modulus). Interned exactly like [`FpCtx::new`]: the same modulus
    /// always yields the same context, which lives for the process.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even, `< 3`, or wider than [`MAX_LIMBS`] limbs —
    /// wider moduli belong to [`BigUint::modpow`], which carries its own
    /// arbitrary-width Montgomery path.
    pub fn new_unchecked(p: BigUint) -> Arc<Self> {
        assert!(
            !p.is_even() && !p.is_one() && !p.is_zero(),
            "modulus must be odd and >= 3"
        );
        let width = p.limbs().len();
        assert!(
            width <= MAX_LIMBS,
            "modulus has {width} limbs; FpCtx supports at most {MAX_LIMBS} (640 bits)"
        );
        Arc::clone(intern(p))
    }

    /// Derives the Montgomery constants of a modulus already checked by
    /// [`FpCtx::new_unchecked`]; only [`intern`] calls this.
    fn build(p: BigUint) -> Self {
        let width = p.limbs().len();
        let p_limbs = Limbs::from_slice(&p.to_fixed_limbs(width));
        let n0 = mont_neg_inv(p_limbs.as_slice()[0]);
        // R = 2^(64*width); compute R^2 mod p and R mod p by division.
        let r2 = Limbs::from_slice(
            &BigUint::one()
                .shl(128 * width)
                .rem(&p)
                .to_fixed_limbs(width),
        );
        let one_mont =
            Limbs::from_slice(&BigUint::one().shl(64 * width).rem(&p).to_fixed_limbs(width));
        // p >= 3 was asserted above, so the subtraction cannot underflow.
        let p_minus_2 = p.checked_sub(&BigUint::from_u64(2)).unwrap_or_default();
        let p_minus_1_half = p.shr(1);
        let p_plus_1_quarter = (p.low_u64() & 3 == 3).then(|| (&p + &BigUint::one()).shr(2));
        let modulus_bits = p.bits();
        let mut p2 = [0u64; 2 * MAX_LIMBS];
        p2[..2 * width].copy_from_slice(&(&p * &p).to_fixed_limbs(2 * width));
        let headroom = (64 * width - modulus_bits) as u32;
        FpCtx {
            p,
            p_limbs,
            width,
            n0,
            r2,
            one_mont,
            p_minus_2,
            p_minus_1_half,
            p_plus_1_quarter,
            modulus_bits,
            p2,
            headroom,
            handle: OnceLock::new(),
        }
    }

    /// The interned handle of this context.
    #[inline]
    fn handle(&self) -> &'static Arc<FpCtx> {
        match self.handle.get() {
            Some(handle) => handle,
            // Unreachable: every context is created by `intern`, which
            // sets the handle first. Re-interning by modulus would still
            // yield the one context of this field.
            None => intern(self.p.clone()),
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.p
    }

    /// Bit length of the modulus (`log p` in the paper's notation).
    pub fn modulus_bits(&self) -> usize {
        self.modulus_bits
    }

    /// Number of 64-bit limbs per element.
    pub fn width(&self) -> usize {
        self.width
    }

    /// CIOS Montgomery multiplication into a caller-provided output:
    /// `out = a · b · R⁻¹ mod p`, the one fixed-width Montgomery product
    /// (squaring passes `a` twice). Scratch lives on the stack; nothing
    /// allocates. The slice-generic kernel in [`crate::limbs`] serves the
    /// arbitrary-width `modpow` path instead.
    #[inline]
    pub fn mont_mul_into(&self, out: &mut Limbs, a: &Limbs, b: &Limbs) {
        let n = self.width.min(MAX_LIMBS);
        debug_assert_eq!(a.len(), n, "operand width mismatch");
        debug_assert_eq!(b.len(), n, "operand width mismatch");
        let pv = &self.p_limbs.buf;
        let mut t = [0u64; MAX_LIMBS + 2];
        self.cios_rounds(&mut t, &a.buf, &b.buf, n);
        let overflow = t[n] != 0;
        out.buf[..n].copy_from_slice(&t[..n]);
        out.len = n;
        let os = out.as_mut_slice();
        if overflow || cmp_slices(os, &pv[..n]) != std::cmp::Ordering::Less {
            sub_assign_slices(os, &pv[..n]);
        }
    }

    /// The interleaved rounds of [`FpCtx::mont_mul_into`]: multiply by one
    /// limb of `a`, then shift out one limb by adding the multiple of p
    /// that zeroes it. On return `t[..n]` plus the overflow limb `t[n]`
    /// hold `a·b·R⁻¹ < 2p`.
    ///
    /// Out of line on purpose: as a leaf function its runtime-width loops
    /// get unrolled. Inlined into its one caller they do not, and on the
    /// 4- and 5-limb fields the multiply then ran about 5% slower and
    /// `pow` 5–20% slower (x86-64 Xeon, release build).
    #[inline(never)]
    fn cios_rounds(
        &self,
        t: &mut [u64; MAX_LIMBS + 2],
        av: &[u64; MAX_LIMBS],
        bv: &[u64; MAX_LIMBS],
        n: usize,
    ) {
        let pv = &self.p_limbs.buf;
        for &ai in av.iter().take(n) {
            let mut carry = 0u64;
            for (j, &bj) in bv.iter().enumerate().take(n) {
                let (lo, hi) = mac(t[j], ai, bj, carry);
                t[j] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(t[n], carry, 0);
            t[n] = lo;
            t[n + 1] = hi;
            let m = t[0].wrapping_mul(self.n0);
            let (_, mut carry2) = mac(t[0], m, pv[0], 0);
            for j in 1..n {
                let (lo, hi) = mac(t[j], m, pv[j], carry2);
                t[j - 1] = lo;
                carry2 = hi;
            }
            let (lo, hi) = adc(t[n], carry2, 0);
            t[n - 1] = lo;
            t[n] = t[n + 1] + hi;
            t[n + 1] = 0;
        }
    }

    /// Spare bits above the modulus in a single-width buffer
    /// (`64·width − modulus_bits`); the lazy-reduction envelope.
    pub fn headroom_bits(&self) -> u32 {
        self.headroom
    }

    /// Largest admissible bound multiple for unreduced values in this
    /// field: `2^headroom`, capped to keep the arithmetic in `u32`.
    fn max_bound(&self) -> u32 {
        1u32 << self.headroom.min(16)
    }

    /// Wraps raw little-endian limbs as an [`Unreduced`] value, *checking*
    /// `value < bound·p` (this is the test-facing constructor; hot paths
    /// build `Unreduced` values through [`Fp::as_unreduced`] and the
    /// kernels).
    ///
    /// # Panics
    ///
    /// Panics if the value is out of bounds, the slice is wider than the
    /// field, or `bound` exceeds the headroom envelope.
    pub fn unreduced_from_limbs(&self, limbs: &[u64], bound: u32) -> Unreduced {
        assert!(limbs.len() <= self.width, "slice wider than the field");
        assert!(bound <= self.max_bound(), "bound exceeds headroom envelope");
        let value = BigUint::from_limbs(limbs.to_vec());
        let limit = &BigUint::from_u64(bound as u64) * &self.p;
        assert!(value < limit, "value is not < bound·p");
        let mut v = Limbs::zero(self.width);
        v.buf[..limbs.len()].copy_from_slice(limbs);
        Unreduced { v, bound }
    }

    /// Addition without reduction: `a + b`, bound `bound(a) + bound(b)`.
    ///
    /// No comparison, no conditional subtraction — the sum is only
    /// required to stay inside the headroom envelope (debug-asserted).
    #[inline]
    pub fn add_noreduce(&self, a: &Unreduced, b: &Unreduced) -> Unreduced {
        let n = self.width;
        let bound = a.bound + b.bound;
        debug_assert!(bound <= self.max_bound(), "unreduced sum exceeds headroom");
        let mut v = a.v;
        let carry = add_assign_slices(&mut v.buf[..n], &b.v.buf[..n]);
        debug_assert_eq!(carry, 0, "unreduced sum overflowed the limb width");
        Unreduced { v, bound }
    }

    /// Subtraction kept non-negative by a `k·p` offset: `a + k·p − b`,
    /// bound `bound(a) + k`. Requires `bound(b) ≤ k` so the offset
    /// dominates the subtrahend (debug-asserted, along with the envelope).
    #[inline]
    pub fn sub_with_kp(&self, a: &Unreduced, b: &Unreduced, k: u32) -> Unreduced {
        let n = self.width;
        debug_assert!(b.bound <= k, "k·p does not dominate the subtrahend");
        let bound = a.bound + k;
        debug_assert!(
            bound <= self.max_bound(),
            "unreduced difference exceeds headroom"
        );
        let mut v = a.v;
        for _ in 0..k {
            let carry = add_assign_slices(&mut v.buf[..n], &self.p_limbs.buf[..n]);
            debug_assert_eq!(carry, 0, "k·p offset overflowed the limb width");
        }
        let borrow = sub_assign_slices(&mut v.buf[..n], &b.v.buf[..n]);
        debug_assert_eq!(borrow, 0, "subtrahend exceeded a + k·p");
        Unreduced { v, bound }
    }

    /// Plain double-width product `a·b` — *no* Montgomery reduction at
    /// all. Karatsuba call sites accumulate several of these into one
    /// [`WideAcc`] and reduce once via [`FpCtx::redc`].
    #[inline]
    pub fn mul_wide(&self, a: &Unreduced, b: &Unreduced) -> WideAcc {
        let n = self.width.min(MAX_LIMBS);
        let bound = a.bound.saturating_mul(b.bound);
        debug_assert!(bound <= self.max_bound(), "wide product exceeds headroom");
        let bv = &b.v.buf;
        let mut w = [0u64; 2 * MAX_LIMBS];
        for (i, &ai) in a.v.buf.iter().enumerate().take(n) {
            let mut carry = 0u64;
            for (j, &bj) in bv.iter().enumerate().take(n) {
                let (lo, hi) = mac(w[i + j], ai, bj, carry);
                w[i + j] = lo;
                carry = hi;
            }
            w[i + n] = carry;
        }
        WideAcc { w, bound }
    }

    /// Double-width accumulation: `acc += x`.
    #[inline]
    pub fn wide_add_assign(&self, acc: &mut WideAcc, x: &WideAcc) {
        let n2 = 2 * self.width;
        let _ = add_assign_slices(&mut acc.w[..n2], &x.w[..n2]);
        acc.bound += x.bound;
    }

    /// Double-width subtraction: `acc -= x`, wrapping mod `2^(128·width)`.
    ///
    /// A transiently wrapped (negative) accumulator is fine — limb
    /// arithmetic is associative mod `2^(128·width)` — provided the
    /// *final* accumulated value handed to [`FpCtx::redc`] is the
    /// true non-negative integer (add a [`FpCtx::wide_add_kp2`] offset
    /// where an operand could otherwise dominate). The upper bound is
    /// unchanged: subtracting a non-negative value cannot raise it.
    #[inline]
    pub fn wide_sub_assign(&self, acc: &mut WideAcc, x: &WideAcc) {
        let n2 = 2 * self.width;
        let _ = sub_assign_slices(&mut acc.w[..n2], &x.w[..n2]);
    }

    /// Adds the `k·p²` offset that keeps a following subtraction
    /// non-negative: `acc += k·p²`, bound `+k`.
    #[inline]
    pub fn wide_add_kp2(&self, acc: &mut WideAcc, k: u32) {
        let n2 = 2 * self.width;
        for _ in 0..k {
            let _ = add_assign_slices(&mut acc.w[..n2], &self.p2[..n2]);
        }
        acc.bound += k;
    }

    /// Separated Montgomery reduction of a double-width accumulator to the
    /// *canonical* residue `t·R⁻¹ mod p` (`< p`).
    ///
    /// Requires `t < p·R`, which the bound envelope guarantees
    /// (`bound ≤ 2^headroom ⇒ bound·p² ≤ p·R`); debug builds additionally
    /// verify the high half of the buffer directly, which catches a
    /// wrapped or over-accumulated value on real data regardless of the
    /// bound bookkeeping.
    #[inline]
    pub fn redc(&self, t: &WideAcc) -> Limbs {
        let n = self.width.min(MAX_LIMBS);
        let pv = &self.p_limbs.buf;
        debug_assert!(t.bound <= self.max_bound(), "REDC input exceeds headroom");
        debug_assert!(
            cmp_slices(&t.w[n..2 * n], &pv[..n]) == std::cmp::Ordering::Less,
            "REDC input is not < p·R (bound annotation violated or value wrapped)"
        );
        // n rounds, each adding the multiple of p that zeroes the lowest
        // live limb; afterwards `buf[n..2n]` plus `carry2` hold `t·R⁻¹`.
        let mut buf = t.w;
        let mut carry2 = 0u64;
        for i in 0..n {
            let m = buf[i].wrapping_mul(self.n0);
            let (_, mut carry) = mac(buf[i], m, pv[0], 0);
            for j in 1..n {
                let (lo, hi) = mac(buf[i + j], m, pv[j], carry);
                buf[i + j] = lo;
                carry = hi;
            }
            let (lo, hi) = adc(buf[i + n], carry, carry2);
            buf[i + n] = lo;
            carry2 = hi;
        }
        let mut out = Limbs::from_slice(&buf[n..2 * n]);
        let os = out.as_mut_slice();
        if carry2 != 0 || cmp_slices(os, &pv[..n]) != std::cmp::Ordering::Less {
            sub_assign_slices(os, &pv[..n]);
        }
        out
    }

    /// By-value Montgomery multiplication ([`Limbs`] is `Copy`, so this is
    /// still allocation-free).
    #[inline]
    pub(crate) fn mont_mul(&self, a: &Limbs, b: &Limbs) -> Limbs {
        let mut out = Limbs::zero(self.width);
        self.mont_mul_into(&mut out, a, b);
        out
    }

    /// Converts a canonical residue (`< p`) into Montgomery form.
    pub(crate) fn to_mont(&self, v: &BigUint) -> Limbs {
        debug_assert!(v < &self.p);
        self.mont_mul(&Limbs::from_slice(&v.to_fixed_limbs(self.width)), &self.r2)
    }

    /// Converts Montgomery-form limbs back to a canonical [`BigUint`].
    #[allow(clippy::wrong_self_convention)] // converts *out of* Montgomery form, needs the ctx
    pub(crate) fn from_mont(&self, v: &Limbs) -> BigUint {
        let mut one = Limbs::zero(self.width);
        one.as_mut_slice()[0] = 1;
        BigUint::from_limbs(self.mont_mul(v, &one).as_slice().to_vec())
    }
}

impl fmt::Debug for FpCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FpCtx")
            .field("bits", &self.modulus_bits)
            .field("p", &format_args!("0x{}", self.p.to_hex()))
            .finish()
    }
}

/// Context-bound constructors returning [`Fp`] elements.
impl FpCtx {
    /// The additive identity of this field.
    pub fn zero(&self) -> Fp {
        Fp {
            ctx: self.handle(),
            v: Limbs::zero(self.width),
        }
    }

    /// The multiplicative identity of this field.
    pub fn one(&self) -> Fp {
        Fp {
            ctx: self.handle(),
            v: self.one_mont,
        }
    }

    /// Embeds a `u64`.
    pub fn from_u64(&self, v: u64) -> Fp {
        self.from_biguint(&BigUint::from_u64(v))
    }

    /// Embeds an arbitrary integer, reducing mod `p`.
    pub fn from_biguint(&self, v: &BigUint) -> Fp {
        let reduced = if v < &self.p {
            v.clone()
        } else {
            v.rem(&self.p)
        };
        Fp {
            ctx: self.handle(),
            v: self.to_mont(&reduced),
        }
    }

    /// Embeds a signed integer, reducing into `[0, p)`.
    pub fn from_i64(&self, v: i64) -> Fp {
        let f = self.from_u64(v.unsigned_abs());
        if v < 0 {
            -&f
        } else {
            f
        }
    }

    /// Deterministically derives a field element from a seed (xorshift
    /// stream reduced mod p) — used for reproducible test vectors.
    pub fn sample(&self, seed: u64) -> Fp {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        let mut limbs = Vec::with_capacity(self.width + 1);
        for _ in 0..=self.width {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            limbs.push(state);
        }
        self.from_biguint(&BigUint::from_limbs(limbs))
    }

    /// Bytes in the canonical encoding of one field element:
    /// `⌈bits(p)/8⌉`, big-endian, zero-padded to fixed width.
    pub fn byte_len(&self) -> usize {
        self.modulus_bits.div_ceil(8)
    }

    /// Decodes a canonical big-endian field element.
    ///
    /// Strict: the slice must be exactly [`FpCtx::byte_len`] bytes and the
    /// encoded integer must be `< p`. Together with [`Fp::to_bytes_be`]
    /// this makes the encoding a bijection on field elements — untrusted
    /// bytes have exactly one accepted form per residue.
    ///
    /// # Errors
    ///
    /// [`FieldBytesError::Length`] on a wrong-sized slice,
    /// [`FieldBytesError::NonCanonical`] when the value is `>= p`.
    pub fn from_bytes_be(&self, bytes: &[u8]) -> Result<Fp, FieldBytesError> {
        let expected = self.byte_len();
        if bytes.len() != expected {
            return Err(FieldBytesError::Length {
                expected,
                got: bytes.len(),
            });
        }
        // Little-endian limbs from big-endian bytes.
        let mut limbs = vec![0u64; expected.div_ceil(8)];
        for (i, &b) in bytes.iter().rev().enumerate() {
            limbs[i / 8] |= (b as u64) << (8 * (i % 8));
        }
        let v = BigUint::from_limbs(limbs);
        if v >= self.p {
            return Err(FieldBytesError::NonCanonical);
        }
        Ok(self.from_biguint(&v))
    }
}

/// A prime-field element in Montgomery form, bound to its [`FpCtx`].
///
/// A plain value: inline limbs ([`Limbs`]) and a `&'static` reference to
/// the interned context. Cloning copies a stack buffer, dropping does
/// nothing, and no field operation allocates or touches shared state.
#[derive(Clone)]
pub struct Fp {
    ctx: &'static FpCtx,
    pub(crate) v: Limbs,
}

impl Fp {
    /// The owning field context.
    pub fn ctx(&self) -> &Arc<FpCtx> {
        self.ctx.handle()
    }

    /// Wraps canonical Montgomery-form limbs produced by the lazy kernels
    /// ([`FpCtx::redc`]) back into a field element.
    pub(crate) fn from_mont_limbs(ctx: &FpCtx, v: Limbs) -> Fp {
        debug_assert!(
            cmp_slices(v.as_slice(), ctx.p_limbs.as_slice()) == std::cmp::Ordering::Less,
            "limbs are not a canonical residue"
        );
        Fp {
            ctx: ctx.handle(),
            v,
        }
    }

    /// The zero of this element's field.
    pub(crate) fn zero_like(&self) -> Fp {
        Fp {
            ctx: self.ctx,
            v: Limbs::zero(self.ctx.width),
        }
    }

    /// Views this (canonical, `< p`) element as an [`Unreduced`] value of
    /// bound 1, entering the lazy-reduction kernels.
    #[inline]
    pub fn as_unreduced(&self) -> Unreduced {
        Unreduced {
            v: self.v,
            bound: 1,
        }
    }

    fn check_ctx(&self, other: &Fp) {
        assert!(
            std::ptr::eq(self.ctx, other.ctx),
            "mixed elements from different field contexts"
        );
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.v.is_zero()
    }

    /// True iff one.
    pub fn is_one(&self) -> bool {
        self.v == self.ctx.one_mont
    }

    /// Canonical (non-Montgomery) value in `[0, p)`.
    pub fn to_biguint(&self) -> BigUint {
        self.ctx.from_mont(&self.v)
    }

    /// Canonical big-endian encoding: exactly [`FpCtx::byte_len`] bytes,
    /// the unique fixed-width representation of the residue in `[0, p)`.
    /// Inverse of [`FpCtx::from_bytes_be`].
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let len = self.ctx.byte_len();
        let mut out = vec![0u8; len];
        let canonical = self.to_biguint();
        for (i, limb) in canonical.limbs().iter().enumerate() {
            for j in 0..8 {
                let byte_idx = 8 * i + j;
                if byte_idx < len {
                    out[len - 1 - byte_idx] = (limb >> (8 * j)) as u8;
                }
            }
        }
        out
    }

    /// In-place addition modulo p: `self += other`.
    #[inline]
    pub fn add_assign(&mut self, other: &Fp) {
        self.check_ctx(other);
        let p = &self.ctx.p_limbs;
        let out = self.v.as_mut_slice();
        let carry = add_assign_slices(out, other.v.as_slice());
        if carry != 0 || cmp_slices(out, p.as_slice()) != std::cmp::Ordering::Less {
            sub_assign_slices(out, p.as_slice());
        }
    }

    /// In-place subtraction modulo p: `self -= other`.
    #[inline]
    pub fn sub_assign(&mut self, other: &Fp) {
        self.check_ctx(other);
        let p = &self.ctx.p_limbs;
        let out = self.v.as_mut_slice();
        let borrow = sub_assign_slices(out, other.v.as_slice());
        if borrow != 0 {
            add_assign_slices(out, p.as_slice());
        }
    }

    /// In-place negation modulo p: `self = -self`.
    #[inline]
    pub fn neg_assign(&mut self) {
        if self.is_zero() {
            return;
        }
        let mut out = self.ctx.p_limbs;
        sub_assign_slices(out.as_mut_slice(), self.v.as_slice());
        self.v = out;
    }

    /// In-place multiplication modulo p: `self *= other`.
    #[inline]
    pub fn mul_assign(&mut self, other: &Fp) {
        self.check_ctx(other);
        let v = self.v;
        self.ctx.mont_mul_into(&mut self.v, &v, &other.v);
    }

    /// In-place squaring modulo p: `self *= self`.
    #[inline]
    pub fn square_assign(&mut self) {
        let v = self.v;
        self.ctx.mont_mul_into(&mut self.v, &v, &v);
    }

    /// Addition modulo p.
    #[inline]
    pub fn add(&self, other: &Fp) -> Fp {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Subtraction modulo p.
    #[inline]
    pub fn sub(&self, other: &Fp) -> Fp {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Negation modulo p.
    #[inline]
    pub fn neg(&self) -> Fp {
        let mut out = self.clone();
        out.neg_assign();
        out
    }

    /// Multiplication modulo p.
    #[inline]
    pub fn mul(&self, other: &Fp) -> Fp {
        self.check_ctx(other);
        Fp {
            ctx: self.ctx,
            v: self.ctx.mont_mul(&self.v, &other.v),
        }
    }

    /// Squaring modulo p: the CIOS multiply with both operands equal.
    #[inline]
    pub fn square(&self) -> Fp {
        self.mul(self)
    }

    /// Doubling (`2x`), the hardware `DBL` operation.
    pub fn double(&self) -> Fp {
        self.add(self)
    }

    /// Tripling (`3x`), the hardware `TPL` operation.
    pub fn triple(&self) -> Fp {
        self.double().add(self)
    }

    /// Multiplication by a small non-negative integer via an addition chain.
    pub fn mul_small(&self, k: u64) -> Fp {
        let mut acc = self.ctx.zero();
        let mut base = self.clone();
        let mut k = k;
        while k > 0 {
            if k & 1 == 1 {
                acc.add_assign(&base);
            }
            let b = base.clone();
            base.add_assign(&b);
            k >>= 1;
        }
        acc
    }

    /// Halving: multiplies by the inverse of 2 (exact since p is odd).
    ///
    /// Works directly on the Montgomery limbs: `(v + p)/2` when `v` is
    /// odd, `v/2` otherwise — division by two commutes with the
    /// Montgomery scaling.
    pub fn halve(&self) -> Fp {
        let mut out = self.clone();
        let v = out.v.as_mut_slice();
        let mut top = 0u64;
        if v[0] & 1 == 1 {
            top = add_assign_slices(v, self.ctx.p_limbs.as_slice());
        }
        for limb in v.iter_mut().rev() {
            let next_top = *limb & 1;
            *limb = (*limb >> 1) | (top << 63);
            top = next_top;
        }
        out
    }

    /// Exponentiation by an arbitrary [`BigUint`] exponent: one
    /// left-to-right square-and-multiply ladder.
    pub fn pow(&self, e: &BigUint) -> Fp {
        let mut acc = self.ctx.one();
        for i in (0..e.bits()).rev() {
            acc.square_assign();
            if e.bit(i) {
                acc.mul_assign(self);
            }
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`x^(p-2)`).
    ///
    /// # Panics
    ///
    /// Panics on zero — inversion of zero is a programming error in every
    /// pairing code path (the single `INV` in the final exponentiation is of
    /// a provably non-zero Miller value).
    pub fn invert(&self) -> Fp {
        assert!(!self.is_zero(), "inversion of zero");
        self.pow(&self.ctx.p_minus_2)
    }

    /// Square root, `None` for quadratic non-residues.
    ///
    /// When `p ≡ 3 (mod 4)` (every Table-2 prime) this is one
    /// exponentiation: `r = a^((p+1)/4)` is returned iff `r² = a`.
    /// Other primes fall back to Tonelli–Shanks.
    pub fn sqrt(&self) -> Option<Fp> {
        if let Some(e) = &self.ctx.p_plus_1_quarter {
            let r = self.pow(e);
            return (r.square() == *self).then_some(r);
        }
        if self.is_zero() {
            return Some(self.clone());
        }
        if self.legendre() != 1 {
            return None;
        }
        // General Tonelli–Shanks. p >= 3 by context construction, so the
        // subtraction cannot underflow.
        let p_minus_1 = self
            .ctx
            .modulus()
            .checked_sub(&BigUint::one())
            .unwrap_or_default();
        let s = p_minus_1.trailing_zeros();
        let q = p_minus_1.shr(s);
        // Deterministic non-residue search.
        let mut z = self.ctx.from_u64(2);
        let mut k = 2u64;
        while z.legendre() != -1 {
            k += 1;
            z = self.ctx.from_u64(k);
        }
        let mut m = s;
        let mut c = z.pow(&q);
        let mut t = self.pow(&q);
        let mut r = self.pow(&(&q + &BigUint::one()).shr(1));
        while !t.is_one() {
            let mut i = 0usize;
            let mut t2 = t.clone();
            while !t2.is_one() {
                t2.square_assign();
                i += 1;
            }
            let mut b = c;
            for _ in 0..m - i - 1 {
                b.square_assign();
            }
            m = i;
            c = b.square();
            t.mul_assign(&c);
            r.mul_assign(&b);
        }
        debug_assert_eq!(r.square(), *self);
        Some(r)
    }

    /// Legendre symbol: `1` for quadratic residue, `-1` for non-residue,
    /// `0` for zero.
    pub fn legendre(&self) -> i8 {
        if self.is_zero() {
            return 0;
        }
        let r = self.pow(&self.ctx.p_minus_1_half);
        if r.is_one() {
            1
        } else {
            -1
        }
    }
}

impl PartialEq for Fp {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.ctx, other.ctx) && self.v == other.v
    }
}

impl Eq for Fp {}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp(0x{})", self.to_biguint().to_hex())
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_biguint().to_hex())
    }
}

impl std::ops::Add for &Fp {
    type Output = Fp;
    fn add(self, rhs: &Fp) -> Fp {
        Fp::add(self, rhs)
    }
}

impl std::ops::Sub for &Fp {
    type Output = Fp;
    fn sub(self, rhs: &Fp) -> Fp {
        Fp::sub(self, rhs)
    }
}

impl std::ops::Mul for &Fp {
    type Output = Fp;
    fn mul(self, rhs: &Fp) -> Fp {
        Fp::mul(self, rhs)
    }
}

impl std::ops::Neg for &Fp {
    type Output = Fp;
    fn neg(self) -> Fp {
        Fp::neg(self)
    }
}

impl std::ops::AddAssign<&Fp> for Fp {
    fn add_assign(&mut self, rhs: &Fp) {
        Fp::add_assign(self, rhs);
    }
}

impl std::ops::SubAssign<&Fp> for Fp {
    fn sub_assign(&mut self, rhs: &Fp) {
        Fp::sub_assign(self, rhs);
    }
}

impl std::ops::MulAssign<&Fp> for Fp {
    fn mul_assign(&mut self, rhs: &Fp) {
        Fp::mul_assign(self, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Arc<FpCtx> {
        // BLS12-381 prime: a realistic 381-bit modulus.
        let p = BigUint::from_hex(
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
        )
        .unwrap();
        FpCtx::new(p).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            FpCtx::new(BigUint::from_u64(8)).unwrap_err(),
            FieldCtxError::InvalidModulus
        );
        assert_eq!(
            FpCtx::new(BigUint::from_u64(9)).unwrap_err(),
            FieldCtxError::NotPrime
        );
        assert!(FpCtx::new(BigUint::from_u64(1_000_000_007)).is_ok());
    }

    #[test]
    #[should_panic(expected = "limbs")]
    fn construction_rejects_wide_moduli() {
        // 11 limbs > MAX_LIMBS: hot-path contexts refuse; BigUint::modpow
        // handles such moduli instead.
        let p = BigUint::one().shl(64 * 10 + 5);
        let p = &p + &BigUint::from_u64(3);
        let _ = FpCtx::new_unchecked(p);
    }

    #[test]
    fn checked_construction_errors_on_wide_moduli() {
        // The Result-returning constructor must report TooWide instead of
        // panicking (and before paying for a Miller–Rabin run).
        let p = BigUint::one().shl(64 * 10 + 5);
        let p = &p + &BigUint::from_u64(3);
        assert_eq!(FpCtx::new(p).unwrap_err(), FieldCtxError::TooWide);
    }

    #[test]
    fn mont_roundtrip() {
        let c = ctx();
        for seed in 0..20u64 {
            let x = c.sample(seed);
            let back = c.from_biguint(&x.to_biguint());
            assert_eq!(x, back);
        }
    }

    #[test]
    fn field_axioms_sampled() {
        let c = ctx();
        for seed in 0..10u64 {
            let a = c.sample(seed);
            let b = c.sample(seed + 100);
            let d = c.sample(seed + 200);
            assert_eq!(&a + &b, &b + &a);
            assert_eq!(&a * &b, &b * &a);
            assert_eq!(&(&a + &b) + &d, &a + &(&b + &d));
            assert_eq!(&(&a * &b) * &d, &a * &(&b * &d));
            assert_eq!(&a * &(&b + &d), &(&a * &b) + &(&a * &d));
            assert_eq!(&a - &a, c.zero());
            assert_eq!(&a + &-&a, c.zero());
            assert_eq!(&a * &c.one(), a);
        }
    }

    #[test]
    fn square_matches_mul() {
        let c = ctx();
        for seed in 0..32u64 {
            let a = c.sample(seed);
            assert_eq!(a.square(), &a * &a, "seed {seed}");
        }
        // Edge values: 0, 1 and p − 1, the largest operand.
        assert_eq!(c.zero().square(), c.zero());
        assert_eq!(c.one().square(), c.one());
        let pm1 = c.from_biguint(&c.modulus().checked_sub(&BigUint::one()).unwrap());
        assert_eq!(pm1.square(), c.one());
    }

    #[test]
    fn assign_ops_match_value_ops() {
        let c = ctx();
        for seed in 0..8u64 {
            let a = c.sample(seed);
            let b = c.sample(seed + 77);
            let mut x = a.clone();
            x.add_assign(&b);
            assert_eq!(x, &a + &b);
            let mut x = a.clone();
            x.sub_assign(&b);
            assert_eq!(x, &a - &b);
            let mut x = a.clone();
            x.mul_assign(&b);
            assert_eq!(x, &a * &b);
            let mut x = a.clone();
            x.neg_assign();
            assert_eq!(x, -&a);
            let mut x = a.clone();
            x.square_assign();
            assert_eq!(x, a.square());
        }
    }

    #[test]
    fn inversion_and_fermat() {
        let c = ctx();
        for seed in 1..8u64 {
            let a = c.sample(seed);
            assert_eq!(&a * &a.invert(), c.one());
        }
    }

    #[test]
    #[should_panic(expected = "inversion of zero")]
    fn invert_zero_panics() {
        let c = ctx();
        let _ = c.zero().invert();
    }

    #[test]
    fn small_ops() {
        let c = ctx();
        let a = c.sample(7);
        assert_eq!(a.double(), &a + &a);
        assert_eq!(a.triple(), &(&a + &a) + &a);
        assert_eq!(a.mul_small(5), &a.double().double() + &a);
        assert_eq!(a.halve().double(), a);
        assert_eq!(c.from_i64(-1), -&c.one());
    }

    #[test]
    fn halve_limb_path_matches_reference() {
        let c = ctx();
        let inv2 = c.from_u64(2).invert();
        for seed in 0..16u64 {
            let a = c.sample(seed);
            assert_eq!(a.halve(), &a * &inv2, "seed {seed}");
        }
        assert_eq!(c.zero().halve(), c.zero());
        assert_eq!(c.one().halve().double(), c.one());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let c = ctx();
        let a = c.sample(3);
        let mut expect = c.one();
        for _ in 0..13 {
            expect = &expect * &a;
        }
        assert_eq!(a.pow(&BigUint::from_u64(13)), expect);
    }

    #[test]
    fn sqrt_roundtrip_both_paths() {
        // p = 3 mod 4 path
        let c = ctx();
        for seed in 1..6u64 {
            let a = c.sample(seed);
            let sq = a.square();
            let r = sq.sqrt().expect("square has root");
            assert!(r == a || r == -&a);
        }
        let nr = (2..50)
            .map(|k| c.from_u64(k))
            .find(|x| x.legendre() == -1)
            .unwrap();
        assert!(nr.sqrt().is_none());
        // p = 1 mod 4 path (Tonelli–Shanks): 1000000007 ≡ 3 mod 4,
        // use 998244353 = 119 * 2^23 + 1 ≡ 1 mod 4.
        let c = FpCtx::new(BigUint::from_u64(998_244_353)).unwrap();
        for seed in 1..6u64 {
            let a = c.sample(seed);
            let sq = a.square();
            let r = sq.sqrt().expect("square has root");
            assert!(r == a || r == -&a);
        }
        // Non-residue returns None: find one by scanning.
        let mut found = false;
        for k in 2..50 {
            let x = c.from_u64(k);
            if x.legendre() == -1 {
                assert!(x.sqrt().is_none());
                found = true;
                break;
            }
        }
        assert!(found);
    }

    #[test]
    fn legendre_of_square_is_one() {
        let c = ctx();
        let a = c.sample(11);
        assert_eq!(a.square().legendre(), 1);
        assert_eq!(c.zero().legendre(), 0);
    }

    /// Montgomery radix R = 2^(64·width) mod p as a BigUint.
    fn r_mod_p(c: &Arc<FpCtx>) -> BigUint {
        BigUint::one().shl(64 * c.width()).rem(c.modulus())
    }

    #[test]
    fn mul_wide_redc_matches_mont_mul() {
        let c = ctx();
        for seed in 0..16u64 {
            let a = c.sample(seed);
            let b = c.sample(seed + 31);
            let w = c.mul_wide(&a.as_unreduced(), &b.as_unreduced());
            // Plain product of the Montgomery reps, then REDC, is exactly
            // the interleaved CIOS product.
            assert_eq!(c.redc(&w), (&a * &b).v, "seed {seed}");
        }
    }

    #[test]
    fn add_noreduce_and_sub_with_kp_track_values() {
        let c = ctx();
        let p = c.modulus().clone();
        for seed in 0..12u64 {
            let a = c.sample(seed);
            let b = c.sample(seed + 3);
            let (ai, bi) = (
                BigUint::from_limbs(a.v.as_slice().to_vec()),
                BigUint::from_limbs(b.v.as_slice().to_vec()),
            );
            let s = c.add_noreduce(&a.as_unreduced(), &b.as_unreduced());
            assert_eq!(
                BigUint::from_limbs(s.limbs().as_slice().to_vec()),
                &ai + &bi
            );
            assert_eq!(s.bound(), 2);
            let d = c.sub_with_kp(&a.as_unreduced(), &b.as_unreduced(), 1);
            assert_eq!(
                BigUint::from_limbs(d.limbs().as_slice().to_vec()),
                &(&ai + &p) - &bi
            );
            assert_eq!(d.bound(), 2);
        }
    }

    #[test]
    fn redc_is_mont_reduction_of_plain_product() {
        // redc(mul_wide(a, b)) must equal a·b·R⁻¹ mod p for *unreduced*
        // 2p-bounded operands too.
        let c = ctx();
        let p = c.modulus().clone();
        let rinv = r_mod_p(&c).modpow(&p.checked_sub(&BigUint::from_u64(2)).unwrap(), &p);
        for seed in 0..8u64 {
            let a = c.sample(seed);
            let b = c.sample(seed + 5);
            let ua = c.add_noreduce(&a.as_unreduced(), &a.as_unreduced()); // 2a < 2p
            let ub = c.add_noreduce(&b.as_unreduced(), &b.as_unreduced());
            let w = c.mul_wide(&ua, &ub);
            let (ai, bi) = (
                BigUint::from_limbs(ua.limbs().as_slice().to_vec()),
                BigUint::from_limbs(ub.limbs().as_slice().to_vec()),
            );
            let expect = (&(&ai * &bi).rem(&p) * &rinv).rem(&p);
            assert_eq!(
                BigUint::from_limbs(c.redc(&w).as_slice().to_vec()),
                expect,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn wide_accumulation_with_p2_offset() {
        // (a·b + p² − c·d) REDC ≡ (ab − cd)·R⁻¹ mod p.
        let c = ctx();
        let p = c.modulus().clone();
        let rinv = r_mod_p(&c).modpow(&p.checked_sub(&BigUint::from_u64(2)).unwrap(), &p);
        for seed in 0..8u64 {
            let (a, b) = (c.sample(seed), c.sample(seed + 11));
            let (x, y) = (c.sample(seed + 22), c.sample(seed + 33));
            let mut acc = c.mul_wide(&a.as_unreduced(), &b.as_unreduced());
            c.wide_add_kp2(&mut acc, 1);
            let w2 = c.mul_wide(&x.as_unreduced(), &y.as_unreduced());
            c.wide_sub_assign(&mut acc, &w2);
            let big = |f: &Fp| BigUint::from_limbs(f.v.as_slice().to_vec());
            let prod = |u: &Fp, v: &Fp| (&big(u) * &big(v)).rem(&p);
            let diff = (&(&prod(&a, &b) + &p) - &prod(&x, &y)).rem(&p);
            let expect = (&diff * &rinv).rem(&p);
            assert_eq!(
                BigUint::from_limbs(c.redc(&acc).as_slice().to_vec()),
                expect,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn unreduced_from_limbs_validates() {
        let c = ctx();
        let pm1 = c.modulus().checked_sub(&BigUint::one()).unwrap();
        let u = c.unreduced_from_limbs(&pm1.to_fixed_limbs(c.width()), 1);
        assert_eq!(u.bound(), 1);
    }

    #[test]
    #[should_panic(expected = "not < bound·p")]
    fn unreduced_from_limbs_rejects_oversized() {
        let c = ctx();
        let u = c.modulus().to_fixed_limbs(c.width());
        let _ = c.unreduced_from_limbs(&u, 1); // p is not < 1·p
    }

    #[test]
    #[should_panic(expected = "different field contexts")]
    fn mixing_contexts_panics() {
        let c1 = FpCtx::new(BigUint::from_u64(1_000_000_007)).unwrap();
        let c2 = FpCtx::new(BigUint::from_u64(998_244_353)).unwrap();
        let _ = &c1.one() + &c2.one();
    }
}
