//! Extension-field towers for pairing computation.
//!
//! Every optimal-Ate-friendly curve family in the paper (BN, BLS12, BLS24)
//! has embedding degree `k` divisible by 6 and admits a sextic twist, so the
//! tower is organised uniformly as
//!
//! ```text
//! F_p  --(u² = β)-->  F_p2  [--(v² = ξ₂)--> F_p4]   = F_q (the twist field, q = p^(k/6))
//! F_q  --(w⁶ = ξ)-->  F_p^k                          (the pairing target field)
//! ```
//!
//! Internally F_p^k is manipulated as a quadratic extension over a cubic
//! extension (`s = w²`, `s³ = ξ`), which is exactly the paper's
//! F_p12 = (F_p6)² = ((F_p2)³)² lattice view and gives the standard
//! Karatsuba/Granger–Scott formula structure. Coefficients are stored in
//! `w`-power order, the natural basis for sparse Miller-line elements.
//!
//! All Frobenius maps are realised through constants `β^((p^j−1)/2)`,
//! `ξ₂^((p^j−1)/2)`, `ξ^((p^j−1)/6)` computed once at context construction
//! (this mirrors the small constant table the paper's lowering emits), and
//! are validated against a direct `x^p` exponentiation in the test suite.
//!
//! # Lazy (incomplete) reduction in the hot path
//!
//! When the non-residues take their standard small forms (`β = −1`, and
//! for k = 24 `ξ₂ = 1 + u`) and the prime leaves enough spare bits in its
//! limb buffer, the multiplicative kernels switch to *lazy reduction*:
//! Karatsuba sub-products are computed as plain double-width integers
//! ([`crate::WideAcc`]), cross terms are added and subtracted **unreduced**
//! at double width, and each output coefficient pays exactly one separated
//! Montgomery reduction (`FpCtx::redc`) — instead of one interleaved
//! reduction per sub-product plus carry-managed recombination.
//!
//! The invariants, enforced by `bound` tracking on every unreduced value
//! (debug-asserted; exercised at the 10-limb `MAX_LIMBS` edge by the
//! differential tests):
//!
//! * **Stored coefficients are always canonical** (`< p`). Unreduced
//!   values never escape a single `fp2_mul`/`fp2_sqr`/`fq_mul`/`fq_sqr`
//!   call, so equality stays bit-exact and every other consumer of
//!   [`Fp`]/[`Fq`] is unaffected.
//! * **Single-width unreduced values** (operand sums `a0 + a1`, offset
//!   differences `a0 + p − a1`) are bounded by `2p` and only ever feed
//!   double-width multiplications. This needs 2 spare bits
//!   ([`FpCtx::headroom_bits`] ≥ 2): satisfied by every Table-2 curve,
//!   including the 638-bit primes in 640-bit buffers.
//! * **Double-width accumulators** stay below `2^h · p²` (`h` = headroom
//!   bits), which is exactly the `T < p·R` pre-condition of Montgomery
//!   reduction. The k = 12 chains peak at `4p²` (`h ≥ 2`); the k = 24
//!   chains peak at `8p²` and therefore require `h ≥ 3` (BLS24-509:
//!   509 bits in 512 — exactly 3).
//! * **Subtractions are kept non-negative** by `k·p²` offsets
//!   (`β = −1` turns `v0 + β·v1` into `v0 + p² − v1`), which vanish under
//!   reduction; where a chain can dip negative transiently the buffer is
//!   allowed to wrap mod `2^(128n)` — only the final accumulated value
//!   handed to the reducer must be the true non-negative integer, and
//!   debug builds verify `T < p·R` directly against the buffer.
//!
//! Towers whose parameters fall outside these forms (exotic β/ξ₂, or a
//! modulus filling its top limb) keep the fully-reduced generic kernels —
//! the dispatch is decided once at construction.

use crate::fp::{FieldBytesError, Unreduced, WideAcc};
use crate::{BigUint, Fp, FpCtx};
use std::fmt;
use std::sync::Arc;

/// Maximum Frobenius power `j` for which constants are precomputed.
///
/// Final exponentiation needs up to `p^4` (BLS24 hard part) and `p^3`
/// (BN hard part); 6 leaves comfortable margin for the easy parts.
const MAX_FROB: usize = 6;

/// An element of the twist field F_q (q = p² or p⁴), stored as `k/6`
/// base-field coefficients:
///
/// * `qdeg == 2`: coefficients `[a0, a1]` meaning `a0 + a1·u`;
/// * `qdeg == 4`: coefficients `[a00, a01, a10, a11]` meaning
///   `(a00 + a01·u) + (a10 + a11·u)·v`.
///
/// Storage is a fixed inline array sized for the widest tower (qdeg 4);
/// qdeg-2 elements pad the tail with zeros, so cloning an `Fq` never
/// allocates (each [`Fp`] coefficient is itself inline-limb).
#[derive(Clone)]
pub struct Fq {
    c: [Fp; 4],
    len: usize,
}

impl Fq {
    /// Coefficients over F_p in tower order (exactly `k/6` entries).
    pub fn coeffs(&self) -> &[Fp] {
        &self.c[..self.len]
    }

    /// Constructs from base-field coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`TowerError::CoeffCount`] if the coefficient count is not
    /// a tower's `k/6` (2 or 4).
    pub fn from_coeffs(c: Vec<Fp>) -> Result<Self, TowerError> {
        match <[Fp; 4]>::try_from(c) {
            Ok(four) => Ok(Self::new4(four)),
            Err(c) => match <[Fp; 2]>::try_from(c) {
                Ok([c0, c1]) => Ok(Self::new2(c0, c1)),
                Err(c) => Err(TowerError::CoeffCount {
                    expected: "2 or 4",
                    got: c.len(),
                }),
            },
        }
    }

    /// qdeg-2 element (zero-padded tail).
    fn new2(c0: Fp, c1: Fp) -> Self {
        let z = c0.zero_like();
        Fq {
            c: [c0, c1, z.clone(), z],
            len: 2,
        }
    }

    /// qdeg-4 element.
    fn new4(c: [Fp; 4]) -> Self {
        Fq { c, len: 4 }
    }
}

impl PartialEq for Fq {
    fn eq(&self, other: &Self) -> bool {
        self.coeffs() == other.coeffs()
    }
}

impl Eq for Fq {}

impl fmt::Debug for Fq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fq{:?}", self.coeffs())
    }
}

/// An element of the pairing target field F_p^k, as six F_q coefficients in
/// `w`-power order: `self = Σ c[m]·w^m`, `w⁶ = ξ`.
///
/// Stored as a fixed inline array — an `Fpk` value owns no heap memory.
#[derive(Clone, PartialEq, Eq)]
pub struct Fpk {
    c: [Fq; 6],
}

impl Fpk {
    /// The six `w`-power coefficients.
    pub fn coeffs(&self) -> &[Fq] {
        &self.c
    }

    /// Constructs from six `w`-power coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`TowerError::CoeffCount`] unless exactly six coefficients
    /// are given.
    pub fn from_coeffs(c: Vec<Fq>) -> Result<Self, TowerError> {
        let c: [Fq; 6] = c.try_into().map_err(|v: Vec<Fq>| TowerError::CoeffCount {
            expected: "6",
            got: v.len(),
        })?;
        Ok(Fpk { c })
    }
}

impl fmt::Debug for Fpk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fpk{:?}", &self.c[..])
    }
}

/// Error constructing a [`TowerCtx`] or a tower element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TowerError {
    /// The embedding degree must be 12 or 24 (sextic-twist towers).
    UnsupportedDegree,
    /// `p mod 6 != 1`, so the sextic Frobenius constants do not exist.
    BadResidueClass,
    /// `β` is a square in F_p, so `u² = β` does not define F_p2.
    QuadraticResidueBeta,
    /// `ξ₂` is a square in F_p2, so `v² = ξ₂` does not define F_p4.
    QuadraticResidueXi2,
    /// `ξ` is a square or cube in F_q, so `w⁶ = ξ` is reducible.
    ReducibleSextic,
    /// An element constructor received the wrong number of coefficients
    /// ([`Fq::from_coeffs`] wants `k/6`, [`Fpk::from_coeffs`] wants 6).
    CoeffCount {
        /// Human-readable admissible counts.
        expected: &'static str,
        /// Count actually supplied.
        got: usize,
    },
}

impl fmt::Display for TowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            TowerError::UnsupportedDegree => "embedding degree must be 12 or 24",
            TowerError::BadResidueClass => "prime must satisfy p = 1 (mod 6)",
            TowerError::QuadraticResidueBeta => "beta is a quadratic residue in Fp",
            TowerError::QuadraticResidueXi2 => "xi2 is a quadratic residue in Fp2",
            TowerError::ReducibleSextic => "xi is a square or cube in Fq; w^6 - xi is reducible",
            TowerError::CoeffCount { expected, got } => {
                return write!(f, "wrong coefficient count: expected {expected}, got {got}")
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for TowerError {}

/// Context for a full pairing tower F_p → F_q → F_p^k.
///
/// Construct with [`TowerCtx::sextic_over_fp2`] (k = 12) or
/// [`TowerCtx::sextic_over_fp4`] (k = 24). All element operations are
/// methods on the context (mirroring how the compiler's IR evaluator
/// threads a context), so [`Fq`]/[`Fpk`] stay plain data.
pub struct TowerCtx {
    fp: Arc<FpCtx>,
    k: usize,
    qdeg: usize,
    beta: Fp,
    xi2: Option<(Fp, Fp)>,
    xi: Fq,
    /// `β^((p^j−1)/2)` for j in 0..=MAX_FROB.
    u_frob: Vec<Fp>,
    /// `ξ₂^((p^j−1)/2)` for j in 0..=MAX_FROB (qdeg 4 only).
    v_frob: Vec<(Fp, Fp)>,
    /// `ξ^((p^j−1)/6)` for j in 0..=MAX_FROB.
    w_frob: Vec<Fq>,
    /// q = p^(k/6).
    q: BigUint,
    /// Lazy reduction enabled for the F_p2 layer (`β = −1`, headroom ≥ 2).
    lazy2: bool,
    /// Lazy reduction enabled for the F_p4 layer (`β = −1`, `ξ₂ = 1 + u`,
    /// headroom ≥ 3; the k = 24 chains peak at 8p²).
    lazy4: bool,
    /// Structure of the sextic non-residue, for the mul-free `ξ` scaling.
    xi_kind: XiKind,
}

/// An unreduced F_p2 value `c0 + c1·u` held as double-width accumulators
/// (the working representation inside the lazy tower kernels).
#[derive(Clone, Copy)]
struct WidePair {
    c0: WideAcc,
    c1: WideAcc,
}

/// How the sextic non-residue ξ is shaped — decides whether multiplying
/// by ξ (twice per cubic-layer Karatsuba) needs real multiplications.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum XiKind {
    /// Arbitrary ξ: scale via a full `fq_mul`.
    Generic,
    /// k = 12, `ξ = 1 + u`, `β = −1`:
    /// `(a0 + a1·u)·ξ = (a0 − a1) + (a0 + a1)·u` — additions only.
    OnePlusU,
    /// k = 24, `ξ = v`, `ξ₂ = 1 + u`, `β = −1`:
    /// `(a0 + a1·v)·ξ = ξ₂·a1 + a0·v` — additions only.
    V,
}

impl fmt::Debug for TowerCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TowerCtx")
            .field("k", &self.k)
            .field("qdeg", &self.qdeg)
            .field("p_bits", &self.fp.modulus_bits())
            .finish()
    }
}

impl TowerCtx {
    /// Builds the k = 12 tower: `F_p2 = F_p[u]/(u²−β)`,
    /// `F_p12 = F_p2[w]/(w⁶−ξ)` with `ξ = xi_c0 + xi_c1·u`.
    ///
    /// # Errors
    ///
    /// Returns a [`TowerError`] when the non-residue conditions fail or
    /// `p mod 6 != 1`.
    pub fn sextic_over_fp2(
        fp: &Arc<FpCtx>,
        beta: Fp,
        xi: (Fp, Fp),
    ) -> Result<Arc<Self>, TowerError> {
        Self::build(fp, 12, beta, None, vec![xi.0, xi.1])
    }

    /// Builds the k = 24 tower: `F_p2 = F_p[u]/(u²−β)`,
    /// `F_p4 = F_p2[v]/(v²−ξ₂)`, `F_p24 = F_p4[w]/(w⁶−ξ)`.
    ///
    /// `xi` is given as four F_p coefficients in the (1, u, v, uv) basis;
    /// the common choice is `ξ = v`, i.e. `[0, 0, 1, 0]`.
    ///
    /// # Errors
    ///
    /// Returns a [`TowerError`] when the non-residue conditions fail or
    /// `p mod 6 != 1`.
    pub fn sextic_over_fp4(
        fp: &Arc<FpCtx>,
        beta: Fp,
        xi2: (Fp, Fp),
        xi: [Fp; 4],
    ) -> Result<Arc<Self>, TowerError> {
        Self::build(fp, 24, beta, Some(xi2), xi.to_vec())
    }

    fn build(
        fp: &Arc<FpCtx>,
        k: usize,
        beta: Fp,
        xi2: Option<(Fp, Fp)>,
        xi: Vec<Fp>,
    ) -> Result<Arc<Self>, TowerError> {
        if k != 12 && k != 24 {
            return Err(TowerError::UnsupportedDegree);
        }
        if fp.modulus().divrem_u64(6).1 != 1 {
            return Err(TowerError::BadResidueClass);
        }
        if beta.legendre() != -1 {
            return Err(TowerError::QuadraticResidueBeta);
        }
        let qdeg = k / 6;
        let p = fp.modulus().clone();
        let q = p.pow(qdeg as u32);

        let mut ctx = TowerCtx {
            fp: Arc::clone(fp),
            k,
            qdeg,
            beta,
            xi2,
            xi: Fq::from_coeffs(xi)?,
            u_frob: Vec::new(),
            v_frob: Vec::new(),
            w_frob: Vec::new(),
            q,
            lazy2: false,
            lazy4: false,
            xi_kind: XiKind::Generic,
        };

        // Lazy-reduction dispatch (see the module docs for the bound
        // analysis): decided once, before any tower arithmetic runs, so
        // even the construction-time non-residue checks benefit.
        let h = fp.headroom_bits();
        let beta_m1 = ctx.beta == -&fp.one();
        let xi2_one_plus_u = ctx
            .xi2
            .as_ref()
            .is_some_and(|(c0, c1)| c0.is_one() && c1.is_one());
        ctx.lazy2 = beta_m1 && h >= 2;
        ctx.lazy4 = qdeg == 4 && beta_m1 && xi2_one_plus_u && h >= 3;
        ctx.xi_kind = {
            let c = ctx.xi.coeffs();
            if qdeg == 2 && beta_m1 && c[0].is_one() && c[1].is_one() {
                XiKind::OnePlusU
            } else if qdeg == 4
                && beta_m1
                && xi2_one_plus_u
                && c[0].is_zero()
                && c[1].is_zero()
                && c[2].is_one()
                && c[3].is_zero()
            {
                XiKind::V
            } else {
                XiKind::Generic
            }
        };

        // Non-residue checks that need field ops (done on the raw ctx
        // before Frobenius constants exist; none of these use frobenius).
        if qdeg == 4 {
            let xi2v = ctx.xi2_pair();
            // q(2) = p^2 >= 9, so the subtraction cannot underflow.
            let e = ctx
                .q_of_degree(2)
                .checked_sub(&BigUint::one())
                .unwrap_or_default()
                .shr(1);
            let r = ctx.fp2_pow(&xi2v, &e);
            if r == (ctx.fp.one(), ctx.fp.zero()) {
                return Err(TowerError::QuadraticResidueXi2);
            }
        }
        // q = p^(k/6) >= 3, so the subtraction cannot underflow.
        let qm1 = ctx.q.checked_sub(&BigUint::one()).unwrap_or_default();
        let sq = ctx.fq_pow(&ctx.xi, &qm1.shr(1));
        if ctx.fq_is_one(&sq) {
            return Err(TowerError::ReducibleSextic);
        }
        let (third, rem) = qm1.divrem(&BigUint::from_u64(3));
        debug_assert!(rem.is_zero(), "3 | q - 1 since p = 1 mod 6");
        let cb = ctx.fq_pow(&ctx.xi, &third);
        if ctx.fq_is_one(&cb) {
            return Err(TowerError::ReducibleSextic);
        }

        // Frobenius constants for j = 0..=MAX_FROB.
        let mut u_frob = Vec::with_capacity(MAX_FROB + 1);
        let mut v_frob = Vec::with_capacity(MAX_FROB + 1);
        let mut w_frob = Vec::with_capacity(MAX_FROB + 1);
        for j in 0..=MAX_FROB {
            // p^j >= 1 for every j, so the subtraction cannot underflow.
            let pj_m1 = p
                .pow(j as u32)
                .checked_sub(&BigUint::one())
                .unwrap_or_default();
            u_frob.push(ctx.beta.pow(&pj_m1.shr(1)));
            if let Some(xi2v) = &ctx.xi2 {
                v_frob.push(ctx.fp2_pow(xi2v, &pj_m1.shr(1)));
            } else {
                v_frob.push((ctx.fp.one(), ctx.fp.zero()));
            }
            let sixth = pj_m1.divrem(&BigUint::from_u64(6)).0;
            w_frob.push(ctx.fq_pow(&ctx.xi, &sixth));
        }
        ctx.u_frob = u_frob;
        ctx.v_frob = v_frob;
        ctx.w_frob = w_frob;
        Ok(Arc::new(ctx))
    }

    /// The base prime-field context.
    pub fn fp(&self) -> &Arc<FpCtx> {
        &self.fp
    }

    /// The embedding degree `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The twist-field degree `k/6` (2 or 4).
    pub fn qdeg(&self) -> usize {
        self.qdeg
    }

    /// Which lazy-reduction tiers this tower dispatches to
    /// `(F_p2 layer, F_p4 layer)` — fixed at construction from the
    /// non-residue shapes and the modulus headroom (see the module docs).
    pub fn lazy_tiers(&self) -> (bool, bool) {
        (self.lazy2, self.lazy4)
    }

    /// The quadratic non-residue `β` with `u² = β`.
    pub fn beta(&self) -> &Fp {
        &self.beta
    }

    /// The F_p4 non-residue `ξ₂` (k = 24 towers only).
    pub fn xi2(&self) -> Option<&(Fp, Fp)> {
        self.xi2.as_ref()
    }

    /// The sextic non-residue `ξ` with `w⁶ = ξ`.
    pub fn xi(&self) -> &Fq {
        &self.xi
    }

    /// The order q = p^(k/6) of the twist field.
    pub fn q_order(&self) -> &BigUint {
        &self.q
    }

    /// The Frobenius constant `ξ^((p^j − 1)/6)` (used by the compiler's
    /// constant tables and the G2 untwist–Frobenius endomorphism).
    pub fn w_frob_const(&self, j: usize) -> &Fq {
        &self.w_frob[j]
    }

    /// The Frobenius constant `β^((p^j − 1)/2)` for the quadratic layer
    /// (`u^(p^j) = u_frob_const(j) · u`).
    pub fn u_frob_const(&self, j: usize) -> &Fp {
        &self.u_frob[j]
    }

    /// The Frobenius constant `ξ₂^((p^j − 1)/2)` for the F_p4 layer
    /// (k = 24 towers; identity pair for k = 12).
    pub fn v_frob_const(&self, j: usize) -> &(Fp, Fp) {
        &self.v_frob[j]
    }

    /// Public wrapper over the internal F_p2-pair squaring (compiler
    /// constant synthesis).
    pub fn fp2_pair_sqr(&self, a: &(Fp, Fp)) -> (Fp, Fp) {
        self.fp2_sqr(a)
    }

    fn q_of_degree(&self, d: u32) -> BigUint {
        self.fp.modulus().pow(d)
    }

    /// The quartic-layer non-residue ξ₂. qdeg-4 contexts always carry one
    /// (enforced at construction); the zero pair keeps the path total for
    /// the panic-free lint gate and is never reached in practice.
    fn xi2_pair(&self) -> (Fp, Fp) {
        match &self.xi2 {
            Some(x) => x.clone(),
            None => (self.fp.zero(), self.fp.zero()),
        }
    }

    // ------------------------------------------------------------------
    // F_p2 helpers over raw (Fp, Fp) pairs (used directly when qdeg == 2,
    // and as the inner layer of F_p4 when qdeg == 4).
    // ------------------------------------------------------------------

    fn fp2_add(&self, a: &(Fp, Fp), b: &(Fp, Fp)) -> (Fp, Fp) {
        (&a.0 + &b.0, &a.1 + &b.1)
    }

    fn fp2_sub(&self, a: &(Fp, Fp), b: &(Fp, Fp)) -> (Fp, Fp) {
        (&a.0 - &b.0, &a.1 - &b.1)
    }

    fn fp2_neg(&self, a: &(Fp, Fp)) -> (Fp, Fp) {
        (-&a.0, -&a.1)
    }

    fn fp2_mul(&self, a: &(Fp, Fp), b: &(Fp, Fp)) -> (Fp, Fp) {
        if self.lazy2 {
            return self.fp2_mul_lazy(a, b);
        }
        // Generic Karatsuba: 3 base multiplications plus a β scaling.
        let v0 = &a.0 * &b.0;
        let v1 = &a.1 * &b.1;
        let cross = &(&(&a.0 + &a.1) * &(&b.0 + &b.1)) - &(&v0 + &v1);
        (&v0 + &(&v1 * &self.beta), cross)
    }

    /// Karatsuba with lazy reduction (`β = −1`, headroom ≥ 2): three
    /// plain double-width products, cross terms accumulated unreduced,
    /// one Montgomery reduction per output coefficient.
    ///
    /// Bounds: inputs `< p`, operand sums `< 2p`, accumulators `≤ 4p²`.
    fn fp2_mul_lazy(&self, a: &(Fp, Fp), b: &(Fp, Fp)) -> (Fp, Fp) {
        let f = self.fp.as_ref();
        let pair = Self::fp2_mul_wide_k(
            f,
            (&a.0.as_unreduced(), &a.1.as_unreduced()),
            (&b.0.as_unreduced(), &b.1.as_unreduced()),
        );
        (
            Fp::from_mont_limbs(&self.fp, f.redc(&pair.c0)),
            Fp::from_mont_limbs(&self.fp, f.redc(&pair.c1)),
        )
    }

    fn fp2_sqr(&self, a: &(Fp, Fp)) -> (Fp, Fp) {
        if self.lazy2 {
            let f = self.fp.as_ref();
            let pair = Self::fp2_square_wide(f, (&a.0.as_unreduced(), &a.1.as_unreduced()));
            return (
                Fp::from_mont_limbs(&self.fp, f.redc(&pair.c0)),
                Fp::from_mont_limbs(&self.fp, f.redc(&pair.c1)),
            );
        }
        // Generic complex squaring: 2 base multiplications plus β scalings.
        let v0 = &a.0 * &a.1;
        let t = &(&a.0 + &a.1) * &(&a.0 + &(&a.1 * &self.beta));
        let c0 = &(&t - &v0) - &(&v0 * &self.beta);
        (c0, v0.double())
    }

    fn fp2_inv(&self, a: &(Fp, Fp)) -> (Fp, Fp) {
        let norm = &a.0.square() - &(&a.1.square() * &self.beta);
        let ninv = norm.invert();
        (&a.0 * &ninv, -&(&a.1 * &ninv))
    }

    fn fp2_pow(&self, a: &(Fp, Fp), e: &BigUint) -> (Fp, Fp) {
        let mut acc = (self.fp.one(), self.fp.zero());
        for i in (0..e.bits()).rev() {
            acc = self.fp2_sqr(&acc);
            if e.bit(i) {
                acc = self.fp2_mul(&acc, a);
            }
        }
        acc
    }

    fn fp2_frob(&self, a: &(Fp, Fp), j: usize) -> (Fp, Fp) {
        let mut c1 = a.1.clone();
        c1.mul_assign(&self.u_frob[j]);
        (a.0.clone(), c1)
    }

    // ------------------------------------------------------------------
    // Lazy-reduction building blocks: unreduced F_p2 products held as
    // pairs of double-width accumulators (β = −1 throughout; see the
    // module docs for the bound analysis).
    // ------------------------------------------------------------------

    /// Karatsuba F_p2 product at double width, canonical (`< p`) inputs:
    /// `c0 = a0·b0 + p² − a1·b1` (`≤ 2p²`), `c1 = a0·b1 + a1·b0`
    /// (`< 2p²`). Three limb-level multiplications, zero reductions.
    fn fp2_mul_wide_k(
        f: &FpCtx,
        a: (&Unreduced, &Unreduced),
        b: (&Unreduced, &Unreduced),
    ) -> WidePair {
        let sa = f.add_noreduce(a.0, a.1);
        let sb = f.add_noreduce(b.0, b.1);
        let mut c1 = f.mul_wide(&sa, &sb);
        let w0 = f.mul_wide(a.0, b.0);
        let w1 = f.mul_wide(a.1, b.1);
        f.wide_sub_assign(&mut c1, &w0);
        f.wide_sub_assign(&mut c1, &w1);
        // (a0+a1)(b0+b1) − a0b0 − a1b1 = a0b1 + a1b0 < 2p².
        c1.assume_bound(2);
        let mut c0 = w0;
        f.wide_add_kp2(&mut c0, 1);
        f.wide_sub_assign(&mut c0, &w1);
        WidePair { c0, c1 }
    }

    /// Schoolbook F_p2 product at double width for *unreduced* (`< 2p`)
    /// inputs — no internal operand sums, so every sub-product stays
    /// `< 4p²` and the outputs `≤ 8p²` (hence the `h ≥ 3` gate on k = 24):
    /// `c0 = a0·b0 + 4p² − a1·b1`, `c1 = a0·b1 + a1·b0`.
    fn fp2_mul_wide_s(
        f: &FpCtx,
        a: (&Unreduced, &Unreduced),
        b: (&Unreduced, &Unreduced),
    ) -> WidePair {
        let mut c0 = f.mul_wide(a.0, b.0);
        f.wide_add_kp2(&mut c0, 4);
        f.wide_sub_assign(&mut c0, &f.mul_wide(a.1, b.1));
        let mut c1 = f.mul_wide(a.0, b.1);
        f.wide_add_assign(&mut c1, &f.mul_wide(a.1, b.0));
        WidePair { c0, c1 }
    }

    /// F_p2 square at double width, canonical inputs (`β = −1`):
    /// `c0 = (a0+a1)(a0+p−a1) = a0² − a1² + p(a0+a1) < 3p²`,
    /// `c1 = 2·a0·a1 < 2p²`. Two limb-level multiplications.
    fn fp2_square_wide(f: &FpCtx, a: (&Unreduced, &Unreduced)) -> WidePair {
        let s = f.add_noreduce(a.0, a.1);
        let d = f.sub_with_kp(a.0, a.1, 1);
        let mut c0 = f.mul_wide(&s, &d);
        c0.assume_bound(3);
        let w = f.mul_wide(a.0, a.1);
        let mut c1 = w;
        f.wide_add_assign(&mut c1, &w);
        WidePair { c0, c1 }
    }

    /// Scales an unreduced wide pair by `ξ₂ = 1 + u` (`β = −1`):
    /// `(c0 − c1 + k·p², c0 + c1)` with `k` covering `c1`'s bound —
    /// additions only, the reduction-free analogue of an `fp2_mul` by ξ₂.
    fn wide_pair_mul_xi2(f: &FpCtx, x: &WidePair) -> WidePair {
        let mut c0 = x.c0;
        f.wide_add_kp2(&mut c0, x.c1.bound());
        f.wide_sub_assign(&mut c0, &x.c1);
        let mut c1 = x.c0;
        f.wide_add_assign(&mut c1, &x.c1);
        WidePair { c0, c1 }
    }

    // ------------------------------------------------------------------
    // F_q operations (public API).
    // ------------------------------------------------------------------

    /// The zero of F_q.
    pub fn fq_zero(&self) -> Fq {
        let z = self.fp.zero();
        Fq {
            c: [z.clone(), z.clone(), z.clone(), z],
            len: self.qdeg,
        }
    }

    /// The one of F_q.
    pub fn fq_one(&self) -> Fq {
        let mut c = self.fq_zero();
        c.c[0] = self.fp.one();
        c
    }

    /// Embeds an F_p element into F_q.
    pub fn fq_from_fp(&self, a: &Fp) -> Fq {
        let mut c = self.fq_zero();
        c.c[0] = a.clone();
        c
    }

    /// Deterministically samples an F_q element (for tests and vectors).
    pub fn fq_sample(&self, seed: u64) -> Fq {
        let mut out = self.fq_zero();
        for (i, c) in out.c[..out.len].iter_mut().enumerate() {
            *c = self.fp.sample(
                seed.wrapping_mul(0x9E37)
                    .wrapping_add(i as u64 * 0x1234_5678_9ABC),
            );
        }
        out
    }

    /// True iff zero.
    pub fn fq_is_zero(&self, a: &Fq) -> bool {
        a.coeffs().iter().all(Fp::is_zero)
    }

    /// True iff one.
    pub fn fq_is_one(&self, a: &Fq) -> bool {
        let c = a.coeffs();
        c[0].is_one() && c[1..].iter().all(Fp::is_zero)
    }

    /// Addition in F_q (coefficient-wise, in place on a copy).
    pub fn fq_add(&self, a: &Fq, b: &Fq) -> Fq {
        let mut out = a.clone();
        for (x, y) in out.c[..out.len].iter_mut().zip(b.coeffs()) {
            x.add_assign(y);
        }
        out
    }

    /// Subtraction in F_q.
    pub fn fq_sub(&self, a: &Fq, b: &Fq) -> Fq {
        let mut out = a.clone();
        for (x, y) in out.c[..out.len].iter_mut().zip(b.coeffs()) {
            x.sub_assign(y);
        }
        out
    }

    /// Negation in F_q.
    pub fn fq_neg(&self, a: &Fq) -> Fq {
        let mut out = a.clone();
        for x in out.c[..out.len].iter_mut() {
            x.neg_assign();
        }
        out
    }

    /// Doubling in F_q.
    pub fn fq_double(&self, a: &Fq) -> Fq {
        self.fq_add(a, a)
    }

    fn as_fp4(a: &Fq) -> ((Fp, Fp), (Fp, Fp)) {
        (
            (a.c[0].clone(), a.c[1].clone()),
            (a.c[2].clone(), a.c[3].clone()),
        )
    }

    fn fq_from_fp4(x0: (Fp, Fp), x1: (Fp, Fp)) -> Fq {
        Fq::new4([x0.0, x0.1, x1.0, x1.1])
    }

    /// Multiplication in F_q.
    pub fn fq_mul(&self, a: &Fq, b: &Fq) -> Fq {
        match self.qdeg {
            2 => {
                let (c0, c1) = self.fp2_mul(
                    &(a.c[0].clone(), a.c[1].clone()),
                    &(b.c[0].clone(), b.c[1].clone()),
                );
                Fq::new2(c0, c1)
            }
            4 if self.lazy4 => self.fq_mul_lazy4(a, b),
            4 => {
                let (a0, a1) = Self::as_fp4(a);
                let (b0, b1) = Self::as_fp4(b);
                let xi2 = self.xi2_pair();
                let v0 = self.fp2_mul(&a0, &b0);
                let v1 = self.fp2_mul(&a1, &b1);
                let cross = self.fp2_sub(
                    &self.fp2_mul(&self.fp2_add(&a0, &a1), &self.fp2_add(&b0, &b1)),
                    &self.fp2_add(&v0, &v1),
                );
                let c0 = self.fp2_add(&v0, &self.fp2_mul(&v1, &xi2));
                Self::fq_from_fp4(c0, cross)
            }
            _ => unreachable!("qdeg is 2 or 4"),
        }
    }

    /// F_p4 Karatsuba over unreduced F_p2 wide pairs (`β = −1`,
    /// `ξ₂ = 1 + u`, headroom ≥ 3): ten limb-level multiplications and
    /// exactly four Montgomery reductions — one per output coefficient —
    /// against sixteen interleaved multiplications on the generic path.
    ///
    /// Peak bounds: the Karatsuba cross pair uses the schoolbook wide
    /// product on `< 2p` operand sums (`≤ 8p²`); the `v0 + ξ₂·v1`
    /// recombination stays `≤ 6p²`.
    fn fq_mul_lazy4(&self, a: &Fq, b: &Fq) -> Fq {
        let f = self.fp.as_ref();
        let au: [Unreduced; 4] = std::array::from_fn(|i| a.c[i].as_unreduced());
        let bu: [Unreduced; 4] = std::array::from_fn(|i| b.c[i].as_unreduced());
        let v0 = Self::fp2_mul_wide_k(f, (&au[0], &au[1]), (&bu[0], &bu[1]));
        let v1 = Self::fp2_mul_wide_k(f, (&au[2], &au[3]), (&bu[2], &bu[3]));
        // Cross pair: (a0+a1)(b0+b1) − v0 − v1 over F_p2, with the
        // operand sums left unreduced (< 2p) and the product taken
        // schoolbook so no internal sum exceeds the envelope. The p²
        // offsets (4 − 1 − 1 = 2 surviving multiples) keep the c0
        // component non-negative; c1 is exact.
        let sa = (
            f.add_noreduce(&au[0], &au[2]),
            f.add_noreduce(&au[1], &au[3]),
        );
        let sb = (
            f.add_noreduce(&bu[0], &bu[2]),
            f.add_noreduce(&bu[1], &bu[3]),
        );
        let mut cross = Self::fp2_mul_wide_s(f, (&sa.0, &sa.1), (&sb.0, &sb.1));
        f.wide_sub_assign(&mut cross.c0, &v0.c0);
        f.wide_sub_assign(&mut cross.c0, &v1.c0);
        f.wide_sub_assign(&mut cross.c1, &v0.c1);
        f.wide_sub_assign(&mut cross.c1, &v1.c1);
        // out0 = v0 + ξ₂·v1 (≤ 2p² + 4p²).
        let xiv1 = Self::wide_pair_mul_xi2(f, &v1);
        let mut o0 = v0.c0;
        f.wide_add_assign(&mut o0, &xiv1.c0);
        let mut o1 = v0.c1;
        f.wide_add_assign(&mut o1, &xiv1.c1);
        Fq::new4([
            Fp::from_mont_limbs(&self.fp, f.redc(&o0)),
            Fp::from_mont_limbs(&self.fp, f.redc(&o1)),
            Fp::from_mont_limbs(&self.fp, f.redc(&cross.c0)),
            Fp::from_mont_limbs(&self.fp, f.redc(&cross.c1)),
        ])
    }

    /// Squaring in F_q.
    pub fn fq_sqr(&self, a: &Fq) -> Fq {
        match self.qdeg {
            2 => {
                let (c0, c1) = self.fp2_sqr(&(a.c[0].clone(), a.c[1].clone()));
                Fq::new2(c0, c1)
            }
            4 if self.lazy4 => self.fq_sqr_lazy4(a),
            4 => {
                let (a0, a1) = Self::as_fp4(a);
                let xi2 = self.xi2_pair();
                // Complex squaring over Fp2.
                let v0 = self.fp2_mul(&a0, &a1);
                let t = self.fp2_mul(
                    &self.fp2_add(&a0, &a1),
                    &self.fp2_add(&a0, &self.fp2_mul(&a1, &xi2)),
                );
                let c0 = self.fp2_sub(&self.fp2_sub(&t, &v0), &self.fp2_mul(&v0, &xi2));
                let c1 = self.fp2_add(&v0, &v0);
                Self::fq_from_fp4(c0, c1)
            }
            _ => unreachable!("qdeg is 2 or 4"),
        }
    }

    /// F_p4 squaring over unreduced F_p2 wide pairs (`β = −1`,
    /// `ξ₂ = 1 + u`, headroom ≥ 3): `(a0 + a1·v)² = (a0² + ξ₂·a1²) +
    /// 2·a0·a1·v`, seven limb-level multiplications and four reductions.
    ///
    /// Peak bound is the `a0² + ξ₂·a1²` recombination: `3p² + 5p² = 8p²`.
    fn fq_sqr_lazy4(&self, a: &Fq) -> Fq {
        let f = self.fp.as_ref();
        let au: [Unreduced; 4] = std::array::from_fn(|i| a.c[i].as_unreduced());
        let s0 = Self::fp2_square_wide(f, (&au[0], &au[1]));
        let s1 = Self::fp2_square_wide(f, (&au[2], &au[3]));
        let xis1 = Self::wide_pair_mul_xi2(f, &s1);
        let mut o0 = s0.c0;
        f.wide_add_assign(&mut o0, &xis1.c0);
        let mut o1 = s0.c1;
        f.wide_add_assign(&mut o1, &xis1.c1);
        // Odd coefficient: 2·a0·a1 over F_p2 (≤ 4p² componentwise).
        let w = Self::fp2_mul_wide_k(f, (&au[0], &au[1]), (&au[2], &au[3]));
        let mut d0 = w.c0;
        f.wide_add_assign(&mut d0, &w.c0);
        let mut d1 = w.c1;
        f.wide_add_assign(&mut d1, &w.c1);
        Fq::new4([
            Fp::from_mont_limbs(&self.fp, f.redc(&o0)),
            Fp::from_mont_limbs(&self.fp, f.redc(&o1)),
            Fp::from_mont_limbs(&self.fp, f.redc(&d0)),
            Fp::from_mont_limbs(&self.fp, f.redc(&d1)),
        ])
    }

    /// Inversion in F_q.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn fq_inv(&self, a: &Fq) -> Fq {
        assert!(!self.fq_is_zero(a), "inversion of zero in Fq");
        match self.qdeg {
            2 => {
                let (c0, c1) = self.fp2_inv(&(a.c[0].clone(), a.c[1].clone()));
                Fq::new2(c0, c1)
            }
            4 => {
                let (a0, a1) = Self::as_fp4(a);
                let xi2 = self.xi2_pair();
                let norm =
                    self.fp2_sub(&self.fp2_sqr(&a0), &self.fp2_mul(&self.fp2_sqr(&a1), &xi2));
                let ninv = self.fp2_inv(&norm);
                Self::fq_from_fp4(
                    self.fp2_mul(&a0, &ninv),
                    self.fp2_neg(&self.fp2_mul(&a1, &ninv)),
                )
            }
            _ => unreachable!("qdeg is 2 or 4"),
        }
    }

    /// Scales an F_q element by an F_p scalar.
    pub fn fq_mul_fp(&self, a: &Fq, s: &Fp) -> Fq {
        let mut out = a.clone();
        for x in out.c[..out.len].iter_mut() {
            x.mul_assign(s);
        }
        out
    }

    /// Multiplies by a small non-negative integer.
    pub fn fq_mul_small(&self, a: &Fq, k: u64) -> Fq {
        let mut out = a.clone();
        for x in out.c[..out.len].iter_mut() {
            *x = x.mul_small(k);
        }
        out
    }

    /// Multiplies by the sextic non-residue ξ (the IR `adj` operation at
    /// the F_q level).
    ///
    /// For the standard tower shapes (`ξ = 1 + u` at k = 12, `ξ = v` at
    /// k = 24, both with `β = −1`) this is multiplication-free — a couple
    /// of base-field additions instead of a full `fq_mul`, which matters
    /// because the cubic Karatsuba layer invokes it twice per product.
    pub fn fq_mul_xi(&self, a: &Fq) -> Fq {
        match self.xi_kind {
            XiKind::OnePlusU => Fq::new2(&a.c[0] - &a.c[1], &a.c[0] + &a.c[1]),
            XiKind::V => Fq::new4([
                &a.c[2] - &a.c[3],
                &a.c[2] + &a.c[3],
                a.c[0].clone(),
                a.c[1].clone(),
            ]),
            XiKind::Generic => self.fq_mul(a, &self.xi),
        }
    }

    /// `j`-fold Frobenius `a ↦ a^(p^j)` in F_q.
    ///
    /// # Panics
    ///
    /// Panics if `j` exceeds the precomputed-constant range.
    pub fn fq_frob(&self, a: &Fq, j: usize) -> Fq {
        self.fq_frob_raw(a, j)
    }

    fn fq_frob_raw(&self, a: &Fq, j: usize) -> Fq {
        assert!(j <= MAX_FROB, "frobenius power out of precomputed range");
        match self.qdeg {
            2 => {
                // In place on a copy: only the odd coefficient changes.
                let mut out = a.clone();
                out.c[1].mul_assign(&self.u_frob[j]);
                out
            }
            4 => {
                let (a0, a1) = Self::as_fp4(a);
                let x0 = self.fp2_frob(&a0, j);
                let x1 = self.fp2_mul(&self.fp2_frob(&a1, j), &self.v_frob[j]);
                Self::fq_from_fp4(x0, x1)
            }
            _ => unreachable!("qdeg is 2 or 4"),
        }
    }

    /// Exponentiation in F_q.
    pub fn fq_pow(&self, a: &Fq, e: &BigUint) -> Fq {
        let mut acc = self.fq_one();
        for i in (0..e.bits()).rev() {
            acc = self.fq_sqr(&acc);
            if e.bit(i) {
                acc = self.fq_mul(&acc, a);
            }
        }
        acc
    }

    /// Square root in F_q, `None` for non-squares. This is the square
    /// root of every compressed G2 decode, so it runs on untrusted input:
    /// the norm method, one quadratic layer at a time, costs a handful of
    /// F_p exponentiations, and the root is returned only if it squares
    /// back to `a`.
    pub fn fq_sqrt(&self, a: &Fq) -> Option<Fq> {
        let r = self.subfield_sqrt(a, self.qdeg)?;
        (self.fq_sqr(&r) == *a).then_some(r)
    }

    /// Square root of `a` in the degree-`deg` subfield F_p^deg of F_q
    /// (coefficients past `deg` zero) by the norm ("complex") method, one
    /// quadratic layer `a0 + a1·t`, `t² = nr`, at a time (`t = u` over
    /// F_p, `t = v` over F_p2). `a` is a square iff its norm
    /// `a0² − nr·a1²` is one in the layer below; with `n` that root,
    /// exactly one `c = a0 ± n` makes `2c` a square `y²`, and
    /// `(c + a1·t)/y` is the root.
    fn subfield_sqrt(&self, a: &Fq, deg: usize) -> Option<Fq> {
        if deg == 1 {
            return a.c[0].sqrt().map(|r| self.fq_from_fp(&r));
        }
        let h = deg / 2;
        let (mut a0, mut a1, mut t) = (self.fq_zero(), self.fq_zero(), self.fq_zero());
        a0.c[..h].clone_from_slice(&a.c[..h]);
        a1.c[..h].clone_from_slice(&a.c[h..deg]);
        t.c[h] = self.fp.one();
        if self.fq_is_zero(&a1) {
            // a0 is a square in the layer below, or else a0/nr is and
            // the root is a multiple of t.
            if let Some(r) = self.subfield_sqrt(&a0, h) {
                return Some(r);
            }
            let s = self.subfield_sqrt(&self.fq_mul(&a0, &self.fq_inv(&self.fq_sqr(&t))), h)?;
            return Some(self.fq_mul(&s, &t));
        }
        let nr_a1_sq = self.fq_mul(&self.fq_sqr(&t), &self.fq_sqr(&a1));
        let n = self.subfield_sqrt(&self.fq_sub(&self.fq_sqr(&a0), &nr_a1_sq), h)?;
        // (a0 + n)(a0 − n) = nr·a1² is a non-square, so c ≠ 0 and y ≠ 0.
        let (c, y) = [self.fq_add(&a0, &n), self.fq_sub(&a0, &n)]
            .into_iter()
            .find_map(|c| self.subfield_sqrt(&self.fq_double(&c), h).map(|y| (c, y)))?;
        let y_inv = self.fq_inv(&y);
        let x1_t = self.fq_mul(&self.fq_mul(&a1, &y_inv), &t);
        Some(self.fq_add(&self.fq_mul(&c, &y_inv), &x1_t))
    }

    // ------------------------------------------------------------------
    // Canonical byte codecs: fixed-width big-endian per coefficient,
    // low coefficient first (c0 ‖ c1 [‖ c2 ‖ c3]). The wire module in
    // finesse-curves builds its point encodings from these.
    // ------------------------------------------------------------------

    /// Byte length of one canonical F_q element: `qdeg` coefficients of
    /// `ceil(p_bits / 8)` bytes each.
    pub fn fq_byte_len(&self) -> usize {
        self.qdeg * self.fp.byte_len()
    }

    /// Serialises an F_q element as `qdeg` fixed-width big-endian
    /// coefficients, low coefficient first.
    pub fn fq_to_bytes_be(&self, a: &Fq) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.fq_byte_len());
        for c in a.coeffs() {
            out.extend_from_slice(&c.to_bytes_be());
        }
        out
    }

    /// Strict inverse of [`fq_to_bytes_be`](Self::fq_to_bytes_be):
    /// rejects wrong lengths and any coefficient `>= p`.
    pub fn fq_from_bytes_be(&self, bytes: &[u8]) -> Result<Fq, FieldBytesError> {
        let expected = self.fq_byte_len();
        if bytes.len() != expected {
            return Err(FieldBytesError::Length {
                expected,
                got: bytes.len(),
            });
        }
        let w = self.fp.byte_len();
        let mut coeffs = Vec::with_capacity(self.qdeg);
        for chunk in bytes.chunks_exact(w) {
            coeffs.push(self.fp.from_bytes_be(chunk)?);
        }
        // qdeg is 2 or 4 by construction, so from_coeffs cannot fail on
        // a length-qdeg vector; map defensively to keep the path total.
        Fq::from_coeffs(coeffs).map_err(|_| FieldBytesError::Length {
            expected,
            got: bytes.len(),
        })
    }

    // ------------------------------------------------------------------
    // Cubic-layer helpers: triples (t0, t1, t2) over F_q with s³ = ξ.
    // ------------------------------------------------------------------

    fn c_add(&self, a: &[Fq; 3], b: &[Fq; 3]) -> [Fq; 3] {
        [
            self.fq_add(&a[0], &b[0]),
            self.fq_add(&a[1], &b[1]),
            self.fq_add(&a[2], &b[2]),
        ]
    }

    fn c_sub(&self, a: &[Fq; 3], b: &[Fq; 3]) -> [Fq; 3] {
        [
            self.fq_sub(&a[0], &b[0]),
            self.fq_sub(&a[1], &b[1]),
            self.fq_sub(&a[2], &b[2]),
        ]
    }

    fn c_mul(&self, a: &[Fq; 3], b: &[Fq; 3]) -> [Fq; 3] {
        // Karatsuba-3: six F_q multiplications.
        let v0 = self.fq_mul(&a[0], &b[0]);
        let v1 = self.fq_mul(&a[1], &b[1]);
        let v2 = self.fq_mul(&a[2], &b[2]);
        let t01 = self.fq_sub(
            &self.fq_mul(&self.fq_add(&a[0], &a[1]), &self.fq_add(&b[0], &b[1])),
            &self.fq_add(&v0, &v1),
        );
        let t02 = self.fq_sub(
            &self.fq_mul(&self.fq_add(&a[0], &a[2]), &self.fq_add(&b[0], &b[2])),
            &self.fq_add(&v0, &v2),
        );
        let t12 = self.fq_sub(
            &self.fq_mul(&self.fq_add(&a[1], &a[2]), &self.fq_add(&b[1], &b[2])),
            &self.fq_add(&v1, &v2),
        );
        [
            self.fq_add(&v0, &self.fq_mul_xi(&t12)),
            self.fq_add(&t01, &self.fq_mul_xi(&v2)),
            self.fq_add(&t02, &v1),
        ]
    }

    fn c_sqr(&self, a: &[Fq; 3]) -> [Fq; 3] {
        let v0 = self.fq_sqr(&a[0]);
        let v1 = self.fq_sqr(&a[1]);
        let v2 = self.fq_sqr(&a[2]);
        let t01 = self.fq_sub(
            &self.fq_sqr(&self.fq_add(&a[0], &a[1])),
            &self.fq_add(&v0, &v1),
        );
        let t02 = self.fq_sub(
            &self.fq_sqr(&self.fq_add(&a[0], &a[2])),
            &self.fq_add(&v0, &v2),
        );
        let t12 = self.fq_sub(
            &self.fq_sqr(&self.fq_add(&a[1], &a[2])),
            &self.fq_add(&v1, &v2),
        );
        [
            self.fq_add(&v0, &self.fq_mul_xi(&t12)),
            self.fq_add(&t01, &self.fq_mul_xi(&v2)),
            self.fq_add(&t02, &v1),
        ]
    }

    fn c_mul_by_s(&self, a: &[Fq; 3]) -> [Fq; 3] {
        [self.fq_mul_xi(&a[2]), a[0].clone(), a[1].clone()]
    }

    fn c_inv(&self, a: &[Fq; 3]) -> [Fq; 3] {
        // Standard cubic-extension inversion via the adjugate.
        let c0 = self.fq_sub(
            &self.fq_sqr(&a[0]),
            &self.fq_mul_xi(&self.fq_mul(&a[1], &a[2])),
        );
        let c1 = self.fq_sub(
            &self.fq_mul_xi(&self.fq_sqr(&a[2])),
            &self.fq_mul(&a[0], &a[1]),
        );
        let c2 = self.fq_sub(&self.fq_sqr(&a[1]), &self.fq_mul(&a[0], &a[2]));
        let norm = self.fq_add(
            &self.fq_mul(&a[0], &c0),
            &self.fq_mul_xi(&self.fq_add(&self.fq_mul(&a[2], &c1), &self.fq_mul(&a[1], &c2))),
        );
        let ninv = self.fq_inv(&norm);
        [
            self.fq_mul(&c0, &ninv),
            self.fq_mul(&c1, &ninv),
            self.fq_mul(&c2, &ninv),
        ]
    }

    fn c_zero(&self) -> [Fq; 3] {
        [self.fq_zero(), self.fq_zero(), self.fq_zero()]
    }

    // View helpers between the w-power order and the (even, odd) cubic pair.
    fn even_part(a: &Fpk) -> [Fq; 3] {
        [a.c[0].clone(), a.c[2].clone(), a.c[4].clone()]
    }

    fn odd_part(a: &Fpk) -> [Fq; 3] {
        [a.c[1].clone(), a.c[3].clone(), a.c[5].clone()]
    }

    fn from_parts(even: [Fq; 3], odd: [Fq; 3]) -> Fpk {
        let [e0, e1, e2] = even;
        let [o0, o1, o2] = odd;
        Fpk {
            c: [e0, o0, e1, o1, e2, o2],
        }
    }

    // ------------------------------------------------------------------
    // F_p^k operations (public API).
    // ------------------------------------------------------------------

    /// The zero of F_p^k.
    pub fn fpk_zero(&self) -> Fpk {
        Fpk {
            c: std::array::from_fn(|_| self.fq_zero()),
        }
    }

    /// The one of F_p^k.
    pub fn fpk_one(&self) -> Fpk {
        let mut z = self.fpk_zero();
        z.c[0] = self.fq_one();
        z
    }

    /// Embeds an F_q element as the constant coefficient.
    pub fn fpk_from_fq(&self, a: &Fq) -> Fpk {
        let mut z = self.fpk_zero();
        z.c[0] = a.clone();
        z
    }

    /// Builds an element from sparse `w`-power coefficients (`None` = 0).
    ///
    /// This is how Miller-loop line functions enter the dense
    /// representation; the compiler's constant-zero propagation later
    /// recovers the sparsity (§4.3 of the paper).
    pub fn fpk_from_sparse(&self, coeffs: [Option<Fq>; 6]) -> Fpk {
        Fpk {
            c: coeffs.map(|c| c.unwrap_or_else(|| self.fq_zero())),
        }
    }

    /// Deterministically samples an element (tests/vectors).
    pub fn fpk_sample(&self, seed: u64) -> Fpk {
        Fpk {
            c: std::array::from_fn(|i| {
                self.fq_sample(seed ^ ((i as u64).wrapping_mul(0xABCD_EF01_2345)))
            }),
        }
    }

    /// True iff one.
    pub fn fpk_is_one(&self, a: &Fpk) -> bool {
        self.fq_is_one(&a.c[0]) && a.c[1..].iter().all(|x| self.fq_is_zero(x))
    }

    /// True iff zero.
    pub fn fpk_is_zero(&self, a: &Fpk) -> bool {
        a.c.iter().all(|x| self.fq_is_zero(x))
    }

    /// Addition.
    pub fn fpk_add(&self, a: &Fpk, b: &Fpk) -> Fpk {
        Fpk {
            c: std::array::from_fn(|m| self.fq_add(&a.c[m], &b.c[m])),
        }
    }

    /// Subtraction.
    pub fn fpk_sub(&self, a: &Fpk, b: &Fpk) -> Fpk {
        Fpk {
            c: std::array::from_fn(|m| self.fq_sub(&a.c[m], &b.c[m])),
        }
    }

    /// Negation.
    pub fn fpk_neg(&self, a: &Fpk) -> Fpk {
        Fpk {
            c: std::array::from_fn(|m| self.fq_neg(&a.c[m])),
        }
    }

    /// Multiplication (Karatsuba quadratic over Karatsuba cubic —
    /// 18 F_q multiplications).
    pub fn fpk_mul(&self, a: &Fpk, b: &Fpk) -> Fpk {
        let (a0, a1) = (Self::even_part(a), Self::odd_part(a));
        let (b0, b1) = (Self::even_part(b), Self::odd_part(b));
        let v0 = self.c_mul(&a0, &b0);
        let v1 = self.c_mul(&a1, &b1);
        let cross = self.c_sub(
            &self.c_mul(&self.c_add(&a0, &a1), &self.c_add(&b0, &b1)),
            &self.c_add(&v0, &v1),
        );
        let even = self.c_add(&v0, &self.c_mul_by_s(&v1));
        Self::from_parts(even, cross)
    }

    /// Multiplies a dense element by a *sparse* one given as `w`-power
    /// coefficients (`None` = 0) — the Miller-loop line shapes.
    ///
    /// The two line shapes the pairing emits (D twist: `w⁰,w¹,w³`;
    /// M twist: `w⁰,w²,w³`) take a dedicated 13-`fq_mul` path instead of
    /// densifying into the 18-`fq_mul` Karatsuba of [`TowerCtx::fpk_mul`];
    /// any other shape falls back to the dense product. The result is
    /// bit-identical to the dense path (same field value, canonical
    /// coefficients).
    pub fn fpk_mul_sparse(&self, a: &Fpk, coeffs: &[Option<Fq>; 6]) -> Fpk {
        match coeffs {
            [Some(c0), Some(c1), None, Some(c3), None, None] => {
                // D-twist line: even part [c0, 0, 0], odd part [c1, c3, 0].
                let (a0, a1) = (Self::even_part(a), Self::odd_part(a));
                let t0 = self.c_mul_sparse0(&a0, c0);
                let t1 = self.c_mul_sparse01(&a1, c1, c3);
                let sum_a = self.c_add(&a0, &a1);
                let l0 = self.fq_add(c0, c1);
                let mut cross = self.c_mul_sparse01(&sum_a, &l0, c3);
                cross = self.c_sub(&self.c_sub(&cross, &t0), &t1);
                let even = self.c_add(&t0, &self.c_mul_by_s(&t1));
                Self::from_parts(even, cross)
            }
            [Some(c0), None, Some(c2), Some(c3), None, None] => {
                // M-twist line: even part [c0, c2, 0], odd part [0, c3, 0].
                let (a0, a1) = (Self::even_part(a), Self::odd_part(a));
                let t0 = self.c_mul_sparse01(&a0, c0, c2);
                let t1 = self.c_mul_sparse1(&a1, c3);
                let sum_a = self.c_add(&a0, &a1);
                let l1 = self.fq_add(c2, c3);
                let mut cross = self.c_mul_sparse01(&sum_a, c0, &l1);
                cross = self.c_sub(&self.c_sub(&cross, &t0), &t1);
                let even = self.c_add(&t0, &self.c_mul_by_s(&t1));
                Self::from_parts(even, cross)
            }
            _ => {
                let dense = self.fpk_from_sparse(coeffs.clone());
                self.fpk_mul(a, &dense)
            }
        }
    }

    /// Cubic-layer product by `[b0, 0, 0]`: three `fq_mul`s.
    fn c_mul_sparse0(&self, a: &[Fq; 3], b0: &Fq) -> [Fq; 3] {
        [
            self.fq_mul(&a[0], b0),
            self.fq_mul(&a[1], b0),
            self.fq_mul(&a[2], b0),
        ]
    }

    /// Cubic-layer product by `[0, b1, 0]`: three `fq_mul`s
    /// (`c0 = ξ·a2·b1`, `c1 = a0·b1`, `c2 = a1·b1`).
    fn c_mul_sparse1(&self, a: &[Fq; 3], b1: &Fq) -> [Fq; 3] {
        [
            self.fq_mul_xi(&self.fq_mul(&a[2], b1)),
            self.fq_mul(&a[0], b1),
            self.fq_mul(&a[1], b1),
        ]
    }

    /// Cubic-layer product by `[b0, b1, 0]`: five `fq_mul`s
    /// (Karatsuba on the low two coefficients, direct `a2` terms).
    fn c_mul_sparse01(&self, a: &[Fq; 3], b0: &Fq, b1: &Fq) -> [Fq; 3] {
        let v0 = self.fq_mul(&a[0], b0);
        let v1 = self.fq_mul(&a[1], b1);
        let t01 = self.fq_sub(
            &self.fq_mul(&self.fq_add(&a[0], &a[1]), &self.fq_add(b0, b1)),
            &self.fq_add(&v0, &v1),
        );
        let t12 = self.fq_mul(&a[2], b1);
        let t02 = self.fq_mul(&a[2], b0);
        [
            self.fq_add(&v0, &self.fq_mul_xi(&t12)),
            t01,
            self.fq_add(&t02, &v1),
        ]
    }

    /// Squaring (complex method over the cubic layer).
    pub fn fpk_sqr(&self, a: &Fpk) -> Fpk {
        let (a0, a1) = (Self::even_part(a), Self::odd_part(a));
        let v0 = self.c_mul(&a0, &a1);
        let t = self.c_mul(
            &self.c_add(&a0, &a1),
            &self.c_add(&a0, &self.c_mul_by_s(&a1)),
        );
        let even = self.c_sub(&self.c_sub(&t, &v0), &self.c_mul_by_s(&v0));
        let odd = self.c_add(&v0, &v0);
        Self::from_parts(even, odd)
    }

    /// Conjugation `a ↦ a^(p^(k/2))`: negates odd `w`-coefficients.
    ///
    /// For elements in the cyclotomic subgroup this is the inverse.
    pub fn fpk_conj(&self, a: &Fpk) -> Fpk {
        Fpk {
            c: std::array::from_fn(|m| {
                if m % 2 == 1 {
                    self.fq_neg(&a.c[m])
                } else {
                    a.c[m].clone()
                }
            }),
        }
    }

    /// Inversion.
    ///
    /// # Panics
    ///
    /// Panics on zero.
    pub fn fpk_inv(&self, a: &Fpk) -> Fpk {
        assert!(!self.fpk_is_zero(a), "inversion of zero in Fpk");
        let (a0, a1) = (Self::even_part(a), Self::odd_part(a));
        // (a0 + a1 w)^-1 = (a0 - a1 w) / (a0² - s·a1²)
        let denom = self.c_sub(&self.c_sqr(&a0), &self.c_mul_by_s(&self.c_sqr(&a1)));
        let dinv = self.c_inv(&denom);
        let even = self.c_mul(&a0, &dinv);
        let odd_neg = self.c_mul(&a1, &dinv);
        let odd = self.c_sub(&self.c_zero(), &odd_neg);
        Self::from_parts(even, odd)
    }

    /// `j`-fold Frobenius `a ↦ a^(p^j)`.
    ///
    /// # Panics
    ///
    /// Panics if `j > 6` (precomputed-constant range).
    pub fn fpk_frob(&self, a: &Fpk, j: usize) -> Fpk {
        assert!(j <= MAX_FROB, "frobenius power out of precomputed range");
        Fpk {
            c: std::array::from_fn(|m| {
                let mut y = self.fq_frob_raw(&a.c[m], j);
                // multiply by ξ^(m (p^j − 1)/6) = w_frob[j]^m
                for _ in 0..m {
                    y = self.fq_mul(&y, &self.w_frob[j]);
                }
                y
            }),
        }
    }

    /// Scales by an F_q element (coefficient-wise).
    pub fn fpk_mul_fq(&self, a: &Fpk, s: &Fq) -> Fpk {
        Fpk {
            c: std::array::from_fn(|m| self.fq_mul(&a.c[m], s)),
        }
    }

    /// Exponentiation by an arbitrary big-integer exponent.
    pub fn fpk_pow(&self, a: &Fpk, e: &BigUint) -> Fpk {
        let mut acc = self.fpk_one();
        for i in (0..e.bits()).rev() {
            acc = self.fpk_sqr(&acc);
            if e.bit(i) {
                acc = self.fpk_mul(&acc, a);
            }
        }
        acc
    }

    /// Granger–Scott squaring, valid only for elements of the cyclotomic
    /// subgroup (i.e. after the easy part of the final exponentiation).
    ///
    /// Uses the 2-over-3 internal `F_q²`-pair squarings; costs 9 F_q
    /// multiplications against 18 for a full [`TowerCtx::fpk_sqr`].
    pub fn fpk_cyclotomic_sqr(&self, a: &Fpk) -> Fpk {
        // z-coefficient naming follows the classical presentation over the
        // (internal-quadratic) pairs (z0,z1), (z2,z3), (z4,z5) where the
        // pair field is F_q[s]/(s² − ...) embedded via w-powers:
        //   z0 = c[0] (w^0), z1 = c[3] (w^3),
        //   z2 = c[1] (w^1), z3 = c[4] (w^4),
        //   z4 = c[2] (w^2), z5 = c[5] (w^5).
        // fq4_sq(a,b) squares a + b·t where t² = ξ-like constant per pair.
        let z0 = &a.c[0];
        let z1 = &a.c[3];
        let z2 = &a.c[1];
        let z3 = &a.c[4];
        let z4 = &a.c[2];
        let z5 = &a.c[5];

        // (w^0, w^3): (w^3)² = ξ        -> nonres ξ
        let (t0, t1) = self.fq4_sq(z0, z1);
        // (w^1, w^4): (w^4)² / (w^1)² = w^6 = ξ, pair behaves like a + b·w3 scaled
        let (t2, t3) = self.fq4_sq(z2, z3);
        // (w^2, w^5)
        let (t4, t5) = self.fq4_sq(z4, z5);

        // z0' = 3t0 − 2z0 ; z1' = 3t1 + 2z1
        let c0 = self.fq_sub(&self.fq_mul_small(&t0, 3), &self.fq_mul_small(z0, 2));
        let c3 = self.fq_add(&self.fq_mul_small(&t1, 3), &self.fq_mul_small(z1, 2));
        // z4' = 3t2 − 2z4 ; z5' = 3t3 + 2z5
        let c2 = self.fq_sub(&self.fq_mul_small(&t2, 3), &self.fq_mul_small(z4, 2));
        let c5 = self.fq_add(&self.fq_mul_small(&t3, 3), &self.fq_mul_small(z5, 2));
        // z2' = 3·ξ·t5 + 2z2 ; z3' = 3t4 − 2z3
        let c1 = self.fq_add(
            &self.fq_mul_small(&self.fq_mul_xi(&t5), 3),
            &self.fq_mul_small(z2, 2),
        );
        let c4 = self.fq_sub(&self.fq_mul_small(&t4, 3), &self.fq_mul_small(z3, 2));
        Fpk {
            c: [c0, c1, c2, c3, c4, c5],
        }
    }

    /// Squares `a + b·w³`-style pairs: returns
    /// `(a² + ξ·b², (a+b)² − a² − b²)`.
    fn fq4_sq(&self, a: &Fq, b: &Fq) -> (Fq, Fq) {
        let a2 = self.fq_sqr(a);
        let b2 = self.fq_sqr(b);
        let t0 = self.fq_add(&a2, &self.fq_mul_xi(&b2));
        let t1 = self.fq_sub(&self.fq_sqr(&self.fq_add(a, b)), &self.fq_add(&a2, &b2));
        (t0, t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small test tower: k = 12 over the BLS12-381 prime with the standard
    /// β = −1, ξ = 1 + u.
    fn bls12_tower() -> Arc<TowerCtx> {
        let p = BigUint::from_hex(
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
        )
        .unwrap();
        let fp = FpCtx::new(p).unwrap();
        let beta = fp.from_i64(-1);
        let xi = (fp.one(), fp.one());
        TowerCtx::sextic_over_fp2(&fp, beta, xi).unwrap()
    }

    #[test]
    fn construction_rejects_bad_nonresidues() {
        let p = BigUint::from_hex(
            "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab",
        )
        .unwrap();
        let fp = FpCtx::new(p).unwrap();
        // 4 is a QR, so u² = 4 is reducible.
        let r = TowerCtx::sextic_over_fp2(&fp, fp.from_u64(4), (fp.one(), fp.one()));
        assert_eq!(r.unwrap_err(), TowerError::QuadraticResidueBeta);
    }

    #[test]
    fn fq_field_axioms() {
        let t = bls12_tower();
        for seed in 0..6u64 {
            let a = t.fq_sample(seed);
            let b = t.fq_sample(seed + 50);
            let c = t.fq_sample(seed + 99);
            assert_eq!(t.fq_mul(&a, &b), t.fq_mul(&b, &a));
            assert_eq!(
                t.fq_mul(&a, &t.fq_add(&b, &c)),
                t.fq_add(&t.fq_mul(&a, &b), &t.fq_mul(&a, &c))
            );
            assert_eq!(t.fq_sqr(&a), t.fq_mul(&a, &a));
            if !t.fq_is_zero(&a) {
                assert!(t.fq_is_one(&t.fq_mul(&a, &t.fq_inv(&a))));
            }
        }
    }

    #[test]
    fn fq_frobenius_matches_pow() {
        let t = bls12_tower();
        let a = t.fq_sample(7);
        let p = t.fp().modulus().clone();
        assert_eq!(t.fq_frob_raw(&a, 1), t.fq_pow(&a, &p));
        assert_eq!(t.fq_frob_raw(&a, 2), t.fq_pow(&t.fq_pow(&a, &p), &p));
    }

    #[test]
    fn fpk_ring_axioms() {
        let t = bls12_tower();
        for seed in 0..4u64 {
            let a = t.fpk_sample(seed);
            let b = t.fpk_sample(seed + 11);
            let c = t.fpk_sample(seed + 23);
            assert_eq!(t.fpk_mul(&a, &b), t.fpk_mul(&b, &a));
            assert_eq!(
                t.fpk_mul(&t.fpk_mul(&a, &b), &c),
                t.fpk_mul(&a, &t.fpk_mul(&b, &c))
            );
            assert_eq!(t.fpk_sqr(&a), t.fpk_mul(&a, &a));
            assert_eq!(
                t.fpk_mul(&a, &t.fpk_add(&b, &c)),
                t.fpk_add(&t.fpk_mul(&a, &b), &t.fpk_mul(&a, &c))
            );
            assert!(t.fpk_is_one(&t.fpk_mul(&a, &t.fpk_inv(&a))));
        }
    }

    #[test]
    fn fpk_frobenius_matches_pow() {
        let t = bls12_tower();
        let a = t.fpk_sample(3);
        let p = t.fp().modulus().clone();
        let frob1 = t.fpk_frob(&a, 1);
        assert_eq!(frob1, t.fpk_pow(&a, &p));
        let frob2 = t.fpk_frob(&a, 2);
        assert_eq!(frob2, t.fpk_frob(&frob1, 1));
        // φ^k = identity
        let mut x = a.clone();
        for _ in 0..4 {
            x = t.fpk_frob(&x, 3);
        }
        assert_eq!(x, a);
    }

    #[test]
    fn conj_is_pk_half_frobenius() {
        let t = bls12_tower();
        let a = t.fpk_sample(9);
        let mut expect = a.clone();
        for _ in 0..2 {
            expect = t.fpk_frob(&expect, 3);
        }
        assert_eq!(t.fpk_conj(&a), expect);
    }

    #[test]
    fn cyclotomic_square_agrees_on_cyclotomic_subgroup() {
        let t = bls12_tower();
        // Project into the cyclotomic subgroup via the easy part:
        // g = (a^(p^6 - 1))^(p^2 + 1).
        let a = t.fpk_sample(42);
        let g = {
            let inv = t.fpk_inv(&a);
            let e1 = t.fpk_mul(&t.fpk_conj(&a), &inv); // a^(p^6 − 1)
            t.fpk_mul(&t.fpk_frob(&e1, 2), &e1) // ^(p^2 + 1)
        };
        assert_eq!(t.fpk_cyclotomic_sqr(&g), t.fpk_sqr(&g));
        // And again one level deeper.
        let g2 = t.fpk_sqr(&g);
        assert_eq!(t.fpk_cyclotomic_sqr(&g2), t.fpk_sqr(&g2));
    }

    #[test]
    fn conj_inverts_cyclotomic_elements() {
        let t = bls12_tower();
        let a = t.fpk_sample(17);
        let inv = t.fpk_inv(&a);
        let e1 = t.fpk_mul(&t.fpk_conj(&a), &inv);
        let g = t.fpk_mul(&t.fpk_frob(&e1, 2), &e1);
        assert!(t.fpk_is_one(&t.fpk_mul(&g, &t.fpk_conj(&g))));
    }

    #[test]
    fn fq_sqrt_roundtrip() {
        let t = bls12_tower();
        for seed in 1..5u64 {
            let a = t.fq_sample(seed);
            let sq = t.fq_sqr(&a);
            let r = t.fq_sqrt(&sq).expect("square has a root");
            assert!(r == a || r == t.fq_neg(&a));
        }
    }

    #[test]
    fn lazy_fq_mul_matches_direct_fp_formula() {
        // The BLS12-381 tower takes the lazy path (β = −1, headroom 3);
        // cross-check against the schoolbook formula computed with the
        // plain (interleaved-reduction) Fp kernels.
        let t = bls12_tower();
        assert!(t.lazy2, "test tower should dispatch lazily");
        for seed in 0..12u64 {
            let a = t.fq_sample(seed);
            let b = t.fq_sample(seed + 201);
            let (a0, a1) = (&a.coeffs()[0], &a.coeffs()[1]);
            let (b0, b1) = (&b.coeffs()[0], &b.coeffs()[1]);
            // β = −1: (a0 + a1u)(b0 + b1u) = (a0b0 − a1b1) + (a0b1 + a1b0)u
            let c0 = &(a0 * b0) - &(a1 * b1);
            let c1 = &(a0 * b1) + &(a1 * b0);
            let got = t.fq_mul(&a, &b);
            assert_eq!(got.coeffs(), &[c0, c1][..], "seed {seed}");
            let sq = t.fq_sqr(&a);
            assert_eq!(sq, t.fq_mul(&a, &a), "seed {seed} sqr");
        }
        // Edge coefficients (p − 1) maximise every carry chain.
        let pm1 = t.fp().from_i64(-1);
        let edge = Fq::new2(pm1.clone(), pm1.clone());
        let e0 = &(&pm1 * &pm1) - &(&pm1 * &pm1);
        let e1 = (&pm1 * &pm1).double();
        assert_eq!(t.fq_mul(&edge, &edge).coeffs(), &[e0, e1][..]);
        assert_eq!(t.fq_sqr(&edge), t.fq_mul(&edge, &edge));
    }

    #[test]
    fn fq_mul_xi_fast_path_matches_full_mul() {
        let t = bls12_tower();
        for seed in 0..8u64 {
            let a = t.fq_sample(seed);
            assert_eq!(t.fq_mul_xi(&a), t.fq_mul(&a, t.xi()), "seed {seed}");
        }
    }

    #[test]
    fn sparse_line_mul_matches_dense_both_shapes() {
        let t = bls12_tower();
        for seed in 0..6u64 {
            let f = t.fpk_sample(seed);
            let (c0, c1, c3) = (
                t.fq_sample(seed + 10),
                t.fq_sample(seed + 20),
                t.fq_sample(seed + 30),
            );
            // D-twist shape: w⁰, w¹, w³.
            let d = [
                Some(c0.clone()),
                Some(c1.clone()),
                None,
                Some(c3.clone()),
                None,
                None,
            ];
            let dense = t.fpk_mul(&f, &t.fpk_from_sparse(d.clone()));
            assert_eq!(t.fpk_mul_sparse(&f, &d), dense, "seed {seed} D");
            // M-twist shape: w⁰, w², w³.
            let m = [
                Some(c0.clone()),
                None,
                Some(c1.clone()),
                Some(c3.clone()),
                None,
                None,
            ];
            let dense = t.fpk_mul(&f, &t.fpk_from_sparse(m.clone()));
            assert_eq!(t.fpk_mul_sparse(&f, &m), dense, "seed {seed} M");
            // Unrecognised shape falls back to the dense product.
            let other = [Some(c0.clone()), None, None, None, None, Some(c3.clone())];
            let dense = t.fpk_mul(&f, &t.fpk_from_sparse(other.clone()));
            assert_eq!(t.fpk_mul_sparse(&f, &other), dense, "seed {seed} other");
        }
    }

    #[test]
    fn from_coeffs_rejects_bad_counts() {
        let t = bls12_tower();
        let one = t.fp().one();
        assert_eq!(
            Fq::from_coeffs(vec![one.clone()]).unwrap_err(),
            TowerError::CoeffCount {
                expected: "2 or 4",
                got: 1
            }
        );
        assert!(Fq::from_coeffs(vec![one.clone(), one.clone()]).is_ok());
        assert!(Fq::from_coeffs(vec![one.clone(); 4]).is_ok());
        assert_eq!(
            Fpk::from_coeffs(vec![t.fq_zero(); 5]).unwrap_err(),
            TowerError::CoeffCount {
                expected: "6",
                got: 5
            }
        );
        assert!(Fpk::from_coeffs(vec![t.fq_zero(); 6]).is_ok());
    }

    #[test]
    fn sparse_assembly_matches_dense() {
        let t = bls12_tower();
        let c0 = t.fq_sample(1);
        let c1 = t.fq_sample(2);
        let c3 = t.fq_sample(3);
        let sparse = t.fpk_from_sparse([
            Some(c0.clone()),
            Some(c1.clone()),
            None,
            Some(c3.clone()),
            None,
            None,
        ]);
        assert_eq!(sparse.coeffs()[0], c0);
        assert_eq!(sparse.coeffs()[2], t.fq_zero());
        let dense = t.fpk_mul(&sparse, &t.fpk_one());
        assert_eq!(dense, sparse);
    }
}
