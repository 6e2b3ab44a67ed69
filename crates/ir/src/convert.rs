//! Conversions between tower-arithmetic values ([`Fq`], [`Fpk`]) and the
//! flat base-field coordinate layout used by lowered programs.
//!
//! Flat layout convention (the lowering recursion's "internal order"):
//! a level-d value is the concatenation of its parent-level components, so
//! level-k values store the even `w`-power F_q coefficients first
//! (`w⁰ w² w⁴`), then the odd ones (`w¹ w³ w⁵`) — the quadratic-over-cubic
//! split of the tower.

use finesse_ff::{BigUint, Fp, Fpk, Fq, TowerCtx};

/// Flattens an F_q element into base-field elements (tower order).
pub fn fq_to_fps(a: &Fq) -> Vec<Fp> {
    a.coeffs().to_vec()
}

/// Rebuilds an F_q element from flat base-field elements.
pub fn fps_to_fq(tower: &TowerCtx, fps: &[Fp]) -> Fq {
    assert_eq!(fps.len(), tower.qdeg(), "flat width must equal k/6");
    Fq::from_coeffs(fps.to_vec()).expect("length checked above")
}

/// Flattens an F_p^k element into internal order (even `w`-powers first).
pub fn fpk_to_fps(a: &Fpk) -> Vec<Fp> {
    let c = a.coeffs();
    let mut out = Vec::with_capacity(6 * c[0].coeffs().len());
    for m in [0usize, 2, 4, 1, 3, 5] {
        out.extend_from_slice(c[m].coeffs());
    }
    out
}

/// Rebuilds an F_p^k element from internal-order flat elements.
pub fn fps_to_fpk(tower: &TowerCtx, fps: &[Fp]) -> Fpk {
    let q = tower.qdeg();
    assert_eq!(fps.len(), 6 * q, "flat width must equal k");
    let chunk =
        |i: usize| Fq::from_coeffs(fps[i * q..(i + 1) * q].to_vec()).expect("chunks are k/6 wide");
    // internal [E0 E1 E2 O0 O1 O2] → w-powers [E0 O0 E1 O1 E2 O2].
    Fpk::from_coeffs(vec![
        chunk(0),
        chunk(3),
        chunk(1),
        chunk(4),
        chunk(2),
        chunk(5),
    ])
    .expect("exactly six chunks")
}

/// Canonical (non-Montgomery) flat coefficients of an F_q element — the
/// form stored in IR constant tables.
pub fn fq_to_canonical(a: &Fq) -> Vec<BigUint> {
    a.coeffs().iter().map(Fp::to_biguint).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_curves::Curve;

    #[test]
    fn fpk_roundtrip_both_towers() {
        for name in ["BLS12-381", "BLS24-509"] {
            let c = Curve::by_name(name);
            let t = c.tower();
            let a = t.fpk_sample(5);
            let flat = fpk_to_fps(&a);
            assert_eq!(flat.len(), t.k());
            assert_eq!(fps_to_fpk(t, &flat), a, "{name}");
        }
    }

    #[test]
    fn fq_roundtrip() {
        let c = Curve::by_name("BLS24-509");
        let t = c.tower();
        let a = t.fq_sample(9);
        assert_eq!(fps_to_fq(t, &fq_to_fps(&a)), a);
    }
}
