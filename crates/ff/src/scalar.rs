//! Modular arithmetic oracles on [`BigUint`] scalars.
//!
//! Scalar-field arithmetic runs on [`crate::Fp`] over the group order r
//! (a curve's `fr()` context); these two helpers are what remains on
//! `BigUint`: the independent reference that tests and the end-to-end
//! benchmark check polynomial evaluations against (Horner's rule), and
//! boundary arithmetic on caller-held scalars. Each ends in
//! `BigUint::rem`, a bitwise long division, so neither belongs in a loop
//! that [`crate::Fp`] can run.
//!
//! Both expect `modulus ≥ 1`.

use crate::biguint::BigUint;

/// `(a + b) mod m`. Inputs need not be pre-reduced.
pub fn mod_add(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    (a + b).rem(m)
}

/// `(a · b) mod m`.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    (a * b).rem(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_ops_wrap_into_range() {
        // The prime 2⁶⁴ − 2³² + 1.
        let m = BigUint::from_hex("ffffffff00000001").unwrap();
        let a = BigUint::from_u64(5);
        let b = &m.checked_sub(&BigUint::one()).unwrap() + &BigUint::from_u64(7); // m + 6
        assert_eq!(mod_add(&a, &b, &m), BigUint::from_u64(11));
        assert_eq!(mod_mul(&a, &b, &m), BigUint::from_u64(30));
        let minus_a = m.checked_sub(&a).unwrap();
        assert!(mod_add(&minus_a, &a, &m).is_zero());
    }
}
