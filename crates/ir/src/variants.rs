//! Operator variants — the algorithm-side axis of the co-design space
//! (paper Table 5, Figures 2 and 10).
//!
//! Each extension level independently chooses its multiplication and
//! squaring decomposition; the cyclotomic squaring used in the final
//! exponentiation is a separate top-level choice. "Disabling Karatsuba at
//! level d" (Figure 2) is simply `mul[d] = Schoolbook`.

use crate::shape::TowerShape;
use std::collections::BTreeMap;
use std::fmt;

/// Multiplication decomposition at one level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum MulVariant {
    /// Karatsuba: 3 (quadratic) or 6 (cubic) sub-multiplications, extra
    /// linear operations.
    Karatsuba,
    /// Schoolbook: 4 (quadratic) or 9 (cubic) sub-multiplications, fewer
    /// linear operations.
    Schoolbook,
}

/// Squaring decomposition at one level.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum SqrVariant {
    /// Quadratic levels: complex squaring (2 sub-multiplications).
    Complex,
    /// Direct expansion (quadratic: 2 squarings + 1 mul; cubic:
    /// 3 squarings + 3 muls).
    Schoolbook,
    /// Lower squaring as a self-multiplication with the level's
    /// [`MulVariant`].
    ViaMul,
    /// Cubic levels: Chung–Hasan SQR2 (6 sub-squarings).
    ChSqr2,
    /// Cubic levels: Chung–Hasan SQR3 (3 squarings + 2 muls).
    ChSqr3,
}

/// Cyclotomic squaring choice for the final exponentiation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CycloVariant {
    /// Granger–Scott squaring over the degree-6 structure (9 F_q
    /// multiplications instead of 18).
    GrangerScott,
    /// Fall back to a plain full squaring.
    PlainSqr,
}

/// A full variant selection: one choice per level plus the cyclotomic
/// choice. This is one point on the algorithmic axis of the design space.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VariantConfig {
    mul: BTreeMap<u8, MulVariant>,
    sqr: BTreeMap<u8, SqrVariant>,
    /// Cyclotomic squaring choice.
    pub cyclo: CycloVariant,
}

impl VariantConfig {
    /// Karatsuba multiplication and the cheapest squarings everywhere
    /// (the "All karat." point of Figure 10).
    pub fn all_karatsuba(shape: &TowerShape) -> Self {
        let mut cfg = VariantConfig {
            mul: BTreeMap::new(),
            sqr: BTreeMap::new(),
            cyclo: CycloVariant::GrangerScott,
        };
        for l in &shape.levels {
            cfg.mul.insert(l.degree, MulVariant::Karatsuba);
            cfg.sqr.insert(
                l.degree,
                if l.arity == 2 {
                    SqrVariant::Complex
                } else {
                    SqrVariant::ChSqr3
                },
            );
        }
        cfg
    }

    /// Schoolbook everywhere (the "All sch." point of Figure 10).
    pub fn all_schoolbook(shape: &TowerShape) -> Self {
        let mut cfg = VariantConfig {
            mul: BTreeMap::new(),
            sqr: BTreeMap::new(),
            cyclo: CycloVariant::PlainSqr,
        };
        for l in &shape.levels {
            cfg.mul.insert(l.degree, MulVariant::Schoolbook);
            cfg.sqr.insert(l.degree, SqrVariant::Schoolbook);
        }
        cfg
    }

    /// A hand-tuned single-issue heuristic (the "Manual" point of
    /// Figure 10): schoolbook at the quadratic base levels — where
    /// Karatsuba's extra linear ops outnumber the multiplications saved on
    /// a single-issue pipeline (§2.2) — Karatsuba above, cheap squarings.
    pub fn manual(shape: &TowerShape) -> Self {
        let mut cfg = Self::all_karatsuba(shape);
        cfg.mul.insert(2, MulVariant::Schoolbook);
        if shape.degrees().contains(&4) {
            cfg.mul.insert(4, MulVariant::Schoolbook);
        }
        cfg
    }

    /// Overrides the multiplication variant at one level.
    pub fn with_mul(mut self, degree: u8, v: MulVariant) -> Self {
        self.mul.insert(degree, v);
        self
    }

    /// Overrides the squaring variant at one level.
    pub fn with_sqr(mut self, degree: u8, v: SqrVariant) -> Self {
        self.sqr.insert(degree, v);
        self
    }

    /// Overrides the cyclotomic variant.
    pub fn with_cyclo(mut self, v: CycloVariant) -> Self {
        self.cyclo = v;
        self
    }

    /// The multiplication variant at a level.
    pub fn mul_at(&self, degree: u8) -> MulVariant {
        *self.mul.get(&degree).unwrap_or(&MulVariant::Karatsuba)
    }

    /// The squaring variant at a level.
    pub fn sqr_at(&self, degree: u8) -> SqrVariant {
        *self.sqr.get(&degree).unwrap_or(&SqrVariant::ViaMul)
    }

    /// Enumerates the multiplication-variant lattice (2^levels points),
    /// with squarings fixed to the per-arity defaults and both cyclotomic
    /// choices — the exhaustive search space of the paper's Figure 10.
    pub fn enumerate_mul_space(shape: &TowerShape) -> Vec<VariantConfig> {
        let degrees = shape.degrees();
        let n = degrees.len();
        let mut out = Vec::new();
        for mask in 0..(1u32 << n) {
            for cyclo in [CycloVariant::GrangerScott, CycloVariant::PlainSqr] {
                let mut cfg = VariantConfig::all_karatsuba(shape).with_cyclo(cyclo);
                for (i, &d) in degrees.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        cfg.mul.insert(d, MulVariant::Schoolbook);
                    }
                }
                out.push(cfg);
            }
        }
        out
    }

    /// A short human-readable tag (for experiment tables).
    pub fn tag(&self) -> String {
        let mut s = String::new();
        for (d, m) in &self.mul {
            s.push_str(&format!(
                "M{}{}",
                d,
                match m {
                    MulVariant::Karatsuba => "k",
                    MulVariant::Schoolbook => "s",
                }
            ));
        }
        s.push_str(match self.cyclo {
            CycloVariant::GrangerScott => "-gs",
            CycloVariant::PlainSqr => "-pl",
        });
        s
    }
}

impl fmt::Display for VariantConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use finesse_curves::Curve;

    #[test]
    fn preset_shapes() {
        let c = Curve::by_name("BLS12-381");
        let shape = TowerShape::for_curve(&c);
        let k = VariantConfig::all_karatsuba(&shape);
        assert_eq!(k.mul_at(12), MulVariant::Karatsuba);
        let s = VariantConfig::all_schoolbook(&shape);
        assert_eq!(s.mul_at(2), MulVariant::Schoolbook);
        assert_eq!(s.cyclo, CycloVariant::PlainSqr);
        let m = VariantConfig::manual(&shape);
        assert_eq!(m.mul_at(2), MulVariant::Schoolbook);
        assert_eq!(m.mul_at(12), MulVariant::Karatsuba);
    }

    #[test]
    fn mul_space_size() {
        let c = Curve::by_name("BLS12-381");
        let shape = TowerShape::for_curve(&c);
        // 3 levels → 2³ mul masks × 2 cyclo = 16.
        assert_eq!(VariantConfig::enumerate_mul_space(&shape).len(), 16);
    }

    #[test]
    fn tags_distinguish_configs() {
        let c = Curve::by_name("BLS12-381");
        let shape = TowerShape::for_curve(&c);
        let a = VariantConfig::all_karatsuba(&shape);
        let b = VariantConfig::all_schoolbook(&shape);
        assert_ne!(a.tag(), b.tag());
    }
}
