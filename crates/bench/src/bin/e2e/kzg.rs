//! The KZG serving workload: verify requests (a commitment and opening
//! witnesses as compressed G1 bytes, plus evaluation scalars) mixed with
//! prove requests (a fresh polynomial to commit and open at a point set,
//! answered as compressed bytes).

use crate::gen::Rng;
use crate::trace::Ctx;
use crate::workload::{Class, Workload};
use finesse_curves::{spec_by_name, Affine, Compression, Curve};
use finesse_ff::scalar::{mod_add, mod_mul};
use finesse_ff::{BigUint, Fp};
use finesse_pairing::PairingEngine;
use finesse_poly::{BatchOpening, Claim, Kzg, Opening, Polynomial, Srs};
use std::sync::Arc;

pub struct Shape {
    pub curve: &'static str,
    /// Coefficients per polynomial (the SRS holds this many powers).
    pub coeffs: usize,
    /// Evaluation points per request.
    pub openings: usize,
    pub verify_pool: usize,
    pub prove_pool: usize,
    /// Verify requests per prove request in the mix.
    pub verifies_per_prove: usize,
    pub warmups: usize,
}

impl Shape {
    pub fn wire() -> Shape {
        Shape {
            curve: "BN254N",
            coeffs: 256,
            openings: 8,
            verify_pool: 16,
            prove_pool: 8,
            verifies_per_prove: 4,
            warmups: 5,
        }
    }
}

struct VerifyReq {
    /// The commitment, then one witness per opening.
    points: Vec<Vec<u8>>,
    /// `(z, y)` per opening.
    scalars: Vec<(BigUint, BigUint)>,
}

struct ProveReq {
    coeffs: Vec<BigUint>,
    zs: Vec<BigUint>,
    /// The benchmark's own evaluations of the polynomial at `zs`.
    ys: Vec<BigUint>,
    /// The commitment computed as `Σ cᵢ·[τⁱ]G1` term by term.
    commitment: Vec<u8>,
}

pub struct KzgWire {
    shape: Shape,
    srs_seed: Vec<u8>,
    client: Arc<Curve>,
    engine: PairingEngine,
    srs: Srs,
    verifies: Vec<VerifyReq>,
    proves: Vec<ProveReq>,
    /// Whether request `i` (mod the length) is a prove.
    mix: Vec<bool>,
}

/// `p(x) mod r` by Horner's rule, independent of the library's
/// polynomial type.
fn horner(coeffs: &[BigUint], x: &BigUint, r: &BigUint) -> BigUint {
    coeffs.iter().rev().fold(BigUint::zero(), |acc, c| {
        mod_add(&mod_mul(&acc, x, r), c, r)
    })
}

impl KzgWire {
    pub fn new(shape: Shape, seed: u64) -> Result<KzgWire, String> {
        let client = Curve::try_by_name(shape.curve).map_err(|e| e.to_string())?;
        let engine = PairingEngine::new(Arc::clone(&client));
        let srs_seed = seed.to_le_bytes().to_vec();
        let srs = Srs::generate(&client, shape.coeffs - 1, &srs_seed);
        let kzg = Kzg::new(&engine, &srs).map_err(|e| e.to_string())?;
        let r = client.r();
        let encode = |p: &Affine<Fp>| client.encode_g1(p, Compression::Compressed);

        let mut rng = Rng::new(seed, "kzg.verify");
        let mut verifies = Vec::with_capacity(shape.verify_pool);
        for _ in 0..shape.verify_pool {
            let coeffs: Vec<BigUint> = (0..shape.coeffs).map(|_| rng.scalar(r)).collect();
            let poly = Polynomial::new(coeffs.clone(), r);
            let c = kzg.commit(&poly).map_err(|e| e.to_string())?;
            let mut points = vec![encode(&c)];
            let mut scalars = Vec::with_capacity(shape.openings);
            for _ in 0..shape.openings {
                let z = rng.scalar(r);
                let y = horner(&coeffs, &z, r);
                let opening = kzg.open(&poly, &z).map_err(|e| e.to_string())?;
                if opening.y != y {
                    return Err("the library's evaluation disagrees with Horner's rule".into());
                }
                points.push(encode(&opening.witness));
                scalars.push((z, y));
            }
            verifies.push(VerifyReq { points, scalars });
        }

        let mut rng = Rng::new(seed, "kzg.prove");
        let mut proves = Vec::with_capacity(shape.prove_pool);
        for _ in 0..shape.prove_pool {
            let coeffs: Vec<BigUint> = (0..shape.coeffs).map(|_| rng.scalar(r)).collect();
            let zs: Vec<BigUint> = (0..shape.openings).map(|_| rng.scalar(r)).collect();
            let ys = zs.iter().map(|z| horner(&coeffs, z, r)).collect();
            let c = srs
                .powers_g1()
                .iter()
                .zip(&coeffs)
                .fold(Affine::infinity(client.fp().zero()), |acc, (p, k)| {
                    client.g1_add(&acc, &client.g1_mul(p, k))
                });
            proves.push(ProveReq {
                coeffs,
                zs,
                ys,
                commitment: encode(&c),
            });
        }

        let mut rng = Rng::new(seed, "kzg.mix");
        let block = shape.verifies_per_prove + 1;
        let mut mix = Vec::with_capacity(16 * block);
        for _ in 0..16 {
            let p = rng.below(block);
            mix.extend((0..block).map(|j| j == p));
        }
        Ok(KzgWire {
            shape,
            srs_seed,
            client,
            engine,
            srs,
            verifies,
            proves,
            mix,
        })
    }

    #[cfg(test)]
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in &self.verifies {
            out.extend(v.points.concat());
            for (z, y) in &v.scalars {
                out.extend(z.to_hex().bytes());
                out.extend(y.to_hex().bytes());
            }
        }
        for p in &self.proves {
            out.extend(&p.commitment);
            for z in p.coeffs.iter().chain(&p.zs) {
                out.extend(z.to_hex().bytes());
            }
        }
        out.extend(self.mix.iter().map(|&b| u8::from(b)));
        out
    }
}

pub struct Server {
    curve: Arc<Curve>,
    engine: PairingEngine,
    srs: Srs,
}

pub enum Answer {
    Verified(Result<(), String>),
    Proved {
        commitment: Vec<u8>,
        quotient: Vec<u8>,
        shift: Vec<u8>,
        points: Vec<(BigUint, BigUint)>,
    },
}

impl Workload for KzgWire {
    type State = Server;
    type Response = Answer;

    fn threads(&self) -> usize {
        1
    }

    fn cycle(&self) -> usize {
        self.shape.verifies_per_prove + 1
    }

    fn warmups(&self) -> usize {
        self.shape.warmups
    }

    fn primary(&self) -> Class {
        Class::Verify
    }

    fn secondary(&self) -> Class {
        Class::Prove
    }

    fn setup(&self) -> Result<Server, String> {
        let spec = spec_by_name(self.shape.curve).ok_or("unknown curve")?;
        let curve = Arc::new(Curve::from_spec(spec).map_err(|e| e.to_string())?);
        let srs = Srs::generate(&curve, self.shape.coeffs - 1, &self.srs_seed);
        Ok(Server {
            engine: PairingEngine::new(Arc::clone(&curve)),
            curve,
            srs,
        })
    }

    fn serve(&self, st: &mut Server, i: usize, cx: Ctx<'_>) -> Result<(Class, Answer), String> {
        let kzg = Kzg::new(&st.engine, &st.srs).map_err(|e| e.to_string())?;
        if !self.mix[i % self.mix.len()] {
            let req = &self.verifies[i % self.verifies.len()];
            let mut points = Vec::with_capacity(req.points.len());
            for b in &req.points {
                let p = cx.span("curves.decode_g1", |_| st.curve.decode_g1(b));
                points.push(p.map_err(|e| format!("honest point rejected: {e}"))?);
            }
            let (c, witnesses) = points.split_first().ok_or("empty request")?;
            let claims: Vec<Claim> = witnesses
                .iter()
                .zip(&req.scalars)
                .map(|(w, (z, y))| Claim::Single {
                    commitment: c.clone(),
                    opening: Opening {
                        z: z.clone(),
                        y: y.clone(),
                        witness: w.clone(),
                    },
                })
                .collect();
            let verdict = cx.span("poly.verify_batch", |_| kzg.verify_batch(&claims));
            return Ok((
                Class::Verify,
                Answer::Verified(verdict.map_err(|e| e.to_string())),
            ));
        }
        let req = &self.proves[(i / self.cycle()) % self.proves.len()];
        let poly = Polynomial::new(req.coeffs.clone(), st.curve.r());
        let c = cx
            .span("poly.commit", |_| kzg.commit(&poly))
            .map_err(|e| e.to_string())?;
        let opening = cx
            .span("poly.open_batch", |_| kzg.open_batch(&poly, &c, &req.zs))
            .map_err(|e| e.to_string())?;
        let encode = |p: &Affine<Fp>| {
            cx.span("curves.encode_g1", |_| {
                st.curve.encode_g1(p, Compression::Compressed)
            })
        };
        Ok((
            Class::Prove,
            Answer::Proved {
                commitment: encode(&c),
                quotient: encode(&opening.quotient),
                shift: encode(&opening.shift),
                points: opening.points,
            },
        ))
    }

    fn check(&self, i: usize, answer: &Answer) -> Result<(), String> {
        let (commitment, quotient, shift, points) = match answer {
            Answer::Verified(verdict) => {
                return verdict
                    .clone()
                    .map_err(|e| format!("honest openings rejected: {e}"))
            }
            Answer::Proved {
                commitment,
                quotient,
                shift,
                points,
            } => (commitment, quotient, shift, points),
        };
        let req = &self.proves[(i / self.cycle()) % self.proves.len()];
        if *commitment != req.commitment {
            return Err("commitment differs from Σ cᵢ·[τⁱ]G1".into());
        }
        let want: Vec<(BigUint, BigUint)> =
            req.zs.iter().cloned().zip(req.ys.iter().cloned()).collect();
        if *points != want {
            return Err("claimed evaluations differ from Horner's rule".into());
        }
        let decode = |b: &[u8]| {
            self.client
                .decode_g1(b)
                .map_err(|e| format!("proof bytes rejected: {e}"))
        };
        let claim = Claim::Batch {
            commitment: decode(commitment)?,
            opening: BatchOpening {
                points: want,
                quotient: decode(quotient)?,
                shift: decode(shift)?,
            },
        };
        let kzg = Kzg::new(&self.engine, &self.srs).map_err(|e| e.to_string())?;
        kzg.verify_batch(&[claim])
            .map_err(|e| format!("the produced opening does not verify: {e}"))
    }
}
