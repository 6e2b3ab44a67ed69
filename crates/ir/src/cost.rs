//! The software cost baseline of the co-design loop.
//!
//! Every report that prices a simulated design point against the
//! *software* pairing — `finesse-dse`'s `compare_with_software`, the
//! `codesign_flow` example, and the `experiments` exhibits
//! `results/table2.txt` / `results/fig2.txt` — reads one [`CostModel`]:
//! the measured medians committed in `results/BENCH_fieldops.json`
//! (schema `finesse-bench-fieldops/v4` through `/v6`). HW/SW comparisons
//! are only meaningful against the software as it runs, so there is no
//! analytic fallback: a report that cannot load the medians says so.
//!
//! The loader reads the emission's stamp (`schema`, `commit`, `date`) and
//! the `curve` and `pairing_ns` fields of each `curves[]` row; every
//! other field and block of the emission is ignored.
//!
//! [`bench_rows`], [`str_field`] and [`num_field`] are the one reader of
//! the emission: the loader reads through them, and so does the
//! `experiments` gate runner for the `regression_gates` manifest.

use std::fmt;
use std::path::Path;

/// The stamp of the bench emission a [`CostModel`] was loaded from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// The emission's schema, e.g. `finesse-bench-fieldops/v6`.
    pub schema: String,
    /// The commit that emitted the medians.
    pub commit: String,
    /// The emission date, `YYYY-MM-DD`.
    pub date: String,
}

/// Errors from the bench-JSON loader.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostModelError {
    /// The file could not be read.
    Io(String),
    /// The `schema` field is missing or names an unsupported version.
    SchemaVersion { found: String },
    /// A required field is absent from a curve row, or is not a number.
    MissingField { curve: String, field: &'static str },
    /// The `curves` array is missing, unterminated or empty.
    NoCurves,
}

impl fmt::Display for CostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModelError::Io(e) => write!(f, "cost model: {e}"),
            CostModelError::SchemaVersion { found } => write!(
                f,
                "cost model: unsupported bench schema {found:?} (expected \
                 finesse-bench-fieldops/v4, /v5, or /v6)"
            ),
            CostModelError::MissingField { curve, field } => {
                write!(
                    f,
                    "cost model: curve row {curve:?} is missing field {field:?}"
                )
            }
            CostModelError::NoCurves => {
                write!(f, "cost model: bench JSON has no curve rows")
            }
        }
    }
}

impl std::error::Error for CostModelError {}

/// Measured software pairing costs per curve, with the stamp of the
/// emission they came from.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    provenance: Provenance,
    /// `(curve, pairing_ns)` in source order.
    pairing_ns: Vec<(String, f64)>,
}

impl CostModel {
    /// Parse a `finesse-bench-fieldops/v4`, `/v5`, or `/v6` JSON emission.
    ///
    /// # Errors
    ///
    /// [`CostModelError::SchemaVersion`] for a missing or unsupported
    /// schema, [`CostModelError::NoCurves`] when the `curves` array is
    /// absent, unterminated or holds no rows, and
    /// [`CostModelError::MissingField`] for a row without a `curve` name
    /// or a numeric `pairing_ns`.
    pub fn from_bench_json(text: &str) -> Result<CostModel, CostModelError> {
        let schema = str_field(text, "schema").unwrap_or_default();
        const SUPPORTED: [&str; 3] = [
            "finesse-bench-fieldops/v4",
            "finesse-bench-fieldops/v5",
            "finesse-bench-fieldops/v6",
        ];
        if !SUPPORTED.contains(&schema.as_str()) {
            return Err(CostModelError::SchemaVersion { found: schema });
        }
        let commit = str_field(text, "commit").unwrap_or_default();
        let date = str_field(text, "date").unwrap_or_default();

        let rows = bench_rows(text, "curves").ok_or(CostModelError::NoCurves)?;
        let mut pairing_ns = Vec::new();
        for obj in rows {
            let curve = str_field(obj, "curve").ok_or(CostModelError::MissingField {
                curve: String::from("?"),
                field: "curve",
            })?;
            let ns = num_field(obj, "pairing_ns").ok_or(CostModelError::MissingField {
                curve: curve.clone(),
                field: "pairing_ns",
            })?;
            pairing_ns.push((curve, ns));
        }
        if pairing_ns.is_empty() {
            return Err(CostModelError::NoCurves);
        }
        Ok(CostModel {
            provenance: Provenance {
                schema,
                commit,
                date,
            },
            pairing_ns,
        })
    }

    /// Load a model from a bench JSON file on disk.
    ///
    /// # Errors
    ///
    /// [`CostModelError::Io`] when the file cannot be read, otherwise as
    /// [`CostModel::from_bench_json`].
    pub fn load(path: &Path) -> Result<CostModel, CostModelError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CostModelError::Io(format!("{}: {e}", path.display())))?;
        CostModel::from_bench_json(&text)
    }

    /// The stamp of the emission this model was loaded from.
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// One-line provenance string for report footers.
    pub fn describe(&self) -> String {
        let Provenance {
            schema,
            commit,
            date,
        } = &self.provenance;
        format!("measured medians ({schema}, commit {commit}, {date})")
    }

    /// The measured median of one full software pairing on `curve`, in
    /// nanoseconds, if the emission has a row for it.
    pub fn pairing_ns(&self, curve: &str) -> Option<f64> {
        self.pairing_ns
            .iter()
            .find(|(name, _)| name == curve)
            .map(|&(_, ns)| ns)
    }
}

// ---- minimal JSON field extraction (no serde in the workspace) ----
// The bench emission is machine-written with `"key": value` rows and no
// brackets or braces inside the strings of an array these helpers read,
// which is all they assume. Malformed input yields `None` (and so a
// typed error), never a panic.

/// The top-level `{…}` rows of the array `"key": […]` in a bench
/// emission, or `None` when the array is missing or never closed. Nested
/// arrays and objects inside a row stay inside that row.
pub fn bench_rows<'a>(text: &'a str, key: &str) -> Option<Vec<&'a str>> {
    json_array_block(text, key).map(json_objects)
}

/// The string value of the first `"key": "…"` in `obj`.
pub fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let start = after.find('"')? + 1;
    let end = start + after[start..].find('"')?;
    Some(after[start..end].to_string())
}

/// The numeric value of the first `"key": …` in `obj`.
pub fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let after = &obj[obj.find(&pat)? + pat.len()..];
    let end = after.find([',', '}', ']']).unwrap_or(after.len());
    after[..end].trim().parse().ok()
}

/// The bracketed contents of `"key": [ ... ]` (without the brackets), or
/// `None` when the array is missing or never closed.
fn json_array_block<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let after = &text[text.find(&pat)? + pat.len()..];
    let open = after.find('[')?;
    let mut depth = 0usize;
    for (i, b) in after.bytes().enumerate().skip(open) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&after[open + 1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Top-level `{ ... }` objects inside an array block. A `}` with no open
/// object is skipped.
fn json_objects(block: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in block.bytes().enumerate() {
        match b {
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    out.push(&block[start..=i]);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loader_rejects_unknown_schema() {
        let err =
            CostModel::from_bench_json("{\"schema\": \"finesse-bench-fieldops/v3\"}").unwrap_err();
        assert!(matches!(err, CostModelError::SchemaVersion { .. }));
        let err = CostModel::from_bench_json("{}").unwrap_err();
        assert!(matches!(err, CostModelError::SchemaVersion { .. }));
    }

    #[test]
    fn loader_requires_curve_rows() {
        // Every supported schema version shares the curve-row contract.
        for schema in ["v4", "v5", "v6"] {
            let err = CostModel::from_bench_json(&format!(
                "{{\"schema\": \"finesse-bench-fieldops/{schema}\", \"curves\": []}}"
            ))
            .unwrap_err();
            assert_eq!(err, CostModelError::NoCurves);
        }
    }
}
