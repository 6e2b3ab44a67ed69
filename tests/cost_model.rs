//! CostModel loader tests: fixture round-trip, schema rejection,
//! malformed input, and the committed medians pricing every Table-2
//! curve's pairing.

use finesse::core::{CostModel, CostModelError, Provenance};
use finesse::curves::all_specs;
use std::path::Path;

/// A complete v5 emission: one curve row with every column the bench
/// writes plus a `batch_verify` block. The loader reads only the stamp
/// and `pairing_ns`; the rest shows that unread fields are tolerated.
const FIXTURE: &str = r#"{
  "schema": "finesse-bench-fieldops/v5",
  "harness": "median of 5 batches, ns per op",
  "commit": "abc123def456",
  "date": "2026-08-08",

  "cost_model": {
    "consumer": "finesse_ir::cost::CostModel::from_bench_json",
    "provenance": "fixture",
    "consumed_fields": ["fq_mul_ns", "pairing_ns"]
  },

  "curves": [
    {"curve": "BN254N", "p_bits": 254, "limbs": 4,
     "fp_mul_ns": 41.6, "fp_sqr_ns": 40.0, "fq_mul_ns": 820.0,
     "g1_mul_ns": 161838.0, "g1_mul_fixed_ns": 62208.0,
     "g2_mul_ns": 485000.0, "g2_mul_fixed_ns": 242000.0,
     "msm64_g1_ns": 3000000.0, "msm256_g1_ns": 9168355.0,
     "msm1024_g1_ns": 29000000.0, "msm4096_g1_ns": 108344515.0,
     "pairing_ns": 3140000.0}
  ],

  "batch_verify": {
    "note": "fixture",
    "rows": [
      {"curve": "BN254N", "n": 8, "amortized_ns_per_check": 900000.0},
      {"curve": "BN254N", "n": 32, "amortized_ns_per_check": 700000.0}
    ]
  }
}
"#;

#[test]
fn fixture_round_trip() {
    let model = CostModel::from_bench_json(FIXTURE).expect("fixture parses");
    assert_eq!(
        model.provenance(),
        &Provenance {
            schema: "finesse-bench-fieldops/v5".into(),
            commit: "abc123def456".into(),
            date: "2026-08-08".into(),
        }
    );
    assert_eq!(
        model.describe(),
        "measured medians (finesse-bench-fieldops/v5, commit abc123def456, 2026-08-08)"
    );
    assert_eq!(model.pairing_ns("BN254N"), Some(3_140_000.0));
    assert_eq!(model.pairing_ns("NOT-A-CURVE"), None);
}

#[test]
fn schema_version_mismatch_is_rejected() {
    let old = FIXTURE.replace("finesse-bench-fieldops/v5", "finesse-bench-fieldops/v3");
    match CostModel::from_bench_json(&old) {
        Err(CostModelError::SchemaVersion { found }) => {
            assert_eq!(found, "finesse-bench-fieldops/v3");
        }
        other => panic!("expected SchemaVersion error, got {other:?}"),
    }
}

#[test]
fn empty_curves_is_rejected() {
    let err =
        CostModel::from_bench_json("{\"schema\": \"finesse-bench-fieldops/v5\", \"curves\": []}")
            .unwrap_err();
    assert!(matches!(err, CostModelError::NoCurves), "{err:?}");
}

/// Each malformed emission gets its typed error, never a panic (the
/// array and object scanners used to underflow on a stray closer).
#[test]
fn malformed_input_is_a_typed_error() {
    const HEAD: &str = "{\"schema\": \"finesse-bench-fieldops/v6\", ";
    let cases: [(&str, String, CostModelError); 5] = [
        (
            "stray closing brace",
            format!("{HEAD}\"curves\": [}}]}}"),
            CostModelError::NoCurves,
        ),
        (
            "unterminated curves array",
            format!("{HEAD}\"curves\": [{{\"curve\": \"BN254N\", \"pairing_ns\": 1.0}}"),
            CostModelError::NoCurves,
        ),
        (
            "row without pairing_ns",
            format!("{HEAD}\"curves\": [{{\"curve\": \"BN254N\", \"fq_mul_ns\": 1.0}}]}}"),
            CostModelError::MissingField {
                curve: "BN254N".into(),
                field: "pairing_ns",
            },
        ),
        (
            "non-numeric pairing_ns",
            format!("{HEAD}\"curves\": [{{\"curve\": \"BN254N\", \"pairing_ns\": \"fast\"}}]}}"),
            CostModelError::MissingField {
                curve: "BN254N".into(),
                field: "pairing_ns",
            },
        ),
        (
            "missing schema",
            "{\"curves\": [{\"curve\": \"BN254N\", \"pairing_ns\": 1.0}]}".into(),
            CostModelError::SchemaVersion {
                found: String::new(),
            },
        ),
    ];
    for (what, text, want) in cases {
        assert_eq!(
            CostModel::from_bench_json(&text),
            Err(want),
            "{what}: {text}"
        );
    }
}

#[test]
fn committed_bench_json_loads_as_measured() {
    let model =
        CostModel::load(Path::new("results/BENCH_fieldops.json")).expect("committed JSON loads");
    assert!(
        model
            .provenance()
            .schema
            .starts_with("finesse-bench-fieldops/"),
        "{:?}",
        model.provenance()
    );
    // Every Table-2 curve's software pairing must be priced.
    for spec in all_specs() {
        assert!(
            model.pairing_ns(spec.name).is_some_and(|ns| ns > 0.0),
            "{} pairing missing",
            spec.name
        );
    }
}
