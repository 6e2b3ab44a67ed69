//! The full Finesse design flow: curve in, validated accelerator and
//! architectural feedback out "in minutes" (paper section 4.5).
//!
//! ```text
//! cargo run --example codesign_flow
//! ```
//!
//! The closing step prices the simulated accelerator against the
//! *measured* software baseline: `CostModel::load` reads the medians
//! committed in `results/BENCH_fieldops.json`, and `compare_with_software`
//! turns the simulated latency into the paper's headline speedup. The
//! same model drives `experiments -- --codesign-report` (table2/fig2).
//! Run from the repository root; elsewhere the file is not found and the
//! comparison line says why it is unavailable.

use finesse_core::{compare_with_software, Accelerator, CostModel, DesignFlow, FlowConfig};
use std::error::Error;
use std::path::Path;

fn main() {
    // A design described in the plain-text configuration format (the
    // paper's YAML role).
    let cfg = FlowConfig::parse(
        "
        curve = BN254N
        long = 38          # mmul pipeline depth
        short = 8
        linear_units = 1   # single issue
        variants = all_karatsuba
        cores = 8
        ",
    )
    .expect("valid config");

    let accelerator = DesignFlow::from_config(&cfg).build().expect("compiles");
    println!("{}", accelerator.report());

    // Price the design against the measured software pairing. This is
    // the co-design loop closing — the same CostModel the DSE and the
    // paper artifacts (table2/fig2) use.
    match vs_software(&accelerator) {
        Ok(line) => println!("\n{line}"),
        Err(e) => println!("\nvs software: unavailable ({e})"),
    }

    // The validation stage: run the compiled binary on test vectors and
    // compare against the reference pairing library.
    let v = accelerator.validate(3);
    println!(
        "\nvalidation: {}/{} vectors match the reference pairing",
        v.matching, v.vectors
    );
    assert!(v.all_passed());
}

/// The design's simulated pairing against the committed software median.
fn vs_software(accelerator: &Accelerator) -> Result<String, Box<dyn Error>> {
    let model = CostModel::load(Path::new("results/BENCH_fieldops.json"))?;
    let cmp = compare_with_software("BN254N", accelerator.evaluation(), &model)?;
    Ok(format!(
        "vs software ({}): {:.2} ms SW pairing -> {:.1} us simulated = x{:.0}",
        model.describe(),
        cmp.sw_pairing_ns / 1e6,
        cmp.hw_pairing_ns / 1e3,
        cmp.speedup
    ))
}
