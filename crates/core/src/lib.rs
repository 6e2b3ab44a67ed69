//! # finesse-core
//!
//! The Finesse framework facade: the full agile design flow of the paper's
//! Figure 3 behind one builder API.
//!
//! ```no_run
//! use finesse_core::DesignFlow;
//!
//! let accelerator = DesignFlow::for_curve("BN254N").cores(8).build()?;
//! assert!(accelerator.validate(3).all_passed());
//! println!("{}", accelerator.report());
//! # Ok::<(), finesse_dse::DseError>(())
//! ```
//!
//! [`DesignFlow`] wires together CodeGen (`finesse-compiler`), lowering
//! and variants (`finesse-ir`), scheduling, the simulators
//! (`finesse-sim`), and the area/timing feedback (`finesse-hw`); the
//! result is an [`Accelerator`] carrying the binary image, the evaluated
//! metrics and a validation harness against the reference pairing. The
//! shared software [`CostModel`] (the measured pairing medians committed
//! in `results/BENCH_fieldops.json`) is re-exported here so callers can
//! price candidate points against the current software baseline.

pub mod config;
pub mod error;
pub mod flow;

pub use config::{FlowConfig, ParseConfigError};
pub use error::{FinesseError, PolyError, SrsError};
pub use finesse_dse::{compare_with_software, DseError, SwComparison};
pub use finesse_ir::{CostModel, CostModelError, Provenance};
pub use flow::{Accelerator, DesignFlow, ValidationReport};
