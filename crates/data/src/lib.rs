//! Datasets for the UADB reproduction.
//!
//! The paper evaluates on 84 real tabular datasets from the ADBench
//! benchmark (its Table III). Those datasets are not redistributable
//! here, so this crate substitutes a deterministic **simulated suite**
//! with one dataset per roster entry, reproducing each entry's anomaly
//! ratio and category, with anomalies drawn from the four canonical
//! ADBench anomaly types the paper itself uses for its synthetic study
//! (Fig. 5):
//!
//! * **local** — same cluster means, inflated covariance,
//! * **global** — uniform over an inflated bounding box,
//! * **clustered** — tight off-manifold clusters,
//! * **dependency** — marginals preserved, joint structure broken.
//!
//! Modules:
//! * [`dataset`] — the labelled `Dataset` container,
//! * [`synth`] — the four generators plus Gaussian-mixture inlier bases,
//! * [`suite`] — the 84-entry roster of Table III and suite generation,
//! * [`preprocess`] — min-max / z-score scalers,
//! * [`splits`] — deterministic k-fold splitting (UADB's 3-fold ensemble).

pub mod dataset;
pub mod io;
pub mod preprocess;
pub mod splits;
pub mod suite;
pub mod synth;

pub use dataset::Dataset;
pub use preprocess::Standardizer;
pub use suite::{RosterEntry, SuiteScale, ROSTER};
pub use synth::AnomalyType;
