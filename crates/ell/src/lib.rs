//! ELL sparse gate-matrix format and DD-to-ELL conversion (paper §3.2).
//!
//! After BQCS-aware gate fusion, BQSim converts each fused gate's decision
//! diagram into **ELL** — a padded sparse format storing, per row, exactly
//! `maxNZR` values and column indices. ELL fits quantum gate matrices
//! because their non-zeros-per-row are near-uniform (Table 1), which gives
//! GPU threads balanced work and coalesced accesses.
//!
//! This crate provides:
//!
//! * [`EllMatrix`] — the format plus reference spMV/spMM (the BQCS kernel's
//!   functional semantics).
//! * [`CsrMatrix`] — a CSR alternative used by the ablation bench to show
//!   why the paper picks ELL.
//! * [`GpuDd`] — the paper's Fig. 6 GPU-resident DD layout (edge array +
//!   node array).
//! * [`convert`] — CPU path-enumeration conversion and a faithful port of
//!   the paper's Algorithm 1 (per-row iterative DFS with explicit stacks),
//!   including the DFS step counts the hybrid τ heuristic and the GPU cost
//!   model consume.
//!
//! # Example
//!
//! ```
//! use bqsim_ell::{convert, EllMatrix};
//! use bqsim_qdd::{convert::matrix_from_dense, DdPackage};
//! use bqsim_qcir::GateKind;
//!
//! let mut dd = DdPackage::new();
//! let m = GateKind::H.matrix().kron(&GateKind::Cx.matrix());
//! let e = matrix_from_dense(&mut dd, &m);
//! let ell = convert::ell_from_dd_cpu(&mut dd, e, 3);
//! assert_eq!(ell.num_rows(), 8);
//! assert_eq!(ell.max_nzr(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod format;
mod gpu_dd;
mod planar;
mod precision;

pub mod convert;

pub use csr::CsrMatrix;
pub use format::{pack_batch, unpack_batch, EllMatrix};
pub use gpu_dd::{GpuDd, GpuDdEdge, GpuDdNode, NIL};
pub use planar::{AmpPlanes, Lane, Layout, TILE};
pub use precision::{precision_tolerance, Precision};
