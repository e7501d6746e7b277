//! Static race/hazard/invariant analysis for BQSim artifacts.
//!
//! Seven families of passes, none of which execute the artifact under
//! analysis:
//!
//! * **Task graphs** ([`analyze_graph`], [`check_double_buffer_discipline`])
//!   — recomputes happens-before from the dependency edges and reports
//!   data races, cycles (with a witness), topological-order violations,
//!   and buffer-lifetime hazards; plus a conformance check that the
//!   double-buffered schedule matches the paper's §3.3.2 formula (Fig. 8b).
//! * **QMDDs** ([`analyze_dd`], [`check_nzrv_consistency`]) — normalisation
//!   and canonicity invariants (§2.2), checked structurally on a snapshot
//!   so a package bug cannot hide its own evidence; plus a dense
//!   cross-check of the DD-native NZRV algorithm (Fig. 3).
//! * **ELL tensors** ([`analyze_ell`], [`check_pattern_roundtrip`]) —
//!   shape, column-bounds, row-sorting, and padding discipline of the spMM
//!   operand layout (§3.2), plus a bit-exact round-trip check that a
//!   row-pattern annotation decodes to the tensor it compresses.
//! * **Precision safety** ([`check_precision_safety`]) — verifies the
//!   obligation of narrow-precision execution plans: the depth-derived
//!   error estimate fits the campaign's integrity budget.
//! * **Recovery schedules** ([`check_recovery_schedule`]) — given the
//!   executed timeline of a fault-injected run, verifies retry attempts
//!   keep per-task discipline, preserve happens-before across
//!   dependencies, and never overlap conflicting buffer accesses.
//! * **Campaign journals** ([`check_journal`]) — classifies the
//!   authenticated record sequence of a durable campaign's write-ahead
//!   journal into symbols and runs them through an explicit state machine
//!   (`header → batch* → final`, with quarantine/retry edges): rejected
//!   symbols become exactly-once, range, ordering, and concatenated-
//!   session errors, and torn tails surface as warnings.
//! * **Service schedules** ([`check_service_schedule`]) — replays the
//!   multi-tenant campaign service's recorded schedule trace and
//!   certifies the robustness contract: bounded admission queue, no
//!   per-tenant quota overshoot, weighted-fair picks, the documented
//!   starvation bound, per-campaign shard ordering/exactly-once, and
//!   device-loss retry discipline.
//!
//! Every pass consumes a plain-data *facts* snapshot ([`GraphFacts`],
//! [`DdFacts`], [`EllFacts`]) extractable from the live structures, so
//! tests can hand-build facts seeded with defects the validated
//! constructors would reject. All passes report through one
//! [`Diagnostics`] type.
//!
//! `bqsim-core` runs these passes in `debug_assert!`-gated hooks after
//! building schedules and converting gates, and the `bqsim analyze` CLI
//! subcommand runs all of them over a circuit's full pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dd;
mod diag;
mod ell;
mod graph;
mod journal;
mod precision;
mod recovery;
mod service;

pub use dd::{
    analyze_dd, check_nzrv_consistency, matrix_dd_facts, vector_dd_facts, DdEdgeFacts, DdFacts,
    DdNodeFacts,
};
pub use diag::{json_escape, AnalysisReport, Diagnostic, Diagnostics, ReportSection, Severity};
pub use ell::{analyze_ell, check_pattern_roundtrip, ell_facts, EllFacts};
pub use graph::{
    analyze_graph, check_double_buffer_discipline, expected_buffer_indices, GraphFacts, Loc,
    TaskFacts, TaskOp,
};
pub use journal::{
    check_journal, check_journal_dfa, symbolize_journal, JournalDfa, JournalFacts,
    JournalRecordFacts, JournalRecordKind, JournalState, JournalSymbol, JournalSymbolClass,
};
pub use precision::{check_precision_safety, PrecisionFacts};
pub use recovery::{check_recovery_schedule, recovery_attempt_facts, AttemptFacts};
pub use service::{
    check_service_schedule, parse_schedule_trace, render_schedule_trace, ScheduleEvent,
    ShardOutcome, VT_SCALE,
};
