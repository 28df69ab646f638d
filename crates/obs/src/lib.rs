//! # cwsp-obs — the unified observability layer
//!
//! The paper's evaluation (§IX) is entirely about *where cycles and NVM
//! writes go*: stall breakdowns, buffer occupancies, log amplification.
//! This crate is the substrate every other crate publishes that information
//! through, with zero external dependencies (the repository builds offline):
//!
//! * [`metrics`] — a named metrics registry: counters, gauges, and labelled
//!   histograms with snapshot/delta support and JSON serialization.
//!   `SimStats`, the compiler pipeline, and the bench engine all publish
//!   into one of these.
//! * [`chrome`] — a builder for Chrome trace-event JSON
//!   (`chrome://tracing` / [Perfetto](https://ui.perfetto.dev)-loadable),
//!   with cores and memory controllers as named tracks. The simulator's
//!   event ring exports through this.
//! * [`profile`] — the flat cycle-attribution profile model: every simulated
//!   core-cycle attributed to a (function, static region, cause) site,
//!   rendered as top-N tables and JSON reports.
//! * [`flight`] — the crash-survivable flight recorder: a binary ring
//!   journal of persist-path events written through `cwsp_store::spill`,
//!   so an injected crash (or a killed process, with `CWSP_FLIGHT_DIR`)
//!   leaves the lineage evidence readable.
//! * [`forensics`] — post-crash frontier reconstruction from a journal +
//!   machine snapshot: persisted / in-WPQ / dirty store sets, lost-store
//!   attribution, and the replay cross-check, rendered as text, JSON, and
//!   a Chrome/Perfetto track.
//! * [`json`] — the workspace's one JSON format: a [`json::Value`] tree
//!   with a pretty and a compact writer and a parser. Every JSON document
//!   the workspace writes is built as a `Value`.
//! * [`sink`] — the [`sink::ObsSink`] trait: the low-rate instrumentation
//!   interface (compiler passes, recovery replay). The no-op
//!   [`sink::NullSink`] is the default everywhere, so instrumented code
//!   paths cost one `enabled()` check when observability is off.
//!
//! The simulator's per-event hot path does *not* go through a `dyn` sink —
//! it keeps its fixed-capacity typed ring (`cwsp_sim::trace::Trace`, gated
//! by an `Option` branch) and converts to this crate's representations at
//! export time. See DESIGN.md §8 for the architecture.

pub mod chrome;
pub mod flight;
pub mod forensics;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod tier;

pub use chrome::ChromeTrace;
pub use flight::{FlightKind, FlightRecord, FlightRecorder};
pub use forensics::{CoreFrontier, ForensicReport, MachineFrontier, StoreFate};
pub use metrics::{MetricValue, ObserveError, Registry, Snapshot};
pub use profile::{FlatProfile, ProfileRow};
pub use sink::{ChromeSink, MemSink, NullSink, ObsSink, SinkEvent};
