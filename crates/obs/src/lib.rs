//! Flight recorder + decision tracing for the gfsc stack.
//!
//! The paper's whole subject is acting on *non-ideal* measurements, so
//! when a controller moves — a socket gets capped, a fan wall gets
//! raised, the daemon hands the rack back to firmware — the question is
//! always "what did it see, and why did it do that?". This crate is the
//! answer's substrate: a fixed-capacity, allocation-free
//! [`FlightRecorder`] that the epoch hot loops feed with compact
//! [`Event`]s (`epoch`, `source`, `kind`, one `f64` payload), behind a
//! [`Recorder`] handle that compiles down to a branch-on-`None` when
//! disarmed. Nothing here depends on the rest of the workspace, so the
//! same event stream flows from the coordination layer, the daemon
//! watchdog, and the offline explain tooling alike.
//!
//! The supporting cast:
//!
//! - [`LogHistogram`] — log-linear latency histogram (HDR-style, 16
//!   linear sub-buckets per octave, ≤ 6.25 % relative error) that
//!   replaces last/max latency pairs with real p50/p95/p99.
//! - [`lineproto`] — influx line-protocol escaping for measurement and
//!   tag names, plus the recorder counter export.
//! - [`explain`] — renders a [`FlightSnapshot`] as a per-epoch causal
//!   timeline ("epoch 412: s7 measured 79.3 °C, capper proposed …").
//! - [`toml_subset`] — the one reader for the TOML-subset config files
//!   (`lint.toml`, the `gfsc-daemond` config).
//!
//! Recording never allocates: the ring is sized once at arming time and
//! evicts the oldest event when full, counting every drop so a saturated
//! recorder is visible rather than silently lossy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod explain;
pub mod hist;
pub mod lineproto;
pub mod recorder;
pub mod toml_subset;

pub use event::{Event, EventKind, Source};
pub use hist::LogHistogram;
pub use recorder::{FlightRecorder, FlightSnapshot, Recorder};

/// Stable numeric codes for daemon fallback reasons, so watchdog
/// transitions ride the same `f64`-payload event stream as every other
/// decision. The daemon encodes, the explain layer decodes.
#[must_use]
pub fn fallback_reason_label(code: f64) -> &'static str {
    match code as i64 {
        0 => "sensor-loss",
        1 => "read-failures",
        2 => "actuation-failures",
        3 => "controller-panic",
        4 => "overrun-streak",
        _ => "unknown",
    }
}
