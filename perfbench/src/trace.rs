//! The traced run's span log: one span per call across a layer boundary,
//! kept in memory and written out when the benchmark ends.
//!
//! Spans nest through an open-span stack, so each span knows the span
//! that caused it (a `spawn` inside a `poll_temperatures` inside a daemon
//! `cycle`), and a layer's self time is its duration minus its children's.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Every layer boundary the traced runs time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Workload::sample`.
    Sample,
    /// `RackControlBank::epoch` on a fan-due epoch.
    EpochFan,
    /// `RackControlBank::epoch` on a CPU-only epoch.
    EpochCpu,
    /// `RackView::min_safe_zone_fan` (the single-step release path).
    MinSafe,
    /// `RackServer::step`.
    Step,
    /// One daemon control cycle, from one temperature poll to the next.
    Cycle,
    /// `TelemetrySource::poll_temperatures` (spawn plus `sdr` parsing).
    PollTemps,
    /// The other `TelemetrySource` calls (tachometers, demand, advance).
    PollOther,
    /// `FanActuator::write_fan_target`.
    WriteFan,
    /// `FanActuator::write_caps`.
    WriteCaps,
    /// `CommandRunner::run`: one `ipmitool` process.
    Spawn,
    /// `ScenarioGrid::run_batched` over the finned grid.
    SweepBatched,
    /// `ScenarioGrid::run` over the rack matrix.
    SweepScalar,
}

impl Kind {
    pub const ALL: [Kind; 13] = [
        Kind::Sample,
        Kind::EpochFan,
        Kind::EpochCpu,
        Kind::MinSafe,
        Kind::Step,
        Kind::Cycle,
        Kind::PollTemps,
        Kind::PollOther,
        Kind::WriteFan,
        Kind::WriteCaps,
        Kind::Spawn,
        Kind::SweepBatched,
        Kind::SweepScalar,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Sample => "workload.sample",
            Kind::EpochFan => "coord.epoch_fan",
            Kind::EpochCpu => "coord.epoch_cpu",
            Kind::MinSafe => "coord.min_safe",
            Kind::Step => "rack.step",
            Kind::Cycle => "daemon.cycle",
            Kind::PollTemps => "daemon.poll_temperatures",
            Kind::PollOther => "daemon.poll_other",
            Kind::WriteFan => "daemon.write_fan",
            Kind::WriteCaps => "daemon.write_caps",
            Kind::Spawn => "daemon.spawn",
            Kind::SweepBatched => "sweep.batched",
            Kind::SweepScalar => "sweep.scalar",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    parent: u32,
    start: Instant,
    end: Instant,
}

/// Count, total and self time of one layer, accumulated over spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Totals {
    /// Mean duration per span, in seconds (0 without spans).
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }

    /// Mean self time per span, in seconds (0 without spans).
    pub fn mean_self_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_s / self.count as f64
        }
    }
}

/// The in-memory span log of one traced pass.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> Self {
        Self { spans: Vec::with_capacity(capacity), open: Vec::with_capacity(8) }
    }

    /// Opens a span of `kind`, child of the innermost open span.
    #[inline]
    pub fn open(&mut self, kind: Kind) {
        self.start(kind, Instant::now());
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        self.end(Instant::now());
    }

    /// Closes the innermost open span and opens a sibling of `kind` at the
    /// same instant: back-to-back layer calls cost one clock read per
    /// boundary and leave no unattributed gap between them.
    #[inline]
    pub fn switch(&mut self, kind: Kind) {
        let now = Instant::now();
        self.end(now);
        self.start(kind, now);
    }

    #[inline]
    fn start(&mut self, kind: Kind, now: Instant) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        self.spans.push(Span { kind, parent, start: now, end: now });
        self.open.push(id);
    }

    #[inline]
    fn end(&mut self, now: Instant) {
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end = now;
        }
    }

    /// Whether the innermost open span is of `kind`.
    pub fn innermost_is(&self, kind: Kind) -> bool {
        self.open.last().is_some_and(|&id| self.spans[id as usize].kind == kind)
    }

    /// Per-layer totals of the logged spans, indexed like [`Kind::ALL`],
    /// plus the summed duration of the top-level spans.
    pub fn totals(&self) -> ([Totals; Kind::ALL.len()], f64) {
        let mut totals = [Totals::default(); Kind::ALL.len()];
        let mut child_s = vec![0.0f64; self.spans.len()];
        let mut top_level_s = 0.0;
        for span in &self.spans {
            let dur = span.end.duration_since(span.start).as_secs_f64();
            if span.parent == NO_PARENT {
                top_level_s += dur;
            } else {
                child_s[span.parent as usize] += dur;
            }
        }
        for (span, children) in self.spans.iter().zip(&child_s) {
            let dur = span.end.duration_since(span.start).as_secs_f64();
            let t = &mut totals[span.kind.index()];
            t.count += 1;
            t.total_s += dur;
            t.self_s += dur - children;
        }
        (totals, top_level_s)
    }

    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Writes the log as tab-separated `id parent layer start_ns dur_ns`
    /// rows, times relative to the first span.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let Some(origin) = self.spans.first().map(|s| s.start) else {
            return std::fs::write(path, "id\tparent\tlayer\tstart_ns\tdur_ns\n");
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tstart_ns\tdur_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}",
                span.kind.label(),
                span.start.duration_since(origin).as_nanos(),
                span.end.duration_since(span.start).as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Per-layer totals accumulated over every traced pass of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accumulated {
    pub layers: [Totals; Kind::ALL.len()],
    pub top_level_s: f64,
}

impl Accumulated {
    pub fn add(&mut self, log: &SpanLog) {
        let (totals, top_level_s) = log.totals();
        for (acc, t) in self.layers.iter_mut().zip(totals) {
            acc.count += t.count;
            acc.total_s += t.total_s;
            acc.self_s += t.self_s;
        }
        self.top_level_s += top_level_s;
    }

    pub fn get(&self, kind: Kind) -> Totals {
        self.layers[kind.index()]
    }
}
