//! Spans around every call the benchmark makes into a layer (crate).
//!
//! Every run keeps a per-kind running total, which is enough for the
//! untraced figures (phase and layer wall times, the unaccounted
//! remainder). A traced run additionally keeps every span in memory —
//! kind, start, end and the span that enclosed it — so that layer self
//! times can be derived and the spans written out as JSONL at the end.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// What a span covers: a benchmark phase or one call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Run,
    Setup,
    Campaign,
    Audit,
    GraphGen,
    GraphConnected,
    GraphDistance,
    CoreInit,
    CoreWills,
    CoreDegree,
    SimHeal,
    SimNotice,
    SimRound,
    SimAccounting,
    StretchInit,
    StretchRepair,
    StretchReport,
    AdversaryPlan,
}

impl Kind {
    pub const ALL: [Kind; 18] = [
        Kind::Run,
        Kind::Setup,
        Kind::Campaign,
        Kind::Audit,
        Kind::GraphGen,
        Kind::GraphConnected,
        Kind::GraphDistance,
        Kind::CoreInit,
        Kind::CoreWills,
        Kind::CoreDegree,
        Kind::SimHeal,
        Kind::SimNotice,
        Kind::SimRound,
        Kind::SimAccounting,
        Kind::StretchInit,
        Kind::StretchRepair,
        Kind::StretchReport,
        Kind::AdversaryPlan,
    ];

    /// The span name; layer calls are `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Run => "run",
            Kind::Setup => "setup",
            Kind::Campaign => "campaign",
            Kind::Audit => "audit",
            Kind::GraphGen => "graph.gen",
            Kind::GraphConnected => "graph.connected",
            Kind::GraphDistance => "graph.distance",
            Kind::CoreInit => "core.init",
            Kind::CoreWills => "core.wills",
            Kind::CoreDegree => "core.degree",
            Kind::SimHeal => "sim.heal",
            Kind::SimNotice => "sim.notice",
            Kind::SimRound => "sim.round",
            Kind::SimAccounting => "sim.accounting",
            Kind::StretchInit => "stretch.init",
            Kind::StretchRepair => "stretch.repair",
            Kind::StretchReport => "stretch.report",
            Kind::AdversaryPlan => "adversary.plan",
        }
    }

    /// The layer a span belongs to; phases belong to the benchmark itself.
    pub fn layer(self) -> &'static str {
        match self.name().split_once('.') {
            Some((layer, _)) => layer,
            None => "bench",
        }
    }

    /// Spans that only ever open inside a `sim.heal` span (the opened heal
    /// of a traced tree run), so they must not be counted twice.
    fn nested(self) -> bool {
        matches!(self, Kind::SimNotice | Kind::SimRound)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Layers in report order.
const LAYERS: [&str; 5] = ["graph", "core", "sim", "stretch", "adversary"];

/// An open span; hand it back to [`Recorder::end`].
#[must_use]
pub struct Open {
    kind: Kind,
    start: Instant,
    slot: usize,
}

#[derive(Clone, Copy, Debug)]
struct Span {
    kind: Kind,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-kind totals, plus every span when `keep` is set.
pub struct Recorder {
    origin: Instant,
    totals: [Duration; Kind::ALL.len()],
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Recorder {
    pub fn new(keep: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            totals: [Duration::ZERO; Kind::ALL.len()],
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, kind: Kind) -> Open {
        let start = Instant::now();
        let mut slot = usize::MAX;
        if self.keep {
            slot = self.spans.len();
            self.spans.push(Span {
                kind,
                parent: self.stack.last().copied(),
                start_ns: nanos(start - self.origin),
                end_ns: 0,
            });
            self.stack.push(slot);
        }
        Open { kind, start, slot }
    }

    /// Closes `open` and returns its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        let took = now - open.start;
        self.totals[open.kind.index()] += took;
        if self.keep {
            self.spans[open.slot].end_ns = nanos(now - self.origin);
            self.stack.pop();
        }
        took
    }

    pub fn total(&self, kind: Kind) -> Duration {
        self.totals[kind.index()]
    }

    /// Time inside the `run` span that no layer call covers: the
    /// benchmark's own bookkeeping.
    pub fn unaccounted(&self) -> Duration {
        let covered: Duration = Kind::ALL
            .iter()
            .filter(|k| k.layer() != "bench" && !k.nested())
            .map(|&k| self.total(k))
            .sum();
        self.total(Kind::Run).saturating_sub(covered)
    }

    /// Each layer's self time: its spans' durations minus the parts their
    /// child spans cover. Empty unless spans were kept.
    pub fn self_times(&self) -> Vec<(&'static str, Duration)> {
        if !self.keep {
            return Vec::new();
        }
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut per_layer = vec![0u64; LAYERS.len()];
        for (s, c) in self.spans.iter().zip(&child) {
            if let Some(i) = LAYERS.iter().position(|&l| l == s.kind.layer()) {
                per_layer[i] += (s.end_ns - s.start_ns).saturating_sub(*c);
            }
        }
        LAYERS
            .iter()
            .zip(per_layer)
            .map(|(&l, ns)| (l, Duration::from_nanos(ns)))
            .collect()
    }

    /// Writes every kept span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str, seed: u64) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{workload}\", \"seed\": {seed}}}",
                s.kind.name(),
                s.start_ns,
                s.end_ns,
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_unaccounted_skips_nested() {
        let mut rec = Recorder::new(true);
        let run = rec.begin(Kind::Run);
        let heal = rec.begin(Kind::SimHeal);
        let round = rec.begin(Kind::SimRound);
        std::thread::sleep(Duration::from_millis(2));
        let round_took = rec.end(round);
        let heal_took = rec.end(heal);
        rec.end(run);
        let sim = rec
            .self_times()
            .into_iter()
            .find(|(l, _)| *l == "sim")
            .map(|(_, d)| d)
            .expect("sim layer listed");
        // heal and its nested round together count once
        let slack = Duration::from_micros(50);
        assert!(sim <= heal_took + slack && sim + slack >= heal_took);
        assert!(round_took <= heal_took);
        assert_eq!(rec.unaccounted(), rec.total(Kind::Run) - heal_took);
    }
}
