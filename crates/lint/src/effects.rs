//! Field-level mutation-effect inference.
//!
//! For every function the parser recovered, this module infers an **effect
//! signature** — the set of struct fields read and written, recognized
//! syntactically from `self.field` / `receiver.field` accesses, mutating
//! method receivers, and `&mut` parameters (recorded as `&mut <name>`
//! pseudo-writes so callers can distinguish borrow grants from field
//! mutations). Signatures propagate **callee → caller** over the call
//! graph to a fixpoint, so a caller's transitive signature covers every
//! field any reachable callee touches.
//!
//! Resolution inherits the call graph's conservatism — a call edge to
//! every same-name definition means a transitive write set
//! over-approximates, never under-approximates (the right polarity for
//! the race and drift rules built on top) — with one precision cut:
//! propagation runs over
//! [`analysis_edges`](CallGraph::analysis_edges), which drops dotted
//! std-container calls so `seen.insert(v)` does not alias every workspace
//! `insert`. Field identity is *by name*, not by type: two structs
//! sharing a field name share an effect entry. The workspace keeps
//! engine-state field names distinct, and the baseline diff catches any
//! collision that slips in.
//!
//! Two rules live here:
//!
//! - **ledger-book-coupling** — every mutation site of a `MsgLedger` book
//!   must lie in a function whose *direct* book-write set is balanced
//!   under the conservation identity `sent + duplicated = delivered +
//!   dropped + lost + in_flight`: a single book (one fate recorded per
//!   helper, the ledger's design) or the full set (bulk reset). A new
//!   fault fate that grows one book without its counterpart fails here
//!   before it fails `check_accounting`.
//! - **effects-baseline-drift** — the hot-path effect table renders as
//!   deterministic JSON, committed at
//!   `crates/lint/effects_baseline.json`; a hot-path function whose
//!   transitive write set grows past its committed entry is flagged until
//!   the baseline is regenerated (`ftree lint --write-effects-baseline`),
//!   making engine-state mutations reviewable in diffs.

use crate::callgraph::CallGraph;
use crate::parser::FnDef;
use crate::rules::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The `MsgLedger` books tied together by the conservation identity.
pub const BOOKS: [&str; 9] = [
    "sent",
    "delivered",
    "dropped",
    "lost",
    "duplicated",
    "delayed",
    "notices",
    "joins",
    "retired",
];

/// A function's effect signature: field names read and written. Writes
/// include `&mut <param>` pseudo-entries for by-reference parameters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EffectSig {
    /// Field names the function (transitively) reads.
    pub reads: BTreeSet<String>,
    /// Field names the function (transitively) writes, plus `&mut <name>`
    /// pseudo-entries for by-reference parameters.
    pub writes: BTreeSet<String>,
}

impl EffectSig {
    /// True when the signature records no reads and no writes.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    fn absorb(&mut self, other: &EffectSig) -> bool {
        let before = (self.reads.len(), self.writes.len());
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
        before != (self.reads.len(), self.writes.len())
    }
}

/// The effects `def` performs lexically, before propagation: one
/// read/write per field access, plus a pseudo-write per `&mut` parameter.
pub fn direct_effects(def: &FnDef) -> EffectSig {
    let mut sig = EffectSig::default();
    for a in &def.accesses {
        if a.write {
            sig.writes.insert(a.field.clone());
        } else {
            sig.reads.insert(a.field.clone());
        }
    }
    for p in &def.mut_params {
        if p != "self" {
            sig.writes.insert(format!("&mut {p}"));
        }
    }
    sig
}

/// Transitive effect signatures for every graph node (index-aligned with
/// `graph.defs`): direct effects unioned with every reachable callee's
/// along `adj` (normally
/// [`analysis_edges`](CallGraph::analysis_edges) — the resolution edges
/// minus dotted std-container aliasing), to a fixpoint. Monotone, so
/// cycles converge.
pub fn infer(graph: &CallGraph, adj: &[BTreeSet<usize>]) -> Vec<EffectSig> {
    let mut sigs: Vec<EffectSig> = graph.defs.iter().map(direct_effects).collect();
    loop {
        let mut changed = false;
        for caller in 0..sigs.len() {
            for &callee in &adj[caller].clone() {
                if callee == caller {
                    continue;
                }
                let callee_sig = sigs[callee].clone();
                changed |= sigs[caller].absorb(&callee_sig);
            }
        }
        if !changed {
            return sigs;
        }
    }
}

/// Table key: `<file>::<qname>`, unique per definition in practice and
/// stable across runs (duplicates union-merge).
pub fn table_key(def: &FnDef) -> String {
    format!("{}::{}", def.file, def.qname)
}

/// Renders the effect table as deterministic JSON: one line per `keep`ed
/// function with a non-empty signature, BTree-sorted by key, no
/// timestamps. The committed baseline keeps only hot-path functions —
/// small enough that a diff of it is reviewable.
pub fn render_table(
    graph: &CallGraph,
    sigs: &[EffectSig],
    keep: impl Fn(&FnDef) -> bool,
) -> String {
    let mut merged: BTreeMap<String, EffectSig> = BTreeMap::new();
    for (i, sig) in sigs.iter().enumerate() {
        if sig.is_empty() || !keep(&graph.defs[i]) {
            continue;
        }
        merged
            .entry(table_key(&graph.defs[i]))
            .or_default()
            .absorb(sig);
    }
    let mut s = String::from("{\n");
    let n = merged.len();
    for (i, (key, sig)) in merged.iter().enumerate() {
        s.push_str(&format!(
            "  \"{key}\": {{\"reads\": [{}], \"writes\": [{}]}}{}\n",
            str_list(&sig.reads),
            str_list(&sig.writes),
            if i + 1 == n { "" } else { "," }
        ));
    }
    s.push_str("}\n");
    s
}

fn str_list(set: &BTreeSet<String>) -> String {
    set.iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parses a table rendered by [`render_table`]. Line-oriented: the format
/// is our own (keys are paths + identifiers, never escaped), so a full
/// JSON parser would be dead weight. Unrecognized lines are skipped — a
/// hand-edited baseline degrades to "entry missing", which is silent, and
/// the CI byte-diff gate catches the corruption.
pub fn parse_table(text: &str) -> BTreeMap<String, EffectSig> {
    let mut out: BTreeMap<String, EffectSig> = BTreeMap::new();
    for line in text.lines() {
        let Some((key, sig)) = parse_entry(line) else {
            continue;
        };
        out.entry(key).or_default().absorb(&sig);
    }
    out
}

fn parse_entry(line: &str) -> Option<(String, EffectSig)> {
    let rest = line.trim().trim_end_matches(',');
    let rest = rest.strip_prefix('"')?;
    let key_end = rest.find('"')?;
    let key = rest[..key_end].to_string();
    let sig = EffectSig {
        reads: parse_list(rest, "\"reads\": [")?,
        writes: parse_list(rest, "\"writes\": [")?,
    };
    Some((key, sig))
}

fn parse_list(rest: &str, marker: &str) -> Option<BTreeSet<String>> {
    let start = rest.find(marker)? + marker.len();
    let end = rest[start..].find(']')? + start;
    Some(
        rest[start..end]
            .split(", ")
            .map(|s| s.trim_matches('"').to_string())
            .filter(|s| !s.is_empty())
            .collect(),
    )
}

/// The ledger-book-coupling rule. Walks every in-scope function's *direct*
/// accesses (transitive sets would blame dispatchers for calling two
/// balanced helpers) and flags unbalanced book-write sets at the first
/// book-write line.
pub fn detect_book_coupling(graph: &CallGraph, scope: impl Fn(&str) -> bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for def in &graph.defs {
        if !scope(&def.file) {
            continue;
        }
        let book_writes: Vec<_> = def
            .accesses
            .iter()
            .filter(|a| a.write && BOOKS.contains(&a.field.as_str()))
            .collect();
        let set: BTreeSet<&str> = book_writes.iter().map(|a| a.field.as_str()).collect();
        // balanced: one fate per helper, or a bulk reset touching every book
        if set.is_empty() || set.len() == 1 || set.len() == BOOKS.len() {
            continue;
        }
        let first = book_writes.iter().map(|a| a.line).min().unwrap_or(def.line);
        out.push(Finding {
            rule: "ledger-book-coupling",
            file: def.file.clone(),
            line: first,
            message: format!(
                "`{}` writes ledger books {{{}}} — not a balanced combination \
                 under `sent + duplicated = delivered + dropped + lost + in_flight` \
                 (record exactly one fate per helper, or reset all {}); an \
                 unpaired book write breaks `check_accounting` only when a run \
                 happens to exercise it, but breaks conservation always",
                def.qname,
                set.iter().copied().collect::<Vec<_>>().join(", "),
                BOOKS.len(),
            ),
        });
    }
    out
}

/// The effects-baseline-drift rule. A hot-path function (per `hot`) whose
/// transitive write set grew past its committed baseline entry is flagged
/// at its definition. Functions absent from the baseline are silent — new
/// code lands entries via `--write-effects-baseline`, and the CI byte-diff
/// of the regenerated table is the strict gate for additions.
pub fn detect_drift(
    graph: &CallGraph,
    sigs: &[EffectSig],
    baseline: &BTreeMap<String, EffectSig>,
    hot: impl Fn(&FnDef) -> bool,
    scope: impl Fn(&str) -> bool,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, def) in graph.defs.iter().enumerate() {
        if !scope(&def.file) || !hot(def) {
            continue;
        }
        let Some(base) = baseline.get(&table_key(def)) else {
            continue;
        };
        let grown: Vec<&str> = sigs[i]
            .writes
            .difference(&base.writes)
            .map(String::as_str)
            .collect();
        if grown.is_empty() {
            continue;
        }
        out.push(Finding {
            rule: "effects-baseline-drift",
            file: def.file.clone(),
            line: def.line,
            message: format!(
                "hot-path `{}` now (transitively) writes {{{}}} beyond its \
                 committed effect baseline — review the new engine-state \
                 mutation, then regenerate with `ftree lint \
                 --write-effects-baseline`",
                def.qname,
                grown.join(", "),
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn graph(src: &str) -> CallGraph {
        let parsed = parse("crates/sim/src/t.rs", &lex(src));
        CallGraph::build([&parsed], |_| true)
    }

    #[test]
    fn effects_propagate_to_a_fixpoint_through_cycles() {
        let g = graph(
            "fn a(&mut self) { self.x = 1; b(); }\n\
             fn b(&mut self) { let v = self.y; c(); }\n\
             fn c(&mut self) { self.z += 1; a(); }\n",
        );
        let sigs = infer(&g, &g.edges);
        let a = g.select(|d| d.name == "a")[0];
        // the a→b→c→a cycle converges with every member holding the union
        for node in [a, g.select(|d| d.name == "b")[0]] {
            assert_eq!(
                sigs[node].writes.iter().collect::<Vec<_>>(),
                vec!["x", "z"],
                "node {node}"
            );
            assert_eq!(sigs[node].reads.iter().collect::<Vec<_>>(), vec!["y"]);
        }
    }

    #[test]
    fn mut_params_become_pseudo_writes() {
        let g = graph("fn f(out: &mut Vec<u32>, n: usize) { out.push(n); }\n");
        let sig = direct_effects(&g.defs[0]);
        // the bare receiver is not a field access; the borrow grant is the
        // whole record of the mutation
        assert_eq!(sig.writes.iter().collect::<Vec<_>>(), vec!["&mut out"]);
    }

    #[test]
    fn table_round_trips_byte_identically() {
        let g = graph(
            "impl L {\n    fn rec(&mut self) { self.sent += 1; }\n    fn peek(&self) -> u64 { self.sent }\n    fn noop() {}\n}\n",
        );
        let sigs = infer(&g, &g.edges);
        let text = render_table(&g, &sigs, |_| true);
        assert!(!text.contains("noop"), "empty signatures are omitted");
        let parsed = parse_table(&text);
        assert_eq!(parsed.len(), 2);
        let rec = &parsed["crates/sim/src/t.rs::L::rec"];
        assert!(rec.writes.contains("sent"));
        // render(parse(render(x))) == render(x): the committed baseline is
        // reproducible from a fresh run
        let again: Vec<EffectSig> = g
            .defs
            .iter()
            .map(|d| parsed.get(&table_key(d)).cloned().unwrap_or_default())
            .collect();
        assert_eq!(render_table(&g, &again, |_| true), text);
    }

    #[test]
    fn unbalanced_book_writes_are_flagged_once_per_fn() {
        let g = graph(
            "impl MsgLedger {\n\
             \x20   fn record_sent(&mut self) { self.sent += 1; }\n\
             \x20   fn record_confused(&mut self) {\n\
             \x20       self.sent += 1;\n\
             \x20       self.dropped += 1;\n\
             \x20   }\n\
             }\n",
        );
        let hits = detect_book_coupling(&g, |_| true);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4, "first book-write line");
        assert!(
            hits[0].message.contains("dropped, sent"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn drift_fires_only_for_hot_fns_present_in_the_baseline() {
        let g = graph(
            "impl E {\n\
             \x20   fn step(&mut self) { self.clock += 1; self.ledger = 0; }\n\
             \x20   fn cold(&mut self) { self.clock += 1; self.ledger = 0; }\n\
             \x20   fn step_new(&mut self) { self.clock += 1; }\n\
             }\n",
        );
        let sigs = infer(&g, &g.edges);
        let baseline = parse_table(
            "{\n  \"crates/sim/src/t.rs::E::step\": {\"reads\": [], \"writes\": [\"clock\"]},\n  \"crates/sim/src/t.rs::E::cold\": {\"reads\": [], \"writes\": [\"clock\"]}\n}\n",
        );
        let hot = |d: &FnDef| d.name.starts_with("step");
        let hits = detect_drift(&g, &sigs, &baseline, hot, |_| true);
        assert_eq!(
            hits.len(),
            1,
            "cold fn and baseline-absent fn stay silent: {hits:?}"
        );
        assert!(hits[0].message.contains("`E::step`"));
        assert!(hits[0].message.contains("{ledger}"), "{}", hits[0].message);
    }
}
