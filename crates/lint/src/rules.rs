//! The rule engine: scopes, detectors, semantic passes, and suppression
//! handling.
//!
//! Two layers share one catalog:
//!
//! - **Lexical rules** are short token-pattern detectors bound to a *scope*
//!   — the set of workspace paths where the determinism/accounting contract
//!   applies. Scopes are matched on forward-slash paths relative to the
//!   linted root, so the same policy drives both the real workspace and the
//!   test fixture mini-workspace.
//! - **Semantic rules** run over the whole file set at once: the
//!   [`parser`](crate::parser) recovers function definitions and call
//!   sites, the [`callgraph`] links them, and the
//!   determinism-taint / cost-coverage / panic-reachability passes walk the
//!   result. A finding is still a `(rule, file, line, message)` tuple, so
//!   suppression markers work identically for both layers.
//!
//! Test code (`*_tests.rs`, `tests/`, `benches/`, `examples/` trees, and
//! `#[test]` / `#[cfg(test)]` items inside production files) is exempt from
//! the protocol-contract rules — tests deliberately construct pathological
//! inputs and assert on panics. It is **not** exempt from the hygiene
//! rules: `unsafe` still needs its SAFETY comment, suppressions must still
//! be well-formed, and an entropy-seeded RNG in a test invalidates the very
//! reproduction the test claims to pin.

use crate::callgraph::{self, CallGraph};
use crate::effects;
use crate::lexer::{lex, Comment, Lexed, TokKind, Token};
use crate::parser::{parse, Discard, FnDef, Parsed};
use crate::taint;
use std::collections::{BTreeMap, BTreeSet};

/// The machine name of every rule, in report order.
pub const RULE_NAMES: [&str; 13] = [
    "nondeterministic-iteration",
    "wall-clock-in-protocol",
    "unseeded-rng",
    "lossy-cast-in-accounting",
    "panic-in-engine",
    "unsafe-without-safety-comment",
    "malformed-suppression",
    "determinism-taint",
    "uncharged-mutation",
    "dropped-cost-result",
    "panic-reachability",
    "ledger-book-coupling",
    "effects-baseline-drift",
];

/// Static description of one rule (for `--format json` and the docs).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Machine name, as used in `ft-lint: allow(<name>, "…")`.
    pub name: &'static str,
    /// One-line human summary.
    pub summary: &'static str,
    /// Which replay/accounting property the rule guards.
    pub guards: &'static str,
}

/// The rule catalog (see `docs/LINT.md` for the full contract).
pub const RULES: [RuleInfo; 13] = [
    RuleInfo {
        name: "nondeterministic-iteration",
        summary: "HashMap/HashSet in protocol crates (ft-core, ft-sim, ft-graph): \
                  iteration order is seeded per process; use BTreeMap/BTreeSet or a \
                  sorted materialization",
        guards: "byte-identical replay: any hash-order iteration that reaches an RNG, \
                 an outbox, or an edge list diverges between runs",
    },
    RuleInfo {
        name: "wall-clock-in-protocol",
        summary: "Instant/SystemTime outside ft-metrics and ft-bench: protocol code \
                  must be round-clocked, never wall-clocked",
        guards: "replayability: wall-clock reads make a run a function of the host, \
                 not the seed",
    },
    RuleInfo {
        name: "unseeded-rng",
        summary: "entropy-based RNG construction (thread_rng, OsRng, from_entropy, …) \
                  anywhere in the workspace, tests included: every RNG must flow from \
                  an explicit seed",
        guards: "seeded reproduction: one unseeded RNG in a planner or test \
                 invalidates every recorded campaign",
    },
    RuleInfo {
        name: "lossy-cast-in-accounting",
        summary: "`as` numeric casts in MsgLedger/stretch arithmetic: use From/\
                  try_from or checked ops so ledger identities cannot silently wrap",
        guards: "accounting identities: the reconciliation proof assumes exact \
                 arithmetic",
    },
    RuleInfo {
        name: "panic-in-engine",
        summary: "unwrap/expect/panic!/indexing directly inside Network::step*/\
                  run_until*/deliver*/finish_round: a mid-round panic leaves the \
                  round's charges half-applied and corrupts in-flight accounting",
        guards: "crash-consistency of the round engine's books (depth 0; see \
                 panic-reachability for the transitive closure)",
    },
    RuleInfo {
        name: "unsafe-without-safety-comment",
        summary: "`unsafe` without a `// SAFETY:` comment in the preceding lines",
        guards: "auditable soundness: every unsafe block carries its proof obligation",
    },
    RuleInfo {
        name: "malformed-suppression",
        summary: "an `ft-lint: allow(...)` marker with an unknown rule name or a \
                  missing/empty reason string",
        guards: "suppression accountability: every exemption names its rule and its \
                 written justification",
    },
    RuleInfo {
        name: "determinism-taint",
        summary: "a protocol decision site (outbox send, edge mutation, delivery \
                  staging) computed from values that flow — through any number of \
                  calls — out of HashMap/HashSet iteration",
        guards: "byte-identical replay across function boundaries: the PR 6 \
                 stitch_components bug class, caught at the decision site with a \
                 witness chain",
    },
    RuleInfo {
        name: "uncharged-mutation",
        summary: "a function that mutates the MsgLedger, an outbox, or the edge-churn \
                  buffers while reachable from an entry point that never charges an \
                  OperationCost",
        guards: "cost-model soundness: every state mutation is priced, or reachable \
                 only through charging wrappers",
    },
    RuleInfo {
        name: "dropped-cost-result",
        summary: "a CostResult-returning call whose cost half is discarded \
                  (`let _ = …` or a bare statement): destructure and merge the cost",
        guards: "cost-model completeness: a dropped OperationCost silently \
                 under-reports the BENCH_costs baseline",
    },
    RuleInfo {
        name: "panic-reachability",
        summary: "unwrap/expect/panic-family sites in any ft-sim function reachable \
                  from the step*/run_until*/deliver*/finish_round roots, however many \
                  calls deep",
        guards: "crash-consistency of the round engine's books, enforced by \
                 call-graph closure instead of an 8-line token window",
    },
    RuleInfo {
        name: "ledger-book-coupling",
        summary: "a function whose direct MsgLedger book-write set is neither a \
                  single book nor the full set: record exactly one fate per helper, \
                  or reset all books together",
        guards: "the conservation identity `sent + duplicated = delivered + dropped \
                 + lost + in_flight`: an unpaired book write fails lint before it \
                 fails check_accounting",
    },
    RuleInfo {
        name: "effects-baseline-drift",
        summary: "a hot-path function (step*/run_until*/deliver_*/finish_round/\
                  measure_stretch*) whose transitive field-write set grew past its \
                  entry in crates/lint/effects_baseline.json",
        guards: "reviewability of engine-state mutations: write-set growth is a \
                 diffable event, regenerated deliberately via `ftree lint \
                 --write-effects-baseline`",
    },
];

/// One violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub message: String,
}

/// One honored suppression: a finding that an `allow` marker silenced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppressed {
    /// Rule name of the silenced finding.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// Line of the silenced finding.
    pub line: u32,
    /// The written reason carried by the marker.
    pub reason: String,
}

/// Result of linting one file (single-file wrapper over [`lint_files`]).
#[derive(Clone, Debug, Default)]
pub struct FileLint {
    /// Violations that survived suppression.
    pub violations: Vec<Finding>,
    /// Findings silenced by a well-formed `allow` marker.
    pub suppressed: Vec<Suppressed>,
    /// `allow` markers that silenced nothing: `(rule, line)`.
    pub unused_allows: Vec<(String, u32)>,
}

/// Result of linting a whole file set (lexical + semantic passes).
#[derive(Clone, Debug, Default)]
pub struct WorkspaceLint {
    /// Violations that survived suppression (sorted by file, line, rule).
    pub violations: Vec<Finding>,
    /// Findings silenced by a well-formed `allow` marker.
    pub suppressed: Vec<Suppressed>,
    /// Stale `allow` markers that silenced nothing: `(file, rule, line)`.
    pub unused_allows: Vec<(String, String, u32)>,
}

/// A parsed `// ft-lint: allow(<rule>, "<reason>")` marker.
#[derive(Clone, Debug)]
struct Allow {
    rule: String,
    reason: String,
    line: u32,
    used: bool,
}

// ---------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------

/// Files the linter never reads at all: fixture mini-workspaces (linted
/// *as* workspaces by the golden tests, not as source), build output, and
/// vendored shims.
pub fn is_exempt_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.split('/')
        .any(|seg| matches!(seg, "fixtures" | "target" | "vendor" | ".git"))
}

/// Test-scope files: linted, but only by the hygiene rules in
/// [`TEST_SCOPE_RULES`].
pub fn is_test_path(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.ends_with("_tests.rs")
        || p.split('/')
            .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

/// The rules that still bind test/bench/example code.
pub const TEST_SCOPE_RULES: [&str; 3] = [
    "unseeded-rng",
    "unsafe-without-safety-comment",
    "malformed-suppression",
];

fn in_any(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// Whether `rule` applies to the file at workspace-relative `path`.
pub fn rule_applies(rule: &str, path: &str) -> bool {
    let p = path.replace('\\', "/");
    if is_exempt_path(&p) {
        return false;
    }
    if is_test_path(&p) {
        return TEST_SCOPE_RULES.contains(&rule);
    }
    match rule {
        // Protocol state machines and the graph/topology substrate: any
        // hash-order iteration here can reach a heal decision or a
        // generated topology.
        "nondeterministic-iteration" => in_any(
            &p,
            &["crates/core/src", "crates/sim/src", "crates/graph/src"],
        ),
        // Everything except the measurement crates (ft-metrics, ft-bench),
        // which legitimately time campaigns — plus the fault-survival
        // matrix, which despite living in ft-metrics must replay
        // byte-identically and so may not read clocks.
        "wall-clock-in-protocol" => {
            p == "crates/metrics/src/fault_matrix.rs"
                || in_any(
                    &p,
                    &[
                        "crates/core/src",
                        "crates/sim/src",
                        "crates/graph/src",
                        "crates/adversary/src",
                        "crates/baselines/src",
                        "src/",
                    ],
                )
        }
        // Workspace-wide, tests included: an entropy-seeded RNG anywhere
        // breaks the "every number flows from the recorded seed" story.
        "unseeded-rng" => true,
        // The accounting arithmetic sites whose identities the theorems
        // and the cost-model baselines cite: the message ledger, the whole
        // operation-cost crate, both stretch engines (full sweep and
        // incremental tracker), and the fault axis (threshold compilation
        // in the plan, bound re-derivation in the survival matrix).
        "lossy-cast-in-accounting" => {
            p == "crates/sim/src/ledger.rs"
                || p == "crates/sim/src/faults.rs"
                || p == "crates/metrics/src/stretch.rs"
                || p == "crates/metrics/src/stretch_inc.rs"
                || p == "crates/metrics/src/fault_matrix.rs"
                || in_any(&p, &["crates/costs/src"])
        }
        // The round engine and everything it can call within ft-sim.
        "panic-in-engine" | "panic-reachability" | "uncharged-mutation" => {
            in_any(&p, &["crates/sim/src"])
        }
        // Protocol decisions live in ft-core (node logic) and ft-sim (the
        // engine); taint may *originate* anywhere the graph sees.
        "determinism-taint" => in_any(&p, &["crates/core/src", "crates/sim/src"]),
        // Costs may be produced anywhere; dropping one is wrong anywhere.
        "dropped-cost-result" => true,
        // The ledger and everything in ft-sim that could touch its books.
        "ledger-book-coupling" => in_any(&p, &["crates/sim/src"]),
        // The hot paths whose write sets the committed baseline pins: the
        // round engine and the measurement sweeps built on it.
        "effects-baseline-drift" => in_any(&p, &["crates/sim/src", "crates/metrics/src"]),
        "unsafe-without-safety-comment" | "malformed-suppression" => true,
        _ => false,
    }
}

/// The round-engine root functions: `panic-in-engine` binds their direct
/// bodies, `panic-reachability` binds their call-graph closure, and
/// `uncharged-mutation`/`determinism-taint` treat them as the engine's
/// entry surface.
pub(crate) fn is_engine_hot_fn(name: &str) -> bool {
    name.starts_with("step")
        || name.starts_with("run_until")
        || name.starts_with("deliver_")
        || name == "finish_round"
}

// ---------------------------------------------------------------------
// Lexical detectors
// ---------------------------------------------------------------------

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

const ENTROPY_CONSTRUCTORS: [&str; 6] = [
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "from_entropy",
    "from_os_rng",
    "getrandom",
];

fn is_ident(t: &Token, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Runs every applicable per-token detector over the stream, producing raw
/// findings (suppression is applied by the caller).
fn detect_lexical(path: &str, lx: &Lexed, parsed: &Parsed) -> Vec<Finding> {
    let toks = &lx.tokens;
    let mut out = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        out.push(Finding {
            rule,
            file: path.to_string(),
            line,
            message,
        });
    };

    let iteration = rule_applies("nondeterministic-iteration", path);
    let wall_clock = rule_applies("wall-clock-in-protocol", path);
    let rng = rule_applies("unseeded-rng", path);
    let cast = rule_applies("lossy-cast-in-accounting", path);
    let engine = rule_applies("panic-in-engine", path);
    let safety = rule_applies("unsafe-without-safety-comment", path);

    for (i, t) in toks.iter().enumerate() {
        // `#[test]`/`#[cfg(test)]` items are exempt from the protocol
        // rules but NOT from the hygiene rules (rng, unsafe), which keep
        // checking below this gate.
        let in_test = parsed.in_test[i];
        let prev = i.checked_sub(1).map(|j| &toks[j]);
        let next = toks.get(i + 1);

        if iteration
            && !in_test
            && t.kind == TokKind::Ident
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            push(
                "nondeterministic-iteration",
                t.line,
                format!(
                    "{} in a protocol crate: iteration order is seeded per process; \
                     use BTreeMap/BTreeSet, a dense Vec keyed by NodeId, or a sorted \
                     materialization",
                    t.text
                ),
            );
        }

        if wall_clock
            && !in_test
            && t.kind == TokKind::Ident
            && (t.text == "Instant" || t.text == "SystemTime")
        {
            push(
                "wall-clock-in-protocol",
                t.line,
                format!(
                    "{} in protocol code: rounds are the only clock the replay \
                     contract knows; wall timing belongs in ft-metrics/ft-bench",
                    t.text
                ),
            );
        }

        if rng && t.kind == TokKind::Ident && ENTROPY_CONSTRUCTORS.contains(&t.text.as_str()) {
            push(
                "unseeded-rng",
                t.line,
                format!(
                    "{}: RNGs must be constructed from an explicit seed \
                     (StdRng::seed_from_u64) that appears in the campaign record — \
                     in tests too, or the reproduction the test pins is a lie",
                    t.text
                ),
            );
        }

        if cast && !in_test && is_ident(t, "as") {
            if let Some(ty) = next {
                if ty.kind == TokKind::Ident && NUMERIC_TYPES.contains(&ty.text.as_str()) {
                    push(
                        "lossy-cast-in-accounting",
                        t.line,
                        format!(
                            "`as {}` in accounting arithmetic: use From/try_from or \
                             checked ops so a narrowing can never silently wrap the \
                             ledger identities",
                            ty.text
                        ),
                    );
                }
            }
        }

        if engine && !in_test {
            let hot = parsed.enclosing[i]
                .map(|d| parsed.defs[d].name.as_str())
                .is_some_and(is_engine_hot_fn);
            if hot {
                // .unwrap( / .expect(
                if t.kind == TokKind::Ident
                    && (t.text == "unwrap" || t.text == "expect")
                    && prev.is_some_and(|p| p.text == ".")
                    && next.is_some_and(|nx| nx.text == "(")
                {
                    push(
                        "panic-in-engine",
                        t.line,
                        format!(
                            ".{}() in a round-engine hot path: a mid-round panic \
                             leaves the round's charges half-applied",
                            t.text
                        ),
                    );
                }
                // panic! / unreachable! / todo! / unimplemented!
                if t.kind == TokKind::Ident
                    && matches!(
                        t.text.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    )
                    && next.is_some_and(|nx| nx.text == "!")
                {
                    push(
                        "panic-in-engine",
                        t.line,
                        format!("{}! in a round-engine hot path", t.text),
                    );
                }
                // indexing: `expr[` where expr ends in an identifier,
                // `)` or `]` — attribute `#[` and macro `vec![` excluded
                // because their previous token is `#` resp. `!`.
                if t.text == "["
                    && prev.is_some_and(|p| {
                        p.kind == TokKind::Ident && !is_keyword_before_bracket(&p.text)
                            || p.text == ")"
                            || p.text == "]"
                    })
                {
                    push(
                        "panic-in-engine",
                        t.line,
                        "indexing in a round-engine hot path can panic out-of-bounds \
                         mid-round; prefer .get()/.get_mut() or justify the slot \
                         invariant"
                            .to_string(),
                    );
                }
            }
        }

        if safety && is_ident(t, "unsafe") && !has_safety_comment(&lx.comments, t.line) {
            push(
                "unsafe-without-safety-comment",
                t.line,
                "`unsafe` without a `// SAFETY:` comment in the preceding lines: \
                 every unsafe block must state why its obligations hold"
                    .to_string(),
            );
        }
    }
    out
}

/// Identifiers that legitimately precede `[` without forming an index
/// expression (`let [a, b] = …`, `impl … for [T]`, `in [1, 2]`, …).
fn is_keyword_before_bracket(s: &str) -> bool {
    matches!(
        s,
        "let" | "in" | "for" | "mut" | "ref" | "return" | "as" | "dyn" | "impl" | "else" | "match"
    )
}

/// Whether a comment containing `SAFETY:` ends on `line` or within the 8
/// preceding lines (covering a multi-line justification block directly
/// above the `unsafe` keyword, or a trailing comment on the same line).
fn has_safety_comment(comments: &[Comment], line: u32) -> bool {
    comments
        .iter()
        .any(|c| c.text.contains("SAFETY:") && c.end_line <= line && c.end_line + 8 >= line)
}

// ---------------------------------------------------------------------
// Semantic pass: call-graph rules
// ---------------------------------------------------------------------

/// One linted file with its lex/parse artifacts, fed to the semantic pass.
struct Unit {
    path: String,
    lx: Lexed,
    parsed: Parsed,
}

/// Per-definition facts the semantic rules consume, derived from the
/// definition's token range (signature through closing brace).
#[derive(Clone, Debug, Default)]
struct DefAttrs {
    /// The definition charges costs: returns a `CostResult`, names
    /// `OperationCost`, or bumps a `cost`/`costs` counter with `+=`.
    charging: bool,
    /// Hash-container type names the definition mentions.
    containers: Vec<&'static str>,
    /// Panic-family sites: `.unwrap()`, `.expect(…)`, `panic!`-family
    /// macros (indexing stays a depth-0 `panic-in-engine` concern — slot
    /// invariants are per-callsite, not transitive).
    panic_sites: Vec<(u32, String)>,
}

fn def_attrs(lx: &Lexed, def: &FnDef) -> DefAttrs {
    let toks = &lx.tokens;
    let mut a = DefAttrs {
        charging: def.returns_cost_result,
        ..DefAttrs::default()
    };
    let hi = def.body.1.min(toks.len().saturating_sub(1));
    for i in def.sig_start..=hi {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1);
        match t.text.as_str() {
            "OperationCost" => a.charging = true,
            "HashMap" | "HashSet" => {
                let name = if t.text == "HashMap" {
                    "HashMap"
                } else {
                    "HashSet"
                };
                if !a.containers.contains(&name) {
                    a.containers.push(name);
                }
            }
            // `costs.field += …` / `cost += …` — the engine's charging idiom
            "cost" | "costs" => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.text == ".")
                    && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident)
                {
                    j += 2;
                }
                if toks.get(j).is_some_and(|t| t.text == "+")
                    && toks.get(j + 1).is_some_and(|t| t.text == "=")
                {
                    a.charging = true;
                }
            }
            "unwrap" | "expect"
                if i > def.sig_start
                    && toks[i - 1].text == "."
                    && next.is_some_and(|n| n.text == "(") =>
            {
                a.panic_sites.push((t.line, format!(".{}()", t.text)));
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if next.is_some_and(|n| n.text == "!") =>
            {
                a.panic_sites.push((t.line, format!("{}!", t.text)));
            }
            _ => {}
        }
    }
    a
}

/// `MsgLedger` mutators: calling one of these records message/churn state.
const LEDGER_MUTATORS: [&str; 9] = [
    "record_sent",
    "record_dropped",
    "record_lost",
    "record_duplicated",
    "record_delayed",
    "record_delivery",
    "record_notice",
    "record_join",
    "reset_node",
];

/// Staged-delivery buffers: a `.push`/`.extend`/`.append` on one of these
/// receivers mutates what the round will deliver or rewire.
const STAGING_BUFFERS: [&str; 4] = ["outbox", "edge_adds", "edge_drops", "delayed"];

/// The mutation sites inside `def`: `(line, description)` pairs.
fn mutation_sites(def: &FnDef) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for c in &def.calls {
        if LEDGER_MUTATORS.contains(&c.name.as_str()) {
            out.push((c.line, format!("`{}(…)`", c.name)));
        } else if matches!(c.name.as_str(), "push" | "extend" | "append")
            && c.recv
                .as_deref()
                .is_some_and(|r| STAGING_BUFFERS.contains(&r))
        {
            out.push((
                c.line,
                format!("`{}.{}(…)`", c.recv.as_deref().unwrap_or(""), c.name),
            ));
        }
    }
    out
}

/// The functions whose transitive write sets the effects baseline pins:
/// the round-engine roots plus the stretch measurement entry points.
fn is_baseline_hot_fn(def: &FnDef) -> bool {
    is_engine_hot_fn(&def.name) || def.name.starts_with("measure_stretch")
}

/// Runs the six call-graph rules over the whole file set. `baseline` is
/// the committed effect table (`crates/lint/effects_baseline.json`), when
/// present, for the drift rule.
fn detect_semantic(units: &[Unit], baseline: Option<&str>) -> Vec<Finding> {
    let graph = CallGraph::build(units.iter().map(|u| &u.parsed), |f| !is_test_path(f));
    // node attributes, re-keyed after the graph's deterministic sort
    let mut by_key: BTreeMap<(&str, u32, &str), DefAttrs> = BTreeMap::new();
    for u in units {
        for d in &u.parsed.defs {
            if !d.in_test {
                by_key.insert(
                    (d.file.as_str(), d.line, d.qname.as_str()),
                    def_attrs(&u.lx, d),
                );
            }
        }
    }
    let attrs: Vec<DefAttrs> = graph
        .defs
        .iter()
        .map(|d| {
            by_key
                .remove(&(d.file.as_str(), d.line, d.qname.as_str()))
                .unwrap_or_default()
        })
        .collect();

    let mut out = Vec::new();

    // --- determinism-taint: hash-order sources → callers → decision sites
    let mentions: BTreeMap<usize, Vec<&str>> = attrs
        .iter()
        .enumerate()
        .map(|(i, a)| (i, a.containers.clone()))
        .collect();
    out.extend(taint::detect_taint(&graph, &mentions, |f| {
        rule_applies("determinism-taint", f)
    }));

    // --- uncharged-mutation: BFS from never-charging entry points; a
    // mutation site is covered only when every path to it passes a
    // charging wrapper (CostResult signature / OperationCost / `cost +=`)
    let in_domain =
        |i: usize, graph: &CallGraph| rule_applies("uncharged-mutation", &graph.defs[i].file);
    let entries: Vec<usize> = (0..graph.defs.len())
        .filter(|&i| {
            in_domain(i, &graph)
                && !attrs[i].charging
                && !graph.callers[i].iter().any(|&c| in_domain(c, &graph))
        })
        .collect();
    let uncovered = graph.closure(&entries, &graph.edges, |i| {
        in_domain(i, &graph) && !attrs[i].charging
    });
    for &i in uncovered.keys() {
        if !in_domain(i, &graph) || attrs[i].charging {
            continue;
        }
        let sites = mutation_sites(&graph.defs[i]);
        if sites.is_empty() {
            continue;
        }
        let chain = graph.witness(&uncovered, i);
        for (line, site) in sites {
            out.push(Finding {
                rule: "uncharged-mutation",
                file: graph.defs[i].file.clone(),
                line,
                message: format!(
                    "{site} in `{}` mutates ledger/outbox/edge state on an uncharged \
                     path ({chain}): no function along it returns a CostResult, \
                     names an OperationCost, or bumps a cost counter — charge the \
                     mutation or reach it only through charging wrappers",
                    graph.defs[i].qname,
                ),
            });
        }
    }

    // --- dropped-cost-result: a CostResult-returning call whose value is
    // `let _ = …` or a bare statement drops the cost half on the floor
    let cost_fns: BTreeSet<&str> = graph
        .defs
        .iter()
        .filter(|d| d.returns_cost_result)
        .map(|d| d.name.as_str())
        .collect();
    for def in &graph.defs {
        if !rule_applies("dropped-cost-result", &def.file) {
            continue;
        }
        for c in &def.calls {
            if c.discard == Discard::No || !cost_fns.contains(c.name.as_str()) {
                continue;
            }
            let how = match c.discard {
                Discard::LetUnderscore => "`let _ = …`",
                Discard::Statement => "an ignored return",
                Discard::No => unreachable!(),
            };
            out.push(Finding {
                rule: "dropped-cost-result",
                file: def.file.clone(),
                line: c.line,
                message: format!(
                    "the OperationCost returned by `{}(…)` is dropped via {how} in \
                     `{}`: destructure the CostResult (`let (value, cost) = …`) and \
                     merge or report the cost",
                    c.name, def.qname,
                ),
            });
        }
    }

    // --- panic-reachability: closure from the engine roots; depth-0 sites
    // belong to panic-in-engine, everything deeper is reported here
    let in_sim =
        |i: usize, graph: &CallGraph| rule_applies("panic-reachability", &graph.defs[i].file);
    let roots: Vec<usize> = (0..graph.defs.len())
        .filter(|&i| in_sim(i, &graph) && is_engine_hot_fn(&graph.defs[i].name))
        .collect();
    let reach = graph.closure(&roots, &graph.edges, |i| in_sim(i, &graph));
    for &i in reach.keys() {
        if !in_sim(i, &graph) || is_engine_hot_fn(&graph.defs[i].name) {
            continue;
        }
        for (line, site) in &attrs[i].panic_sites {
            let chain = graph.witness(&reach, i);
            out.push(Finding {
                rule: "panic-reachability",
                file: graph.defs[i].file.clone(),
                line: *line,
                message: format!(
                    "{site} in `{}` is reachable from a round-engine root \
                     ({chain}): a panic mid-round leaves charges \
                     half-applied — bubble an error, or prove the invariant and \
                     suppress with the proof as the reason",
                    graph.defs[i].qname,
                ),
            });
        }
    }

    // --- ledger-book-coupling: direct book-write sets must be balanced
    out.extend(effects::detect_book_coupling(&graph, |f| {
        rule_applies("ledger-book-coupling", f)
    }));

    // --- effects-baseline-drift: hot-path write sets vs the committed table
    if let Some(text) = baseline {
        let files: BTreeMap<&str, &Lexed> =
            units.iter().map(|u| (u.path.as_str(), &u.lx)).collect();
        let sigs = effects::infer(&graph, &engine_adjacency(&graph, &files));
        let table = effects::parse_table(text);
        out.extend(effects::detect_drift(
            &graph,
            &sigs,
            &table,
            is_baseline_hot_fn,
            |f| rule_applies("effects-baseline-drift", f),
        ));
    }

    out
}

/// Renders the hot-path effect table for this file set — the content of
/// `crates/lint/effects_baseline.json` (deterministic: sorted keys, no
/// timestamps; byte-identical across runs on the same tree). Only
/// baseline-hot functions are rendered, so the committed file stays small
/// enough that its diff in review *is* the engine-state mutation review.
pub fn effects_table(inputs: &[(String, String)]) -> String {
    let units = to_units(inputs);
    let graph = CallGraph::build(units.iter().map(|u| &u.parsed), |f| !is_test_path(f));
    let files: BTreeMap<&str, &Lexed> = units.iter().map(|u| (u.path.as_str(), &u.lx)).collect();
    let sigs = effects::infer(&graph, &engine_adjacency(&graph, &files));
    effects::render_table(&graph, &sigs, is_baseline_hot_fn)
}

/// Analysis edges confined to engine crates: the baseline tracks engine
/// state, and only sim/metrics/core code can sit on a real chain to it —
/// an edge into another crate re-enters the engine only by name aliasing
/// (`cfg.build()` must not charge `CallGraph::build`'s effects to
/// `step_mt`).
fn engine_adjacency(graph: &CallGraph, files: &BTreeMap<&str, &Lexed>) -> Vec<BTreeSet<usize>> {
    let mut adj = graph.analysis_edges(files);
    for set in &mut adj {
        set.retain(|&n| callgraph::engine_crate(&graph.defs[n].file));
    }
    adj
}

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

/// Parses every `ft-lint: allow(<rule>, "<reason>")` marker; malformed
/// markers become findings of the `malformed-suppression` rule.
fn parse_allows(comments: &[Comment], path: &str) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Doc comments are rendered prose — the marker grammar may be
        // *described* there without counting as a (possibly malformed)
        // suppression. Real markers must be plain `//` / `/*` comments.
        let is_doc = ["///", "//!", "/**", "/*!"]
            .iter()
            .any(|p| c.text.starts_with(p));
        if is_doc {
            continue;
        }
        let Some(pos) = c.text.find("ft-lint:") else {
            continue;
        };
        let rest = c.text[pos + "ft-lint:".len()..].trim_start();
        let mut fail = |why: &str| {
            bad.push(Finding {
                rule: "malformed-suppression",
                file: path.to_string(),
                line: c.start_line,
                message: format!("malformed ft-lint marker: {why}"),
            });
        };
        let Some(args) = rest.strip_prefix("allow") else {
            fail("expected `allow(<rule>, \"<reason>\")`");
            continue;
        };
        let args = args.trim_start();
        let Some(inner) = args
            .strip_prefix('(')
            .and_then(|a| a.rfind(')').map(|e| &a[..e]))
        else {
            fail("expected `(<rule>, \"<reason>\")` after `allow`");
            continue;
        };
        let Some((rule_part, reason_part)) = inner.split_once(',') else {
            fail("missing the reason argument — every suppression must carry one");
            continue;
        };
        let rule = rule_part.trim().to_string();
        if !RULE_NAMES.contains(&rule.as_str()) {
            fail(&format!("unknown rule `{rule}`"));
            continue;
        }
        let reason_part = reason_part.trim();
        let reason = reason_part
            .strip_prefix('"')
            .and_then(|r| r.strip_suffix('"'))
            .map(str::trim)
            .unwrap_or("");
        if reason.is_empty() {
            fail("empty reason — every suppression must say why the code is exempt");
            continue;
        }
        allows.push(Allow {
            rule,
            reason: reason.to_string(),
            line: c.start_line,
            used: false,
        });
    }
    (allows, bad)
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

fn to_units(inputs: &[(String, String)]) -> Vec<Unit> {
    inputs
        .iter()
        .filter(|(p, _)| !is_exempt_path(p))
        .map(|(p, s)| {
            let path = p.replace('\\', "/");
            let lx = lex(s);
            let parsed = parse(&path, &lx);
            Unit { path, lx, parsed }
        })
        .collect()
}

/// Lints a whole file set: the lexical detectors per file, then the
/// call-graph rules across all of them, then suppression. `inputs` are
/// `(workspace-relative path, source)` pairs; exempt paths are skipped.
pub fn lint_files(inputs: &[(String, String)]) -> WorkspaceLint {
    lint_files_with(inputs, None)
}

/// [`lint_files`] with the committed effects baseline, enabling the
/// `effects-baseline-drift` rule (absent baseline ⇒ the rule is silent).
pub fn lint_files_with(inputs: &[(String, String)], baseline: Option<&str>) -> WorkspaceLint {
    let units = to_units(inputs);

    let mut findings: Vec<Finding> = Vec::new();
    let mut malformed: Vec<Finding> = Vec::new();
    let mut allows_by_file: BTreeMap<String, Vec<Allow>> = BTreeMap::new();
    for u in &units {
        findings.extend(detect_lexical(&u.path, &u.lx, &u.parsed));
        let (allows, bad) = parse_allows(&u.lx.comments, &u.path);
        malformed.extend(bad);
        allows_by_file.insert(u.path.clone(), allows);
    }
    findings.extend(detect_semantic(&units, baseline));

    let mut wl = WorkspaceLint::default();
    for f in findings {
        // a marker covers findings on its own line (trailing comment) and
        // on the line directly below it (standalone comment above the code)
        let hit = allows_by_file.get_mut(&f.file).and_then(|al| {
            al.iter_mut()
                .find(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
        });
        match hit {
            Some(a) => {
                a.used = true;
                wl.suppressed.push(Suppressed {
                    rule: f.rule,
                    file: f.file,
                    line: f.line,
                    reason: a.reason.clone(),
                });
            }
            None => wl.violations.push(f),
        }
    }
    wl.violations.extend(malformed);
    for (file, allows) in &allows_by_file {
        for a in allows.iter().filter(|a| !a.used) {
            wl.unused_allows
                .push((file.clone(), a.rule.clone(), a.line));
        }
    }
    wl.violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    wl.suppressed
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    wl.unused_allows.sort();
    wl
}

/// Lints one file's source. `path` is the workspace-relative path used for
/// scope decisions and reporting. Semantic rules see only this one file,
/// so cross-file taint/reachability needs [`lint_files`].
pub fn lint_source(path: &str, src: &str) -> FileLint {
    let wl = lint_files(&[(path.to_string(), src.to_string())]);
    FileLint {
        violations: wl.violations,
        suppressed: wl.suppressed,
        unused_allows: wl
            .unused_allows
            .into_iter()
            .map(|(_, rule, line)| (rule, line))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_flagged_only_in_protocol_scope() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let hits = lint_source("crates/sim/src/engine.rs", src);
        assert_eq!(hits.violations.len(), 3);
        assert!(hits
            .violations
            .iter()
            .all(|v| v.rule == "nondeterministic-iteration"));
        let out_of_scope = lint_source("crates/metrics/src/stress.rs", src);
        assert!(out_of_scope.violations.is_empty());
    }

    #[test]
    fn test_items_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn f() { let _ = HashMap::<u32, u32>::new(); }\n}\n";
        let hits = lint_source("crates/core/src/spec.rs", src);
        assert!(hits.violations.is_empty(), "{:?}", hits.violations);
    }

    #[test]
    fn engine_rule_is_function_scoped() {
        let src = "fn step(&mut self) { self.x.unwrap(); }\nfn helper() { self.x.unwrap(); }\n";
        let hits = lint_source("crates/sim/src/network.rs", src);
        assert_eq!(hits.violations.len(), 1, "{:?}", hits.violations);
        assert_eq!(hits.violations[0].line, 1);
    }

    #[test]
    fn indexing_detection_skips_attrs_macros_and_patterns() {
        let src = "fn deliver_seq(&mut self) {\n    #[allow(dead_code)]\n    let v = vec![1, 2];\n    let [a, b] = [3, 4];\n    let x = v[0];\n}\n";
        let hits = lint_source("crates/sim/src/network.rs", src);
        assert_eq!(hits.violations.len(), 1, "{:?}", hits.violations);
        assert_eq!(hits.violations[0].line, 5);
    }

    #[test]
    fn safety_comment_satisfies_unsafe_rule() {
        let ok = "// SAFETY: the borrow dies before 'scope ends.\nlet x = unsafe { f() };\n";
        assert!(lint_source("crates/sim/src/pool.rs", ok)
            .violations
            .is_empty());
        let bad = "let x = unsafe { f() };\n";
        let hits = lint_source("crates/sim/src/pool.rs", bad);
        assert_eq!(hits.violations.len(), 1);
        assert_eq!(hits.violations[0].rule, "unsafe-without-safety-comment");
    }

    #[test]
    fn allow_markers_suppress_and_carry_reasons() {
        let src = "// ft-lint: allow(nondeterministic-iteration, \"keyed lookups only\")\nuse std::collections::HashMap;\n";
        let hits = lint_source("crates/core/src/spec.rs", src);
        assert!(hits.violations.is_empty(), "{:?}", hits.violations);
        assert_eq!(hits.suppressed.len(), 1);
        assert_eq!(hits.suppressed[0].reason, "keyed lookups only");
    }

    #[test]
    fn bare_or_unknown_suppressions_are_violations() {
        let no_reason =
            "use std::collections::HashMap; // ft-lint: allow(nondeterministic-iteration)\n";
        let hits = lint_source("crates/core/src/spec.rs", no_reason);
        assert!(hits
            .violations
            .iter()
            .any(|v| v.rule == "malformed-suppression"));
        let unknown = "// ft-lint: allow(no-such-rule, \"hm\")\nfn f() {}\n";
        let hits = lint_source("crates/core/src/spec.rs", unknown);
        assert!(hits
            .violations
            .iter()
            .any(|v| v.rule == "malformed-suppression" && v.message.contains("no-such-rule")));
    }

    #[test]
    fn unused_allows_are_reported_not_fatal() {
        let src = "// ft-lint: allow(unseeded-rng, \"stale marker\")\nfn f() {}\n";
        let hits = lint_source("crates/core/src/spec.rs", src);
        assert!(hits.violations.is_empty());
        assert_eq!(hits.unused_allows.len(), 1);
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = "// HashMap, Instant, thread_rng — all prose\nfn f() { let _ = \"HashMap Instant thread_rng\"; }\n";
        let hits = lint_source("crates/sim/src/engine.rs", src);
        assert!(hits.violations.is_empty(), "{:?}", hits.violations);
    }

    #[test]
    fn test_scope_files_keep_the_hygiene_rules_only() {
        let src = "use std::collections::HashMap;\nfn t() { let r = rand::thread_rng(); let m: HashMap<u32, u32> = HashMap::new(); drop((r, m)); }\n";
        let hits = lint_source("crates/sim/tests/soak.rs", src);
        assert_eq!(hits.violations.len(), 1, "{:?}", hits.violations);
        assert_eq!(hits.violations[0].rule, "unseeded-rng");
    }

    #[test]
    fn uncharged_mutation_flags_entry_paths_without_costs() {
        let src = "\
pub fn forget(ledger: &mut Ledger) {
    ledger.record_sent(3);
}
";
        let hits = lint_source("crates/sim/src/books.rs", src);
        assert_eq!(hits.violations.len(), 1, "{:?}", hits.violations);
        assert_eq!(hits.violations[0].rule, "uncharged-mutation");
        assert_eq!(hits.violations[0].line, 2);
    }

    #[test]
    fn charging_wrappers_cover_their_callees() {
        let src = "\
use ft_costs::{CostResult, OperationCost};
pub fn charged(ledger: &mut Ledger) -> CostResult<()> {
    stage(ledger);
    ((), OperationCost::default())
}
fn stage(ledger: &mut Ledger) {
    ledger.record_sent(1);
}
";
        let hits = lint_source("crates/sim/src/books.rs", src);
        assert!(
            !hits
                .violations
                .iter()
                .any(|v| v.rule == "uncharged-mutation"),
            "{:?}",
            hits.violations
        );
    }

    #[test]
    fn dropped_cost_result_flags_both_discard_shapes() {
        let src = "\
pub fn probe(x: u64) -> CostResult<u64> {
    (x, OperationCost::default())
}
pub fn a(x: u64) {
    let _ = probe(x);
}
pub fn b(x: u64) {
    probe(x);
}
pub fn c(x: u64) -> u64 {
    let (v, _cost) = probe(x);
    v
}
";
        let hits = lint_source("crates/metrics/src/probe.rs", src);
        let dropped: Vec<_> = hits
            .violations
            .iter()
            .filter(|v| v.rule == "dropped-cost-result")
            .collect();
        assert_eq!(dropped.len(), 2, "{:?}", hits.violations);
        assert_eq!(dropped[0].line, 5);
        assert_eq!(dropped[1].line, 8);
    }

    #[test]
    fn panic_reachability_sees_below_the_roots() {
        let src = "\
pub fn step(&mut self) {
    middle(1);
}
fn middle(x: u32) -> u32 {
    bottom(x)
}
fn bottom(x: u32) -> u32 {
    Some(x).unwrap()
}
fn unrelated(x: u32) -> u32 {
    Some(x).unwrap()
}
";
        let hits = lint_source("crates/sim/src/helpers.rs", src);
        let reach: Vec<_> = hits
            .violations
            .iter()
            .filter(|v| v.rule == "panic-reachability")
            .collect();
        assert_eq!(reach.len(), 1, "{:?}", hits.violations);
        assert_eq!(reach[0].line, 8);
        assert!(reach[0].message.contains("step → middle → bottom"));
    }
}
