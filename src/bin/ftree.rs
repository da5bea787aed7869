//! `ftree` — command-line driver for the Forgiving Tree reproduction.
//!
//! ```text
//! ftree attack  --workload kary4:256 --adversary heir-hunter \
//!               --healer forgiving-tree --fraction 0.75 [--dot] [--csv]
//! ftree scaling --healer line --adversary diameter-greedy
//! ftree duel    --workload star:128
//! ftree stress  --nodes 100k --deletions 1000 --wave 50 \
//!               --planner heavy-tail --seed 42 --out BENCH_sim.json
//! ftree stress  --model graph --nodes 1m --events 2000 --wave 50 \
//!               --planner mixed --insert-frac 0.4 --seed 42 \
//!               --out BENCH_graph.json
//! ftree costs   [--out BENCH_costs.json]
//! ftree faults  [--nodes 500] [--events 120] [--wave 10] [--seed 42] \
//!               [--out BENCH_faults.json]
//! ftree reproduce [--out CLAIMS.md]
//! ftree help
//! ```
//!
//! `reproduce` runs the fixed, seeded set of runs behind `CLAIMS.md`, one
//! row per claim of the two papers, writes the table, and exits 1 if any
//! claim did not hold.
//!
//! Both `stress` forms take `--faults MODEL` (`none`, `delay`, `loss`,
//! `dup`, `crash`, `partition`, `chaos`, or `+`-joined combinations like
//! `loss+crash`) to arm a seeded deterministic fault plan on the campaign;
//! `faults` sweeps the full protocol × model bounds-survival matrix.
//!
//! Workload syntax: `path:N`, `star:N`, `kary<K>:N`, `caterpillar:SxL`,
//! `broom:H+B`, `random:N#SEED`, `pref:N#SEED`. Every count but the legs
//! `L` and bristles `B` must be at least 1.
//!
//! Every numeric stress flag accepts scaled forms: `100k`, `1m`, `1e6`,
//! and decimal mantissas like `2.5m` all parse to the obvious integer.
//!
//! A flag the subcommand does not accept (a typo like `--node`, or a
//! retired one like `--threads`) prints usage and exits 2 rather than
//! running on defaults.

use forgiving_tree::metrics::{
    claims, log_log_slope, run, run_fault_matrix, run_trial, Events, FaultMatrixConfig, Faults,
    Initial, Protocol, Record, Scenario, StressRecord, Table, TrialConfig, Workload,
};
use forgiving_tree::prelude::*;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  ftree attack  --workload W --adversary A --healer H [--fraction F] [--dot] [--csv]\n  \
         ftree scaling --healer H --adversary A\n  \
         ftree duel    --workload W\n  \
         ftree stress  [--model tree]  [--nodes N] [--deletions D] [--wave K] [--arity A] [--planner P] [--cadence per-deletion|per-wave] [--faults M] [--seed S] [--out FILE]\n  \
         ftree stress  --model graph [--nodes N] [--events E] [--wave K] [--insert-frac F] [--extra-edges F] [--planner P] [--faults M] [--seed S] [--sources B] [--out FILE]\n  \
         ftree costs   [--out FILE]\n  \
         ftree faults  [--nodes N] [--events E] [--wave K] [--seed S] [--out FILE]\n  \
         ftree reproduce [--out FILE]\n\n\
         workloads : path:N star:N kary<K>:N caterpillar:SxL broom:H+B random:N#S pref:N#S\n\
         adversaries: random max-degree min-degree root-attack heir-hunter hub-siphon diameter-greedy\n\
         healers   : forgiving-tree forgiving-graph surrogate line binary-tree no-heal\n\
         planners  : random targeted heavy-tail (tree stress) | mixed surge (graph stress)\n\
         faults    : none delay loss dup crash partition chaos, or +-joined (loss+crash)\n\
         numbers   : stress counts accept scaled forms (100k, 1m, 1e6, 2.5m)"
    );
    exit(2);
}

fn parse_workload(spec: &str) -> Workload {
    let bad = || -> ! {
        eprintln!("invalid workload: {spec}");
        usage()
    };
    let (kind, rest) = spec.split_once(':').unwrap_or_else(|| bad());
    let num = |s: &str| s.parse::<usize>().unwrap_or_else(|_| bad());
    // an empty tree (or a 0-ary one) has no root for the healers to start from
    let size = |s: &str| Some(num(s)).filter(|&v| v > 0).unwrap_or_else(|| bad());
    match kind {
        "path" => Workload::Path(size(rest)),
        "star" => Workload::Star(size(rest)),
        k if k.starts_with("kary") => Workload::Kary(size(rest), size(&k[4..])),
        "caterpillar" => {
            let (s, l) = rest.split_once('x').unwrap_or_else(|| bad());
            Workload::Caterpillar(size(s), num(l))
        }
        "broom" => {
            let (h, b) = rest.split_once('+').unwrap_or_else(|| bad());
            Workload::Broom(size(h), num(b))
        }
        "random" => {
            let (n, s) = rest.split_once('#').unwrap_or((rest, "1"));
            Workload::RandomTree(size(n), num(s) as u64)
        }
        "pref" => {
            let (n, s) = rest.split_once('#').unwrap_or((rest, "1"));
            Workload::PrefTree(size(n), num(s) as u64)
        }
        _ => bad(),
    }
}

fn make_adversary(name: &str, seed: u64) -> Box<dyn Adversary> {
    match name {
        "random" => Box::new(RandomAdversary::new(seed)),
        "max-degree" => Box::new(HighestDegreeAdversary),
        "min-degree" => Box::new(LowestDegreeAdversary),
        "root-attack" => Box::new(RootAdversary),
        "heir-hunter" => Box::new(HeirHunter),
        "hub-siphon" => Box::new(HubSiphon),
        "diameter-greedy" => Box::new(DiameterGreedy::default()),
        _ => {
            eprintln!("unknown adversary: {name}");
            usage()
        }
    }
}

fn make_healer(name: &str, w: &Workload) -> Box<dyn SelfHealer> {
    match name {
        "forgiving-tree" => Box::new(ForgivingHealer::new(&w.tree())),
        "forgiving-graph" => Box::new(DistributedForgivingGraph::new(&w.graph())),
        "surrogate" => Box::new(LocalHealer::new(LocalRule::Surrogate, w.graph())),
        "line" => Box::new(LocalHealer::new(LocalRule::Line, w.graph())),
        "binary-tree" => Box::new(LocalHealer::new(LocalRule::BinaryTree, w.graph())),
        "no-heal" => Box::new(LocalHealer::new(LocalRule::NoRepair, w.graph())),
        _ => {
            eprintln!("unknown healer: {name}");
            usage()
        }
    }
}

/// Exits with usage unless every argument is one of `flags` followed by
/// its value, or one of `switches`: a misspelt or retired flag must not
/// silently run a campaign on defaults.
fn check_flags(args: &[String], flags: &[&str], switches: &[&str]) {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.contains(&arg.as_str()) {
            if it.next().is_none() {
                eprintln!("missing value for {arg}");
                usage();
            }
        } else if !switches.contains(&arg.as_str()) {
            eprintln!("unknown flag: {arg}");
            usage();
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// Parses a count with optional scale: `1000`, `100k`, `1m`, `2.5m`, `1e6`.
///
/// Plain integers take the fast exact path; the suffixed and exponent forms
/// go through f64 (the presets they exist for — 10⁵, 10⁶ — are far below
/// the 2⁵³ limit where that would lose precision). Returns `None` for
/// negatives, NaN/inf, and anything that is not a number.
fn parse_scaled(s: &str) -> Option<usize> {
    let t = s.trim();
    if let Ok(v) = t.parse::<usize>() {
        return Some(v);
    }
    let approx = |v: f64| -> Option<usize> {
        (v.is_finite() && v >= 0.0 && v <= 2f64.powi(53)).then(|| v.round() as usize)
    };
    if let Some(stripped) = t.strip_suffix(['k', 'K']) {
        return approx(stripped.parse::<f64>().ok()? * 1e3);
    }
    if let Some(stripped) = t.strip_suffix(['m', 'M']) {
        return approx(stripped.parse::<f64>().ok()? * 1e6);
    }
    // `1e6` / `2E5`: f64 syntax already covers the exponent form.
    if t.contains(['e', 'E']) {
        return approx(t.parse::<f64>().ok()?);
    }
    None
}

/// Reads a fraction flag (default `default`), rejecting values outside
/// `[0, 1]` and NaN: the harnesses would clamp them silently, and a run
/// must never describe a campaign that was not actually run.
fn parse_fraction(args: &[String], flag: &str, default: f64) -> f64 {
    let f: f64 = flag_value(args, flag)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(default);
    if !(0.0..=1.0).contains(&f) {
        eprintln!("{flag} must be in [0, 1], got {f}");
        usage();
    }
    f
}

/// Writes `contents` to `out`, exiting 1 if it cannot.
fn write_out(out: &str, contents: &str) {
    std::fs::write(out, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1);
    });
    println!("wrote {out}");
}

/// Reads a count flag in scaled form (default `default`), rejecting
/// values below `min`: a campaign needs at least its root (`--nodes`), a
/// tree at least two children per node (`--arity`), a wave at least one
/// victim (`--wave`), a stretch sample at least one source (`--sources`).
/// The harnesses would clamp or panic instead, and a
/// record must never describe a campaign that was not actually run.
fn parse_count(args: &[String], flag: &str, default: usize, min: usize) -> usize {
    let v = flag_value(args, flag)
        .map(|s| parse_scaled(s).unwrap_or_else(|| usage()))
        .unwrap_or(default);
    if v < min {
        eprintln!("{flag} must be at least {min}");
        usage();
    }
    v
}

fn cmd_attack(args: &[String]) {
    check_flags(
        args,
        &["--workload", "--adversary", "--healer", "--fraction"],
        &["--dot", "--csv"],
    );
    let w = parse_workload(flag_value(args, "--workload").unwrap_or("kary4:256"));
    let adv_name = flag_value(args, "--adversary").unwrap_or("max-degree");
    let healer_name = flag_value(args, "--healer").unwrap_or("forgiving-tree");
    let fraction = parse_fraction(args, "--fraction", 1.0);
    let mut adv = make_adversary(adv_name, 42);
    let mut healer = make_healer(healer_name, &w);
    let cfg = TrialConfig {
        workload: w.name(),
        delete_fraction: fraction,
        measure_every: (w.graph().len() / 32).max(1),
    };
    let trial = run_trial(&cfg, healer.as_mut(), adv.as_mut());
    if args.iter().any(|a| a == "--csv") {
        let mut t = Table::new("series", &["deletions", "alive", "diameter", "deg_inc"]);
        for s in trial.steps.iter().filter(|s| s.diameter.is_some()) {
            t.push(vec![
                s.deletions.to_string(),
                s.alive.to_string(),
                s.diameter.map(|d| d.to_string()).unwrap_or_default(),
                s.max_degree_increase.to_string(),
            ]);
        }
        print!("{}", t.to_csv());
    }
    println!("{}", trial.summary);
    println!(
        "  D0={} Δ0={} | max diameter {} (stretch {:.2}) | max degree +{} | worst heal: {} msgs, {} per node | connected: {}",
        trial.summary.diam0,
        trial.summary.delta0,
        trial.summary.max_diameter,
        trial.summary.max_stretch,
        trial.summary.max_degree_increase,
        trial.summary.worst_heal_messages,
        trial.summary.worst_node_messages,
        trial.summary.stayed_connected,
    );
    if args.iter().any(|a| a == "--dot") {
        println!("{}", healer.graph().to_dot("healed"));
    }
}

fn cmd_scaling(args: &[String]) {
    check_flags(args, &["--healer", "--adversary"], &[]);
    let healer_name = flag_value(args, "--healer").unwrap_or("forgiving-tree");
    let adv_name = flag_value(args, "--adversary").unwrap_or("max-degree");
    let mut deg_points = Vec::new();
    let mut diam_points = Vec::new();
    for n in [32usize, 64, 128, 256] {
        let w = Workload::Star(n);
        let mut adv = make_adversary(adv_name, 7);
        let mut healer = make_healer(healer_name, &w);
        let cfg = TrialConfig {
            workload: w.name(),
            delete_fraction: 0.5,
            measure_every: 4,
        };
        let t = run_trial(&cfg, healer.as_mut(), adv.as_mut());
        deg_points.push((n as f64, (t.summary.max_degree_increase.max(1)) as f64));
        diam_points.push((n as f64, t.summary.max_diameter.max(1) as f64));
        println!(
            "n={n:>4}: max degree +{}, max diameter {}",
            t.summary.max_degree_increase, t.summary.max_diameter
        );
    }
    println!(
        "growth exponents on stars (log-log slope): degree {:.2}, diameter {:.2}",
        log_log_slope(&deg_points),
        log_log_slope(&diam_points)
    );
    println!("(≈1 means Θ(n) blow-up; ≈0 means bounded/logarithmic — the paper's contrast)");
}

fn cmd_duel(args: &[String]) {
    check_flags(args, &["--workload"], &[]);
    let w = parse_workload(flag_value(args, "--workload").unwrap_or("star:128"));
    let mut table = Table::new(
        format!("duel on {}", w.name()),
        &["healer", "adversary", "deg inc", "stretch", "connected"],
    );
    for healer_name in [
        "forgiving-tree",
        "forgiving-graph",
        "surrogate",
        "line",
        "binary-tree",
    ] {
        for adv_name in ["random", "max-degree", "hub-siphon", "diameter-greedy"] {
            let mut adv = make_adversary(adv_name, 3);
            let mut healer = make_healer(healer_name, &w);
            let cfg = TrialConfig {
                workload: w.name(),
                delete_fraction: 0.75,
                measure_every: (w.graph().len() / 16).max(1),
            };
            let t = run_trial(&cfg, healer.as_mut(), adv.as_mut());
            table.push(vec![
                healer_name.into(),
                adv_name.into(),
                format!("+{}", t.summary.max_degree_increase),
                format!("{:.2}", t.summary.max_stretch),
                t.summary.stayed_connected.to_string(),
            ]);
        }
    }
    table.print();
}

/// Reads a named value (default `default`) through `parse`, exiting with
/// usage on a name it does not know: the scenario holds parsed values only.
fn parse_name<T>(
    args: &[String],
    flag: &str,
    default: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    let name = flag_value(args, flag).unwrap_or(default);
    parse(name).unwrap_or_else(|| {
        eprintln!("unknown {flag} value: {name}");
        usage()
    })
}

/// Reads `--planner`: a churn planner for the graph model, a deletion-only
/// wave planner for the tree.
fn parse_planner(args: &[String], default: &str, graph: bool) -> PlannerKind {
    parse_name(args, "--planner", default, |name| {
        PlannerKind::from_name(name).filter(|kind| kind.inserts() == graph)
    })
}

/// The tree scenario the `stress` flags describe.
fn tree_scenario(args: &[String]) -> Scenario {
    Scenario {
        protocol: Protocol::Tree {
            arity: parse_count(args, "--arity", 8, 2),
            cadence: parse_name(args, "--cadence", "per-deletion", HealCadence::from_name),
        },
        initial: Initial::Nodes(parse_count(args, "--nodes", 100_000, 1)),
        events: Events::Planned {
            budget: parse_count(args, "--deletions", 1_000, 0),
            wave_size: parse_count(args, "--wave", 50, 1),
            planner: parse_planner(args, "random", false),
        },
        faults: parse_name(args, "--faults", "none", Faults::named),
        seed: parse_count(args, "--seed", 42, 0) as u64,
    }
}

/// The graph scenario the `stress --model graph` flags describe.
fn graph_scenario(args: &[String]) -> Scenario {
    Scenario {
        protocol: Protocol::Graph {
            extra_edges: parse_fraction(args, "--extra-edges", 0.2),
            insert_fraction: parse_fraction(args, "--insert-frac", 0.4),
            stretch_sources: parse_count(args, "--sources", 16, 1),
        },
        // the churn planners need more than two live nodes
        initial: Initial::Nodes(parse_count(args, "--nodes", 10_000, 3)),
        events: Events::Planned {
            budget: parse_count(args, "--events", 2_000, 0),
            wave_size: parse_count(args, "--wave", 50, 1),
            planner: parse_planner(args, "mixed", true),
        },
        faults: parse_name(args, "--faults", "none", Faults::named),
        seed: parse_count(args, "--seed", 42, 0) as u64,
    }
}

fn cmd_stress(args: &[String]) {
    let common = [
        "--model",
        "--nodes",
        "--wave",
        "--planner",
        "--faults",
        "--seed",
        "--out",
    ];
    let scenario = match flag_value(args, "--model").unwrap_or("tree") {
        "tree" => {
            let own = ["--deletions", "--arity", "--cadence"];
            check_flags(args, &[&common[..], &own].concat(), &[]);
            tree_scenario(args)
        }
        "graph" => {
            let own = ["--events", "--insert-frac", "--extra-edges", "--sources"];
            check_flags(args, &[&common[..], &own].concat(), &[]);
            graph_scenario(args)
        }
        other => {
            eprintln!("unknown stress model: {other} (tree | graph)");
            usage();
        }
    };
    // run panics (non-zero exit) on a ledger imbalance; a fault-free run
    // that failed a verdict exits 1 below — the signals CI must treat as
    // failures.
    let outcome = run(&scenario);
    let rec = StressRecord::new(scenario, &outcome);
    let (campaign, graph) = match rec.scenario.protocol {
        Protocol::Tree { cadence, .. } => (cadence.name(), false),
        Protocol::Graph { .. } => ("graph", true),
    };
    println!("{}", rec.summary());
    let joins = if graph {
        format!("joins {} | ", rec.joins)
    } else {
        String::new()
    };
    println!(
        "  ledger: sent {} = delivered {} + dropped {} (+0 in flight) | notices {} | {joins}total {}",
        rec.sent, rec.delivered, rec.dropped, rec.notices, rec.total_messages
    );
    if graph {
        println!(
            "  stretch: {} pairs from {} sources, max {:.2} mean {:.2} (bound {:.0}) | degree +{} (bound {})",
            rec.stretch.pairs,
            rec.stretch.sources,
            rec.stretch.max_stretch,
            rec.stretch.mean_stretch,
            rec.stretch_bound,
            rec.max_degree_increase,
            rec.degree_bound
        );
        println!("  stretch tracker: {:.1} ms", rec.stretch_wall_ms);
    }
    let faults = &rec.scenario.faults.name;
    if faults != "none" {
        let wills = if graph {
            format!(" | wills {}", rec.wills_ok)
        } else {
            String::new()
        };
        println!(
            "  faults ({faults}): lost {} | duplicated {} | delayed {} | crashes {} | converged {}{wills} | connected {} | fingerprint {:#018x}",
            rec.lost,
            rec.duplicated,
            rec.delayed,
            rec.crashes,
            rec.converged,
            rec.connected,
            rec.fault_fingerprint
        );
    }
    if graph {
        let (cost, stretch) = (&rec.cost, &rec.stretch_cost);
        println!(
            "  cost: visits {} scans {} heap {} B | stretch visits {} scans {} heap {} B seeks {}",
            cost.node_visits,
            cost.edge_scans,
            cost.heap_bytes,
            stretch.node_visits,
            stretch.edge_scans,
            stretch.heap_bytes,
            stretch.seeks
        );
    }
    // Like every failing campaign, a failed verdict exits before the record
    // is written, so a written record is itself the green signal.
    if let Some(verdict) = rec.failed_verdict() {
        eprintln!("verdict failed: {verdict} (fault-free {campaign} campaign)");
        exit(1);
    }
    let default_out = if graph {
        "BENCH_graph.json"
    } else {
        "BENCH_sim.json"
    };
    write_out(
        flag_value(args, "--out").unwrap_or(default_out),
        &rec.to_json(),
    );
}

fn cmd_costs(args: &[String]) {
    check_flags(args, &["--out"], &[]);
    // The two CI smoke campaigns, pinned: the exact flags the workflow's
    // stress steps pass. The emitted record carries counters only — no
    // timing or throughput fields — so the committed baseline is
    // byte-stable across machines and a plain `diff` in CI catches any
    // cost-model drift.
    let smoke =
        |flags: &str| -> Vec<String> { flags.split_whitespace().map(String::from).collect() };
    let tree = run(&tree_scenario(&smoke(
        "--nodes 2000 --deletions 400 --wave 25 --planner heavy-tail --seed 1",
    )));
    let graph = run(&graph_scenario(&smoke(
        "--nodes 2000 --events 400 --wave 25 --planner mixed --insert-frac 0.4 --seed 1",
    )));
    let (tree_cost, graph_cost) = (&tree.books.cost, &graph.books.cost);
    let json = Record::new()
        .str("bench", "costs")
        .num("tree_rounds", tree.report.rounds)
        .cost("tree", tree_cost)
        .num("graph_rounds", graph.report.rounds)
        .cost("graph", graph_cost)
        .cost("graph_stretch", &graph.stretch_cost)
        .num("schema", 1)
        .render();
    println!(
        "tree  smoke: rounds {} | sent {} delivered {} | visits {} scans {}",
        tree.report.rounds,
        tree_cost.messages_sent,
        tree_cost.messages_delivered,
        tree_cost.node_visits,
        tree_cost.edge_scans
    );
    println!(
        "graph smoke: rounds {} | sent {} delivered {} | visits {} scans {} | stretch visits {} seeks {}",
        graph.report.rounds,
        graph_cost.messages_sent,
        graph_cost.messages_delivered,
        graph_cost.node_visits,
        graph_cost.edge_scans,
        graph.stretch_cost.node_visits,
        graph.stretch_cost.seeks
    );
    write_out(
        flag_value(args, "--out").unwrap_or("BENCH_costs.json"),
        &json,
    );
}

fn cmd_faults(args: &[String]) {
    check_flags(
        args,
        &["--nodes", "--events", "--wave", "--seed", "--out"],
        &[],
    );
    let defaults = FaultMatrixConfig::default();
    let cfg = FaultMatrixConfig {
        // the graph cells' churn driver plans only while more than two
        // nodes live
        nodes: parse_count(args, "--nodes", defaults.nodes, 3),
        events: parse_count(args, "--events", defaults.events, 0),
        wave_size: parse_count(args, "--wave", defaults.wave_size, 1),
        seed: parse_count(args, "--seed", defaults.seed as usize, 0) as u64,
    };
    let rec = run_fault_matrix(&cfg);
    print!("{}", rec.summary());
    let out = flag_value(args, "--out").unwrap_or("BENCH_faults.json");
    write_out(out, &rec.to_json());
}

fn cmd_reproduce(args: &[String]) {
    check_flags(args, &["--out"], &[]);
    let claims = claims::reproduce();
    let out = flag_value(args, "--out").unwrap_or("CLAIMS.md");
    write_out(out, &claims::render(&claims));
    if !claims::all_held(&claims) {
        eprintln!("a claim did not hold: see the rows marked false in {out}");
        exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("attack") => cmd_attack(&args[1..]),
        Some("scaling") => cmd_scaling(&args[1..]),
        Some("duel") => cmd_duel(&args[1..]),
        Some("stress") => cmd_stress(&args[1..]),
        Some("costs") => cmd_costs(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("reproduce") => cmd_reproduce(&args[1..]),
        _ => usage(),
    }
}
