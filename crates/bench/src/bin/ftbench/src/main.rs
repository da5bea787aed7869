//! `ftbench` — whole-run, per-layer benchmark of the three reference
//! Forgiving Tree / Forgiving Graph campaigns.
//!
//! ```text
//! ftbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--spans FILE]
//! ```
//!
//! One invocation measures one workload for about `--seconds` seconds. It
//! runs the workload again and again, one run at a time, each in a child
//! process of its own so that peak RSS and allocator state belong to that
//! run alone, and reports each metric's median over the runs. Every run
//! must produce identical exact counts. The last line of standard output
//! is one JSON object holding every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`, which alternates untraced and
//! traced runs). A failed output check exits 1; bad arguments exit 2.
//! README.md lists the metrics and what each should move.

mod drive;
mod spans;

use drive::{Counts, Timing, Workload};
use spans::{Kind, Recorder};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: ftbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--spans FILE]
  NAME: tree-1m-churn | graph-1m-mixed | graph-200k-chaos
  --seed     workload seed (default 42)
  --seconds  measuring time; whole runs are repeated within it (default 30)
  --trace    1 = report per-layer metrics from traced runs (default 0)
  --spans    with --trace 1, also write the last traced run's spans as JSONL";

/// The seed whose exact counts `pins.txt` pins.
const PINNED_SEED: u64 = 42;
const PINS: &str = include_str!("../pins.txt");

/// End-to-end metrics: name and unit. The worst per-node load and degree
/// increase are small integers that move by one between seeds, too coarse
/// for a regression bound, so they are per-layer counts instead.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("total_s", "s"),
    ("heal_events_per_s", "1/s"),
    ("heal_p50_us", "us"),
    ("heal_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("msgs_per_event", "count"),
    ("rounds_per_event", "count"),
    ("verdict_ok_frac", "frac"),
];

/// Where a per-layer metric comes from.
#[derive(Clone, Copy)]
enum Src {
    /// The median over traced runs of the timed figure of the same name.
    Time,
    /// An exact count, by its key in [`Counts::pairs`].
    Count(&'static str),
    /// Computed from several figures; see [`per_layer`].
    Derived,
}

/// Per-layer metrics: name, unit and source.
const PER_LAYER: [(&str, &str, Src); 44] = [
    ("graph.gen_ms", "ms", Src::Time),
    ("graph.connected_ms", "ms", Src::Time),
    ("graph.distance_ms", "ms", Src::Time),
    ("graph.self_ms", "ms", Src::Time),
    ("core.init_ms", "ms", Src::Time),
    ("core.wills_ms", "ms", Src::Time),
    ("core.degree_ms", "ms", Src::Time),
    ("core.self_ms", "ms", Src::Time),
    (
        "core.max_degree_increase",
        "count",
        Src::Count("max_degree_increase"),
    ),
    ("sim.heal_ms", "ms", Src::Time),
    ("sim.notice_ms", "ms", Src::Time),
    ("sim.round_ms", "ms", Src::Time),
    ("sim.accounting_ms", "ms", Src::Time),
    ("sim.self_ms", "ms", Src::Time),
    ("sim.rounds", "count", Src::Count("rounds")),
    ("sim.rounds_sharded", "count", Src::Count("rounds_sharded")),
    ("sim.peak_node_load", "count", Src::Count("peak_node_load")),
    ("sim.sent", "count", Src::Count("sent")),
    ("sim.delivered", "count", Src::Count("delivered")),
    ("sim.dropped", "count", Src::Count("dropped")),
    ("sim.lost", "count", Src::Count("lost")),
    ("sim.duplicated", "count", Src::Count("duplicated")),
    ("sim.delayed", "count", Src::Count("delayed")),
    ("sim.crashes", "count", Src::Count("crashes")),
    ("sim.delivered_frac", "frac", Src::Derived),
    ("sim.node_visits", "count", Src::Count("cost.node_visits")),
    ("sim.edge_scans", "count", Src::Count("cost.edge_scans")),
    ("sim.heap_bytes", "bytes", Src::Count("cost.heap_bytes")),
    ("sim.seeks", "count", Src::Count("cost.seeks")),
    ("stretch.init_ms", "ms", Src::Time),
    ("stretch.repair_ms", "ms", Src::Time),
    ("stretch.report_ms", "ms", Src::Time),
    ("stretch.self_ms", "ms", Src::Time),
    (
        "stretch.node_visits",
        "count",
        Src::Count("stretch_cost.node_visits"),
    ),
    (
        "stretch.edge_scans",
        "count",
        Src::Count("stretch_cost.edge_scans"),
    ),
    (
        "stretch.heap_bytes",
        "bytes",
        Src::Count("stretch_cost.heap_bytes"),
    ),
    ("stretch.seeks", "count", Src::Count("stretch_cost.seeks")),
    ("stretch.pairs", "count", Src::Count("stretch_pairs")),
    ("stretch.max", "ratio", Src::Count("max_stretch")),
    ("adversary.plan_ms", "ms", Src::Time),
    ("adversary.plans", "count", Src::Count("plans")),
    ("adversary.self_ms", "ms", Src::Time),
    ("proc.unaccounted_ms", "ms", Src::Time),
    ("proc.trace_overhead_ms", "ms", Src::Derived),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    /// Internal: run the workload once in this process and print the raw
    /// sample for the parent to parse.
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PINNED_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut spans = None;
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(drive::find(value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("malformed seed {value:?}"))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("--seconds takes 1..=3600, not {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        spans,
        child,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ftbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        child(&args)
    } else {
        bench(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ftbench: {} seed {}: {e}", args.workload.name, args.seed);
            ExitCode::from(1)
        }
    }
}

/// Engine worker threads: `min(2, nproc)`. Results are byte-identical at
/// any count.
fn engine_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What one run measured: its exact counts and its wall-clock figures.
#[derive(Clone, Debug, Default, PartialEq)]
struct Sample {
    exact: BTreeMap<String, String>,
    timed: BTreeMap<String, f64>,
}

impl Sample {
    fn of(counts: &Counts, timing: &Timing, rec: &Recorder, rss_mb: f64) -> Self {
        let mut heals = timing.heals.clone();
        heals.sort_unstable();
        // nearest-rank percentile
        let pct = |p: usize| {
            let rank = (heals.len() * p).div_ceil(100).max(1);
            heals.get(rank - 1).map_or(0.0, |d| d.as_secs_f64() * 1e6)
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut timed = BTreeMap::new();
        timed.insert("setup_s".to_string(), timing.setup.as_secs_f64());
        timed.insert("total_s".to_string(), timing.total.as_secs_f64());
        let heal_s: Duration = heals.iter().sum();
        timed.insert("heal_s".to_string(), heal_s.as_secs_f64());
        timed.insert("heal_p50_us".to_string(), pct(50));
        timed.insert("heal_p99_us".to_string(), pct(99));
        timed.insert("peak_rss_mb".to_string(), rss_mb);
        timed.insert("proc.unaccounted_ms".to_string(), ms(rec.unaccounted()));
        for kind in Kind::ALL.into_iter().filter(|k| k.layer() != "bench") {
            timed.insert(format!("{}_ms", kind.name()), ms(rec.total(kind)));
        }
        for (layer, took) in rec.self_times() {
            timed.insert(format!("{layer}.self_ms"), ms(took));
        }
        Sample {
            exact: counts.pairs().into_iter().collect(),
            timed,
        }
    }

    fn count(&self, key: &str) -> f64 {
        self.exact
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    fn time(&self, key: &str) -> f64 {
        self.timed.get(key).copied().unwrap_or(f64::NAN)
    }

    /// One `exact KEY VALUE` or `timed KEY VALUE` line per figure.
    fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.exact {
            out.push_str(&format!("exact {k} {v}\n"));
        }
        for (k, v) in &self.timed {
            out.push_str(&format!("timed {k} {v}\n"));
        }
        out
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut s = Sample::default();
        for line in text.lines() {
            let bad = || format!("malformed line from a run: {line:?}");
            let mut f = line.split_whitespace();
            match (f.next(), f.next(), f.next(), f.next()) {
                (Some("exact"), Some(k), Some(v), None) => {
                    s.exact.insert(k.to_string(), v.to_string());
                }
                (Some("timed"), Some(k), Some(v), None) => {
                    s.timed.insert(k.to_string(), v.parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        if s.exact.is_empty() || s.timed.is_empty() {
            return Err("a run printed no sample".into());
        }
        Ok(s)
    }
}

fn child(a: &Args) -> Result<(), String> {
    let (counts, timing, rec) =
        drive::run_workload(&a.workload, a.seed, engine_threads(), a.trace)?;
    let sample = Sample::of(&counts, &timing, &rec, drive::peak_rss_mb()?);
    if let (true, Some(path)) = (a.trace, &a.spans) {
        let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        rec.write_jsonl(&mut std::io::BufWriter::new(file), a.workload.name, a.seed)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    print!("{}", sample.render());
    Ok(())
}

fn spawn_run(exe: &Path, a: &Args, traced: bool) -> Result<Sample, String> {
    let seed = a.seed.to_string();
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", a.workload.name, "--seed", &seed]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let (true, Some(path)) = (traced, &a.spans) {
        cmd.args(["--spans", path]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("a run failed ({})", out.status));
    }
    Sample::parse(&String::from_utf8_lossy(&out.stdout))
}

fn bench(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate ftbench: {e}"))?;
    let budget = Duration::from_secs(a.seconds);
    let start = Instant::now();
    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    loop {
        let trace_next = a.trace && traced.len() < plain.len();
        let sample = spawn_run(&exe, a, trace_next)?;
        if trace_next {
            traced.push(sample);
        } else {
            plain.push(sample);
        }
        // stop before a further run would overrun the budget
        let runs = u32::try_from(plain.len() + traced.len()).unwrap_or(u32::MAX);
        let elapsed = start.elapsed();
        if (!a.trace || !traced.is_empty()) && elapsed + elapsed / runs > budget {
            break;
        }
    }

    let counts = &plain[0].exact;
    for s in plain.iter().chain(&traced) {
        if let Some((k, v)) = s.exact.iter().find(|(k, v)| counts.get(*k) != Some(v)) {
            return Err(format!(
                "runs disagree on {k}: {v} vs {}",
                counts.get(k).map_or("nothing", String::as_str)
            ));
        }
    }
    if a.seed == PINNED_SEED {
        check_pins(a.workload.name, counts)?;
    }
    let metrics = if a.trace {
        per_layer(&plain, &traced)?
    } else {
        end_to_end(&plain)?
    };

    println!(
        "ftbench {} seed {}: {} untraced + {} traced runs, engine threads {}, nproc {}",
        a.workload.name,
        a.seed,
        plain.len(),
        traced.len(),
        engine_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for m in &metrics {
        let runs: Vec<String> = m.runs.iter().map(|v| format!("{v:.6}")).collect();
        println!(
            "  {:<24} {:>16.6} {:<6} runs [{}]",
            m.name,
            m.value,
            m.unit,
            runs.join(", ")
        );
    }
    // an operation is one adversarial event; it fails if its heal does not
    // converge
    let sum = |key: &str| -> u64 {
        plain
            .iter()
            .chain(&traced)
            .map(|s| s.count(key) as u64)
            .sum()
    };
    println!(
        "{}",
        result_json(sum("events"), sum("heal_failed"), &metrics)
    );
    Ok(())
}

fn check_pins(workload: &str, counts: &BTreeMap<String, String>) -> Result<(), String> {
    let mut pinned = 0;
    let mut wrong = Vec::new();
    for line in PINS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [w, key, want] = f[..] else {
            return Err(format!("malformed pins.txt line {line:?}"));
        };
        if w != workload {
            continue;
        }
        pinned += 1;
        let got = counts.get(key).map_or("missing", String::as_str);
        if got != want {
            wrong.push(format!("{key} = {got}, pinned {want}"));
        }
    }
    match (pinned, wrong.is_empty()) {
        (0, _) => Err(format!("pins.txt pins nothing for {workload}")),
        (_, true) => Ok(()),
        (_, false) => Err(format!(
            "seed {PINNED_SEED} deviates from pins.txt: {}",
            wrong.join("; ")
        )),
    }
}

/// A reported metric: the median over runs, with every run's value.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    runs: Vec<f64>,
}

impl Metric {
    fn over(name: &'static str, unit: &'static str, runs: Vec<f64>) -> Result<Self, String> {
        let value = median(&runs);
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        Ok(Metric {
            name,
            unit,
            value,
            runs,
        })
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn end_to_end_value(name: &str, s: &Sample) -> f64 {
    match name {
        "heal_events_per_s" => s.count("events") / s.time("heal_s"),
        "msgs_per_event" => s.count("total_messages") / s.count("events"),
        "rounds_per_event" => s.count("rounds") / s.count("events"),
        "verdict_ok_frac" => s.count("verdicts_ok") / s.count("verdicts"),
        _ => s.time(name),
    }
}

fn end_to_end(plain: &[Sample]) -> Result<Vec<Metric>, String> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            Metric::over(
                name,
                unit,
                plain.iter().map(|s| end_to_end_value(name, s)).collect(),
            )
        })
        .collect()
}

fn per_layer(plain: &[Sample], traced: &[Sample]) -> Result<Vec<Metric>, String> {
    let c = traced.first().ok_or("no traced run")?;
    let total =
        |runs: &[Sample]| median(&runs.iter().map(|s| s.time("total_s")).collect::<Vec<_>>());
    PER_LAYER
        .iter()
        .map(|&(name, unit, src)| {
            let runs = match src {
                Src::Time => traced.iter().map(|s| s.time(name)).collect(),
                Src::Count(key) => vec![c.count(key)],
                Src::Derived if name == "sim.delivered_frac" => {
                    vec![c.count("delivered") / (c.count("sent") + c.count("duplicated"))]
                }
                Src::Derived => vec![(total(traced) - total(plain)) * 1e3],
            };
            Metric::over(name, unit, runs)
        })
        .collect()
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use drive::{GraphShape, Shape, TreeShape};

    const SMOKE_TREE: Workload = Workload {
        name: "smoke-tree",
        shape: Shape::Tree(TreeShape {
            nodes: 4_000,
            arity: 4,
            deletions: 2_000,
            wave: 100,
        }),
    };
    const SMOKE_CHAOS: Workload = Workload {
        name: "smoke-chaos",
        shape: Shape::Graph(GraphShape {
            nodes: 1_500,
            events: 600,
            wave: 20,
            insert_fraction: 0.4,
            extra_edges: 0.2,
            sources: 4,
            faults: "chaos",
        }),
    };

    fn sample(w: &Workload, threads: usize, traced: bool) -> Sample {
        let (counts, timing, rec) =
            drive::run_workload(w, 7, threads, traced).expect("smoke workload passes its checks");
        Sample::of(&counts, &timing, &rec, 1.0)
    }

    #[test]
    fn spans_cover_all_but_two_percent_of_the_run() {
        for w in [SMOKE_TREE, SMOKE_CHAOS] {
            let s = sample(&w, 1, false);
            let total_ms = s.time("total_s") * 1e3;
            let unaccounted = s.time("proc.unaccounted_ms");
            assert!(
                unaccounted <= 0.02 * total_ms,
                "{}: {unaccounted} ms of {total_ms} ms outside any layer span",
                w.name
            );
        }
    }

    #[test]
    fn traced_and_untraced_counts_are_identical() {
        for w in [SMOKE_TREE, SMOKE_CHAOS] {
            let plain = sample(&w, 1, false);
            let traced = sample(&w, 1, true);
            assert_eq!(plain.exact, traced.exact, "{}", w.name);
        }
    }

    #[test]
    fn thread_count_does_not_change_exact_metrics() {
        for w in [SMOKE_TREE, SMOKE_CHAOS] {
            assert_eq!(
                sample(&w, 1, false).exact,
                sample(&w, 2, false).exact,
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let declared = include_str!("../../../../../../BENCHMARK.json");
        let plain = [sample(&SMOKE_CHAOS, 1, false)];
        let traced = [sample(&SMOKE_CHAOS, 1, true)];
        let mut metrics = end_to_end(&plain).expect("finite end-to-end metrics");
        metrics.extend(per_layer(&plain, &traced).expect("finite per-layer metrics"));
        for m in &metrics {
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{} is not a valid metric name",
                m.name
            );
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = drive::WORKLOADS.len();
        assert_eq!(
            declared.matches("\"name\": ").count(),
            workloads + metrics.len(),
            "BENCHMARK.json declares exactly the printed metrics and workloads"
        );
        for w in drive::WORKLOADS {
            assert!(declared.contains(&format!("\"name\": \"{}\"", w.name)));
        }
    }

    /// Feeding one event per `run_wave` call reproduces the stress
    /// harnesses, which feed whole waves.
    #[test]
    fn per_event_feeding_matches_the_stress_harnesses() {
        let tree = sample(&SMOKE_TREE, 1, false);
        let rec = ft_metrics::run_stress(&ft_metrics::StressConfig {
            nodes: 4_000,
            deletions: 2_000,
            wave_size: 100,
            arity: 4,
            planner: "random".into(),
            seed: 7,
            threads: 1,
            cadence: "per-deletion".into(),
            faults: "none".into(),
        });
        for (key, want) in [
            ("rounds", rec.rounds),
            ("sent", rec.sent),
            ("delivered", rec.delivered),
            ("dropped", rec.dropped),
            ("total_messages", rec.total_messages),
            ("cost.node_visits", rec.cost.node_visits),
            ("cost.seeks", rec.cost.seeks),
        ] {
            assert_eq!(tree.exact[key], want.to_string(), "tree {key}");
        }

        let chaos = sample(&SMOKE_CHAOS, 1, false);
        let rec = ft_metrics::run_graph_stress(&ft_metrics::GraphStressConfig {
            nodes: 1_500,
            events: 600,
            wave_size: 20,
            insert_fraction: 0.4,
            extra_edges: 0.2,
            planner: "mixed".into(),
            seed: 7,
            stretch_sources: 4,
            threads: 1,
            stretch_mode: "incremental".into(),
            faults: "chaos".into(),
        });
        for (key, want) in [
            ("rounds", rec.rounds),
            ("sent", rec.sent),
            ("delivered", rec.delivered),
            ("lost", rec.lost),
            ("duplicated", rec.duplicated),
            ("crashes", rec.crashes),
            ("stretch_cost.node_visits", rec.stretch_cost.node_visits),
        ] {
            assert_eq!(chaos.exact[key], want.to_string(), "chaos {key}");
        }
        assert_eq!(
            chaos.exact["fault_fingerprint"],
            format!("{:#018x}", rec.fault_fingerprint)
        );
        assert_eq!(
            chaos.exact["max_stretch"],
            format!("{:?}", rec.stretch.max_stretch)
        );
        assert_eq!(chaos.exact["wills_ok"], rec.wills_ok.to_string());
        assert_eq!(chaos.exact["connected"], rec.connected.to_string());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let parse =
            |args: &[&str]| parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(parse(&["--workload", "tree-1m-churn", "--seed", "7"]).is_ok());
        assert!(parse(&["--workload", "no-such-workload"]).is_err());
        assert!(parse(&["--workload", "tree-1m-churn", "--seed", "x7"]).is_err());
        assert!(parse(&["--workload", "tree-1m-churn", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "tree-1m-churn", "--seconds", "0"]).is_err());
        assert!(parse(&["--seed", "7"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn samples_survive_the_trip_between_processes() {
        let s = sample(&SMOKE_TREE, 1, false);
        assert_eq!(Sample::parse(&s.render()).expect("parses"), s);
    }
}
