//! Property-level integration tests pinning the Forgiving Graph's O(log n)
//! guarantees (arXiv:0902.2501, Theorem 1) under randomized mixed
//! insert/delete campaigns on the message-level distributed engine.

use forgiving_tree::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `budget` events of the `mixed` planner, in waves of `wave_size`, against
/// `g` with a share `inserts` of them insertions, seeded by `seed`.
fn mixed_churn(g: Graph, inserts: f64, budget: usize, wave_size: usize, seed: u64) -> Scenario {
    Scenario {
        protocol: Protocol::Graph {
            extra_edges: 0.0,
            insert_fraction: inserts,
            stretch_sources: 1,
        },
        initial: Initial::Explicit(g),
        events: Events::Planned {
            budget,
            wave_size,
            planner: PlannerKind::Mixed,
        },
        faults: Faults::default(),
        seed,
    }
}

/// The Forgiving Graph's processors of a healed graph run.
fn forgiving_graph(healed: &Healed) -> &DistributedForgivingGraph {
    let Healed::Graph(dist, _) = healed else {
        panic!("a Forgiving Graph run heals with the graph protocol")
    };
    dist
}

/// Drives `events` churn events planned by the `mixed` planner against a seeded
/// connected workload, auditing after every wave (panics on any violation).
fn run_churn(nn: usize, seed: u64, insert_pct: u8, events: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(nn, 2.0 / nn as f64, &mut rng);
    let churn = mixed_churn(g, f64::from(insert_pct) / 100.0, events, 6, seed);
    run(&churn, |healed, _| {
        let dist = forgiving_graph(healed);
        let capacity = dist.graph().capacity();
        assert!(dist.graph().is_connected(), "healer lost connectivity");
        let deg = dist.max_degree_increase();
        assert!(
            deg <= fg_degree_bound(capacity),
            "degree increase {deg} exceeds the O(log n) bound {}",
            fg_degree_bound(capacity)
        );
        let (stretch, _) = measure_stretch_full(dist.graph(), dist.pristine(), 6, seed);
        assert_eq!(
            stretch.disconnected_pairs, 0,
            "surviving pair unreachable in the healed graph"
        );
        assert!(
            stretch.max_stretch <= fg_stretch_bound(capacity),
            "stretch {} exceeds the O(log n) bound {}",
            stretch.max_stretch,
            fg_stretch_bound(capacity)
        );
        dist.check_wills().expect("wills consistent");
        dist.network().check_accounting().expect("books balance");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paper Theorem 1: on random insert/delete campaigns, the stretch
    /// between surviving sampled pairs never exceeds the O(log n) bound
    /// constant, degree increase stays within its bound, and every audit
    /// (connectivity, wills, message books) passes after every wave.
    #[test]
    fn stretch_and_degree_bounded_on_random_churn(
        nn in 8usize..72,
        seed in 0u64..1000,
        insert_pct in 10u8..80,
    ) {
        let events = nn;
        run_churn(nn, seed, insert_pct, events);
    }
}

/// Degree-increase regression: a pinned seeded campaign must not regress
/// beyond the value the current healer achieves (well under the O(log n)
/// bound of 33 for this capacity).
#[test]
fn degree_increase_regression_on_seeded_campaign() {
    let mut rng = StdRng::seed_from_u64(1234);
    let g = gen::gnp_connected(400, 0.006, &mut rng);
    let out = run(&mixed_churn(g, 0.35, 200, 10, 99), |_, _| {});
    assert_eq!(
        (
            out.report.waves,
            out.report.insertions + out.report.deletions
        ),
        (20, 200)
    );
    let dist = forgiving_graph(&out.healed);
    assert!(dist.graph().is_connected());
    dist.check_wills().expect("wills consistent");
    dist.network().check_accounting().expect("books balance");
    let deg = dist.max_degree_increase();
    assert!(
        deg <= 6,
        "degree increase regressed: +{deg} (was ≤ 6, O(log n) bound {})",
        fg_degree_bound(dist.graph().capacity())
    );
    let (stretch, _) = measure_stretch_full(dist.graph(), dist.pristine(), 12, 7);
    assert!(
        stretch.max_stretch <= 4.0,
        "stretch regressed: {} (was ≤ 4.0)",
        stretch.max_stretch
    );
}
