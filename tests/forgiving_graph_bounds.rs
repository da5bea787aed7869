//! Property-level integration tests pinning the Forgiving Graph's O(log n)
//! guarantees (arXiv:0902.2501, Theorem 1) under randomized mixed
//! insert/delete campaigns on the message-level distributed engine.

use forgiving_tree::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Drives `events` churn events planned by the `mixed` planner against a seeded
/// connected workload, auditing after every wave (panics on any violation).
fn run_churn(nn: usize, seed: u64, insert_pct: u8, events: usize) -> DistributedForgivingGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(nn, 2.0 / nn as f64, &mut rng);
    let mut dist = DistributedForgivingGraph::new(&g);
    let mut planner = PlannerKind::Mixed.planner(seed, f64::from(insert_pct) / 100.0, false);
    let mut campaign = Campaign::new(CampaignConfig::default());
    let mut remaining = events;
    while remaining > 0 && dist.len() > 2 {
        let k = remaining.min(6);
        let plan = planner.plan(
            AdversaryView {
                graph: dist.graph(),
                ft: None,
            },
            k,
        );
        if plan.is_empty() {
            break;
        }
        remaining -= plan.len();
        dist.run_wave(&mut campaign, &plan);

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
    }
    dist
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
    let mut dist = DistributedForgivingGraph::new(&g);
    let mut planner = PlannerKind::Mixed.planner(99, 0.35, false);
    let mut campaign = Campaign::new(CampaignConfig::default());
    for _ in 0..20 {
        let plan = planner.plan(
            AdversaryView {
                graph: dist.graph(),
                ft: None,
            },
            10,
        );
        dist.run_wave(&mut campaign, &plan);
    }
    assert_eq!(
        campaign.report().insertions + campaign.report().deletions,
        200
    );
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
