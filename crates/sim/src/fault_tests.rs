//! Property and locking tests for the fault-injection layer.
//!
//! The headline invariants: (1) under *any* fault plan — loss, duplication,
//! delay, crash-stop, partitions — a campaign replays byte for byte from
//! its seed (reports, ledger books, fault fingerprint, final graph); (2) the extended conservation identity
//! `sent + duplicated = delivered + dropped + lost + in-flight` and the
//! cost/ledger reconciliation hold throughout; (3) a plan with all rates
//! zero is indistinguishable from no plan at all; (4) a crash-stop that
//! cuts a heal mid-sentence is reported as `converged: false`, never as a
//! silent quiescence or a panic.

use crate::accounting_tests::{chatter_net, graph_fingerprint, plan_events, Chatter};
use crate::campaign::{Campaign, CampaignConfig, HealCadence};
use crate::faults::{FaultConfig, FaultPlan, MsgFate};
use crate::network::{Ctx, Network, Process};
use ft_graph::{gen, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A plan that escalates every deletion to a crash-stop and leaves every
/// message alone.
pub(crate) fn crash_only_plan() -> FaultPlan {
    FaultConfig {
        crash: 1.0,
        ..FaultConfig::zero()
    }
    .plan(7)
}

/// Runs one seeded churn campaign with `plan` armed; returns everything
/// the determinism contract must cover.
fn run_faulty_campaign(
    seed: u64,
    n: usize,
    waves: usize,
    wave_size: usize,
    plan: Option<FaultPlan>,
) -> (Campaign, Network<Chatter>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_tree(n, &mut rng);
    let mut net = chatter_net(g);
    net.set_fault_plan(plan);
    let mut campaign = Campaign::new(CampaignConfig {
        cadence: HealCadence::PerWave,
        max_rounds_per_heal: 64,
        ..CampaignConfig::default()
    });
    let mut plan_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..waves {
        let events = plan_events(&net, &mut plan_rng, wave_size);
        if events.is_empty() {
            break;
        }
        campaign.run_churn_wave(&mut net, &events, |_, nbrs| Chatter {
            neighbors: nbrs.to_vec(),
            echoes: 0,
        });
    }
    net.check_accounting()
        .expect("ledger + cost identities hold under faults");
    (campaign, net)
}

/// A random fault config spanning all axes, including the degenerate
/// all-zero corner and the partition axis.
fn arb_fault_config() -> impl Strategy<Value = FaultConfig> {
    (
        0.0f64..0.3,
        0.0f64..0.3,
        0.0f64..0.5,
        1u32..5,
        0.0f64..1.0,
        // 0..8 collapses to "no partitions"; 8..32 is a real period.
        (0u64..32).prop_map(|p| if p < 8 { 0 } else { p }),
    )
        .prop_map(
            |(loss, duplication, delay, max_delay, crash, period)| FaultConfig {
                loss,
                duplication,
                delay,
                max_delay,
                crash,
                partition_period: period,
                partition_len: period / 4,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under a random fault plan, a second run of the same seed replays
    /// the first byte for byte: same campaign report (crashes and convergence verdicts
    /// included), same ledger books (fault books included), same realized
    /// fault schedule (FNV fingerprint), same final graph — and the
    /// extended accounting identities hold (asserted inside the driver).
    #[test]
    fn faulty_campaigns_replay_identically(
        seed in 0u64..500,
        n in 30usize..100,
        cfg in arb_fault_config(),
    ) {
        let plan = Some(cfg.plan(seed ^ 0xfa17));
        let (c1, n1) = run_faulty_campaign(seed, n, 4, 10, plan);
        let (c2, n2) = run_faulty_campaign(seed, n, 4, 10, plan);
        prop_assert_eq!(c1.report(), c2.report(), "campaign reports diverged");
        prop_assert_eq!(n1.ledger(), n2.ledger(), "ledger books diverged");
        prop_assert_eq!(
            n1.fault_fingerprint(),
            n2.fault_fingerprint(),
            "realized fault schedules diverged"
        );
        prop_assert_eq!(n1.crashes(), n2.crashes());
        prop_assert_eq!(n1.crash_silenced(), n2.crash_silenced());
        prop_assert_eq!(n1.round(), n2.round(), "round clocks diverged");
        prop_assert_eq!(
            graph_fingerprint(n1.graph()),
            graph_fingerprint(n2.graph()),
            "healed graphs diverged"
        );
    }

    /// The all-rates-zero plan is the fault-free engine: arming it changes
    /// no book, no report, no cost, no graph, and leaves the fault
    /// fingerprint at its basis — the fault code path is invisible until a
    /// rate is nonzero.
    #[test]
    fn zero_rate_plan_is_byte_identical_to_no_plan(
        seed in 0u64..500,
        n in 30usize..100,
    ) {
        let zero = Some(FaultConfig::zero().plan(seed));
        let (c_none, n_none) = run_faulty_campaign(seed, n, 3, 8, None);
        let (c_zero, n_zero) = run_faulty_campaign(seed, n, 3, 8, zero);
        prop_assert_eq!(c_none.report(), c_zero.report(), "reports diverged");
        prop_assert_eq!(n_none.ledger(), n_zero.ledger(), "ledgers diverged");
        prop_assert_eq!(n_none.costs(), n_zero.costs(), "cost counters diverged");
        prop_assert_eq!(n_none.round(), n_zero.round());
        prop_assert_eq!(
            graph_fingerprint(n_none.graph()),
            graph_fingerprint(n_zero.graph()),
            "graphs diverged"
        );
        prop_assert_eq!(
            n_none.fault_fingerprint(),
            n_zero.fault_fingerprint(),
            "a zero plan must realize no fault events"
        );
        prop_assert_eq!(n_zero.ledger().lost(), 0);
        prop_assert_eq!(n_zero.ledger().duplicated(), 0);
        prop_assert_eq!(n_zero.ledger().delayed(), 0);
        prop_assert_eq!(n_zero.crashes(), 0);
    }

    /// Replaying the same plan twice is bit-equal; a different fault seed
    /// realizes a different schedule (fingerprints differ) while the books
    /// still balance.
    #[test]
    fn fault_schedules_replay_and_reseed(
        seed in 0u64..200,
        n in 40usize..80,
    ) {
        let cfg = FaultConfig::from_name("chaos").expect("chaos parses");
        let (_, n1) = run_faulty_campaign(seed, n, 3, 8, Some(cfg.plan(1)));
        let (_, n2) = run_faulty_campaign(seed, n, 3, 8, Some(cfg.plan(1)));
        let (_, n3) = run_faulty_campaign(seed, n, 3, 8, Some(cfg.plan(2)));
        prop_assert_eq!(n1.fault_fingerprint(), n2.fault_fingerprint());
        prop_assert_eq!(n1.ledger(), n2.ledger());
        // chaos at these sizes always realizes some fault; a different
        // fault seed must realize a different schedule
        prop_assert_ne!(n1.fault_fingerprint(), n3.fault_fingerprint());
    }
}

// ---------------------------------------------------------------------
// Directed semantics tests: each fault axis in isolation
// ---------------------------------------------------------------------

/// One-shot sender: node 0 sends a single message to node 1 on start.
#[derive(Debug)]
struct OneShot {
    target: Option<NodeId>,
    received: usize,
}

impl Process for OneShot {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        if let Some(t) = self.target {
            ctx.send(t, ());
        }
    }
    fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {
        self.received += 1;
    }
}

fn one_shot_net(plan: Option<FaultPlan>) -> Network<OneShot> {
    let g = gen::path(2);
    let mut net = Network::new(g, |v| OneShot {
        target: (v == NodeId(0)).then_some(NodeId(1)),
        received: 0,
    });
    net.set_fault_plan(plan);
    net
}

#[test]
fn certain_loss_destroys_the_message_on_the_wire() {
    let plan = FaultConfig {
        loss: 1.0,
        ..FaultConfig::zero()
    }
    .plan(1);
    let mut net = one_shot_net(Some(plan));
    net.start();
    assert!(!net.has_pending(), "the lost message never queued");
    assert_eq!(net.ledger().lost(), 1);
    assert_eq!(net.ledger().dropped(), 0, "loss is not an endpoint death");
    let (_, _cost) = net.run_until_quiet(4);
    assert_eq!(net.process(NodeId(1)).received, 0);
    assert_ne!(
        net.fault_fingerprint(),
        one_shot_net(None).fault_fingerprint(),
        "the realized loss moved the fingerprint off its basis"
    );
    net.check_accounting().expect("books balance");
}

#[test]
fn certain_duplication_delivers_twice() {
    let plan = FaultConfig {
        duplication: 1.0,
        ..FaultConfig::zero()
    }
    .plan(1);
    let mut net = one_shot_net(Some(plan));
    net.start();
    let (_, _cost) = net.run_until_quiet(4);
    assert_eq!(net.process(NodeId(1)).received, 2, "original + copy");
    assert_eq!(net.ledger().duplicated(), 1);
    assert_eq!(net.ledger().delivered(), 2);
    assert_eq!(net.ledger().sent(), 1, "the copy is not a send");
    net.check_accounting().expect("books balance");
}

#[test]
fn delays_postpone_delivery_by_the_decided_rounds() {
    let plan = FaultConfig {
        delay: 1.0,
        max_delay: 3,
        ..FaultConfig::zero()
    }
    .plan(1);
    let extra = match plan.fate(0, NodeId(0), NodeId(1), 0) {
        MsgFate::Delay(d) => d,
        other => panic!("expected a delay, got {other:?}"),
    };
    let mut net = one_shot_net(Some(plan));
    net.start();
    assert_eq!(net.delayed_in_flight(), 1, "the message parked");
    assert!(net.has_pending(), "delayed mail counts as pending");
    assert_eq!(net.ledger().delayed(), 1);
    let ((rounds, _, converged), _) = net.run_until_quiet_capped(16);
    assert!(converged);
    assert_eq!(
        rounds,
        extra + 1,
        "delivery landed exactly `extra` rounds late"
    );
    assert_eq!(net.process(NodeId(1)).received, 1, "delayed, not lost");
    net.check_accounting().expect("books balance");
}

#[test]
fn delayed_mail_to_a_dying_node_is_dropped_at_maturity() {
    let plan = FaultConfig {
        delay: 1.0,
        max_delay: 4,
        ..FaultConfig::zero()
    }
    .plan(1);
    let mut net = one_shot_net(Some(plan));
    net.start();
    assert_eq!(net.delayed_in_flight(), 1);
    // the addressee dies while the mail is parked
    net.delete_node(NodeId(1));
    let ((_, _, converged), _) = net.run_until_quiet_capped(16);
    assert!(converged);
    assert_eq!(net.ledger().dropped(), 1, "matured onto a dead addressee");
    net.check_accounting().expect("books balance");
}

#[test]
fn crash_stop_silences_in_flight_mail_under_deliver_policy() {
    let g = gen::path(2);
    let mut net = Network::new(g, |v| OneShot {
        target: (v == NodeId(0)).then_some(NodeId(1)),
        received: 0,
    });
    net.start();
    assert!(net.has_pending(), "the message is in flight");
    net.set_fault_plan(Some(crash_only_plan()));
    let (_, crashed) = net.delete_node_faulty(NodeId(0));
    assert!(crashed);
    assert_eq!(net.crashes(), 1);
    assert_eq!(
        net.crash_silenced(),
        1,
        "the in-flight message was silenced"
    );
    let (_, _cost) = net.run_until_quiet(4);
    assert_eq!(
        net.process(NodeId(1)).received,
        0,
        "a crash-stop kills the wire's memory of the victim, \
         though a deleted node's mail otherwise stays on the wire"
    );
    net.check_accounting().expect("books balance");
}

#[test]
fn partition_cuts_cross_side_mail_and_heals_on_rejoin() {
    let cfg = FaultConfig {
        partition_period: 4,
        partition_len: 2,
        ..FaultConfig::zero()
    };
    // find a seed whose epoch-0 cut separates 0 and 1 (pure function — we
    // can probe the plan without touching a network)
    let plan = (0u64..64)
        .map(|s| cfg.plan(s))
        .find(|p| p.partitioned(0, NodeId(0), NodeId(1)))
        .expect("some seed splits the pair in epoch 0");
    let mut net = one_shot_net(Some(plan));
    net.start(); // round 0: inside the partition window → lost
    assert_eq!(net.ledger().lost(), 1, "cross-partition mail lost");
    // after the window closes (round ≥ 2 in the 4-round cycle), a resend
    // gets through
    while net.round() % 4 < 2 {
        let (_, _cost) = net.step();
    }
    net.process_mut(NodeId(0)).received = 0;
    let r = net.round();
    assert!(!plan.partitioned(r, NodeId(0), NodeId(1)), "window closed");
    // drive another send through a fresh start-like push
    let mut found = false;
    if let MsgFate::Deliver = plan.fate(r, NodeId(0), NodeId(1), 0) {
        found = true;
    }
    assert!(found, "outside the window the wire is clean");
    net.check_accounting().expect("books balance");
}

// ---------------------------------------------------------------------
// Satellite 4: crash-stop mid-heal must surface as converged: false
// ---------------------------------------------------------------------

/// A healer that needs two rounds of conversation after a deletion: the
/// notified neighbor pings its own neighbors, who must echo before it
/// considers itself healed. A crash between ping and echo cuts this.
#[derive(Debug)]
struct TwoPhase {
    neighbors: Vec<NodeId>,
}

impl Process for TwoPhase {
    type Msg = u8;
    fn on_message(&mut self, from: NodeId, hop: u8, ctx: &mut Ctx<'_, u8>) {
        if hop > 0 {
            ctx.send(from, hop - 1);
        }
    }
    fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, u8>) {
        self.neighbors.retain(|&u| u != dead);
        for &u in &self.neighbors {
            ctx.send(u, 1);
        }
    }
}

#[test]
fn crash_stop_mid_heal_reports_not_converged() {
    // path 0-1-2-3: delete 1 cleanly → 2 pings 3 (heal conversation
    // starts); then 2 crash-stops with its ping still in flight.
    let g = gen::path(4);
    let nbrs: Vec<Vec<NodeId>> = (0..4).map(|i| g.neighbors(NodeId(i)).collect()).collect();
    let mut net = Network::new(g, |v| TwoPhase {
        neighbors: nbrs[v.index()].clone(),
    });
    net.set_fault_plan(Some(crash_only_plan()));
    let mut campaign = Campaign::new(CampaignConfig {
        cadence: HealCadence::PerWave,
        max_rounds_per_heal: 16,
        ..CampaignConfig::default()
    });
    // both deletions in one wave: 1 dies (crash, no mail in flight yet —
    // its neighbors 0 and 2 start pinging), then 2 dies with its heal
    // ping to 3 still queued → silenced mid-sentence.
    let ws = campaign.run_wave(&mut net, &[NodeId(1), NodeId(2)]);
    assert_eq!(ws.crashes, 2, "the plan crashes every deletion");
    assert!(net.crash_silenced() > 0, "a heal message was silenced");
    assert!(
        !ws.converged,
        "a heal conversation cut by a crash-stop is not convergence"
    );
    assert!(
        !campaign.report().converged,
        "the campaign report carries the verdict"
    );
    assert!(
        !net.has_pending(),
        "the network is quiet — but that quiet is \
         the silence of a cut conversation, which is exactly why the flag \
         must come from crash accounting, not queue emptiness"
    );
    net.check_accounting().expect("books balance");
    assert_eq!(campaign.report().crashes, 2);
}

#[test]
fn clean_deletions_under_a_crash_free_plan_still_converge() {
    let g = gen::path(4);
    let nbrs: Vec<Vec<NodeId>> = (0..4).map(|i| g.neighbors(NodeId(i)).collect()).collect();
    let mut net = Network::new(g, |v| TwoPhase {
        neighbors: nbrs[v.index()].clone(),
    });
    net.set_fault_plan(Some(FaultConfig::zero().plan(7)));
    let mut campaign = Campaign::new(CampaignConfig::default());
    let ws = campaign.run_wave(&mut net, &[NodeId(1)]);
    assert_eq!(ws.crashes, 0);
    assert!(ws.converged, "clean departure heals to quiescence");
    net.check_accounting().expect("books balance");
}

#[test]
fn journal_records_crashes_separately() {
    let g = gen::path(3);
    let mut net = Network::new(g, |_| OneShot {
        target: None,
        received: 0,
    });
    net.set_churn_journal(true);
    net.delete_node(NodeId(0));
    net.set_fault_plan(Some(crash_only_plan()));
    net.delete_node_faulty(NodeId(2));
    let j = net.drain_churn_journal();
    assert_eq!(j.deleted().len(), 2, "both deaths journaled as deletions");
    assert_eq!(j.crashed, vec![NodeId(2)], "only the crash marked");
}
