//! Property tests for the engine's accounting invariants.
//!
//! For arbitrary random protocol traces (seeded gossip over a random tree,
//! interleaved with adversarial deletions),
//! the books must reconcile:
//!
//! - conservation: `sent == delivered + dropped` once quiescent;
//! - reconciliation: `sum(per-node) == 2·total_messages − notices`;
//! - the per-node books match an independent recount from the event trace
//!   the processes themselves recorded;
//! - every round's `max_per_node` matches a recount from the trace.
//!
//! Alongside them, seeded churn campaigns: the same seed replays the same
//! report, books and final graph; and a heal that exhausts its round budget
//! is reported as non-converged instead of masquerading as quiescence.

use crate::campaign::{Campaign, CampaignConfig, HealCadence};
use crate::network::{Ctx, Network, Process, RoundStats};
use ft_graph::{gen, ChurnEvent, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One observable engine event, recorded by the processes themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    Delivered {
        round: u64,
        from: NodeId,
        to: NodeId,
    },
    Notice {
        round: u64,
        to: NodeId,
    },
}

/// TTL-limited gossip with an irregular forwarding pattern; every receipt
/// and notice is appended to the shared trace.
#[derive(Debug)]
struct Gossip {
    id: NodeId,
    neighbors: Vec<NodeId>,
    start_ttl: u32,
    trace: Rc<RefCell<Vec<Ev>>>,
}

impl Process for Gossip {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        if self.id.0.is_multiple_of(3) {
            for &u in &self.neighbors {
                ctx.send(u, self.start_ttl);
            }
        }
    }

    fn on_message(&mut self, from: NodeId, ttl: u32, ctx: &mut Ctx<'_, u32>) {
        self.trace.borrow_mut().push(Ev::Delivered {
            round: ctx.round(),
            from,
            to: ctx.me(),
        });
        if ttl > 0 {
            for (i, &u) in self.neighbors.iter().enumerate() {
                if (ttl as usize + i + self.id.0 as usize).is_multiple_of(2) {
                    ctx.send(u, ttl - 1);
                }
            }
        }
    }

    fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, u32>) {
        self.trace.borrow_mut().push(Ev::Notice {
            round: ctx.round(),
            to: ctx.me(),
        });
        // note: `neighbors` is deliberately NOT pruned — later gossip may
        // still address the dead node, exercising the drop books.
        let _ = dead;
        if let Some(&u) = self.neighbors.first() {
            ctx.send(u, 1);
        }
    }
}

/// Shared event log the gossip processes append to.
type Trace = Rc<RefCell<Vec<Ev>>>;

/// Runs a seeded gossip-plus-deletions trace, returning the network, the
/// per-round engine stats (keyed by round number), and the event trace.
fn run_trace(
    n: usize,
    seed: u64,
    ttl: u32,
    kills: &[usize],
) -> (Network<Gossip>, Vec<(u64, RoundStats)>, Trace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_tree(n, &mut rng);
    let nbrs: Vec<Vec<NodeId>> = (0..g.capacity())
        .map(|i| g.neighbors(NodeId(i as u32)).collect())
        .collect();
    let trace: Rc<RefCell<Vec<Ev>>> = Rc::new(RefCell::new(Vec::new()));
    let mut net = Network::new(g, |v| Gossip {
        id: v,
        neighbors: nbrs[v.index()].clone(),
        start_ttl: ttl,
        trace: Rc::clone(&trace),
    });
    let mut per_round = Vec::new();
    let r = net.round();
    per_round.push((r, net.start()));
    let drain = |net: &mut Network<Gossip>, per_round: &mut Vec<(u64, RoundStats)>| {
        let mut guard = 0;
        while net.has_pending() {
            let r = net.round();
            per_round.push((r, net.step().0));
            guard += 1;
            assert!(guard < 300, "gossip failed to quiesce");
        }
    };
    drain(&mut net, &mut per_round);
    for &k in kills {
        if net.len() <= 1 {
            break;
        }
        let victim = net.nodes().nth(k % net.len()).expect("in range");
        let r = net.round();
        per_round.push((r, net.delete_node(victim)));
        drain(&mut net, &mut per_round);
    }
    (net, per_round, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn books_reconcile_on_random_traces(
        n in 5usize..40,
        seed in 0u64..1000,
        ttl in 1u32..5,
        kills in proptest::collection::vec(0usize..64, 1..8),
    ) {
        let (net, per_round, trace) = run_trace(n, seed, ttl, &kills);
        let trace = trace.borrow();
        let ledger = net.ledger();

        // conservation + reconciliation identities (quiescent: 0 in flight)
        prop_assert!(!net.has_pending());
        if let Err(e) = net.check_accounting() {
            panic!("ledger imbalance: {e}");
        }
        prop_assert_eq!(
            ledger.sum_per_node(),
            2 * ledger.total_messages() - ledger.notices()
        );

        // the per-node books match an independent recount from the trace
        let mut sent: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut recv: BTreeMap<NodeId, u64> = BTreeMap::new();
        for ev in trace.iter() {
            match *ev {
                Ev::Delivered { from, to, .. } => {
                    *sent.entry(from).or_insert(0) += 1;
                    *recv.entry(to).or_insert(0) += 1;
                }
                Ev::Notice { to, .. } => {
                    *recv.entry(to).or_insert(0) += 1;
                }
            }
        }
        for i in 0..n {
            let v = NodeId(i as u32);
            prop_assert_eq!(
                ledger.per_node_sent(v),
                sent.get(&v).copied().unwrap_or(0),
                "sent book of {:?}",
                v
            );
            prop_assert_eq!(
                ledger.per_node_received(v),
                recv.get(&v).copied().unwrap_or(0),
                "recv book of {:?}",
                v
            );
        }

        // every round's max_per_node matches a recount from the trace
        let mut loads: BTreeMap<u64, BTreeMap<NodeId, usize>> = BTreeMap::new();
        for ev in trace.iter() {
            match *ev {
                Ev::Delivered { round, from, to } => {
                    let l = loads.entry(round).or_default();
                    *l.entry(from).or_insert(0) += 1;
                    *l.entry(to).or_insert(0) += 1;
                }
                Ev::Notice { round, to } => {
                    *loads.entry(round).or_default().entry(to).or_insert(0) += 1;
                }
            }
        }
        for (round, stats) in &per_round {
            let expect = loads
                .get(round)
                .and_then(|l| l.values().max().copied())
                .unwrap_or(0);
            prop_assert_eq!(
                stats.max_per_node,
                expect,
                "max_per_node of round {}",
                round
            );
        }

        // total deliveries recounted from the trace
        let delivered = trace
            .iter()
            .filter(|e| matches!(e, Ev::Delivered { .. }))
            .count() as u64;
        let notices = trace
            .iter()
            .filter(|e| matches!(e, Ev::Notice { .. }))
            .count() as u64;
        prop_assert_eq!(ledger.delivered(), delivered);
        prop_assert_eq!(ledger.notices(), notices);
    }
}

/// A chatty protocol: deletions and joins trigger fan-out pings with
/// bounded echo depth, so traffic is heavy but always quiesces — under
/// faults too (loss only removes work, duplication only repeats a bounded
/// hop, delay only postpones it).
#[derive(Debug)]
pub(crate) struct Chatter {
    pub(crate) neighbors: Vec<NodeId>,
    pub(crate) echoes: usize,
}

impl Process for Chatter {
    type Msg = u8;

    fn on_message(&mut self, from: NodeId, hop: u8, ctx: &mut Ctx<'_, u8>) {
        if hop > 0 {
            ctx.send(from, hop - 1);
        } else {
            self.echoes += 1;
        }
    }

    fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, u8>) {
        self.neighbors.retain(|&u| u != dead);
        for &u in &self.neighbors {
            ctx.send(u, 1);
        }
    }

    fn on_neighbor_joined(&mut self, new: NodeId, ctx: &mut Ctx<'_, u8>) {
        self.neighbors.push(new);
        ctx.send(new, 1);
    }
}

pub(crate) fn chatter_net(g: ft_graph::Graph) -> Network<Chatter> {
    let nbrs: Vec<Vec<NodeId>> = (0..g.capacity())
        .map(|i| g.neighbors(NodeId(i as u32)).collect())
        .collect();
    Network::new(g, |v| Chatter {
        neighbors: nbrs[v.index()].clone(),
        echoes: 0,
    })
}

/// Plans a deterministic churn trace against the *current* state of `net`
/// using only the seed, so two runs of one seed plan identical traces.
pub(crate) fn plan_events(
    net: &Network<Chatter>,
    rng: &mut StdRng,
    count: usize,
) -> Vec<ChurnEvent> {
    let mut events = Vec::new();
    // victims are removed from this working copy so a wave never plans the
    // same deletion twice (insert anchors may still die mid-wave — the
    // campaign driver's liveness filter covers that case)
    let mut live: Vec<NodeId> = net.nodes().collect();
    for _ in 0..count {
        if live.len() <= 3 {
            break;
        }
        if rng.gen_bool(0.4) {
            let a = live[rng.gen_range(0..live.len())];
            let mut nbrs = vec![a];
            let b = live[rng.gen_range(0..live.len())];
            if b != a {
                nbrs.push(b);
            }
            events.push(ChurnEvent::Insert { neighbors: nbrs });
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            events.push(ChurnEvent::Delete(victim));
        }
    }
    events
}

/// Runs one seeded churn campaign and returns everything determinism must
/// cover.
fn run_campaign(
    seed: u64,
    n: usize,
    waves: usize,
    wave_size: usize,
) -> (Campaign, Network<Chatter>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::random_tree(n, &mut rng);
    let mut net = chatter_net(g);
    let mut campaign = Campaign::new(CampaignConfig {
        cadence: HealCadence::PerWave,
        max_rounds_per_heal: 64,
        ..CampaignConfig::default()
    });
    // the planner draws from its own seeded stream, so a replay plans the
    // same waves
    let mut plan_rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    for _ in 0..waves {
        let events = plan_events(&net, &mut plan_rng, wave_size);
        if events.is_empty() {
            break;
        }
        let ws = campaign.run_churn_wave(&mut net, &events, |id, nbrs| Chatter {
            neighbors: {
                let _ = id;
                nbrs.to_vec()
            },
            echoes: 0,
        });
        assert!(ws.converged, "chatter always quiesces");
    }
    net.check_accounting().expect("books balance");
    (campaign, net)
}

/// Edge list + liveness fingerprint of a graph (Graph has no PartialEq).
pub(crate) fn graph_fingerprint(g: &ft_graph::Graph) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut edges = Vec::new();
    for v in g.nodes() {
        for u in g.neighbors(v) {
            if v < u {
                edges.push((v, u));
            }
        }
    }
    (nodes, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same seed replays byte for byte: same report, same ledger
    /// books, same graph.
    #[test]
    fn campaigns_replay_identically(
        seed in 0u64..500,
        n in 30usize..120,
    ) {
        let (c1, n1) = run_campaign(seed, n, 4, 10);
        let (c2, n2) = run_campaign(seed, n, 4, 10);
        prop_assert_eq!(c1.report(), c2.report(), "campaign reports diverged");
        prop_assert_eq!(n1.ledger(), n2.ledger(), "ledger books diverged");
        prop_assert_eq!(n1.round(), n2.round(), "round clocks diverged");
        prop_assert_eq!(
            graph_fingerprint(n1.graph()),
            graph_fingerprint(n2.graph()),
            "healed graphs diverged"
        );
    }
}

/// A protocol that ping-pongs forever: `run_until_quiet_capped` must report
/// the truncation, and the campaign must carry it into wave and report.
#[derive(Debug)]
struct Immortal(NodeId);

impl Process for Immortal {
    type Msg = ();

    fn on_message(&mut self, from: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
        ctx.send(from, ());
    }

    fn on_neighbor_deleted(&mut self, _: NodeId, ctx: &mut Ctx<'_, ()>) {
        ctx.send(self.0, ());
    }
}

#[test]
fn truncated_heal_is_reported_not_converged() {
    // path 0-1-2; deleting 1 makes 0 and 2 ping themselves forever
    let g = gen::path(3);
    let mut net = Network::new(g, Immortal);
    let mut campaign = Campaign::new(CampaignConfig {
        cadence: HealCadence::PerDeletion,
        max_rounds_per_heal: 8,
        ..CampaignConfig::default()
    });
    let ws = campaign.run_wave(&mut net, &[NodeId(1)]);
    assert!(!ws.converged, "budget exhausted with mail still in flight");
    assert_eq!(ws.rounds, 9, "1 deletion step + the full 8-round budget");
    assert!(net.has_pending(), "truly truncated, not quiescent");
    assert!(!campaign.report().converged, "report carries the verdict");
    net.check_accounting()
        .expect("books balance even when truncated");
}

#[test]
fn capped_runner_reports_convergence_when_quiet() {
    let g = gen::path(4);
    let mut net = chatter_net(g);
    net.delete_node(NodeId(1));
    let ((rounds, _, converged), _) = net.run_until_quiet_capped(64);
    assert!(converged);
    assert!(rounds > 0);
    let ((rounds, stats, converged), cost) = net.run_until_quiet_capped(64);
    assert!(converged, "vacuously converged when nothing is pending");
    assert_eq!((rounds, stats.messages), (0, 0));
    assert!(cost.is_zero(), "a no-op run charges nothing");
}
