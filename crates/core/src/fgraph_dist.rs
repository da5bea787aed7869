//! The distributed Forgiving Graph.
//!
//! Every node runs [`FgNode`], a processor that knows only its own neighbor
//! set plus the *wills* its neighbors keep filed with it — each neighbor's
//! current neighbor list — and reacts to join/deletion notices and protocol
//! messages over the synchronous `ft-sim` network. No processor ever reads
//! global state.
//!
//! # Choreography
//!
//! - **arrival**: the adversary inserts `v` wired to its chosen anchors
//!   ([`ft_sim::Network::insert_node`]). `v` announces its will to each
//!   anchor ([`FgMsg::Will`]); each anchor files it, sends its own will
//!   back, and tells its other neighbors about the new entry in its
//!   neighborhood ([`FgMsg::WillDelta`]). Two rounds to quiescence.
//! - **deletion**: the environment informs the victim's neighbors. Each
//!   survivor holds the victim's will, so all survivors compute the *same*
//!   reconstruction tree — the member-level haft edges
//!   ([`haft_edges`]) over the will's ID-sorted entries —
//!   without any coordination. Each survivor inserts the edges it is an
//!   endpoint of, exchanges full wills with its fresh partners, and sends
//!   one batched [`FgMsg::WillDelta`] to every retained neighbor. Two
//!   rounds to quiescence.
//!
//! Wills stay consistent because every heal runs to quiescence before the
//! next adversarial event (the campaign drivers'
//! [`PerDeletion`](ft_sim::HealCadence::PerDeletion) cadence); the
//! [`DistributedForgivingGraph::check_wills`] audit verifies every filed
//! will against its owner's true neighborhood.
//!
//! The differential test-suite drives this implementation and its test
//! oracle, the centralized [`crate::fgraph::LocalHealer`] on
//! [`LocalRule::Haft`](crate::fgraph::LocalRule::Haft), with identical
//! churn sequences and asserts the healed graphs are identical after every
//! event.

use crate::fgraph::haft_edges;
use crate::sorted::{map_get, map_get_mut, map_insert, map_remove};
use ft_graph::{ChurnEvent, Graph, NodeId, SortedIds};
use ft_sim::{Campaign, Ctx, HealCadence, Network, Process, WaveStats};

/// Protocol messages of the distributed Forgiving Graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FgMsg {
    /// The sender's full neighbor list (new-edge handshake; also the
    /// joiner's hello).
    Will(Vec<NodeId>),
    /// Batched update to the sender's filed will: neighbors gained and
    /// lost by one adversarial event.
    WillDelta {
        /// Neighbors the sender gained.
        added: Vec<NodeId>,
        /// Neighbors the sender lost.
        removed: Vec<NodeId>,
    },
}

/// One processor of the distributed Forgiving Graph.
///
/// Its neighbor set and every filed will are [`SortedIds`], the layout
/// [`Graph`] uses for adjacency: up to seven IDs sit inline, so a node
/// whose neighbors all have degree at most seven keeps one heap block, its
/// will map, instead of one per set.
#[derive(Debug)]
pub struct FgNode {
    id: NodeId,
    /// My current neighbor set (kept in lockstep with the topology).
    neighbors: SortedIds,
    /// Wills filed with me, ascending by owner: each neighbor's current
    /// neighbor set.
    wills: Vec<(NodeId, SortedIds)>,
    /// Fresh arrival that still has to announce itself on start.
    joiner: bool,
}

impl FgNode {
    /// Node `id` of `initial`, settled with its neighbors' wills
    /// pre-distributed (initial setup). Adjacency is ascending, so the
    /// will map is collected in owner order and each set is built by
    /// appends, with no shift.
    fn settled(id: NodeId, initial: &Graph) -> Self {
        FgNode {
            id,
            neighbors: initial.neighbors(id).collect(),
            wills: initial
                .neighbors(id)
                .map(|u| (u, initial.neighbors(u).collect()))
                .collect(),
            joiner: false,
        }
    }

    /// A freshly inserted node wired to `neighbors`; announces its will on
    /// start and collects its anchors' wills in the first exchange.
    pub fn joiner(id: NodeId, neighbors: &[NodeId]) -> Self {
        FgNode {
            id,
            neighbors: neighbors.iter().copied().collect(),
            wills: Vec::new(),
            joiner: true,
        }
    }

    /// My current neighbor set (ascending), as this processor believes it
    /// to be.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// The will `owner` has filed with me (ascending), if any.
    pub fn will_of(&self, owner: NodeId) -> Option<&[NodeId]> {
        map_get(&self.wills, owner).map(|w| &**w)
    }

    /// Whether my neighbor set lives on the heap, and the owners of the
    /// filed wills that do.
    #[cfg(test)]
    fn spilled(&self) -> (bool, Vec<NodeId>) {
        let wills = self.wills.iter().filter(|(_, w)| w.is_spilled());
        let owners = wills.map(|&(o, _)| o).collect();
        (self.neighbors.is_spilled(), owners)
    }

    /// Sends my full will to `to`.
    fn send_will(&self, to: NodeId, ctx: &mut Ctx<'_, FgMsg>) {
        ctx.send(to, FgMsg::Will(self.neighbors.to_vec()));
    }

    /// Announces a batched neighborhood change to every retained neighbor
    /// (everyone but the fresh partners, who get full wills instead).
    fn send_deltas(&self, added: &[NodeId], removed: &[NodeId], ctx: &mut Ctx<'_, FgMsg>) {
        if added.is_empty() && removed.is_empty() {
            return;
        }
        for &u in self.neighbors.iter() {
            if !added.contains(&u) {
                ctx.send(
                    u,
                    FgMsg::WillDelta {
                        added: added.to_vec(),
                        removed: removed.to_vec(),
                    },
                );
            }
        }
    }
}

impl Process for FgNode {
    type Msg = FgMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FgMsg>) {
        if self.joiner {
            self.joiner = false;
            for &u in self.neighbors.iter() {
                self.send_will(u, ctx);
            }
        }
    }

    fn on_neighbor_joined(&mut self, new: NodeId, ctx: &mut Ctx<'_, FgMsg>) {
        self.neighbors.insert(new);
        self.send_will(new, ctx);
        self.send_deltas(&[new], &[], ctx);
    }

    fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, FgMsg>) {
        // Under an armed fault plan the will mail this heal depends on may
        // have been lost, delayed past the deletion, or silenced by a
        // crash-stop. The protocol then degrades instead of panicking: skip
        // the heal and let the harness measure the damage (connectivity,
        // `check_wills`, bound booleans). Fault-free runs keep the strict
        // panics — there a missing will is an engine bug, not weather.
        let Some(members) = map_remove(&mut self.wills, dead) else {
            assert!(ctx.faulty(), "{:?}: no will filed by {dead:?}", self.id);
            self.neighbors.remove(dead);
            return;
        };
        self.neighbors.remove(dead);
        let Ok(me) = members.binary_search(&self.id) else {
            assert!(ctx.faulty(), "{:?}: not in {dead:?}'s will", self.id);
            // A stale will (its refresh was lost) that no longer lists us:
            // healing from it would wire strangers — drop the heal instead.
            return;
        };
        let mut fresh: Vec<NodeId> = Vec::new();
        if members.len() >= 2 {
            for (i, j) in haft_edges(members.len()) {
                let partner = if i == me {
                    members[j]
                } else if j == me {
                    members[i]
                } else {
                    continue;
                };
                if self.neighbors.insert(partner) {
                    ctx.add_edge(partner);
                    fresh.push(partner);
                }
            }
        }
        // full wills to fresh partners (the handshake), one batched delta to
        // everyone retained
        for &p in &fresh {
            self.send_will(p, ctx);
        }
        self.send_deltas(&fresh, &[dead], ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: FgMsg, ctx: &mut Ctx<'_, FgMsg>) {
        match msg {
            FgMsg::Will(list) => {
                // the sender's own neighbor set, ascending: filed by appends
                map_insert(&mut self.wills, from, list.into_iter().collect());
                if self.neighbors.insert(from) {
                    // defensive: an edge formed without my participation —
                    // complete the handshake so `from` learns my will too.
                    self.send_will(from, ctx);
                }
            }
            FgMsg::WillDelta { added, removed } => {
                if let Some(w) = map_get_mut(&mut self.wills, from) {
                    for a in added {
                        w.insert(a);
                    }
                    for r in removed {
                        w.remove(r);
                    }
                }
            }
        }
    }
}

/// Driver owning the simulated network plus the pristine baseline: the
/// Forgiving Graph engine every campaign drives.
#[derive(Debug)]
pub struct DistributedForgivingGraph {
    net: Network<FgNode>,
    /// All insertions, no deletions — the stretch/degree baseline.
    pristine: Graph,
}

impl DistributedForgivingGraph {
    /// Initializes processors over an initial network with their wills
    /// pre-distributed (the one-time setup phase, performed analytically
    /// like [`crate::distributed::DistributedForgivingTree::new`]).
    pub fn new(initial: &Graph) -> Self {
        // the pristine copy is independent of the processors: clone it on
        // a second thread while they are built
        std::thread::scope(|scope| {
            let pristine = scope.spawn(|| initial.clone());
            let net = Network::new(initial.clone(), |v| FgNode::settled(v, initial));
            DistributedForgivingGraph {
                net,
                pristine: pristine.join().expect("pristine clone panicked"),
            }
        })
    }

    /// The current healed network.
    pub fn graph(&self) -> &Graph {
        self.net.graph()
    }

    /// The pristine network: every insertion applied, no deletion.
    pub fn pristine(&self) -> &Graph {
        &self.pristine
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// True when every node has been deleted.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Live node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.net.nodes()
    }

    /// Read access to a processor (tests/introspection).
    pub fn node(&self, v: NodeId) -> &FgNode {
        self.net.process(v)
    }

    /// The message ledger of the underlying simulator.
    pub fn ledger(&self) -> &ft_sim::MsgLedger {
        self.net.ledger()
    }

    /// Read access to the underlying simulated network.
    pub fn network(&self) -> &Network<FgNode> {
        &self.net
    }

    /// Mutable access to the underlying simulated network — the hook the
    /// campaign harnesses use to arm the churn journal for incremental
    /// measurement passes.
    pub fn network_mut(&mut self) -> &mut Network<FgNode> {
        &mut self.net
    }

    /// Applies one mixed insert/delete wave through a campaign driver,
    /// keeping the pristine baseline in lockstep with the insertions.
    ///
    /// # Panics
    /// Panics if the campaign's cadence is not
    /// [`PerDeletion`](ft_sim::HealCadence::PerDeletion): the will-based
    /// protocol requires every heal to reach quiescence before the next
    /// adversarial event, so a survivor always holds the victim's current
    /// will (`PerWave` would let a neighbor die while its will exchange is
    /// still in flight).
    pub fn run_wave(&mut self, campaign: &mut Campaign, events: &[ChurnEvent]) -> WaveStats {
        assert_eq!(
            campaign.config().cadence,
            HealCadence::PerDeletion,
            "the Forgiving Graph protocol needs quiescence between events"
        );
        let pristine = &mut self.pristine;
        campaign.run_churn_wave(&mut self.net, events, |id, nbrs| {
            let pv = pristine.add_node();
            assert_eq!(pv, id, "healed/pristine capacities diverged");
            for &u in nbrs {
                pristine.add_edge(pv, u);
            }
            FgNode::joiner(id, nbrs)
        })
    }

    /// Inserts a fresh node wired to the live entries of `neighbors` as a
    /// one-event wave and runs the join exchange to quiescence; returns the
    /// newcomer's ID and the wave.
    ///
    /// # Panics
    /// Panics when no listed neighbor is alive, or the exchange fails to
    /// quiesce within 8 rounds.
    pub fn insert(&mut self, neighbors: &[NodeId]) -> (NodeId, WaveStats) {
        let v = NodeId(self.pristine.capacity() as u32);
        let wave = [ChurnEvent::Insert {
            neighbors: neighbors.to_vec(),
        }];
        let ws = crate::one_event_wave(8, |c| self.run_wave(c, &wave));
        assert_eq!(ws.insertions, 1, "insertion with no live neighbor");
        (v, ws)
    }

    /// Deletes `v` as a one-event wave and runs the recovery phase to
    /// quiescence.
    ///
    /// # Panics
    /// Panics if `v` is dead or the protocol fails to quiesce within the
    /// O(1) round budget of 8 rounds.
    pub fn delete(&mut self, v: NodeId) -> WaveStats {
        crate::one_event_wave(8, |c| self.run_wave(c, &[ChurnEvent::Delete(v)]))
    }

    /// Largest degree increase any live node currently suffers over the
    /// pristine baseline.
    pub fn max_degree_increase(&self) -> i64 {
        self.net.graph().max_degree_increase_over(&self.pristine)
    }

    /// Audits the distributed state: every processor's neighbor set matches
    /// the topology, and every filed will matches its owner's true
    /// neighborhood. Returns the first discrepancy found.
    pub fn check_wills(&self) -> Result<(), String> {
        let graph = self.net.graph();
        // Holder-major: each processor's state is read once, in slot order;
        // only the owners' adjacency is visited out of order.
        for u in self.net.nodes() {
            let holder = self.net.process(u);
            let believed = holder.neighbors();
            if !believed.iter().copied().eq(graph.neighbors(u)) {
                let actual: Vec<NodeId> = graph.neighbors(u).collect();
                return Err(format!(
                    "{u:?} believes neighbors {believed:?}, topology says {actual:?}"
                ));
            }
            for &v in believed {
                match holder.will_of(v) {
                    None => return Err(format!("{u:?} holds no will of {v:?}")),
                    Some(w) if !w.iter().copied().eq(graph.neighbors(v)) => {
                        let actual: Vec<NodeId> = graph.neighbors(v).collect();
                        return Err(format!(
                            "{u:?} holds a stale will of {v:?}: {w:?} vs {actual:?}"
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fgraph::{LocalHealer, LocalRule};
    use ft_graph::gen;
    use ft_sim::CampaignConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn setup_distributes_wills() {
        let d = DistributedForgivingGraph::new(&gen::star(5));
        d.check_wills().expect("setup wills consistent");
        assert_eq!(d.node(n(1)).will_of(n(0)).expect("hub will").len(), 4);
    }

    #[test]
    fn single_deletion_heals_like_the_spec() {
        let g = gen::star(9);
        let mut d = DistributedForgivingGraph::new(&g);
        let mut s = LocalHealer::new(LocalRule::Haft, g.clone());
        d.delete(n(0));
        let added = s.delete(n(0));
        assert_eq!(d.graph(), s.graph(), "healed graphs identical");
        let net_added: Vec<_> = d
            .graph()
            .edges()
            .into_iter()
            .filter(|&(a, b)| !g.has_edge(a, b))
            .collect();
        assert_eq!(net_added, added);
        assert!(d.graph().is_connected());
        d.check_wills().expect("wills refreshed");
        d.network().check_accounting().expect("books balance");
    }

    #[test]
    fn insertion_exchanges_wills() {
        let mut d = DistributedForgivingGraph::new(&gen::path(4));
        let (v, ws) = d.insert(&[n(3), n(0)]);
        assert_eq!((ws.insertions, ws.deletions), (1, 0));
        assert_eq!(v, n(4));
        assert_eq!(d.node(v).neighbors(), [n(0), n(3)]);
        assert_eq!(d.node(n(3)).will_of(v), Some(&[n(0), n(3)][..]));
        d.check_wills().expect("joiner and anchors consistent");
        assert!(d.pristine().has_edge(v, n(0)));
        assert_eq!(d.ledger().joins(), 2);
        d.network().check_accounting().expect("books balance");
    }

    #[test]
    fn check_wills_reports_tampered_state() {
        // Path 0-1-2-3: tamper with node 1's private state, one branch of
        // the audit at a time.
        let tampered = |tamper: fn(&mut FgNode)| {
            let mut d = DistributedForgivingGraph::new(&gen::path(4));
            tamper(d.net.process_mut(n(1)));
            d.check_wills().expect_err("tampering must be caught")
        };
        let err = tampered(|p| assert!(p.neighbors.remove(n(2))));
        assert!(err.contains("n1 believes neighbors [n0]"), "{err}");
        let err = tampered(|p| assert!(map_remove(&mut p.wills, n(0)).is_some()));
        assert!(err.contains("n1 holds no will of n0"), "{err}");
        let err = tampered(|p| assert!(p.wills[0].1.insert(n(3))));
        assert!(err.contains("n1 holds a stale will of n0"), "{err}");
    }

    #[test]
    fn fg_layout_is_pinned() {
        use std::mem::size_of;
        // the engine stages each send as `(from, to, msg)` and charges
        // exactly this many heap bytes for it: a change here moves
        // `cost.heap_bytes` in every graph pin
        assert_eq!(size_of::<(NodeId, NodeId, FgMsg)>(), 56);
        // the network keeps one slot per ID ever seen, dead IDs included,
        // so a 10^6-node graph pays this figure a million times: the
        // neighbor set sits inline and the wills behind one map keep it here
        assert_eq!(size_of::<Option<FgNode>>(), 64);
    }

    #[test]
    fn fg_state_sits_inline() {
        // degree at most four everywhere: no set, own or filed, allocates
        let g = gen::kary_tree(4096, 3);
        let mut d = DistributedForgivingGraph::new(&g);
        for v in d.nodes() {
            assert_eq!(d.node(v).spilled(), (false, vec![]), "{v:?} spilled");
        }
        // the wills stay true under seeded mixed churn through the campaign
        let mut rng = StdRng::seed_from_u64(11);
        let mut campaign = Campaign::new(CampaignConfig::default());
        for _ in 0..40 {
            let live: Vec<NodeId> = d.nodes().collect();
            let mut events: Vec<ChurnEvent> = Vec::new();
            for _ in 0..10 {
                let v = live[rng.gen_range(0..live.len())];
                if rng.gen_bool(0.4) {
                    let mut neighbors = vec![v, live[rng.gen_range(0..live.len())]];
                    neighbors.dedup();
                    events.push(ChurnEvent::Insert { neighbors });
                } else if !events.contains(&ChurnEvent::Delete(v)) {
                    events.push(ChurnEvent::Delete(v));
                }
            }
            d.run_wave(&mut campaign, &events);
            d.check_wills().expect("wills consistent after churn");
        }
        let report = campaign.report();
        assert!(
            report.insertions > 100 && report.deletions > 200,
            "{report:?}"
        );
        d.network().check_accounting().expect("books balance");
        // a hub of fifteen spills its own set and its will at every leaf
        let d = DistributedForgivingGraph::new(&gen::star(16));
        assert_eq!(d.node(n(0)).spilled(), (true, vec![]));
        for leaf in (1..16).map(n) {
            assert_eq!(d.node(leaf).spilled(), (false, vec![n(0)]), "{leaf:?}");
        }
        d.check_wills().expect("spilled wills consistent");
    }

    #[test]
    fn differential_random_churn_matches_spec() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = gen::gnp_connected(40, 0.08, &mut rng);
        let mut d = DistributedForgivingGraph::new(&g);
        let mut s = LocalHealer::new(LocalRule::Haft, g.clone());
        for step in 0..80 {
            if rng.gen_bool(0.35) {
                let live: Vec<NodeId> = d.nodes().collect();
                let k = rng.gen_range(1..=2.min(live.len()));
                let mut picks: Vec<NodeId> = Vec::new();
                while picks.len() < k {
                    let c = live[rng.gen_range(0..live.len())];
                    if !picks.contains(&c) {
                        picks.push(c);
                    }
                }
                let (dv, _) = d.insert(&picks);
                let sv = s.insert_node(&picks);
                assert_eq!(dv, sv, "insert IDs agree at step {step}");
            } else if d.len() > 2 {
                let live: Vec<NodeId> = d.nodes().collect();
                let v = live[rng.gen_range(0..live.len())];
                d.delete(v);
                s.delete(v);
            }
            assert_eq!(d.graph(), s.graph(), "graphs diverged at step {step}");
            d.check_wills().expect("wills consistent");
        }
        assert_eq!(d.pristine(), s.baseline(), "pristine baselines agree");
        d.network().check_accounting().expect("books balance");
        assert!(d.ledger().joins() > 0);
    }

    #[test]
    #[should_panic(expected = "quiescence between events")]
    fn per_wave_cadence_is_rejected() {
        let mut d = DistributedForgivingGraph::new(&gen::path(4));
        let mut campaign = Campaign::new(CampaignConfig {
            cadence: HealCadence::PerWave,
            max_rounds_per_heal: 8,
            ..CampaignConfig::default()
        });
        d.run_wave(&mut campaign, &[ChurnEvent::Delete(n(1))]);
    }

    #[test]
    #[should_panic(expected = "insertion with no live neighbor")]
    fn insertion_without_a_live_anchor_is_rejected() {
        let mut d = DistributedForgivingGraph::new(&gen::path(4));
        d.delete(n(0));
        d.insert(&[n(0)]);
    }

    #[test]
    fn campaign_waves_drive_the_distributed_engine() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = gen::random_tree(30, &mut rng);
        let mut d = DistributedForgivingGraph::new(&g);
        let mut campaign = Campaign::new(CampaignConfig::default());
        let events = vec![
            ChurnEvent::Insert {
                neighbors: vec![n(3), n(9)],
            },
            ChurnEvent::Delete(n(3)),
            ChurnEvent::Delete(n(9)),
            ChurnEvent::Insert {
                neighbors: vec![n(30)], // the node inserted above
            },
        ];
        let ws = d.run_wave(&mut campaign, &events);
        assert_eq!((ws.insertions, ws.deletions), (2, 2));
        assert!(d.graph().is_connected());
        assert_eq!(d.pristine().len(), 32, "pristine tracked both arrivals");
        d.check_wills().expect("wills consistent");
        d.network().check_accounting().expect("books balance");
    }
}
