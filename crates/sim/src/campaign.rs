//! Adversarial campaigns: batched waves with interleaved heals.
//!
//! The Forgiving Graph follow-up (Hayes–Saia–Trehan, arXiv:0902.2501)
//! stresses *repeated large-scale attack waves* rather than single
//! deletions. [`Campaign`] is the driver for that regime: the caller plans a
//! **wave** — deletion victims ([`Campaign::run_wave`]) or mixed
//! insert/delete churn events ([`Campaign::run_churn_wave`]) — against a
//! topology snapshot (see the wave and churn planners in `ft-adversary`),
//! the campaign applies the events to a [`Network`] and interleaves heals
//! according to its [`HealCadence`]:
//!
//! - [`PerDeletion`](HealCadence::PerDeletion) (default) — the paper's
//!   Model 2.1: one deletion per time step, recovery runs to quiescence
//!   before the next strike. Safe for every protocol.
//! - [`PerWave`](HealCadence::PerWave) — the whole wave lands before any
//!   recovery round runs, modeling correlated failures. Only for protocols
//!   designed to survive concurrent deletions.
//!
//! The campaign accumulates a [`CampaignReport`] (deletions, rounds, the
//! worst per-node round load, crashes, the exact operation cost) whose
//! message figures all derive from the network's
//! [`MsgLedger`](crate::MsgLedger), so a campaign's books can always be
//! audited with [`Network::check_accounting`].

use crate::network::{Network, Process, RoundStats};
use ft_costs::OperationCost;
use ft_graph::{ChurnEvent, NodeId};

/// When recovery rounds run relative to a wave's deletions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HealCadence {
    /// Heal to quiescence after every single deletion (Model 2.1).
    #[default]
    PerDeletion,
    /// Apply the whole wave, then heal to quiescence once.
    PerWave,
}

impl HealCadence {
    /// Parses a cadence name: `per-deletion` or `per-wave`. Returns `None`
    /// for any other name.
    pub fn from_name(name: &str) -> Option<HealCadence> {
        match name {
            "per-deletion" => Some(HealCadence::PerDeletion),
            "per-wave" => Some(HealCadence::PerWave),
            _ => None,
        }
    }

    /// The cadence's name, as [`HealCadence::from_name`] reads it.
    pub fn name(self) -> &'static str {
        match self {
            HealCadence::PerDeletion => "per-deletion",
            HealCadence::PerWave => "per-wave",
        }
    }
}

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Heal interleaving.
    pub cadence: HealCadence,
    /// Round budget per heal phase. A heal that exhausts it is truncated
    /// and recorded as non-converged ([`WaveStats::converged`]) rather
    /// than panicking — callers that need quiescence check the flag.
    pub max_rounds_per_heal: u32,
    /// Ignored; kept only because ftbench's sources are frozen; delete with
    /// the next benchmark PR.
    pub threads: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cadence: HealCadence::PerDeletion,
            max_rounds_per_heal: 64,
            threads: 1,
        }
    }
}

/// What one wave did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Victims actually deleted.
    pub deletions: usize,
    /// Nodes inserted (churn waves only).
    pub insertions: usize,
    /// Engine rounds consumed (deletion steps + recovery rounds).
    pub rounds: u32,
    /// Messages delivered during the wave (deletion notices included).
    pub messages: usize,
    /// Worst single-node single-round message load within the wave.
    pub max_per_node: usize,
    /// Deletions that were crash-stops (fault plan armed on the network).
    pub crashes: usize,
    /// `false` iff some heal phase of this wave exhausted
    /// [`CampaignConfig::max_rounds_per_heal`] with mail still in flight,
    /// **or** a crash-stop silenced in-flight heal messages during the
    /// wave — a truncated or cut-mid-sentence heal is *not* convergence
    /// and must not be mistaken for one.
    pub converged: bool,
    /// Exact [`OperationCost`] of the wave: every churn event and every
    /// recovery round, measured as a snapshot delta of the network's
    /// cumulative counter.
    pub cost: OperationCost,
}

impl WaveStats {
    fn absorb(&mut self, s: &RoundStats, rounds: u32) {
        self.rounds += rounds;
        self.messages += s.messages;
        self.max_per_node = self.max_per_node.max(s.max_per_node);
    }

    /// Deletes `v` (a crash-stop if the armed fault plan says so) and
    /// books the deletion round.
    fn delete<P: Process>(&mut self, net: &mut Network<P>, v: NodeId) {
        let (notice, crashed) = net.delete_node_faulty(v);
        self.deletions += 1;
        self.crashes += usize::from(crashed);
        self.absorb(&notice, 1);
    }
}

/// Whole-campaign aggregates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// Waves applied.
    pub waves: usize,
    /// Total deletions.
    pub deletions: usize,
    /// Total insertions (churn waves only).
    pub insertions: usize,
    /// Total engine rounds consumed.
    pub rounds: u64,
    /// Total messages delivered (notices included).
    pub messages: u64,
    /// Worst single-node single-round load across the whole campaign — the
    /// "peak per-node load" figure of the stress record.
    pub peak_round_load: usize,
    /// Total crash-stop deletions across the campaign.
    pub crashes: usize,
    /// `true` iff **every** heal phase of every wave reached quiescence
    /// within its round budget and no crash-stop silenced in-flight heal
    /// mail. Stress harnesses fail on `false` (unless running faulty).
    pub converged: bool,
    /// Sum of every wave's [`WaveStats::cost`] — the campaign's exact
    /// operation-count bill, diffable against committed baselines.
    pub cost: OperationCost,
}

impl Default for CampaignReport {
    fn default() -> Self {
        CampaignReport {
            waves: 0,
            deletions: 0,
            insertions: 0,
            rounds: 0,
            messages: 0,
            peak_round_load: 0,
            crashes: 0,
            // vacuously true until a wave says otherwise
            converged: true,
            cost: OperationCost::ZERO,
        }
    }
}

/// The campaign driver; owns nothing but configuration and the running
/// report, so one instance can drive any number of networks in sequence.
///
/// ```
/// use ft_sim::{Campaign, CampaignConfig, Ctx, Network, Process};
/// use ft_graph::{gen, NodeId};
///
/// /// A protocol that does nothing — the campaign machinery still
/// /// delivers notices and balances the books.
/// #[derive(Debug)]
/// struct Quiet;
/// impl Process for Quiet {
///     type Msg = ();
///     fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
/// }
///
/// let mut net = Network::new(gen::grid(3, 3), |_| Quiet);
/// let mut campaign = Campaign::new(CampaignConfig::default());
/// let wave = campaign.run_wave(&mut net, &[NodeId(4), NodeId(0)]);
/// assert_eq!(wave.deletions, 2);
/// assert_eq!(campaign.report().waves, 1);
/// net.check_accounting().expect("books balance");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Campaign {
    cfg: CampaignConfig,
    report: CampaignReport,
    /// An insert event's live anchors; reused across events and waves.
    anchors: Vec<NodeId>,
}

impl Campaign {
    /// A campaign with the given configuration.
    pub fn new(cfg: CampaignConfig) -> Self {
        Campaign {
            cfg,
            report: CampaignReport::default(),
            anchors: Vec::new(),
        }
    }

    /// The accumulated report.
    pub fn report(&self) -> &CampaignReport {
        &self.report
    }

    /// The campaign's configuration.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Heals to quiescence (or the round budget), folding rounds and the
    /// convergence verdict into the wave.
    fn heal<P: Process>(&self, net: &mut Network<P>, ws: &mut WaveStats) {
        let ((rounds, merged, converged), _) =
            net.run_until_quiet_capped(self.cfg.max_rounds_per_heal);
        ws.absorb(&merged, rounds);
        ws.converged &= converged;
    }

    /// Applies one wave of deletions to `net` with interleaved heals.
    ///
    /// Victims must be distinct and alive (plan them against `net.graph()`).
    /// A heal that exhausts the round budget truncates the wave's recovery
    /// and is reported via [`WaveStats::converged`] — it does not panic.
    ///
    /// # Panics
    /// Panics if a victim is dead.
    pub fn run_wave<P: Process>(&mut self, net: &mut Network<P>, victims: &[NodeId]) -> WaveStats {
        self.run_events(net, victims, |net, &v, ws| ws.delete(net, v))
    }

    /// Applies one mixed insert/delete wave (the Forgiving Graph's churn
    /// model) to `net` with interleaved heals.
    ///
    /// `make` builds the process for each inserted node from its assigned
    /// ID and the live neighbors it was wired to. Insert events whose
    /// neighbors have all died earlier in the wave are skipped; victims
    /// must be alive when their event applies. A heal that exhausts the
    /// round budget truncates the wave's recovery and is reported via
    /// [`WaveStats::converged`] — it does not panic.
    ///
    /// # Panics
    /// Panics if a delete victim is dead.
    pub fn run_churn_wave<P: Process>(
        &mut self,
        net: &mut Network<P>,
        events: &[ChurnEvent],
        mut make: impl FnMut(NodeId, &[NodeId]) -> P,
    ) -> WaveStats {
        let mut anchors = std::mem::take(&mut self.anchors);
        let ws = self.run_events(net, events, |net, ev, ws| match ev {
            ChurnEvent::Delete(v) => ws.delete(net, *v),
            ChurnEvent::Insert { neighbors } => {
                anchors.clear();
                anchors.extend(
                    neighbors
                        .iter()
                        .copied()
                        .filter(|&u| net.graph().is_alive(u)),
                );
                if anchors.is_empty() {
                    return; // every anchor died earlier in the wave
                }
                let (_, stats) = net.insert_node(&anchors, |id| make(id, &anchors));
                ws.insertions += 1;
                ws.absorb(&stats, 1);
            }
        });
        self.anchors = anchors;
        ws
    }

    /// Applies `events` in order with `apply`, heals as the cadence says,
    /// and folds the wave into the report.
    fn run_events<P: Process, E>(
        &mut self,
        net: &mut Network<P>,
        events: &[E],
        mut apply: impl FnMut(&mut Network<P>, &E, &mut WaveStats),
    ) -> WaveStats {
        let cost0 = net.costs();
        let silenced0 = net.crash_silenced();
        let mut ws = WaveStats {
            converged: true,
            ..WaveStats::default()
        };
        let per_deletion = self.cfg.cadence == HealCadence::PerDeletion;
        for ev in events {
            apply(net, ev, &mut ws);
            if per_deletion {
                self.heal(net, &mut ws);
            }
        }
        if !per_deletion {
            self.heal(net, &mut ws);
        }
        // A crash-stop that silenced in-flight mail cut a heal
        // conversation mid-sentence: the network may be quiet, but the
        // protocol did not finish its recovery. Not convergence.
        if net.crash_silenced() > silenced0 {
            ws.converged = false;
        }
        // snapshot delta: covers the events themselves, not just heals
        ws.cost = net.costs() - cost0;
        self.fold(&ws);
        ws
    }

    /// Folds a wave into the report: every wave this campaign runs, and a
    /// wave healed outside any network (a centralized heal whose figures
    /// are a stated cost model).
    pub fn fold(&mut self, ws: &WaveStats) {
        let r = &mut self.report;
        r.waves += 1;
        r.deletions += ws.deletions;
        r.insertions += ws.insertions;
        r.rounds += u64::from(ws.rounds);
        r.messages += ws.messages as u64;
        r.peak_round_load = r.peak_round_load.max(ws.max_per_node);
        r.crashes += ws.crashes;
        r.converged &= ws.converged;
        r.cost += ws.cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Ctx, Process};
    use ft_graph::{gen, NodeId};

    #[test]
    fn cadence_names_parse() {
        assert_eq!(
            HealCadence::from_name("per-deletion"),
            Some(HealCadence::PerDeletion)
        );
        assert_eq!(
            HealCadence::from_name("per-wave"),
            Some(HealCadence::PerWave)
        );
        assert_eq!(HealCadence::from_name("per-round"), None);
        for cadence in [HealCadence::PerDeletion, HealCadence::PerWave] {
            assert_eq!(HealCadence::from_name(cadence.name()), Some(cadence));
        }
    }

    /// On a neighbor's death, ping every surviving graph neighbor once —
    /// enough traffic to make the ledgers interesting.
    #[derive(Debug)]
    struct Pinger {
        neighbors: Vec<NodeId>,
        pings: usize,
    }

    impl Process for Pinger {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {
            self.pings += 1;
        }
        fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, ()>) {
            self.neighbors.retain(|&u| u != dead);
            for &u in &self.neighbors {
                ctx.send(u, ());
            }
        }
        fn on_neighbor_joined(&mut self, new: NodeId, ctx: &mut Ctx<'_, ()>) {
            self.neighbors.push(new);
            ctx.send(new, ());
        }
    }

    fn pinger_net(g: ft_graph::Graph) -> Network<Pinger> {
        let nbrs: Vec<Vec<NodeId>> = (0..g.capacity())
            .map(|i| g.neighbors(NodeId(i as u32)).collect())
            .collect();
        Network::new(g, |v| Pinger {
            neighbors: nbrs[v.index()].clone(),
            pings: 0,
        })
    }

    #[test]
    fn per_deletion_wave_heals_between_strikes() {
        let mut net = pinger_net(gen::grid(4, 4));
        let mut campaign = Campaign::new(CampaignConfig::default());
        let ws = campaign.run_wave(&mut net, &[NodeId(5), NodeId(10)]);
        assert_eq!(ws.deletions, 2);
        assert!(ws.messages > 0);
        assert!(!net.has_pending(), "healed to quiescence");
        net.check_accounting().expect("books balance");
        assert_eq!(campaign.report().waves, 1);
        assert_eq!(campaign.report().deletions, 2);
    }

    #[test]
    fn per_wave_cadence_batches_deletions() {
        let mut net = pinger_net(gen::grid(4, 4));
        let mut campaign = Campaign::new(CampaignConfig {
            cadence: HealCadence::PerWave,
            max_rounds_per_heal: 16,
            ..CampaignConfig::default()
        });
        let ws = campaign.run_wave(&mut net, &[NodeId(0), NodeId(15)]);
        assert_eq!(ws.deletions, 2);
        assert!(!net.has_pending());
        net.check_accounting().expect("books balance");
    }

    #[test]
    fn churn_wave_mixes_inserts_and_deletes() {
        use ft_graph::ChurnEvent;
        let mut net = pinger_net(gen::grid(4, 4));
        let mut campaign = Campaign::new(CampaignConfig::default());
        let events = vec![
            ChurnEvent::Insert {
                neighbors: vec![NodeId(0), NodeId(3)],
            },
            ChurnEvent::Delete(NodeId(5)),
            ChurnEvent::Insert {
                neighbors: vec![NodeId(5)], // anchor died earlier in the wave
            },
        ];
        let ws = campaign.run_churn_wave(&mut net, &events, |_, nbrs| Pinger {
            neighbors: nbrs.to_vec(),
            pings: 0,
        });
        assert_eq!((ws.insertions, ws.deletions), (1, 1));
        assert_eq!(net.len(), 16, "one in, one out");
        assert_eq!(net.ledger().joins(), 2, "both anchors noticed the join");
        assert!(!net.has_pending());
        net.check_accounting().expect("books balance");
        assert_eq!(campaign.report().insertions, 1);
    }

    #[test]
    fn report_accumulates_across_waves() {
        let mut net = pinger_net(gen::grid(5, 5));
        let mut campaign = Campaign::new(CampaignConfig::default());
        campaign.run_wave(&mut net, &[NodeId(12)]);
        campaign.run_wave(&mut net, &[NodeId(0), NodeId(24)]);
        let r = campaign.report();
        assert_eq!((r.waves, r.deletions), (2, 3));
        assert_eq!(r.messages, net.ledger().total_messages());
        assert!(r.rounds >= 3, "at least one round per deletion");
        assert_eq!(
            r.cost,
            net.costs(),
            "wave snapshots tile the network's whole cost history"
        );
        assert_eq!(r.cost.messages_delivered, net.ledger().delivered());
    }
}
