//! Seeded, deterministic fault injection for the round engine.
//!
//! The paper's adversary deletes nodes between lossless synchronous
//! rounds; real deployments drop, delay, and duplicate messages, kill
//! nodes before their wills are readable, and partition the network. The
//! fault layer opens that axis **without giving up the byte-identical
//! replay contract**: every fault decision is a [`FaultPlan`] — a pure
//! function of the plan's seed plus the identity of the thing being
//! decided (round number, message endpoints, canonical send position) —
//! exactly the way `ft_metrics::select_sources` derives its sample from
//! seed + live set. There is no RNG state to advance, so the same plan
//! over the same campaign makes the same decisions in any replay.
//!
//! The fault axes:
//!
//! - **loss** — a sent message vanishes on the wire (accounted in the
//!   ledger's `lost` book, distinct from `dropped` = dead endpoint);
//! - **duplication** — a sent message arrives twice (the extra copy is
//!   accounted in `duplicated`);
//! - **delay** — delivery is postponed 1..=`max_delay` extra rounds (the
//!   message parks in the engine's delay queue; `delayed` book counts the
//!   events). Because queued mail re-enters delivery later than its
//!   neighbors, delay doubles as the model's *reorder* fault;
//! - **crash-stop** — the adversary kills a victim so abruptly that its
//!   queued outbound mail is silenced, although a deleted node's mail
//!   otherwise stays on the wire — the node dies *mid-sentence*. Deletion notices still reach the neighbors (they model
//!   out-of-band failure detection, not a message from the victim);
//! - **partition** — for windows of `partition_len` rounds out of every
//!   `partition_period`, the node set splits in two halves (a seeded hash
//!   of the partition epoch and the node ID) and cross-side messages are
//!   lost. Rejoin is automatic when the window closes.
//!
//! Message fates are decided centrally in the engine's outbox routing
//! (`finish_round`), over the outbox in canonical send order — so a faulty
//! run replays byte-identically from its seed.

#![deny(clippy::as_conversions)]

// Every fault decision is a threshold over this hash.
use ft_graph::hash::splitmix64;
use ft_graph::NodeId;

// Distinct salts keep the per-axis decision streams independent: a message
// that would be lost under the loss stream is judged afresh (not
// correlated) by the duplication and delay streams.
const SALT_LOSS: u64 = 0x8f5c_17a3_9bd4_2e61;
const SALT_DUP: u64 = 0x243f_6a88_85a3_08d3;
const SALT_DELAY: u64 = 0x1319_8a2e_0370_7344;
const SALT_PICK: u64 = 0xa409_3822_299f_31d0;
const SALT_CRASH: u64 = 0x0823_08a3_e013_70ab;
const SALT_SIDE: u64 = 0x452a_f309_13d0_86c4;

/// What the fault plan decided for one sent message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgFate {
    /// Delivered next round, exactly as the fault-free engine would.
    Deliver,
    /// Vanishes on the wire (ledger book: `lost`).
    Lose,
    /// Arrives twice next round (the extra copy: `duplicated`).
    Duplicate,
    /// Arrives the given number of rounds *later* than normal (≥ 1).
    Delay(u32),
}

/// Fault rates and shapes — the user-facing configuration a [`FaultPlan`]
/// is compiled from.
///
/// All probabilities are per-message (resp. per-deletion for `crash`) and
/// independent across the axes. A default-constructed config is all-zero:
/// compiling it yields a plan whose every decision is
/// [`MsgFate::Deliver`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Probability a sent message is lost.
    pub loss: f64,
    /// Probability a sent message is duplicated.
    pub duplication: f64,
    /// Probability a sent message is delayed.
    pub delay: f64,
    /// Maximum extra rounds a delayed message waits (uniform in
    /// `1..=max_delay`; ignored when `delay` is zero).
    pub max_delay: u32,
    /// Probability an adversarial deletion is a crash-stop (the victim's
    /// in-flight mail is silenced) rather than a clean departure.
    pub crash: f64,
    /// Partition cycle length in rounds (0 = no partitions).
    pub partition_period: u64,
    /// Rounds at the start of each cycle during which the network is
    /// split in two (clamped to the period).
    pub partition_len: u64,
}

impl FaultConfig {
    /// The all-zero config: no faults on any axis.
    pub const fn zero() -> Self {
        FaultConfig {
            loss: 0.0,
            duplication: 0.0,
            delay: 0.0,
            max_delay: 0,
            crash: 0.0,
            partition_period: 0,
            partition_len: 0,
        }
    }

    /// True when every axis is inert — a plan compiled from such a config
    /// never changes a fate.
    pub fn is_zero(&self) -> bool {
        self.loss <= 0.0
            && self.duplication <= 0.0
            && (self.delay <= 0.0 || self.max_delay == 0)
            && self.crash <= 0.0
            && (self.partition_period == 0 || self.partition_len == 0)
    }

    /// Parses a named fault model: one preset or several joined with `+`
    /// (e.g. `"loss+crash"`), combining axis-wise by maximum. Returns
    /// `None` for an unknown part.
    ///
    /// Presets: `none`, `delay` (p=0.25, ≤4 rounds), `loss` (p=0.05),
    /// `dup` (p=0.05), `crash` (p=0.5 of deletions), `partition` (6-round
    /// splits every 24 rounds), `chaos` (all of the above).
    pub fn from_name(name: &str) -> Option<FaultConfig> {
        let mut cfg = FaultConfig::zero();
        for part in name.split('+') {
            let p = match part.trim() {
                "none" => FaultConfig::zero(),
                "delay" => FaultConfig {
                    delay: 0.25,
                    max_delay: 4,
                    ..FaultConfig::zero()
                },
                "loss" => FaultConfig {
                    loss: 0.05,
                    ..FaultConfig::zero()
                },
                "dup" => FaultConfig {
                    duplication: 0.05,
                    ..FaultConfig::zero()
                },
                "crash" => FaultConfig {
                    crash: 0.5,
                    ..FaultConfig::zero()
                },
                "partition" => FaultConfig {
                    partition_period: 24,
                    partition_len: 6,
                    ..FaultConfig::zero()
                },
                "chaos" => FaultConfig {
                    loss: 0.05,
                    duplication: 0.05,
                    delay: 0.25,
                    max_delay: 4,
                    crash: 0.5,
                    partition_period: 24,
                    partition_len: 6,
                },
                _ => return None,
            };
            cfg = FaultConfig {
                loss: cfg.loss.max(p.loss),
                duplication: cfg.duplication.max(p.duplication),
                delay: cfg.delay.max(p.delay),
                max_delay: cfg.max_delay.max(p.max_delay),
                crash: cfg.crash.max(p.crash),
                partition_period: cfg.partition_period.max(p.partition_period),
                partition_len: cfg.partition_len.max(p.partition_len),
            };
        }
        Some(cfg)
    }

    /// The canonical preset names [`FaultConfig::from_name`] accepts,
    /// in matrix order.
    pub fn model_names() -> &'static [&'static str] {
        &[
            "none",
            "delay",
            "loss",
            "dup",
            "crash",
            "partition",
            "chaos",
        ]
    }

    /// Compiles the config into a seeded plan (probabilities become
    /// integer thresholds; no floating point on the per-message path).
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            loss_t: threshold(self.loss),
            dup_t: threshold(self.duplication),
            delay_t: if self.max_delay == 0 {
                0
            } else {
                threshold(self.delay)
            },
            crash_t: threshold(self.crash),
            max_delay: self.max_delay,
            partition_period: self.partition_period,
            partition_len: self.partition_len.min(self.partition_period),
            cfg: *self,
        }
    }
}

/// Maps a probability to the u64 threshold a hash is compared against:
/// `hash < threshold(p)` holds with probability ≈ p over a uniform hash.
#[expect(
    clippy::as_conversions,
    reason = "intentional quantization: a probability becomes the nearest representable u64 threshold once at plan-compile time; the per-message path compares integers only"
)]
fn threshold(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else if p <= 0.0 {
        0
    } else {
        (p * (u64::MAX as f64)) as u64
    }
}

/// A compiled, seeded fault schedule: every decision is a pure function of
/// `(seed, identity)`, so the schedule is a *value*, not a process — copy
/// it, replay it, and it always answers the same.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    loss_t: u64,
    dup_t: u64,
    delay_t: u64,
    crash_t: u64,
    max_delay: u32,
    partition_period: u64,
    partition_len: u64,
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Compiles `cfg` under `seed` (same as [`FaultConfig::plan`]).
    pub fn new(cfg: FaultConfig, seed: u64) -> Self {
        cfg.plan(seed)
    }

    /// The seed the plan was compiled under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration the plan was compiled from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// True when the plan can never change a fate (all axes inert).
    pub fn is_zero(&self) -> bool {
        self.loss_t == 0
            && self.dup_t == 0
            && (self.delay_t == 0 || self.max_delay == 0)
            && self.crash_t == 0
            && (self.partition_period == 0 || self.partition_len == 0)
    }

    /// Mixes the plan seed with a message identity: the round it was
    /// routed, its endpoints, and `k`, its position in the round's
    /// canonical send order (which disambiguates identical `(from, to)`
    /// pairs within one round).
    #[inline]
    fn msg_hash(&self, round: u64, from: NodeId, to: NodeId, k: u64) -> u64 {
        let id = round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((u64::from(from.0) << 32) | u64::from(to.0))
            ^ k.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        splitmix64(self.seed ^ id)
    }

    /// The fate of the message `from → to` routed in `round` at canonical
    /// send position `k`. Partition loss is checked first; the remaining
    /// axes are independent salted streams with loss > duplication > delay
    /// precedence.
    pub fn fate(&self, round: u64, from: NodeId, to: NodeId, k: u64) -> MsgFate {
        if self.partitioned(round, from, to) {
            return MsgFate::Lose;
        }
        let h = self.msg_hash(round, from, to, k);
        if self.loss_t > 0 && splitmix64(h ^ SALT_LOSS) < self.loss_t {
            return MsgFate::Lose;
        }
        if self.dup_t > 0 && splitmix64(h ^ SALT_DUP) < self.dup_t {
            return MsgFate::Duplicate;
        }
        if self.delay_t > 0 && self.max_delay > 0 && splitmix64(h ^ SALT_DELAY) < self.delay_t {
            #[expect(
                clippy::as_conversions,
                reason = "the remainder is < max_delay, a u32, so the narrowing is exact by construction"
            )]
            let extra = 1 + (splitmix64(h ^ SALT_PICK) % u64::from(self.max_delay)) as u32;
            return MsgFate::Delay(extra);
        }
        MsgFate::Deliver
    }

    /// Whether `a` and `b` sit on opposite sides of an open partition
    /// window at `round`. Sides are a seeded hash of the partition *epoch*
    /// (`round / period`), so each window splits the nodes differently.
    pub fn partitioned(&self, round: u64, a: NodeId, b: NodeId) -> bool {
        if self.partition_period == 0 || self.partition_len == 0 {
            return false;
        }
        if round % self.partition_period >= self.partition_len {
            return false;
        }
        let epoch = round / self.partition_period;
        self.side(epoch, a) != self.side(epoch, b)
    }

    #[inline]
    fn side(&self, epoch: u64, v: NodeId) -> u64 {
        splitmix64(
            self.seed
                ^ SALT_SIDE
                ^ epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ u64::from(v.0).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ) & 1
    }

    /// Whether the adversarial deletion of `victim` at `round` is a
    /// crash-stop (in-flight mail silenced) rather than a clean departure.
    pub fn crash_stop(&self, round: u64, victim: NodeId) -> bool {
        self.crash_t > 0
            && splitmix64(
                self.seed
                    ^ SALT_CRASH
                    ^ round.wrapping_mul(0x94D0_49BB_1331_11EB)
                    ^ u64::from(victim.0).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ) < self.crash_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn zero_plan_always_delivers() {
        let plan = FaultConfig::zero().plan(42);
        assert!(plan.is_zero());
        for r in 0..50u64 {
            for k in 0..20u64 {
                assert_eq!(plan.fate(r, n(1), n(2), k), MsgFate::Deliver);
            }
            assert!(!plan.crash_stop(r, n(3)));
            assert!(!plan.partitioned(r, n(1), n(2)));
        }
    }

    #[test]
    fn fates_are_pure_functions_of_identity() {
        let plan = FaultConfig::from_name("chaos").unwrap().plan(7);
        for r in 0..100u64 {
            for k in 0..10u64 {
                let a = plan.fate(r, n(4), n(9), k);
                let b = plan.fate(r, n(4), n(9), k);
                assert_eq!(a, b, "fate must not depend on call history");
            }
        }
        // a copy of the plan answers identically (it is a value)
        let copy = plan;
        assert_eq!(plan.fate(3, n(1), n(2), 0), copy.fate(3, n(1), n(2), 0));
    }

    #[test]
    fn distinct_send_positions_get_independent_fates() {
        // two identical (round, from, to) sends must be judged separately
        let plan = FaultConfig {
            loss: 0.5,
            ..FaultConfig::zero()
        }
        .plan(11);
        let mut distinct = false;
        for r in 0..50u64 {
            if plan.fate(r, n(0), n(1), 0) != plan.fate(r, n(0), n(1), 1) {
                distinct = true;
                break;
            }
        }
        assert!(distinct, "send position k never changed a fate");
    }

    #[test]
    #[expect(
        clippy::as_conversions,
        reason = "a rate estimate over 20k trials; counts far below 2^53 convert to f64 exactly"
    )]
    fn rates_land_in_the_right_ballpark() {
        let plan = FaultConfig {
            loss: 0.2,
            ..FaultConfig::zero()
        }
        .plan(13);
        let trials = 20_000u64;
        let lost = (0..trials)
            .filter(|&k| plan.fate(0, n(0), n(1), k) == MsgFate::Lose)
            .count();
        let rate = lost as f64 / trials as f64;
        assert!(
            (0.17..0.23).contains(&rate),
            "loss rate {rate} far from 0.2"
        );
    }

    #[test]
    fn delays_stay_in_bounds() {
        let plan = FaultConfig {
            delay: 1.0,
            max_delay: 4,
            ..FaultConfig::zero()
        }
        .plan(3);
        for k in 0..1000u64 {
            match plan.fate(5, n(0), n(1), k) {
                MsgFate::Delay(d) => assert!((1..=4).contains(&d), "delay {d} out of range"),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn partition_windows_open_and_close() {
        let plan = FaultConfig {
            partition_period: 10,
            partition_len: 3,
            ..FaultConfig::zero()
        }
        .plan(99);
        // find a pair on opposite sides of epoch 0
        let split_pair = (1..64u32)
            .map(|i| (n(0), n(i)))
            .find(|&(a, b)| plan.partitioned(0, a, b))
            .expect("some pair straddles the epoch-0 cut");
        for r in 0..30u64 {
            let open = r % 10 < 3;
            if !open {
                assert!(
                    !plan.partitioned(r, split_pair.0, split_pair.1),
                    "window closed at round {r} but pair still split"
                );
            }
        }
        // inside a window, partitioned pairs are lost even at loss = 0
        assert_eq!(
            plan.fate(0, split_pair.0, split_pair.1, 0),
            MsgFate::Lose,
            "cross-partition mail is lost"
        );
        // same side ⇒ unaffected
        let same = plan.side(0, n(0));
        let buddy = (1..64u32)
            .map(n)
            .find(|&v| plan.side(0, v) == same)
            .expect("someone shares node 0's side");
        assert_eq!(plan.fate(0, n(0), buddy, 0), MsgFate::Deliver);
    }

    #[test]
    fn named_models_parse_and_combine() {
        assert!(FaultConfig::from_name("none").unwrap().is_zero());
        assert!(FaultConfig::from_name("bogus").is_none());
        assert!(FaultConfig::from_name("loss+bogus").is_none());
        let lc = FaultConfig::from_name("loss+crash").unwrap();
        assert!(lc.loss > 0.0 && lc.crash > 0.0);
        assert_eq!(lc.duplication, 0.0);
        let chaos = FaultConfig::from_name("chaos").unwrap();
        for name in FaultConfig::model_names() {
            let m = FaultConfig::from_name(name).expect("every listed model parses");
            assert!(m.loss <= chaos.loss && m.crash <= chaos.crash);
            assert_eq!(m.plan(11), m.plan(11), "{name} must be pure in its seed");
        }
    }

    #[test]
    fn crash_rate_is_seeded_and_deterministic() {
        let p1 = FaultConfig::from_name("crash").unwrap().plan(5);
        let p2 = FaultConfig::from_name("crash").unwrap().plan(5);
        let p3 = FaultConfig::from_name("crash").unwrap().plan(6);
        let crashes1: Vec<bool> = (0..200).map(|r| p1.crash_stop(r, n(7))).collect();
        let crashes2: Vec<bool> = (0..200).map(|r| p2.crash_stop(r, n(7))).collect();
        let crashes3: Vec<bool> = (0..200).map(|r| p3.crash_stop(r, n(7))).collect();
        assert_eq!(crashes1, crashes2, "same seed, same schedule");
        assert_ne!(crashes1, crashes3, "different seed, different schedule");
        let hits = crashes1.iter().filter(|&&c| c).count();
        assert!(
            (60..140).contains(&hits),
            "crash rate {hits}/200 far from 0.5"
        );
    }
}
