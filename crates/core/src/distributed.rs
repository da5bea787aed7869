//! The distributed Forgiving Tree.
//!
//! Every node runs [`FtNode`], a processor that knows only Table 1's fields
//! (its parent, its will, the portion of its owner's will addressed to it,
//! and its helper-role fields) and reacts to deletion notices and protocol
//! messages over the synchronous `ft-sim` network. No processor ever reads
//! global state.
//!
//! # Virtual references
//!
//! A real node appears in the virtual tree up to twice: as its own
//! *position* and as the simulator of one helper. Messages name virtual
//! nodes with a [`VRef`] — `(simulator, is_helper)` — which is unambiguous
//! because each node simulates at most one helper (INV-A).
//!
//! # Choreography of one heal (O(1) rounds)
//!
//! - **notice**: the adversary deletes `x`; the simulator informs `x`'s
//!   graph neighbors, each of which classifies its relation(s) to `x` from
//!   local state alone:
//!   1. *`x` was my will representative*: if I hold `x`'s LeafWill I prune
//!      the slot; otherwise `x`'s heir will contact me.
//!   2. *`x` owned my portion*: I execute the portion — re-attach my slot's
//!      occupant (bypassing my ready vnode if I was a promoted rep,
//!      [`FtMsg::Reattach`]), take on my assigned SubRT helper, and — as
//!      heir — become a ready heir ([`FtMsg::ReplaceRep`]) or take over
//!      `x`'s role verbatim ([`FtMsg::NewSim`]).
//!   3. *`x`'s position hung under my helper*: I splice or dissolve the
//!      redundant helper ([`FtMsg::SpliceChild`]/[`FtMsg::SpliceParent`]/
//!      [`FtMsg::SlotDissolved`]) and adopt `x`'s LeafWill if I hold it.
//!   4. otherwise I wait: the responsible orchestrator reaches me within a
//!      round.
//! - **rounds 2–3**: receivers update fields; will owners re-send the O(1)
//!   changed portions ([`FtMsg::Portion`]); fresh LeafWills are filed.
//!
//! Edges are *interest-tracked*: each endpoint derives its desired neighbor
//! set from its fields; an edge disappears only after both endpoints release
//! it ([`FtMsg::Release`]), so a handover can never sever a link the other
//! side still needs.
//!
//! The differential test-suite drives this implementation and the spec
//! engine with identical deletion sequences and asserts the healed graphs
//! are identical after every step.

use crate::shape::{HelperPlan, Portion, PortionRef, SubRtShape};
use crate::sorted::{map_insert, map_remove};
use ft_graph::tree::RootedTree;
use ft_graph::{ChurnEvent, Graph, InlineVec, NodeId, SortedIds};
use ft_sim::{Campaign, Ctx, Network, Process, WaveStats};

/// A virtual-node reference: the real simulator plus which of its (at most
/// two) virtual nodes is meant. The default, node 0's position, only fills
/// the unused inline slots of a [`DRole`]'s child list.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub struct VRef {
    /// The simulating real node.
    pub sim: NodeId,
    /// `false`: the node's own position; `true`: the helper it simulates.
    pub helper: bool,
}

impl VRef {
    /// The position vnode of `v`.
    pub fn pos(v: NodeId) -> Self {
        VRef {
            sim: v,
            helper: false,
        }
    }

    /// The helper vnode simulated by `v`.
    pub fn helper(v: NodeId) -> Self {
        VRef {
            sim: v,
            helper: true,
        }
    }
}

/// Helper-role fields (`hparent`, `hchildren`, `isreadyheir` of Table 1).
///
/// Helpers are binary, so a role keeps its lists inline and owns no heap
/// memory; only faulty mail that gives a helper a third child spills
/// `hchildren`. Each copy a processor keeps is one 56-byte box, in the
/// allocator's 64-byte class; a LeafWill carries the role unboxed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DRole {
    /// Parent of the simulated helper (`None` = it is the virtual root).
    pub hparent: Option<VRef>,
    /// Children of the simulated helper, in the order they attached: the
    /// order the helper's messages go out in.
    pub hchildren: InlineVec<VRef, 2>,
    /// Slots of an under-construction SubRT whose occupants have not yet
    /// attached (drained within the heal's O(1) rounds).
    pub pending_slots: PendingSlots,
    /// Ready-state heir (exactly one child).
    pub ready: bool,
}

/// A helper's pending slots, in plan order. Only deployment adds to them,
/// from the helper's two planned children, so they never outgrow two and
/// need no heap fallback: 12 bytes, where a spilling list takes 24.
#[derive(Clone, Copy, Default)]
pub struct PendingSlots {
    len: u8,
    slots: [NodeId; 2],
}

impl PendingSlots {
    /// Appends `slot`.
    ///
    /// # Panics
    /// Panics on a third slot.
    fn push(&mut self, slot: NodeId) {
        self.slots[usize::from(self.len)] = slot;
        self.len += 1;
    }

    /// Drops `slot`; false when it was not pending.
    fn take(&mut self, slot: NodeId) -> bool {
        let Some(i) = self.iter().position(|s| *s == slot) else {
            return false;
        };
        self.slots.copy_within(i + 1.., i);
        self.len -= 1;
        true
    }

    fn clear(&mut self) {
        self.len = 0;
    }
}

impl std::ops::Deref for PendingSlots {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.slots[..usize::from(self.len)]
    }
}

impl PartialEq for PendingSlots {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for PendingSlots {}

impl std::fmt::Debug for PendingSlots {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl DRole {
    fn child_count(&self) -> usize {
        self.hchildren.len() + self.pending_slots.len()
    }

    /// Replaces my child `old` by `new`; false when `old` is not a child.
    fn replace_child(&mut self, old: VRef, new: VRef) -> bool {
        let found = self.hchildren.iter_mut().find(|c| **c == old);
        found.map(|e| *e = new).is_some()
    }
}

/// What one representative does when its owner dies: exactly one of the
/// three duties of Algorithm 3.6. The heir alone deploys no helper.
///
/// `R` is how a take-over heir's role is held: boxed in a portion that is
/// stored or sent, borrowed from the owner's fields while the owner diffs
/// its will against what it sent, so an unchanged role is never cloned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Duty<R = Box<DRole>> {
    /// Non-heir: deploy my SubRT helper.
    Helper {
        /// `nexthparent`: `None` when this helper is the SubRT root, which
        /// attaches to the portion's `top`.
        hparent: Option<VRef>,
        /// `nexthchildren`, as shape references.
        children: [PortionRef; 2],
    },
    /// Heir of an owner with no helper duties: become a ready heir above
    /// the SubRT root.
    Ready {
        /// The SubRT root helper; `None` when the heir's own slot occupant
        /// is the entire SubRT (single-slot shape).
        subrt_root: Option<VRef>,
    },
    /// Heir of an owner with helper duties: take them over verbatim, as of
    /// the last will refresh (boxed: only the heir's portion carries one,
    /// and every portion pays for the largest variant).
    TakeOver(R),
}

/// The portion of a will addressed to one representative.
///
/// `R` is the take-over role's holder, as in [`Duty`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DPortion<R = Box<DRole>> {
    /// The will's owner.
    pub owner: NodeId,
    /// Where this rep's slot occupant re-attaches (`nextparent`); `None`
    /// means "at the top" (single-slot shape: under the heir's ready vnode
    /// or the owner's parent).
    pub next_parent: Option<VRef>,
    /// What this representative does when the owner dies.
    pub duty: Duty<R>,
    /// Where the SubRT root attaches: the heir's ready vnode when the owner
    /// is role-free, else the owner's parent vnode.
    pub top: VRef,
    /// The owner's parent vnode at refresh time (`p` of Algorithm 3.6);
    /// `None` when the owner simulates the virtual root's real node.
    pub owner_parent: Option<VRef>,
}

impl DPortion {
    /// This portion with its take-over role borrowed.
    fn borrowed(&self) -> DPortion<&DRole> {
        let duty = match &self.duty {
            Duty::Helper { hparent, children } => Duty::Helper {
                hparent: *hparent,
                children: *children,
            },
            Duty::Ready { subrt_root } => Duty::Ready {
                subrt_root: *subrt_root,
            },
            Duty::TakeOver(role) => Duty::TakeOver(&**role),
        };
        DPortion {
            owner: self.owner,
            next_parent: self.next_parent,
            duty,
            top: self.top,
            owner_parent: self.owner_parent,
        }
    }
}

impl DPortion<&DRole> {
    /// This portion with its take-over role cloned into a box.
    fn into_owned(self) -> DPortion {
        let duty = match self.duty {
            Duty::Helper { hparent, children } => Duty::Helper { hparent, children },
            Duty::Ready { subrt_root } => Duty::Ready { subrt_root },
            Duty::TakeOver(role) => Duty::TakeOver(Box::new(role.clone())),
        };
        DPortion {
            owner: self.owner,
            next_parent: self.next_parent,
            duty,
            top: self.top,
            owner_parent: self.owner_parent,
        }
    }
}

/// Protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtMsg {
    /// Will owner → representative: a fresh portion.
    Portion(DPortion),
    /// Leaf → its parent: helper duties to inherit (`None` = no duties).
    LeafWill(Option<DRole>),
    /// Slot occupant → parent helper's simulator: "vnode `child` now hangs
    /// under your vnode `your_end`, occupying slot `slot`".
    OccupySlot {
        /// The leaf slot being occupied (named by its representative).
        slot: NodeId,
        /// The occupant vnode.
        child: VRef,
        /// Which of the receiver's vnodes is the parent.
        your_end: VRef,
        /// Stale child entry to replace, if the receiver predates this heal.
        replacing: Option<VRef>,
    },
    /// "Vnode `old` is henceforth simulated as `new`."
    NewSim {
        /// The vnode's previous identity.
        old: VRef,
        /// Its new identity.
        new: VRef,
        /// Whether the receiver is the vnode's parent (else a child/other).
        receiver_is_parent: bool,
        /// Which of the receiver's vnodes is adjacent (parent case only).
        your_end: VRef,
        /// Set when the vnode is a ready heir rooting the receiver's will
        /// slot for dead rep `NodeId`: triggers `replace_rep`.
        ready_rep_replace: Option<NodeId>,
    },
    /// Heir → owner's parent: "my fresh ready vnode replaces `dead` as the
    /// occupant of your child slot".
    ReplaceRep {
        /// The dead representative.
        dead: NodeId,
        /// The heir taking over.
        new_rep: NodeId,
        /// Which of the receiver's vnodes is the parent end.
        your_end: VRef,
    },
    /// Short-circuit, parent side: child vnode `gone` under your `your_end`
    /// is replaced by `survivor`, or dissolved with no survivor.
    SpliceChild {
        /// Receiver's vnode.
        your_end: VRef,
        /// Removed child vnode.
        gone: VRef,
        /// Surviving grandchild subtree root; `None` when there is none.
        survivor: Option<VRef>,
    },
    /// Short-circuit, child side: your parent vnode `gone` is replaced by
    /// `new_parent`.
    SpliceParent {
        /// Receiver's vnode.
        your_end: VRef,
        /// Removed parent vnode.
        gone: VRef,
        /// New parent; `None` when you are now the virtual root.
        new_parent: Option<VRef>,
    },
    /// A ready vnode rooting one of your will slots dissolved entirely.
    SlotDissolved {
        /// The representative whose slot vanished.
        rep: NodeId,
    },
    /// Bypass: "re-attach your vnode `your_end` under `new_parent`,
    /// presenting yourself as occupant of slot `slot`".
    Reattach {
        /// Receiver's vnode.
        your_end: VRef,
        /// The shape position to attach under.
        new_parent: VRef,
        /// The slot the receiver occupies there.
        slot: NodeId,
        /// Stale entry (the dead owner's position) to replace at landing.
        replacing: Option<VRef>,
    },
    /// Edge-interest release (half of the two-sided drop handshake).
    Release,
}

/// Outcome of a helper losing one child.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LostChild {
    /// Still has two children — nothing happened.
    Kept,
    /// The ready vnode lost its only child and dissolved.
    Dissolved,
    /// The deployed helper short-circuited.
    ShortCircuited {
        /// The surviving child subtree root.
        survivor: VRef,
        /// The helper's old parent (`None` = it was the virtual root).
        new_parent: Option<VRef>,
    },
}

/// A will owner's will and the portions of it last sent.
#[derive(Debug)]
struct Will {
    /// My will over my slot representatives (`SubRT(v)`).
    shape: SubRtShape,
    /// Portions I last sent, ascending by representative; diffed in place
    /// against `shape` on every settle.
    sent: Vec<(NodeId, DPortion)>,
}

/// One processor of the distributed Forgiving Tree.
///
/// The will (with the portions sent from it) and every helper role are
/// boxed: most nodes are leaves or hold no role, and the network keeps one
/// slot per ID ever seen, dead IDs included, so only an 8-byte pointer is
/// paid where the field is unset. A node without a will has sent no
/// portions, by construction.
#[derive(Debug)]
pub struct FtNode {
    id: NodeId,
    /// Parent of my position vnode (`parent(v)` of Table 1).
    pos_parent: Option<VRef>,
    /// My will, if I have children slots.
    will: Option<Box<Will>>,
    /// LeafWills filed with me by nodes whose virtual parent I simulate,
    /// ascending by filer.
    leaf_wills: Vec<(NodeId, Option<Box<DRole>>)>,
    /// The portion of my owner's will addressed to me.
    portion: Option<DPortion>,
    /// My helper-role fields.
    role: Option<Box<DRole>>,
    /// LeafWill I last sent, and to whom.
    sent_leafwill: Option<(NodeId, Option<Box<DRole>>)>,
    /// Edge interests currently held; diffed in place like the portions
    /// in my will. A leaf's one or two sit inline.
    desired: SortedIds,
}

impl FtNode {
    pub(crate) fn new(id: NodeId) -> Self {
        FtNode {
            id,
            pos_parent: None,
            will: None,
            leaf_wills: Vec::new(),
            portion: None,
            role: None,
            sent_leafwill: None,
            desired: SortedIds::new(),
        }
    }

    /// Whether this node currently simulates a ready-state heir.
    pub fn is_ready_heir(&self) -> bool {
        self.role.as_ref().is_some_and(|r| r.ready)
    }

    /// Whether this node currently holds helper duties.
    pub fn is_helper(&self) -> bool {
        self.role.is_some()
    }

    /// The paper's `parent(v)` field.
    fn parent_sim(&self) -> Option<NodeId> {
        let p = self.pos_parent?;
        if p.sim == self.id {
            // my parent vnode is my own helper: skip to its parent
            self.role.as_ref()?.hparent.map(|h| h.sim)
        } else {
            Some(p.sim)
        }
    }

    /// My parent and helper links: the neighbors my fields demand besides
    /// my will's representatives. A handful, unsorted, possibly repeating
    /// or naming myself.
    fn links(&self) -> impl Iterator<Item = NodeId> + Clone + '_ {
        let role_links = self
            .role
            .iter()
            .flat_map(|r| r.hparent.into_iter().chain(r.hchildren.iter().copied()));
        self.pos_parent.into_iter().chain(role_links).map(|v| v.sim)
    }

    /// The neighbor set my fields demand, ascending and without myself:
    /// my will's representatives merged with my links, the links put in
    /// order by repeated minimum search so that nothing is allocated.
    fn interests(&self) -> impl Iterator<Item = NodeId> + '_ {
        let links = self.links();
        let mut reps = self
            .will
            .as_deref()
            .into_iter()
            .flat_map(|w| w.shape.reps())
            .peekable();
        let mut last: Option<NodeId> = None;
        std::iter::from_fn(move || loop {
            let link = links.clone().filter(|&u| last.is_none_or(|l| u > l)).min();
            let next = match (reps.peek().copied(), link) {
                (Some(r), Some(l)) => r.min(l),
                (r, l) => r.or(l)?,
            };
            reps.next_if_eq(&next);
            last = Some(next);
            if next != self.id {
                return Some(next);
            }
        })
    }

    /// Whether my fields demand an edge to `u` (membership in
    /// [`FtNode::interests`]).
    fn wants(&self, u: NodeId) -> bool {
        u != self.id
            && (self.will.as_ref().is_some_and(|w| w.shape.contains(u))
                || self.links().any(|l| l == u))
    }

    /// Diffs my interests against the held set in place: requests an edge
    /// for each new interest and releases each one that lapsed, both in
    /// ascending order.
    fn sync_edges(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        let mut held = std::mem::take(&mut self.desired);
        let mut i = 0;
        for u in self.interests() {
            while let Some(&d) = held.get(i).filter(|&&d| d < u) {
                ctx.send(d, FtMsg::Release);
                held.remove(d);
            }
            if held.get(i) != Some(&u) {
                ctx.add_edge(u);
                held.insert(u);
            }
            i += 1;
        }
        for &d in &held[i..] {
            ctx.send(d, FtMsg::Release);
        }
        held.truncate(i);
        self.desired = held;
    }

    /// Where my will's SubRT root attaches once I die.
    fn subrt_top(&self, heir: NodeId) -> VRef {
        match &self.role {
            Some(_) => {
                let t = self.pos_parent.unwrap_or(VRef::helper(heir));
                if t.sim == self.id {
                    // my position hangs under my own helper; after my death
                    // that helper is simulated by my heir, so the SubRT root
                    // must address the heir.
                    VRef::helper(heir)
                } else {
                    t
                }
            }
            None => VRef::helper(heir),
        }
    }

    /// Lowers shape portion `p` into message form, borrowing a take-over
    /// heir's role from my fields. `root_sim` simulates my will's SubRT
    /// root, if that root is a helper position.
    fn lower_portion(&self, p: Portion, top: VRef, root_sim: Option<NodeId>) -> DPortion<&DRole> {
        let to_vref = |r: PortionRef| match r {
            PortionRef::Helper(s) => VRef::helper(s),
            // a slot's occupant is simulated by its representative (INV-C)
            PortionRef::Slot(r) => VRef::pos(r),
        };
        // `owner_parent` is consumed only by the heir.
        let (duty, owner_parent) = match (p.helper, self.role.as_deref()) {
            (Some(HelperPlan { hparent, children }), _) => (
                Duty::Helper {
                    hparent: hparent.map(to_vref),
                    children,
                },
                None,
            ),
            (None, None) => (
                Duty::Ready {
                    subrt_root: root_sim.map(VRef::helper),
                },
                self.pos_parent,
            ),
            (None, Some(role)) => (Duty::TakeOver(role), self.pos_parent),
        };
        let next_parent = p.next_parent.map(to_vref);
        // `top` is consumed only by the SubRT-root helper holder and by the
        // single-slot heir. Normalize it everywhere else, as `owner_parent`
        // above, so an heir change does not perturb every portion —
        // otherwise the owner would re-send Θ(Δ) portions and break
        // Theorem 1.3's O(1) messages per event.
        let reads_top = matches!(duty, Duty::Helper { hparent: None, .. }) || next_parent.is_none();
        DPortion {
            owner: self.id,
            next_parent,
            duty,
            top: if reads_top { top } else { VRef::pos(self.id) },
            owner_parent,
        }
    }

    /// Diffs the portions my current will and fields imply against the ones
    /// last sent, in place, and hands each changed one to `send` in
    /// ascending representative order (O(1) per event).
    fn refresh_portions(&mut self, mut send: impl FnMut(NodeId, &DPortion)) {
        let Some(mut will) = self.will.take() else {
            return;
        };
        let Will { shape, sent } = &mut *will;
        let top = self.subrt_top(shape.heir().expect("nonempty will"));
        let root_sim = shape.root_sim();
        let mut i = 0;
        for rep in shape.reps() {
            while sent.get(i).is_some_and(|(r, _)| *r < rep) {
                sent.remove(i); // that representative left my will
            }
            let fresh = self.lower_portion(shape.portion(rep), top, root_sim);
            let known = sent.get(i).is_some_and(|(r, _)| *r == rep);
            if !(known && sent[i].1.borrowed() == fresh) {
                let fresh = fresh.into_owned();
                send(rep, &fresh);
                if known {
                    sent[i].1 = fresh;
                } else {
                    sent.insert(i, (rep, fresh));
                }
            }
            i += 1;
        }
        sent.truncate(i);
        self.will = Some(will);
    }

    /// Refreshes the LeafWill my parent holds, when I am a leaf.
    fn refresh_leafwill(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        if self.will.is_some() {
            return; // not a leaf
        }
        let Some(target) = self.parent_sim() else {
            return;
        };
        if self
            .sent_leafwill
            .as_ref()
            .is_some_and(|(t, lw)| *t == target && lw.as_ref() == self.role.as_ref())
        {
            return;
        }
        ctx.send(target, FtMsg::LeafWill(self.role.as_deref().cloned()));
        self.sent_leafwill = Some((target, self.role.clone()));
    }

    /// Post-event bookkeeping: edges, portions, LeafWill.
    fn settle(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        self.sync_edges(ctx);
        self.refresh_portions(|rep, p| ctx.send(rep, FtMsg::Portion(p.clone())));
        self.refresh_leafwill(ctx);
    }

    // ------------------------------------------------------------------
    // portion execution (makeRT + MakeHelper, Algorithms 3.8/3.9)
    // ------------------------------------------------------------------

    fn execute_portion(&mut self, portion: DPortion, ctx: &mut Ctx<'_, FtMsg>) {
        let owner = portion.owner;
        let dest = portion.next_parent.unwrap_or(portion.top);

        // 1. Determine my slot's occupant (bypassing my ready vnode if I am
        //    a promoted representative) and plan its re-attachment. When the
        //    occupant is my own position and the destination one of my own
        //    vnodes, the occupancy is applied locally *after* my new role is
        //    installed (step 3).
        let my_slot_occupant: VRef;
        let mut local_attach = false;
        match &self.role {
            Some(r) if r.ready && r.hparent == Some(VRef::pos(owner)) => {
                let child = r.hchildren[0];
                my_slot_occupant = child;
                self.role = None;
                if child.sim == self.id {
                    // the subtree is my own position: re-attach directly
                    self.pos_parent = Some(dest);
                    local_attach = dest.sim == self.id;
                } else {
                    ctx.send(
                        child.sim,
                        FtMsg::Reattach {
                            your_end: child,
                            new_parent: dest,
                            slot: self.id,
                            replacing: Some(VRef::pos(owner)),
                        },
                    );
                }
            }
            Some(_) => {
                // Lost mail can leave me busy under a live owner: skip the
                // heal rather than overwrite my role.
                assert!(
                    ctx.faulty(),
                    "rep of a live owner must be free or ready (INV-C)"
                );
                self.settle(ctx);
                return;
            }
            None => {
                my_slot_occupant = VRef::pos(self.id);
                self.pos_parent = Some(dest);
                local_attach = dest.sim == self.id;
            }
        }
        if !local_attach && my_slot_occupant.sim == self.id && dest.sim != self.id {
            ctx.send(
                dest.sim,
                FtMsg::OccupySlot {
                    slot: self.id,
                    child: my_slot_occupant,
                    your_end: dest,
                    replacing: Some(VRef::pos(owner)),
                },
            );
        }

        // 2. Take on my duty: my assigned SubRT helper (non-heirs), or one
        //    of the heir's two modes (Algorithm 3.6).
        match portion.duty {
            // lost mail left me busy: skip the duty
            _ if self.role.is_some() => assert!(ctx.faulty(), "representative already busy"),
            Duty::Helper { hparent, children } => {
                let is_subrt_root = hparent.is_none();
                let hparent = hparent.unwrap_or(portion.top);
                let mut hchildren = InlineVec::new();
                let mut pending_slots = PendingSlots::default();
                for k in children {
                    match k {
                        PortionRef::Helper(s) => hchildren.push(VRef::helper(s)),
                        PortionRef::Slot(r) if r == self.id => {
                            // my own slot: I know the occupant locally
                            hchildren.push(my_slot_occupant);
                        }
                        PortionRef::Slot(r) => pending_slots.push(r),
                    }
                }
                self.role = Some(Box::new(DRole {
                    hparent: Some(hparent),
                    hchildren,
                    pending_slots,
                    ready: false,
                }));
                if hparent.sim != self.id {
                    ctx.send(
                        hparent.sim,
                        FtMsg::OccupySlot {
                            slot: self.id,
                            child: VRef::helper(self.id),
                            your_end: hparent,
                            // the SubRT root takes the dead owner's old place
                            // under the owner's parent vnode
                            replacing: is_subrt_root.then_some(VRef::pos(owner)),
                        },
                    );
                }
            }
            Duty::Ready { subrt_root } => {
                self.role = Some(Box::new(DRole {
                    hparent: portion.owner_parent,
                    hchildren: [subrt_root.unwrap_or(my_slot_occupant)]
                        .into_iter()
                        .collect(),
                    pending_slots: PendingSlots::default(),
                    ready: true,
                }));
                if let Some(op) = portion.owner_parent {
                    ctx.send(
                        op.sim,
                        FtMsg::ReplaceRep {
                            dead: owner,
                            new_rep: self.id,
                            your_end: op,
                        },
                    );
                }
            }
            Duty::TakeOver(mut new_role) => {
                new_role.pending_slots.clear();
                self.inherit_role(owner, new_role, ctx);
            }
        }

        // 3. Apply a deferred local occupancy (my own position under my own
        //    freshly installed helper).
        if local_attach {
            self.apply_occupy(self.id, my_slot_occupant, Some(VRef::pos(owner)), ctx);
        }
        self.settle(ctx);
    }

    /// Records `child` as the occupant of `slot` under my helper, replacing
    /// a stale entry when one is named (shared by the OccupySlot handler and
    /// local self-attachment).
    fn apply_occupy(
        &mut self,
        slot: NodeId,
        child: VRef,
        replacing: Option<VRef>,
        ctx: &Ctx<'_, FtMsg>,
    ) {
        let Some(role) = self.role.as_mut() else {
            // the helper this occupancy targets was lost with some mail
            assert!(ctx.faulty(), "{:?}: occupancy without a role", self.id);
            return;
        };
        // a pending slot's occupant is new; any other one replaces the
        // stale entry named, or is recorded once
        let known = !role.pending_slots.take(slot)
            && (replacing.is_some_and(|r| role.replace_child(r, child))
                || role.hchildren.contains(&child));
        if !known {
            role.hchildren.push(child);
        }
    }

    // ------------------------------------------------------------------
    // helper degree discipline (bypass / short-circuit, §3)
    // ------------------------------------------------------------------

    /// My helper lost child `gone`; splice or dissolve as required.
    /// `suppress` names a survivor the caller will rewire locally (its
    /// simulator is dead), so no message should be sent to it.
    fn helper_lost_child(
        &mut self,
        gone: VRef,
        suppress: Option<VRef>,
        ctx: &mut Ctx<'_, FtMsg>,
    ) -> LostChild {
        let role = self.role.as_mut().expect("helper_lost_child without role");
        let before = role.child_count();
        role.hchildren.retain(|c| *c != gone);
        // Under faults the children may not be what the protocol implies;
        // then keep the helper as it is instead of splicing it.
        if role.child_count() + 1 != before {
            assert!(
                ctx.faulty(),
                "{:?}: lost child {gone:?} was not mine",
                self.id
            );
            return LostChild::Kept;
        }
        if role.ready {
            if role.child_count() != 0 {
                assert!(ctx.faulty(), "ready vnodes have one child");
                return LostChild::Kept;
            }
            let hp = role.hparent;
            self.role = None;
            match hp {
                Some(hp) if hp.helper => ctx.send(
                    hp.sim,
                    FtMsg::SpliceChild {
                        your_end: hp,
                        gone: VRef::helper(self.id),
                        survivor: None,
                    },
                ),
                Some(hp) => ctx.send(hp.sim, FtMsg::SlotDissolved { rep: self.id }),
                None => {}
            }
            return LostChild::Dissolved;
        }
        if role.child_count() > 1 {
            return LostChild::Kept;
        }
        // redundant degree-2 helper: short-circuit myself
        let [survivor] = role.hchildren[..] else {
            assert!(ctx.faulty(), "short-circuit during instantiation");
            return LostChild::Kept;
        };
        let hp = role.hparent;
        if hp == Some(survivor) {
            // a vnode cycle only lost mail builds: the splice would make
            // the survivor its own parent
            assert!(
                ctx.faulty(),
                "{:?}: my helper's parent is its survivor",
                self.id
            );
            return LostChild::Kept;
        }
        self.role = None;
        if let Some(hp) = hp {
            ctx.send(
                hp.sim,
                FtMsg::SpliceChild {
                    your_end: hp,
                    gone: VRef::helper(self.id),
                    survivor: Some(survivor),
                },
            );
        }
        if Some(survivor) != suppress && survivor.sim != self.id {
            ctx.send(
                survivor.sim,
                FtMsg::SpliceParent {
                    your_end: survivor,
                    gone: VRef::helper(self.id),
                    new_parent: hp,
                },
            );
        } else if survivor.sim == self.id {
            // the survivor is one of my own vnodes
            self.apply_splice_parent(survivor, VRef::helper(self.id), hp);
        }
        LostChild::ShortCircuited {
            survivor,
            new_parent: hp,
        }
    }

    fn apply_splice_parent(&mut self, your_end: VRef, gone: VRef, new_parent: Option<VRef>) {
        if your_end.helper {
            if let Some(r) = &mut self.role {
                if r.hparent == Some(gone) {
                    r.hparent = new_parent;
                }
            }
        } else if self.pos_parent == Some(gone) {
            self.pos_parent = new_parent;
        }
    }

    /// Drops `rep`'s slot from my will, and the will once it is empty.
    fn remove_slot(&mut self, rep: NodeId) {
        let will = self.will.as_mut().expect("have will");
        will.shape.remove_slot(rep);
        if will.shape.is_empty() {
            self.will = None;
        }
    }

    /// Hands dead representative `dead`'s slot to `new_rep`, if my will
    /// still names `dead`.
    fn replace_rep(&mut self, dead: NodeId, new_rep: NodeId) {
        if let Some(w) = self.will.as_mut().filter(|w| w.shape.contains(dead)) {
            w.shape.replace_rep(dead, new_rep);
            map_remove(&mut self.leaf_wills, dead);
        }
    }

    /// Takes over dead `from`'s helper role verbatim, as its heir
    /// (Alg 3.6) or from its LeafWill (Alg 3.7): every other simulator
    /// adjacent to the helper learns that I simulate it now.
    fn inherit_role(&mut self, from: NodeId, role: Box<DRole>, ctx: &mut Ctx<'_, FtMsg>) {
        let new_sim = |your_end: VRef, receiver_is_parent: bool| FtMsg::NewSim {
            old: VRef::helper(from),
            new: VRef::helper(self.id),
            receiver_is_parent,
            your_end,
            ready_rep_replace: (receiver_is_parent && role.ready).then_some(from),
        };
        for &c in &role.hchildren {
            if c.sim == self.id {
                // the helper parented my own position
                self.pos_parent = Some(VRef::helper(self.id));
            } else {
                ctx.send(c.sim, new_sim(c, false));
            }
        }
        if let Some(hp) = role.hparent.filter(|hp| hp.sim != self.id) {
            ctx.send(hp.sim, new_sim(hp, true));
        }
        self.role = Some(role);
    }
}

impl Process for FtNode {
    type Msg = FtMsg;

    fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, FtMsg>) {
        // Relation: dead owned my portion — execute it (this also covers
        // "dead was my parent / my ready vnode's parent").
        if let Some(portion) = self.portion.take_if(|p| p.owner == dead) {
            self.execute_portion(portion, ctx);
            return;
        }
        let lw_entry = map_remove(&mut self.leaf_wills, dead);
        // Relation: dead was one of my will representatives.
        if self.will.as_ref().is_some_and(|w| w.shape.contains(dead)) {
            match &lw_entry {
                // plain leaf child: prune the slot
                Some(None) => self.remove_slot(dead),
                // promoted rep whose ready vnode carried only its own
                // position: the whole slot dissolves
                Some(Some(r))
                    if r.hparent == Some(VRef::pos(self.id))
                        && r.hchildren.iter().all(|c| c.sim == dead) =>
                {
                    self.remove_slot(dead)
                }
                Some(Some(_)) => assert!(
                    ctx.faulty(),
                    "a leaf directly under its live original parent cannot hold a role"
                ),
                None => {
                    // internal rep or promoted leaf rep: the heir/adopter
                    // will send ReplaceRep / NewSim shortly.
                }
            }
            self.settle(ctx);
            return;
        }
        // Relation: dead's position hung under my helper — I simulate its
        // virtual parent: splice/dissolve, then adopt its LeafWill. This
        // fires only when I hold dead's LeafWill (leaves always file one);
        // otherwise dead was internal and its SubRT root will replace the
        // position via OccupySlot.
        let pos_child = self
            .role
            .as_ref()
            .is_some_and(|r| r.hchildren.contains(&VRef::pos(dead)));
        if pos_child && lw_entry.is_some() {
            let lw = lw_entry.flatten();
            let outcome = self.helper_lost_child(
                VRef::pos(dead),
                lw.as_ref().map(|_| VRef::helper(dead)),
                ctx,
            );
            if let Some(mut lw) = lw {
                if self.role.is_some() {
                    // Lost mail can leave me holding a role the splice did
                    // not dissolve; adopting would overwrite it. Skip it.
                    assert!(
                        ctx.faulty(),
                        "{:?}: adopter must be free after the splice",
                        self.id
                    );
                } else {
                    // The adopted fields may reference my own helper, which
                    // the splice above just dissolved: rewire those
                    // references to the splice's outcome (the spec engine
                    // gets this for free from shared vnode surgery).
                    if let LostChild::ShortCircuited {
                        survivor,
                        new_parent,
                    } = outcome
                    {
                        if lw.hparent == Some(VRef::helper(self.id)) {
                            lw.hparent = new_parent;
                        }
                        for e in lw.hchildren.iter_mut() {
                            if *e == VRef::helper(self.id) {
                                *e = survivor;
                            }
                        }
                    }
                    self.inherit_role(dead, lw, ctx);
                }
            }
            self.settle(ctx);
            return;
        }
        // Relation: dead's helper hung under my helper *and* dissolves with
        // dead (its own position was among its children): splice it here.
        let helper_child = self
            .role
            .as_ref()
            .is_some_and(|r| r.hchildren.contains(&VRef::helper(dead)));
        if helper_child {
            if let Some(Some(r)) = &lw_entry {
                if r.hparent == Some(VRef::helper(self.id)) {
                    let survivors: InlineVec<VRef, 2> = r
                        .hchildren
                        .iter()
                        .copied()
                        .filter(|c| c.sim != dead)
                        .collect();
                    match *survivors {
                        [] => {
                            // dead's (ready) helper carried only dead itself
                            self.helper_lost_child(VRef::helper(dead), None, ctx);
                        }
                        // a vnode cycle only lost mail builds: the splice
                        // would make my helper its own child
                        [c] if c == VRef::helper(self.id) => assert!(
                            ctx.faulty(),
                            "{:?}: dead's helper survives as my own",
                            self.id
                        ),
                        [c] => {
                            let role = self.role.as_mut().expect("checked");
                            role.replace_child(VRef::helper(dead), c);
                            ctx.send(
                                c.sim,
                                FtMsg::SpliceParent {
                                    your_end: c,
                                    gone: VRef::helper(dead),
                                    new_parent: Some(VRef::helper(self.id)),
                                },
                            );
                        }
                        // lost mail left dead's helper with extra children
                        _ => assert!(ctx.faulty(), "helpers are binary"),
                    }
                    self.settle(ctx);
                    return;
                }
            }
            // otherwise the helper vnode survives under a new simulator:
            // its heir/adopter sends NewSim. Wait.
        }
        // Remaining relations (dead simulated my parent vnode or a
        // (grand)child helper that survives): the orchestrators reach me
        // within a round.
        self.settle(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: FtMsg, ctx: &mut Ctx<'_, FtMsg>) {
        match msg {
            // The next three change nothing `settle` reads (`portion` and
            // `leaf_wills` are consulted only when a neighbor dies), and
            // every callback ends settled, so they return unsettled.
            FtMsg::Portion(p) => {
                self.portion = Some(p);
                return;
            }
            FtMsg::LeafWill(lw) => {
                map_insert(&mut self.leaf_wills, from, lw.map(Box::new));
                return;
            }
            FtMsg::OccupySlot {
                your_end: VRef { helper: false, .. },
                ..
            } => {
                // occupant of one of my will slots announcing itself: my
                // slots are tracked by representative already; nothing
                // structural to record (edge interest suffices).
                return;
            }
            FtMsg::OccupySlot {
                slot,
                child,
                replacing,
                ..
            } => {
                self.apply_occupy(slot, child, replacing, ctx);
            }
            FtMsg::NewSim {
                old,
                new,
                receiver_is_parent,
                your_end,
                ready_rep_replace,
            } => {
                if receiver_is_parent {
                    if your_end.helper {
                        if let Some(role) = &mut self.role {
                            role.replace_child(old, new);
                        }
                    } else if let Some(dead) = ready_rep_replace {
                        self.replace_rep(dead, new.sim);
                    }
                } else {
                    if self.pos_parent == Some(old) {
                        self.pos_parent = Some(new);
                    }
                    if let Some(r) = &mut self.role {
                        if r.hparent == Some(old) {
                            r.hparent = Some(new);
                        }
                        r.replace_child(old, new);
                    }
                }
            }
            FtMsg::ReplaceRep {
                dead,
                new_rep,
                your_end,
            } => {
                if your_end.helper {
                    if let Some(role) = &mut self.role {
                        role.replace_child(VRef::pos(dead), VRef::helper(new_rep));
                    }
                } else {
                    self.replace_rep(dead, new_rep);
                }
            }
            FtMsg::SpliceChild {
                your_end,
                gone,
                survivor,
            } => {
                if !your_end.helper {
                    assert!(ctx.faulty(), "splice-child against a position end");
                } else if let Some(role) = &mut self.role {
                    match survivor {
                        Some(survivor) => {
                            role.replace_child(gone, survivor);
                        }
                        // an outright loss: re-check my own degree
                        None if role.hchildren.contains(&gone) => {
                            self.helper_lost_child(gone, None, ctx);
                        }
                        None => {}
                    }
                }
            }
            FtMsg::SpliceParent {
                your_end,
                gone,
                new_parent,
            } => self.apply_splice_parent(your_end, gone, new_parent),
            FtMsg::SlotDissolved { rep } => {
                if self.will.as_ref().is_some_and(|w| w.shape.contains(rep)) {
                    self.remove_slot(rep);
                    map_remove(&mut self.leaf_wills, rep);
                }
            }
            FtMsg::Reattach {
                your_end,
                new_parent,
                slot,
                replacing,
            } => {
                if your_end.helper {
                    if let Some(role) = &mut self.role {
                        role.hparent = Some(new_parent);
                    }
                } else {
                    self.pos_parent = Some(new_parent);
                }
                if new_parent.sim != self.id {
                    ctx.send(
                        new_parent.sim,
                        FtMsg::OccupySlot {
                            slot,
                            child: your_end,
                            your_end: new_parent,
                            replacing,
                        },
                    );
                }
            }
            FtMsg::Release => {
                if !self.wants(from) {
                    ctx.drop_edge(from);
                }
                return;
            }
        }
        self.settle(ctx);
    }
}

#[cfg(test)]
impl FtNode {
    /// Asserts that the in-place caches (`desired`, the portions sent
    /// from my will) equal a from-scratch rebuild of both from my fields,
    /// and that [`FtNode::wants`] agrees with the rebuilt interest set.
    pub(crate) fn assert_caches_fresh(&self) {
        let mut want = std::collections::BTreeSet::new();
        if let Some(p) = self.pos_parent {
            want.insert(p.sim);
        }
        if let Some(w) = self.will.as_deref() {
            want.extend(w.shape.reps());
        }
        if let Some(r) = &self.role {
            want.extend(r.hparent.map(|h| h.sim));
            want.extend(r.hchildren.iter().map(|c| c.sim));
        }
        want.remove(&self.id);
        assert!(
            self.desired.iter().eq(&want),
            "{:?}: held interests {:?} != rebuilt {want:?}",
            self.id,
            self.desired
        );
        assert!(want.iter().all(|&u| self.wants(u)) && !self.wants(self.id));
        if let Some(will) = self.will.as_deref() {
            let shape = &will.shape;
            let top = self.subrt_top(shape.heir().expect("nonempty will"));
            let rebuilt: Vec<(NodeId, DPortion)> = shape
                .reps()
                .map(|rep| {
                    let p = self.lower_portion(shape.portion(rep), top, shape.root_sim());
                    (rep, p.into_owned())
                })
                .collect();
            assert_eq!(will.sent, rebuilt, "{:?}: stale portions", self.id);
        }
    }

    /// Sets my helper role and the LeafWills filed with me (ascending by
    /// filer), as lost mail might have left them.
    pub(crate) fn force_role(&mut self, role: DRole, leaf_wills: Vec<(NodeId, Option<DRole>)>) {
        self.role = Some(Box::new(role));
        let filed = leaf_wills.into_iter().map(|(v, lw)| (v, lw.map(Box::new)));
        self.leaf_wills = filed.collect();
    }

    /// Whether one of my vnodes is its own parent, or my helper its own
    /// child.
    pub(crate) fn has_vnode_self_loop(&self) -> bool {
        let me = VRef::helper(self.id);
        self.pos_parent == Some(VRef::pos(self.id))
            || self
                .role
                .as_ref()
                .is_some_and(|r| r.hparent == Some(me) || r.hchildren.contains(&me))
    }

    /// Whether my held edge interests have outgrown their inline set.
    pub(crate) fn desired_spilled(&self) -> bool {
        self.desired.is_spilled()
    }

    /// My helper role and the roles in the LeafWills filed with me: how
    /// many there are, and how many have spilled their children to the
    /// heap.
    pub(crate) fn roles_spilled(&self) -> (usize, usize) {
        let filed = self.leaf_wills.iter().filter_map(|(_, lw)| lw.as_deref());
        let roles = self.role.as_deref().into_iter().chain(filed);
        roles.fold((0, 0), |(n, s), r| {
            (n + 1, s + usize::from(r.hchildren.is_spilled()))
        })
    }
}

/// Installs every processor's Table 1 fields and pre-distributed will in
/// one pass over `tree`. Each processor is reached through `node`, so a
/// test can wrap [`FtNode`] in a process of its own.
pub(crate) fn install_fields<P: Process>(
    net: &mut Network<P>,
    tree: &RootedTree,
    node: fn(&mut P) -> &mut FtNode,
) {
    for v in tree.nodes() {
        let ft = node(net.process_mut(v));
        ft.pos_parent = tree.parent(v).map(VRef::pos);
        let children = tree.children(v);
        if children.is_empty() {
            ft.sent_leafwill = ft.pos_parent.map(|p| (p.sim, None));
        } else {
            ft.will = Some(Box::new(Will {
                shape: SubRtShape::build(children),
                sent: Vec::with_capacity(children.len()),
            }));
            // children ascend, so the filed LeafWills do too
            ft.leaf_wills = children
                .iter()
                .filter(|&&c| tree.is_leaf(c))
                .map(|&c| (c, None))
                .collect();
        }
        ft.refresh_portions(|_, _| {});
        ft.desired = ft.interests().collect();
        // each representative has exactly one owner: install its portion
        // straight from the owner's record
        let Some(will) = ft.will.take() else {
            continue;
        };
        for (rep, p) in &will.sent {
            node(net.process_mut(*rep)).portion = Some(p.clone());
        }
        node(net.process_mut(v)).will = Some(will);
    }
}

/// Driver owning the simulated network: the Forgiving Tree engine every
/// campaign runs, and the adversary's view of the structure. [`crate::spec::ForgivingTree`] is its test oracle.
#[derive(Debug)]
pub struct DistributedForgivingTree {
    net: Network<FtNode>,
}

impl DistributedForgivingTree {
    /// Initializes processors with their Table 1 fields and pre-distributed
    /// wills (the setup phase itself is exercised and measured separately:
    /// `ft_sim::bfs` + experiment E9).
    pub fn new(tree: &RootedTree) -> Self {
        let mut net = Network::new(tree.to_graph(), FtNode::new);
        install_fields(&mut net, tree, |p| p);
        DistributedForgivingTree { net }
    }

    /// The current healed network.
    pub fn graph(&self) -> &Graph {
        self.net.graph()
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// True when all nodes are deleted.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Read access to a processor (tests/introspection).
    pub fn node(&self, v: NodeId) -> &FtNode {
        self.net.process(v)
    }

    /// Live node IDs.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.net.nodes()
    }

    /// The live node simulating the virtual root: the one whose position
    /// vnode or helper has no parent. Reads every processor's fields, as
    /// only the omniscient adversary may.
    pub fn root_sim(&self) -> Option<NodeId> {
        self.nodes().find(|&v| {
            let p = self.node(v);
            p.pos_parent.is_none() || p.role.as_ref().is_some_and(|r| r.hparent.is_none())
        })
    }

    /// The heir named in `v`'s current will, if `v` is alive and has
    /// children slots.
    pub fn heir_of(&self, v: NodeId) -> Option<NodeId> {
        self.will_of(v)?.heir()
    }

    /// Current slot representatives of `v`'s will, ascending ("children(v)"
    /// in Table 1); empty for a dead node or a leaf.
    pub fn slot_reps(&self, v: NodeId) -> Vec<NodeId> {
        self.will_of(v)
            .map(|w| w.reps().collect())
            .unwrap_or_default()
    }

    /// The will live node `v` holds, if any.
    fn will_of(&self, v: NodeId) -> Option<&SubRtShape> {
        if !self.net.graph().is_alive(v) {
            return None;
        }
        self.node(v).will.as_deref().map(|w| &w.shape)
    }

    /// The message ledger of the underlying simulator — the single source
    /// of truth for Theorem 1.3's message accounting.
    pub fn ledger(&self) -> &ft_sim::MsgLedger {
        self.net.ledger()
    }

    /// Read access to the underlying simulated network.
    pub fn network(&self) -> &Network<FtNode> {
        &self.net
    }

    /// Mutable access to the underlying network, for campaign drivers
    /// (`ft_sim::Campaign`) that batch deletions and interleave heals.
    pub fn network_mut(&mut self) -> &mut Network<FtNode> {
        &mut self.net
    }

    /// Applies one wave of deletions through a campaign driver, healing as
    /// its cadence says.
    ///
    /// # Panics
    /// Panics if a victim is dead or an event is an insertion: the tree
    /// takes deletions only.
    pub fn run_wave(&mut self, campaign: &mut Campaign, events: &[ChurnEvent]) -> WaveStats {
        campaign.run_churn_wave(&mut self.net, events, |_, _| -> FtNode {
            panic!("a tree takes no insertions")
        })
    }

    /// Deletes `v` as a one-event wave and runs the recovery phase to
    /// quiescence.
    ///
    /// # Panics
    /// Panics if `v` is dead or the protocol fails to quiesce within the
    /// O(1) round budget of 12 rounds.
    pub fn delete(&mut self, v: NodeId) -> WaveStats {
        crate::one_event_wave(12, |c| self.run_wave(c, &[ChurnEvent::Delete(v)]))
    }
}
