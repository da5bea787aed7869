//! SubRT will shapes: the prepared plan for a node's Reconstruction Tree.
//!
//! `GenerateSubRT` (Algorithm 3.5 of the paper) arranges the children of a
//! node `v` as the leaves of a balanced binary search tree, with one internal
//! "helper" position per non-heir child. [`SubRtShape`] stores that plan — it
//! is the structural part of `v`'s *will*. The paper's proceedings version
//! defers the incremental-update algorithm ("only O(1) nodes will need to
//! have their fields updated … which we defer to the full version"); this
//! module supplies it:
//!
//! - [`SubRtShape::remove_slot`] handles the death of a child: the child's
//!   leaf is removed, its (now single-child) shape parent is spliced out, and
//!   the spliced helper's simulator is relabelled onto the dead child's
//!   helper position (or becomes the new heir when the dead child was the
//!   heir — the paper's "surviving child whose helper node has just decreased
//!   in degree from 3 to 2").
//! - [`SubRtShape::replace_rep`] handles heir promotion: a dead child is
//!   replaced *in place* by its heir.
//!
//! Each touches O(1) shape positions, so only a constant number of
//! children's will portions change, whatever the number of children: the
//! O(1)-messages claim of Theorem 1.3. The tests check it by diffing
//! [`SubRtShape::all_portions`] before and after each update.
//!
//! Shapes only ever shrink, so the initial depth bound `⌈log₂ d⌉ + 1` — the
//! source of the `log Δ` factor in Theorem 1.2 — is preserved for free.

use crate::sorted::{map_get, map_insert, map_remove, map_slot};
use ft_graph::NodeId;
use std::collections::BTreeMap;

/// Index of a node inside a [`SubRtShape`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SIdx(u32);

impl SIdx {
    fn i(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum ShapeKind {
    /// A child slot; `rep` is the real node currently representing it.
    Leaf { rep: NodeId },
    /// A helper position simulated (once instantiated) by `sim`.
    Internal {
        sim: NodeId,
        left: SIdx,
        right: SIdx,
    },
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct ShapeNode {
    parent: Option<SIdx>,
    kind: ShapeKind,
}

/// Reference to a shape position as seen from a will portion: either a
/// helper position (named by its simulator) or a child slot (named by its
/// representative).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PortionRef {
    /// An internal helper position, identified by its simulating child.
    Helper(NodeId),
    /// A leaf slot, identified by its representative child.
    Slot(NodeId),
}

/// The part of a will relevant to one child: its reconstruction fields
/// (`nextparent`, `nexthparent`, `nexthchildren` of Table 1), plus whether
/// the child is the heir.
///
/// This is exactly the data transmitted to that child by `MakeWill`
/// (Algorithm 3.6); comparing portions before and after a will update yields
/// the number of update messages the owner must send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Portion {
    /// The child this portion is addressed to.
    pub rep: NodeId,
    /// Whether this child is the current heir.
    pub is_heir: bool,
    /// `nextparent`: the shape position this child's own subtree will hang
    /// from once the RT is instantiated. `None` for the heir of a
    /// single-child shape (it attaches through its ready-heir virtual node).
    pub next_parent: Option<PortionRef>,
    /// `nexthparent`: parent of this child's helper position. `None` when
    /// the helper position is the shape root (its parent is decided at heal
    /// time: the deleted node's parent or the ready heir). Absent for heirs.
    pub next_hparent: Option<Option<PortionRef>>,
    /// `nexthchildren`: the two children of this child's helper position.
    /// Absent for heirs.
    pub next_hchildren: Option<(PortionRef, PortionRef)>,
}

/// Construction-time knobs for [`SubRtShape::build_with`] — the E10
/// ablation. The paper's choice is `balanced: true`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShapeConfig {
    /// Balanced recursive halving (paper) vs a path-shaped SubRT (depth
    /// `d-1`, demonstrating why balance buys the `log Δ` in Theorem 1.2).
    pub balanced: bool,
}

impl Default for ShapeConfig {
    fn default() -> Self {
        ShapeConfig { balanced: true }
    }
}

/// The balanced-BST plan for a node's SubRT (Algorithm 3.5) with incremental
/// shrink operations.
///
/// Invariants: every internal position has exactly two children; there is
/// exactly one helper position per non-heir slot; leaf order (left to right)
/// is the sorted order of the original children, with in-place replacements.
///
/// The arena never reuses a slot: shapes only shrink, so a released slot
/// stays empty. Both indexes are vectors ascending by node ID.
#[derive(Clone, Debug)]
pub struct SubRtShape {
    nodes: Vec<Option<ShapeNode>>,
    root: Option<SIdx>,
    /// Leaf position of each slot, keyed by representative.
    leaf_of: Vec<(NodeId, SIdx)>,
    /// Helper position of each non-heir slot, keyed by simulator.
    helper_of: Vec<(NodeId, SIdx)>,
    heir: Option<NodeId>,
}

impl SubRtShape {
    /// Builds the balanced shape for children sorted ascending by ID
    /// (Algorithm 3.5). The heir is the highest-ID child and gets no helper
    /// position; every other child `c` becomes the separator helper between
    /// the leaves `≤ c` and the leaves `> c`.
    ///
    /// # Panics
    /// Panics if `children` is empty or not strictly ascending.
    pub fn build(children: &[NodeId]) -> Self {
        Self::build_with(children, ShapeConfig::default())
    }

    /// Builds a shape under an explicit [`ShapeConfig`] (the E10 ablation
    /// hook: balanced vs path-shaped SubRTs).
    ///
    /// # Panics
    /// Panics if `children` is empty or not strictly ascending.
    pub fn build_with(children: &[NodeId], config: ShapeConfig) -> Self {
        assert!(!children.is_empty(), "SubRT of a childless node");
        assert!(
            children.windows(2).all(|w| w[0] < w[1]),
            "children must be strictly ascending"
        );
        let heir = *children.last().expect("nonempty");
        let mut shape = SubRtShape {
            nodes: Vec::with_capacity(2 * children.len() - 1),
            root: None,
            leaf_of: Vec::with_capacity(children.len()),
            helper_of: Vec::with_capacity(children.len() - 1),
            heir: Some(heir),
        };
        let root = shape.build_range(children, 0, children.len(), config);
        shape.root = Some(root);
        // leaves come out left to right, so ascending; separators come out
        // in post-order
        shape.helper_of.sort_unstable_by_key(|&(sim, _)| sim);
        shape
    }

    /// Recursive construction over `children[lo..hi]`. Balanced mode splits
    /// at the middle; path mode splits off one leaf per level. The separator
    /// of a split is the maximum of the left part, keeping BST order while
    /// exempting the heir (the maximum of all) from helper duty.
    fn build_range(
        &mut self,
        children: &[NodeId],
        lo: usize,
        hi: usize,
        config: ShapeConfig,
    ) -> SIdx {
        debug_assert!(lo < hi);
        if hi - lo == 1 {
            let rep = children[lo];
            let idx = self.alloc(ShapeNode {
                parent: None,
                kind: ShapeKind::Leaf { rep },
            });
            self.leaf_of.push((rep, idx));
            return idx;
        }
        let mid = if config.balanced {
            lo + (hi - lo).div_ceil(2)
        } else {
            lo + 1 // peel leaves off the left; the heir sits rightmost
        };
        let sep = children[mid - 1];
        let left = self.build_range(children, lo, mid, config);
        let right = self.build_range(children, mid, hi, config);
        let idx = self.alloc(ShapeNode {
            parent: None,
            kind: ShapeKind::Internal {
                sim: sep,
                left,
                right,
            },
        });
        self.node_mut(left).parent = Some(idx);
        self.node_mut(right).parent = Some(idx);
        self.helper_of.push((sep, idx));
        idx
    }

    fn alloc(&mut self, node: ShapeNode) -> SIdx {
        self.nodes.push(Some(node));
        SIdx(self.nodes.len() as u32 - 1)
    }

    fn release(&mut self, idx: SIdx) {
        self.nodes[idx.i()] = None;
    }

    fn node(&self, idx: SIdx) -> &ShapeNode {
        self.nodes[idx.i()].as_ref().expect("stale shape index")
    }

    fn node_mut(&mut self, idx: SIdx) -> &mut ShapeNode {
        self.nodes[idx.i()].as_mut().expect("stale shape index")
    }

    /// Number of child slots.
    pub fn len(&self) -> usize {
        self.leaf_of.len()
    }

    /// True when no slots remain (the owner has become a leaf).
    pub fn is_empty(&self) -> bool {
        self.leaf_of.is_empty()
    }

    /// The current heir, if any slot remains.
    pub fn heir(&self) -> Option<NodeId> {
        self.heir
    }

    /// Current slot representatives in ascending ID order.
    pub fn reps(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.leaf_of.iter().map(|&(rep, _)| rep)
    }

    /// Whether `rep` currently represents a slot.
    pub fn contains(&self, rep: NodeId) -> bool {
        map_slot(&self.leaf_of, rep).is_ok()
    }

    /// The leaf position of slot `rep`.
    ///
    /// # Panics
    /// Panics if `rep` is not a slot representative.
    fn leaf(&self, rep: NodeId) -> SIdx {
        *map_get(&self.leaf_of, rep)
            .unwrap_or_else(|| panic!("{rep:?} is not a slot of this shape"))
    }

    /// The simulator of the shape root, or `None` when the root is a leaf
    /// (single-slot shape).
    pub fn root_sim(&self) -> Option<NodeId> {
        let root = self.root?;
        match &self.node(root).kind {
            ShapeKind::Leaf { .. } => None,
            ShapeKind::Internal { sim, .. } => Some(*sim),
        }
    }

    /// Depth of the shape: number of edges on the longest root-to-leaf path.
    pub fn depth(&self) -> u32 {
        fn go(s: &SubRtShape, idx: SIdx) -> u32 {
            match &s.node(idx).kind {
                ShapeKind::Leaf { .. } => 0,
                ShapeKind::Internal { left, right, .. } => 1 + go(s, *left).max(go(s, *right)),
            }
        }
        self.root.map_or(0, |r| go(self, r))
    }

    fn ref_of(&self, idx: SIdx) -> PortionRef {
        match &self.node(idx).kind {
            ShapeKind::Leaf { rep } => PortionRef::Slot(*rep),
            ShapeKind::Internal { sim, .. } => PortionRef::Helper(*sim),
        }
    }

    fn parent_ref(&self, idx: SIdx) -> Option<PortionRef> {
        self.node(idx).parent.map(|p| self.ref_of(p))
    }

    /// The will portion for child `rep` (Algorithm 3.6, structural part).
    ///
    /// # Panics
    /// Panics if `rep` is not a slot representative.
    pub fn portion(&self, rep: NodeId) -> Portion {
        let leaf = self.leaf(rep);
        let is_heir = self.heir == Some(rep);
        let helper = map_get(&self.helper_of, rep).copied();
        // nextparent: parent of the leaf — unless that parent is rep's own
        // helper, in which case skip one level up (the paper's "If hy is
        // ly's parent" rule: the edge would be a self-loop).
        let next_parent = match self.node(leaf).parent {
            None => None,
            Some(p) if helper == Some(p) => self.parent_ref(p),
            Some(p) => Some(self.ref_of(p)),
        };
        let (next_hparent, next_hchildren) = match helper {
            None => (None, None),
            Some(h) => {
                let ShapeKind::Internal { left, right, .. } = &self.node(h).kind else {
                    unreachable!("helper positions are internal")
                };
                (
                    Some(self.parent_ref(h)),
                    Some((self.ref_of(*left), self.ref_of(*right))),
                )
            }
        };
        Portion {
            rep,
            is_heir,
            next_parent,
            next_hparent,
            next_hchildren,
        }
    }

    /// All portions keyed by representative (used by tests to diff the
    /// portions an update changed).
    pub fn all_portions(&self) -> BTreeMap<NodeId, Portion> {
        self.reps().map(|r| (r, self.portion(r))).collect()
    }

    /// The *raw* shape parent of `rep`'s leaf, without the self-loop skip
    /// of [`SubRtShape::portion`]: the distributed implementation tracks
    /// true virtual parents (a node's position may hang under its own
    /// helper) and suppresses self-loops at the edge level instead.
    ///
    /// # Panics
    /// Panics if `rep` is not a slot representative.
    pub fn leaf_parent_of(&self, rep: NodeId) -> Option<PortionRef> {
        self.parent_ref(self.leaf(rep))
    }

    /// Removes the slot represented by `rep` (the child died as a tree
    /// leaf). Splices the leaf's shape parent and relabels the dead child's
    /// helper position; promotes a new heir when `rep` was the heir. This
    /// is the paper's deferred O(1) incremental will update: a constant
    /// number of children's portions change.
    ///
    /// # Panics
    /// Panics if `rep` is not a slot representative.
    pub fn remove_slot(&mut self, rep: NodeId) {
        let leaf = map_remove(&mut self.leaf_of, rep)
            .unwrap_or_else(|| panic!("{rep:?} is not a slot of this shape"));
        let Some(spliced) = self.node(leaf).parent else {
            // single-slot shape: the shape empties out
            assert_eq!(self.heir, Some(rep), "single slot must be the heir");
            self.release(leaf);
            self.root = None;
            self.heir = None;
            return;
        };
        // `spliced` is the leaf's parent: an internal position that now has
        // a single child; splice it out of the shape.
        let ShapeKind::Internal { sim, left, right } = self.node(spliced).kind.clone() else {
            unreachable!("leaf parents are internal")
        };
        let sibling = if left == leaf { right } else { left };
        let grand = self.node(spliced).parent;
        self.node_mut(sibling).parent = grand;
        match grand {
            None => self.root = Some(sibling),
            Some(g) => {
                let ShapeKind::Internal { left, right, .. } = &mut self.node_mut(g).kind else {
                    unreachable!()
                };
                if *left == spliced {
                    *left = sibling;
                } else {
                    debug_assert_eq!(*right, spliced);
                    *right = sibling;
                }
            }
        }
        self.release(leaf);
        self.release(spliced);
        let survivor = sim; // simulator of the spliced helper position
        if self.heir == Some(rep) {
            // The dead child was the heir: the survivor (whose helper just
            // vanished) becomes the new heir.
            let removed = map_remove(&mut self.helper_of, survivor);
            debug_assert_eq!(removed, Some(spliced));
            self.heir = Some(survivor);
        } else {
            // Relabel the dead child's helper position to the survivor.
            let dead_helper =
                map_remove(&mut self.helper_of, rep).expect("non-heir slots have helper positions");
            if dead_helper == spliced {
                // the dead child's helper was its own leaf's parent: both are
                // gone; the survivor is the dead child itself — nothing to
                // relabel.
                debug_assert_eq!(survivor, rep);
            } else {
                let old = map_remove(&mut self.helper_of, survivor);
                debug_assert_eq!(old, Some(spliced));
                let ShapeKind::Internal { sim, .. } = &mut self.node_mut(dead_helper).kind else {
                    unreachable!()
                };
                *sim = survivor;
                map_insert(&mut self.helper_of, survivor, dead_helper);
            }
        }
    }

    /// Replaces representative `old` by `new` in place (heir promotion after
    /// an internal-node deletion, or a ready-heir handover after a leaf
    /// deletion). `new` inherits `old`'s leaf slot, helper position and — if
    /// `old` was the heir — heir status.
    ///
    /// # Panics
    /// Panics if `old` is not a representative or `new` already is one.
    pub fn replace_rep(&mut self, old: NodeId, new: NodeId) {
        let leaf = map_remove(&mut self.leaf_of, old)
            .unwrap_or_else(|| panic!("{old:?} is not a slot of this shape"));
        assert!(!self.contains(new), "{new:?} already represents a slot");
        let ShapeKind::Leaf { rep } = &mut self.node_mut(leaf).kind else {
            unreachable!()
        };
        *rep = new;
        map_insert(&mut self.leaf_of, new, leaf);
        if self.heir == Some(old) {
            self.heir = Some(new);
        }
        if let Some(h) = map_remove(&mut self.helper_of, old) {
            let ShapeKind::Internal { sim, .. } = &mut self.node_mut(h).kind else {
                unreachable!()
            };
            *sim = new;
            map_insert(&mut self.helper_of, new, h);
        }
    }

    /// Walks the shape bottom-up: calls `on_internal(sim, left_ref,
    /// right_ref)` for every internal position in an order where children
    /// precede parents, and returns the root reference. Used to instantiate
    /// the RT at heal time.
    pub fn visit_internals<F>(&self, mut on_internal: F) -> Option<PortionRef>
    where
        F: FnMut(NodeId, PortionRef, PortionRef),
    {
        fn go<F: FnMut(NodeId, PortionRef, PortionRef)>(
            s: &SubRtShape,
            idx: SIdx,
            f: &mut F,
        ) -> PortionRef {
            match &s.node(idx).kind {
                ShapeKind::Leaf { rep } => PortionRef::Slot(*rep),
                ShapeKind::Internal { sim, left, right } => {
                    let l = go(s, *left, f);
                    let r = go(s, *right, f);
                    f(*sim, l, r);
                    PortionRef::Helper(*sim)
                }
            }
        }
        self.root.map(|r| go(self, r, &mut on_internal))
    }

    /// Validates internal consistency (arena links, maps, heir bookkeeping).
    ///
    /// # Panics
    /// Panics on violation; used by tests and the spec engine's invariant
    /// checker.
    pub fn validate(&self) {
        match self.root {
            None => {
                assert!(self.leaf_of.is_empty() && self.helper_of.is_empty());
                assert_eq!(self.heir, None);
                return;
            }
            Some(root) => {
                assert_eq!(self.node(root).parent, None, "root has a parent");
            }
        }
        let heir = self.heir.expect("nonempty shape has an heir");
        assert!(self.contains(heir), "heir is not a slot");
        assert!(
            map_slot(&self.helper_of, heir).is_err(),
            "heir has a helper"
        );
        for index in [&self.leaf_of, &self.helper_of] {
            assert!(
                index.windows(2).all(|w| w[0].0 < w[1].0),
                "index not strictly ascending"
            );
        }
        assert_eq!(
            self.helper_of.len() + 1,
            self.leaf_of.len(),
            "one helper per non-heir slot"
        );
        for &(rep, leaf) in &self.leaf_of {
            match &self.node(leaf).kind {
                ShapeKind::Leaf { rep: r } => assert_eq!(*r, rep),
                _ => panic!("leaf_of points at internal node"),
            }
        }
        for &(sim, h) in &self.helper_of {
            match &self.node(h).kind {
                ShapeKind::Internal { sim: s, .. } => assert_eq!(*s, sim),
                _ => panic!("helper_of points at leaf"),
            }
        }
        // parent/child link symmetry and reachability
        let mut seen = 0usize;
        let mut stack = vec![self.root.expect("checked")];
        while let Some(idx) = stack.pop() {
            seen += 1;
            if let ShapeKind::Internal { left, right, .. } = &self.node(idx).kind {
                assert_eq!(self.node(*left).parent, Some(idx));
                assert_eq!(self.node(*right).parent, Some(idx));
                stack.push(*left);
                stack.push(*right);
            }
        }
        assert_eq!(
            seen,
            self.leaf_of.len() + self.helper_of.len(),
            "arena leak or orphan"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| n(i)).collect()
    }

    #[test]
    fn build_two_children() {
        let s = SubRtShape::build(&ids(&[1, 2]));
        s.validate();
        assert_eq!(s.heir(), Some(n(2)));
        assert_eq!(s.root_sim(), Some(n(1)));
        assert_eq!(s.depth(), 1);
        let p1 = s.portion(n(1));
        // child 1's helper is its own leaf parent: nextparent skips to the
        // helper's parent (the root has none => attaches at the top).
        assert_eq!(p1.next_parent, None);
        assert_eq!(p1.next_hparent, Some(None));
        assert_eq!(
            p1.next_hchildren,
            Some((PortionRef::Slot(n(1)), PortionRef::Slot(n(2))))
        );
        let p2 = s.portion(n(2));
        assert!(p2.is_heir);
        assert_eq!(p2.next_parent, Some(PortionRef::Helper(n(1))));
    }

    #[test]
    fn build_single_child() {
        let s = SubRtShape::build(&ids(&[5]));
        s.validate();
        assert_eq!(s.heir(), Some(n(5)));
        assert_eq!(s.root_sim(), None);
        assert_eq!(s.depth(), 0);
        let p = s.portion(n(5));
        assert!(p.is_heir);
        assert_eq!(p.next_parent, None);
        assert_eq!(p.next_hparent, None);
    }

    #[test]
    fn build_is_balanced_and_bst_ordered() {
        for d in 1..=40usize {
            let children: Vec<NodeId> = (0..d as u32).map(n).collect();
            let s = SubRtShape::build(&children);
            s.validate();
            let max_depth = (d as f64).log2().ceil() as u32 + 1;
            assert!(
                s.depth() <= max_depth,
                "d={d}: depth {} > {max_depth}",
                s.depth()
            );
            assert_eq!(s.heir(), Some(n(d as u32 - 1)));
            assert_eq!(s.len(), d);
        }
    }

    #[test]
    fn paper_figure_1_example() {
        // Figure 1: v has children a..h (8 children); the heir (max ID, "h")
        // simulates the node above the SubRT root; the other 7 get helpers.
        let children: Vec<NodeId> = (1..=8).map(n).collect();
        let s = SubRtShape::build(&children);
        assert_eq!(s.len(), 8);
        assert_eq!(s.heir(), Some(n(8)));
        assert_eq!(s.depth(), 3); // perfectly balanced over 8 leaves
        assert_eq!(s.root_sim(), Some(n(4))); // separator of halves {1..4},{5..8}
    }

    #[test]
    fn portions_reference_separators() {
        let s = SubRtShape::build(&ids(&[1, 2, 3, 4]));
        // shape: root h2 {h1 {l1, l2}, h3 {l3, l4}}
        assert_eq!(s.root_sim(), Some(n(2)));
        let p3 = s.portion(n(3));
        assert_eq!(
            p3.next_parent,
            Some(PortionRef::Helper(n(3))).map(|_| {
                // 3's helper h3 is l3's parent: skip to h3's parent = root h2
                PortionRef::Helper(n(2))
            })
        );
        assert_eq!(p3.next_hparent, Some(Some(PortionRef::Helper(n(2)))));
        assert_eq!(
            p3.next_hchildren,
            Some((PortionRef::Slot(n(3)), PortionRef::Slot(n(4))))
        );
        let p4 = s.portion(n(4));
        assert!(p4.is_heir);
        assert_eq!(p4.next_parent, Some(PortionRef::Helper(n(3))));
    }

    /// The representatives whose portion differs between `before` and the
    /// validated shape `after` — the owner's update messages. A removed
    /// representative gets none; a new one always gets one.
    fn changed_portions(before: &BTreeMap<NodeId, Portion>, after: &SubRtShape) -> Vec<NodeId> {
        after.validate();
        after
            .all_portions()
            .into_iter()
            .filter(|(rep, portion)| before.get(rep) != Some(portion))
            .map(|(rep, _)| rep)
            .collect()
    }

    #[test]
    fn remove_slot_deltas_match_portion_diffs() {
        for d in 2..=12usize {
            for kill in 0..d {
                let children: Vec<NodeId> = (0..d as u32).map(n).collect();
                let mut s = SubRtShape::build(&children);
                let before = s.all_portions();
                let heir = s.heir();
                s.remove_slot(n(kill as u32));
                let changed = changed_portions(&before, &s);
                assert!(
                    changed.len() <= 6,
                    "d={d} kill={kill}: {changed:?} portions changed"
                );
                assert_eq!(s.len(), d - 1);
                assert!(!s.contains(n(kill as u32)));
                if heir != Some(n(kill as u32)) {
                    assert_eq!(s.heir(), heir, "a non-heir death keeps the heir");
                }
                // the heir's portion says so, and no other portion does
                let heirs: Vec<NodeId> = s
                    .all_portions()
                    .into_iter()
                    .filter(|(_, p)| p.is_heir)
                    .map(|(rep, _)| rep)
                    .collect();
                assert_eq!(heirs, s.heir().into_iter().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn remove_heir_promotes_survivor() {
        let mut s = SubRtShape::build(&ids(&[1, 2, 3, 4]));
        let before = s.all_portions();
        s.remove_slot(n(4));
        // heir 4's leaf parent was h3; 3 loses its helper and becomes heir
        assert_eq!(s.heir(), Some(n(3)));
        let changed = changed_portions(&before, &s);
        assert!(changed.contains(&n(3)), "the new heir is told: {changed:?}");
        let p3 = s.portion(n(3));
        assert!(p3.is_heir);
        assert_eq!(p3.next_hchildren, None, "an heir has no helper position");
    }

    #[test]
    fn remove_until_empty() {
        let mut s = SubRtShape::build(&ids(&[1, 2, 3, 4, 5]));
        for k in [3u32, 1, 5, 2, 4] {
            assert!(s.contains(n(k)));
            s.remove_slot(n(k));
            s.validate();
        }
        assert!(s.is_empty());
        assert_eq!(s.heir(), None);
    }

    #[test]
    fn remove_slot_changed_sets_are_constant_size() {
        // the O(1) claim: changed sets stay small as d grows
        for d in [8usize, 64, 256] {
            let children: Vec<NodeId> = (0..d as u32).map(n).collect();
            let mut s = SubRtShape::build(&children);
            let before = s.all_portions();
            s.remove_slot(n((d / 2) as u32));
            let changed = changed_portions(&before, &s);
            assert!(
                changed.len() <= 6,
                "d={d}: {} portions changed",
                changed.len()
            );
        }
    }

    #[test]
    fn replace_rep_deltas_match_portion_diffs() {
        for d in 1..=10usize {
            for swap in 0..d {
                let children: Vec<NodeId> = (0..d as u32).map(n).collect();
                let mut s = SubRtShape::build(&children);
                let before = s.all_portions();
                let old = n(swap as u32);
                let new = n(100 + swap as u32);
                s.replace_rep(old, new);
                let changed = changed_portions(&before, &s);
                assert!(changed.contains(&new), "the new rep gets its portion");
                assert!(
                    changed.len() <= 6,
                    "d={d} swap={swap}: {changed:?} portions changed"
                );
                assert!(s.contains(new) && !s.contains(old));
                assert_eq!(s.len(), d);
            }
        }
    }

    #[test]
    fn replace_rep_carries_heir_status() {
        let mut s = SubRtShape::build(&ids(&[1, 2, 3]));
        s.replace_rep(n(3), n(9));
        assert_eq!(s.heir(), Some(n(9)));
        assert!(s.portion(n(9)).is_heir);
        s.validate();
        // a non-heir replacement leaves the heir alone
        s.replace_rep(n(1), n(7));
        assert_eq!(s.heir(), Some(n(9)));
        assert!(!s.portion(n(7)).is_heir);
        s.validate();
    }

    #[test]
    fn depth_never_grows_under_removals() {
        let children: Vec<NodeId> = (0..33u32).map(n).collect();
        let mut s = SubRtShape::build(&children);
        let mut depth = s.depth();
        for k in (0..33u32).rev().step_by(2) {
            s.remove_slot(n(k));
            assert!(s.depth() <= depth, "depth grew");
            depth = s.depth();
        }
    }

    #[test]
    fn visit_internals_bottom_up() {
        let s = SubRtShape::build(&ids(&[1, 2, 3, 4]));
        let mut order = Vec::new();
        let root = s.visit_internals(|sim, l, r| {
            order.push((sim, l, r));
        });
        assert_eq!(root, Some(PortionRef::Helper(n(2))));
        assert_eq!(order.len(), 3);
        // root (sim 2) must come last
        assert_eq!(order.last().expect("nonempty").0, n(2));
    }

    #[test]
    #[should_panic(expected = "not a slot")]
    fn remove_unknown_slot_panics() {
        let mut s = SubRtShape::build(&ids(&[1, 2]));
        s.remove_slot(n(7));
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn path_shape_has_linear_depth() {
        for d in 2..=20usize {
            let children: Vec<NodeId> = (0..d as u32).map(n).collect();
            let s = SubRtShape::build_with(&children, ShapeConfig { balanced: false });
            s.validate();
            assert_eq!(s.depth(), d as u32 - 1, "path shape depth is d-1");
            assert_eq!(s.heir(), Some(n(d as u32 - 1)));
        }
    }

    #[test]
    fn incremental_ops_work_on_all_configs() {
        for balanced in [true, false] {
            let cfg = ShapeConfig { balanced };
            let children: Vec<NodeId> = (0..9u32).map(n).collect();
            let mut s = SubRtShape::build_with(&children, cfg);
            for k in [4u32, 0, 8, 2, 6, 1, 7, 3, 5] {
                if s.contains(n(k)) {
                    s.remove_slot(n(k));
                    s.validate();
                }
            }
            assert!(s.is_empty(), "{cfg:?}");
        }
    }

    #[test]
    fn depth_never_grows_on_path_shapes_either() {
        let children: Vec<NodeId> = (0..16u32).map(n).collect();
        let mut s = SubRtShape::build_with(&children, ShapeConfig { balanced: false });
        let mut depth = s.depth();
        for k in 0..15u32 {
            s.remove_slot(n(k));
            assert!(s.depth() <= depth);
            depth = s.depth();
        }
    }
}
