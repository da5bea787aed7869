//! Arena of virtual nodes.
//!
//! The healed structure is, conceptually, a tree over *virtual nodes*: the
//! surviving real nodes plus the helper nodes of instantiated Reconstruction
//! Trees (§3: "we think of it as being replaced by a balanced binary tree of
//! virtual nodes"). Each helper is *simulated* by a real node; the real
//! network is the homomorphic image of this virtual tree. [`VArena`] stores
//! the virtual tree; the spec engine keeps the image in sync.

use ft_graph::NodeId;

/// Index of a virtual node in a [`VArena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VId(u32);

impl VId {
    fn i(self) -> usize {
        self.0 as usize
    }
}

/// What a virtual node is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VKind {
    /// A surviving real node, simulated by itself.
    Real(NodeId),
    /// A helper node simulated by `sim`. `ready` marks a ready-state heir
    /// (degree-2 virtual node awaiting deployment, §3.1.2 / Figure 3).
    Helper {
        /// The real node currently simulating this helper.
        sim: NodeId,
        /// Ready-heir state: exactly one virtual child.
        ready: bool,
    },
}

/// One virtual node: kind plus tree links.
#[derive(Clone, Debug)]
pub struct VNode {
    /// Real or helper.
    pub kind: VKind,
    /// Parent in the virtual tree.
    pub parent: Option<VId>,
    /// Children in the virtual tree (order is not semantically meaningful).
    pub children: Vec<VId>,
}

/// Slab arena of virtual nodes with free-list reuse.
#[derive(Clone, Debug, Default)]
pub struct VArena {
    nodes: Vec<Option<VNode>>,
    free: Vec<VId>,
    live: usize,
}

impl VArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live virtual nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no virtual nodes exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocates a parentless, childless virtual node.
    pub fn alloc(&mut self, kind: VKind) -> VId {
        self.live += 1;
        let node = VNode {
            kind,
            parent: None,
            children: Vec::new(),
        };
        if let Some(id) = self.free.pop() {
            self.nodes[id.i()] = Some(node);
            id
        } else {
            self.nodes.push(Some(node));
            VId(self.nodes.len() as u32 - 1)
        }
    }

    /// Frees a virtual node.
    ///
    /// # Panics
    /// Panics if the node still has a parent or children (callers must
    /// unlink first — catching splice bugs early), or on double free.
    pub fn release(&mut self, id: VId) {
        let node = self.nodes[id.i()].take().expect("double free of vnode");
        assert!(
            node.parent.is_none(),
            "released vnode still linked to parent"
        );
        assert!(
            node.children.is_empty(),
            "released vnode still has children"
        );
        self.free.push(id);
        self.live -= 1;
    }

    /// Immutable access.
    ///
    /// # Panics
    /// Panics on stale IDs.
    pub fn node(&self, id: VId) -> &VNode {
        self.nodes[id.i()].as_ref().expect("stale vnode id")
    }

    /// Mutable access.
    ///
    /// # Panics
    /// Panics on stale IDs.
    pub fn node_mut(&mut self, id: VId) -> &mut VNode {
        self.nodes[id.i()].as_mut().expect("stale vnode id")
    }

    /// Whether `id` currently refers to a live virtual node.
    #[cfg(test)]
    pub fn is_live(&self, id: VId) -> bool {
        id.i() < self.nodes.len() && self.nodes[id.i()].is_some()
    }

    /// The real node simulating `id` (a real node simulates itself).
    pub fn sim(&self, id: VId) -> NodeId {
        match self.node(id).kind {
            VKind::Real(v) => v,
            VKind::Helper { sim, .. } => sim,
        }
    }

    /// Whether `id` is a ready-state heir helper.
    pub fn is_ready(&self, id: VId) -> bool {
        matches!(self.node(id).kind, VKind::Helper { ready: true, .. })
    }

    /// Whether `id` is a helper (ready or deployed).
    pub fn is_helper(&self, id: VId) -> bool {
        matches!(self.node(id).kind, VKind::Helper { .. })
    }

    /// Links `child` under `parent` (pure structure; no image bookkeeping).
    ///
    /// # Panics
    /// Panics if `child` already has a parent.
    pub fn link(&mut self, parent: VId, child: VId) {
        assert!(
            self.node(child).parent.is_none(),
            "vnode already has a parent"
        );
        self.node_mut(child).parent = Some(parent);
        self.node_mut(parent).children.push(child);
    }

    /// Unlinks `child` from `parent`.
    ///
    /// # Panics
    /// Panics if the edge does not exist.
    pub fn unlink(&mut self, parent: VId, child: VId) {
        assert_eq!(self.node(child).parent, Some(parent), "unlink of non-edge");
        self.node_mut(child).parent = None;
        let kids = &mut self.node_mut(parent).children;
        let pos = kids
            .iter()
            .position(|&c| c == child)
            .expect("child missing from parent's list");
        kids.swap_remove(pos);
    }

    /// All live virtual node IDs (ascending slab order).
    pub fn ids(&self) -> impl Iterator<Item = VId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_some())
            .map(|(i, _)| VId(i as u32))
    }

    /// Virtual edges `(parent, child)` over live nodes.
    pub fn vedges(&self) -> Vec<(VId, VId)> {
        let mut out = Vec::new();
        for id in self.ids() {
            for &c in &self.node(id).children {
                out.push((id, c));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn alloc_link_unlink_release() {
        let mut a = VArena::new();
        let r = a.alloc(VKind::Real(n(1)));
        let h = a.alloc(VKind::Helper {
            sim: n(2),
            ready: true,
        });
        a.link(r, h);
        assert_eq!(a.node(h).parent, Some(r));
        assert_eq!(a.node(r).children, vec![h]);
        assert_eq!(a.sim(h), n(2));
        assert_eq!(a.sim(r), n(1));
        assert!(a.is_ready(h));
        assert!(!a.is_helper(r));
        a.unlink(r, h);
        a.release(h);
        a.release(r);
        assert!(a.is_empty());
    }

    #[test]
    fn free_list_reuse() {
        let mut a = VArena::new();
        let x = a.alloc(VKind::Real(n(0)));
        a.release(x);
        let y = a.alloc(VKind::Real(n(1)));
        assert_eq!(x, y, "slot reused");
        assert_eq!(a.len(), 1);
        assert!(a.is_live(y));
    }

    #[test]
    #[should_panic(expected = "still linked")]
    fn release_linked_panics() {
        let mut a = VArena::new();
        let r = a.alloc(VKind::Real(n(1)));
        let h = a.alloc(VKind::Helper {
            sim: n(2),
            ready: false,
        });
        a.link(r, h);
        a.release(h);
    }

    #[test]
    #[should_panic(expected = "non-edge")]
    fn unlink_non_edge_panics() {
        let mut a = VArena::new();
        let r = a.alloc(VKind::Real(n(1)));
        let h = a.alloc(VKind::Real(n(2)));
        a.unlink(r, h);
    }

    #[test]
    fn vedges_enumerates_links() {
        let mut a = VArena::new();
        let r = a.alloc(VKind::Real(n(0)));
        let c1 = a.alloc(VKind::Real(n(1)));
        let c2 = a.alloc(VKind::Real(n(2)));
        a.link(r, c1);
        a.link(r, c2);
        let mut e = a.vedges();
        e.sort();
        assert_eq!(e, vec![(r, c1), (r, c2)]);
    }
}
