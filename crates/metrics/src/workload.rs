//! Named workload generators for sweeps.
//!
//! A [`Workload`] names a topology family at a target size; experiments
//! iterate `Workload::suite(n)` so every table row says which family it
//! came from. Families are chosen to stress the paper's parameters `D`
//! (diameter) and `Δ` (max degree) in opposite directions — see
//! `ft_graph::gen` for the rationale per family.

use ft_graph::tree::RootedTree;
use ft_graph::{gen, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named topology family at a given size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Path of `n` nodes (max D, min Δ).
    Path(usize),
    /// Star `K_{1,n-1}` (min D, max Δ — the Theorem 2 construction).
    Star(usize),
    /// Complete `k`-ary tree of `n` nodes.
    Kary(usize, usize),
    /// Caterpillar: spine × legs.
    Caterpillar(usize, usize),
    /// Broom: handle + bristles.
    Broom(usize, usize),
    /// Uniform random labelled tree (seeded).
    RandomTree(usize, u64),
    /// Preferential-attachment tree (seeded): power-law-ish degrees.
    PrefTree(usize, u64),
}

impl Workload {
    /// The family name for table rows.
    pub fn name(&self) -> String {
        match self {
            Workload::Path(n) => format!("path/{n}"),
            Workload::Star(n) => format!("star/{n}"),
            Workload::Kary(n, k) => format!("kary{k}/{n}"),
            Workload::Caterpillar(s, l) => format!("caterpillar/{s}x{l}"),
            Workload::Broom(h, b) => format!("broom/{h}+{b}"),
            Workload::RandomTree(n, s) => format!("random-tree/{n}#{s}"),
            Workload::PrefTree(n, s) => format!("pref-tree/{n}#{s}"),
        }
    }

    /// The node count; `None` when it overflows a `usize`.
    pub fn nodes(&self) -> Option<usize> {
        match *self {
            Workload::Caterpillar(spine, legs) => spine.checked_mul(legs.checked_add(1)?),
            Workload::Broom(handle, bristles) => handle.checked_add(bristles),
            Workload::Path(n)
            | Workload::Star(n)
            | Workload::Kary(n, _)
            | Workload::RandomTree(n, _)
            | Workload::PrefTree(n, _) => Some(n),
        }
    }

    /// Materializes the tree graph.
    pub fn graph(&self) -> Graph {
        match *self {
            Workload::Path(n) => gen::path(n),
            Workload::Star(n) => gen::star(n),
            Workload::Kary(n, k) => gen::kary_tree(n, k),
            Workload::Caterpillar(s, l) => gen::caterpillar(s, l),
            Workload::Broom(h, b) => gen::broom(h, b),
            Workload::RandomTree(n, seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                gen::random_tree(n, &mut rng)
            }
            Workload::PrefTree(n, seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                gen::random_attachment_tree(n, &mut rng)
            }
        }
    }

    /// The rooted tree (root 0) handed to tree-based healers.
    pub fn tree(&self) -> RootedTree {
        RootedTree::from_tree_graph(&self.graph(), NodeId(0))
    }

    /// The standard sweep at roughly `n` nodes.
    pub fn suite(n: usize) -> Vec<Workload> {
        vec![
            Workload::Path(n),
            Workload::Star(n),
            Workload::Kary(n, 2),
            Workload::Kary(n, 4),
            Workload::Kary(n, 16),
            Workload::Caterpillar(n / 4, 3),
            Workload::Broom(n / 2, n / 2),
            Workload::RandomTree(n, 1),
            Workload::PrefTree(n, 1),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suite_workloads_are_trees() {
        for w in Workload::suite(64) {
            let g = w.graph();
            assert!(g.is_connected(), "{} disconnected", w.name());
            assert_eq!(g.num_edges() + 1, g.len(), "{} is not a tree", w.name());
            let t = w.tree();
            assert_eq!(t.len(), g.len());
            assert_eq!(w.nodes(), Some(g.len()), "{} counts its nodes", w.name());
        }
    }

    #[test]
    fn overflowing_node_counts_are_none() {
        assert_eq!(Workload::Caterpillar(3, usize::MAX).nodes(), None);
        assert_eq!(Workload::Caterpillar(2, usize::MAX / 2).nodes(), None);
        assert_eq!(Workload::Broom(2, usize::MAX).nodes(), None);
        assert_eq!(Workload::Caterpillar(3, 4).nodes(), Some(15));
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::BTreeSet<String> =
            Workload::suite(32).iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), Workload::suite(32).len());
    }

    #[test]
    fn seeded_workloads_are_deterministic() {
        let a = Workload::RandomTree(30, 9).graph();
        let b = Workload::RandomTree(30, 9).graph();
        assert_eq!(a, b);
    }
}
