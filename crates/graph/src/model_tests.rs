//! [`Graph`] against a `BTreeMap<NodeId, BTreeSet<NodeId>>` reference
//! model under random edit sequences, with two hubs driven past the inline
//! adjacency capacity and back below it. Each hub's neighbour set is also
//! mirrored in a standalone [`SortedIds`] through its public API.

use super::sorted_ids::INLINE;
use super::{Graph, NodeId, SortedIds};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

type Model = BTreeMap<NodeId, BTreeSet<NodeId>>;

#[test]
fn adjacency_layout_is_pinned() {
    // a spilled Vec (24 B) plus the tag: the inline IDs fill the rest
    assert_eq!(std::mem::size_of::<SortedIds>(), 32);
}

#[test]
fn debug_prints_live_neighbor_lists_only() {
    let mut g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
    g.delete_node(NodeId(3));
    assert_eq!(format!("{g:?}"), "Graph {n0: [n1], n1: [n0, n2], n2: [n1]}");
}

/// Every observable of `g` against the model.
fn check(g: &Graph, model: &Model) {
    assert_eq!(g.len(), model.len());
    assert_eq!(g.is_empty(), model.is_empty());
    assert_eq!(
        g.num_edges(),
        model.values().map(BTreeSet::len).sum::<usize>() / 2
    );
    assert!(g.nodes().eq(model.keys().copied()));
    let cap = g.capacity() as u32;
    for v in (0..cap).map(NodeId) {
        let want = model.get(&v);
        assert_eq!(g.is_alive(v), want.is_some(), "{v:?}");
        assert!(
            g.neighbors(v).eq(want.into_iter().flatten().copied()),
            "{v:?}: {:?} vs {want:?}",
            g.neighbors(v).collect::<Vec<_>>()
        );
        assert_eq!(g.degree(v), want.map_or(0, BTreeSet::len), "{v:?}");
        for u in (0..=cap).map(NodeId) {
            let edge = want.is_some_and(|set| set.contains(&u));
            assert_eq!(g.has_edge(v, u), edge, "{v:?}-{u:?}");
        }
    }
    let edges: Vec<(NodeId, NodeId)> = model
        .iter()
        .flat_map(|(&v, set)| set.range(v..).map(move |&u| (v, u)))
        .collect();
    assert_eq!(g.edges(), edges);
    assert_eq!(g.is_connected(), model_connected(model));
    assert_eq!(g.clone(), *g);
}

/// Whether the model's live nodes form one component.
fn model_connected(model: &Model) -> bool {
    let Some(&start) = model.keys().next() else {
        return true;
    };
    let mut seen = BTreeSet::from([start]);
    let mut stack = vec![start];
    while let Some(v) = stack.pop() {
        for &u in &model[&v] {
            if seen.insert(u) {
                stack.push(u);
            }
        }
    }
    seen.len() == model.len()
}

/// One hub's hand-kept [`SortedIds`] against its model set: the same IDs,
/// spilled exactly when it has ever held more than [`INLINE`], equal to
/// any set built from the same IDs, and truncated to a prefix.
fn check_mirror(set: &SortedIds, want: Option<&BTreeSet<NodeId>>, step: usize, peak: &mut usize) {
    assert!(
        set.iter().eq(want.into_iter().flatten()),
        "{set:?} vs {want:?}"
    );
    *peak = (*peak).max(set.len());
    assert_eq!(set.is_spilled(), *peak > INLINE, "{set:?}");
    for u in (0..24).map(NodeId) {
        assert_eq!(set.contains(&u), want.is_some_and(|w| w.contains(&u)));
    }
    let rebuilt: SortedIds = set.iter().rev().chain(set.iter()).copied().collect();
    assert_eq!(rebuilt, *set, "equality ignores where the IDs are stored");
    assert_eq!(rebuilt.is_spilled(), set.len() > INLINE);
    let k = step % (set.len() + 2);
    let mut cut = set.clone();
    cut.truncate(k);
    assert!(
        cut.iter().eq(set.iter().take(k)),
        "truncate({k}) of {set:?}"
    );
    assert_eq!(cut.is_spilled(), set.is_spilled());
}

/// The hubs of [`run`].
const HUBS: [NodeId; 2] = [NodeId(0), NodeId(1)];

/// Runs `steps` random edits on `n` nodes. Nodes 0 and 1 are hubs: most
/// edits touch one of them and some join the two. Each hub's edits are
/// mostly adds until its list spills past [`INLINE`], then mostly removals
/// until it is back below, so it crosses the inline capacity both ways.
fn run(n: usize, steps: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut model: Model = (0..n as u32)
        .map(|i| (NodeId(i), BTreeSet::new()))
        .collect();
    let mut nbrs = Vec::new();
    // per hub: whether adds dominate, and whether its degree was seen above
    // the inline capacity and, after that, back within it
    let mut growing = [true; HUBS.len()];
    let mut crossed = [(false, false); HUBS.len()];
    // per hub: its neighbour set kept by hand, and the largest size it had
    let mut mirrors = [SortedIds::new(), SortedIds::new()];
    let mut peaks = [0; HUBS.len()];
    for step in 0..steps {
        let live: Vec<NodeId> = model.keys().copied().collect();
        let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
        let hub = |rng: &mut StdRng| {
            let h = HUBS[rng.gen_range(0..HUBS.len())];
            if model.contains_key(&h) && rng.gen_bool(0.9) {
                h
            } else {
                pick(rng)
            }
        };
        match rng.gen_range(0..100) {
            _ if live.len() < 2 => {
                let v = g.add_node();
                model.insert(v, BTreeSet::new());
            }
            // a deletion becomes an insertion while fewer than `n` nodes are
            // live, so the hubs always have enough nodes to spill over
            r if r < 2 || (r < 4 && live.len() < n) => {
                let v = g.add_node();
                assert_eq!(v.index(), g.capacity() - 1);
                model.insert(v, BTreeSet::new());
            }
            // the hubs outlive the first three quarters of the run
            r if r < 4 => {
                let v = match pick(&mut rng) {
                    v if HUBS.contains(&v) && step < steps * 3 / 4 => *live.last().unwrap(),
                    v => v,
                };
                g.delete_node_into(v, &mut nbrs);
                let want = model.remove(&v).unwrap();
                for (&h, set) in HUBS.iter().zip(&mut mirrors) {
                    if h == v {
                        set.truncate(0);
                    } else {
                        assert_eq!(set.remove(v), want.contains(&h));
                    }
                }
                assert!(nbrs.iter().copied().eq(want.iter().copied()));
                for u in &want {
                    model.get_mut(u).unwrap().remove(&v);
                }
            }
            r => {
                let a = hub(&mut rng);
                let grow = match HUBS.iter().position(|&h| h == a) {
                    Some(i) => growing[i],
                    None => rng.gen_bool(0.5),
                };
                if (r < 85) == grow {
                    let b = if rng.gen_bool(0.2) {
                        hub(&mut rng)
                    } else {
                        pick(&mut rng)
                    };
                    if a != b {
                        let new = model.get_mut(&a).unwrap().insert(b);
                        model.get_mut(&b).unwrap().insert(a);
                        assert_eq!(g.add_edge(a, b), new);
                        for (&h, set) in HUBS.iter().zip(&mut mirrors) {
                            for (x, y) in [(a, b), (b, a)] {
                                if x == h {
                                    assert_eq!(set.insert(y), new);
                                }
                            }
                        }
                    }
                } else {
                    let set = &model[&a];
                    let b = match set.iter().nth(rng.gen_range(0..set.len().max(1))) {
                        Some(&b) if rng.gen_bool(0.9) => b,
                        _ => NodeId(rng.gen_range(0..g.capacity() as u32 + 1)),
                    };
                    let had = model.get_mut(&a).unwrap().remove(&b);
                    if had {
                        model.get_mut(&b).unwrap().remove(&a);
                    }
                    assert_eq!(g.remove_edge(a, b), had);
                    for (&h, set) in HUBS.iter().zip(&mut mirrors) {
                        for (x, y) in [(a, b), (b, a)] {
                            if x == h {
                                assert_eq!(set.remove(y), had);
                            }
                        }
                    }
                }
            }
        }
        check(&g, &model);
        for ((h, set), peak) in HUBS.iter().zip(&mirrors).zip(&mut peaks) {
            check_mirror(set, model.get(h), step, peak);
        }
        for (i, &h) in HUBS.iter().enumerate() {
            let d = g.degree(h);
            if d > INLINE {
                growing[i] = false;
                crossed[i].0 = true;
            } else if d < INLINE {
                growing[i] = true;
                crossed[i].1 |= crossed[i].0;
            }
        }
        // equality ignores dead slots past either capacity, not live ones
        let mut h = g.clone();
        let grown: Vec<NodeId> = (0..64).map(|_| h.add_node()).collect();
        for v in grown {
            assert_ne!(h, g, "{v:?} and up are live in one only");
            assert_ne!(g, h);
            h.delete_node(v);
        }
        assert_eq!(h, g);
        assert_eq!(g, h);
        // and sees a single edge flip
        if let Some((&v, set)) = model.iter().find(|(_, set)| !set.is_empty()) {
            let mut h = g.clone();
            h.remove_edge(v, *set.iter().next().unwrap());
            assert_ne!(h, g);
        }
    }
    if n >= 12 {
        for (h, (spilled, shrunk)) in HUBS.iter().zip(crossed) {
            assert!(
                spilled && shrunk,
                "n = {n}: {h:?} never crossed {INLINE} both ways"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graph_matches_the_model(n in 2usize..24, seed in 0u64..100_000) {
        run(n, 240, seed);
    }
}

#[test]
fn hubs_cross_the_inline_capacity_both_ways() {
    // one hub, grown past the inline capacity, emptied, then deleted
    let mut g = Graph::new(20);
    for u in 1..20 {
        g.add_edge(NodeId(0), NodeId(u));
        assert_eq!(g.degree(NodeId(0)), u as usize);
    }
    assert!(g.adj[0].is_spilled());
    for u in (1..20).rev() {
        g.remove_edge(NodeId(0), NodeId(u));
        assert!(g.neighbors(NodeId(0)).map(|v| v.0).eq(1..u));
    }
    assert_eq!(g.num_edges(), 0);
    g.add_edge(NodeId(0), NodeId(5));
    let before = g.clone();
    g.delete_node(NodeId(0));
    assert!(!g.adj[0].is_spilled() && g.adj[0].is_empty());
    assert_ne!(before, g);
}

#[test]
fn deleting_a_spilled_hub_next_to_another() {
    // hubs 0 and 1 are adjacent and both spilled; 0 goes, 1 stays spilled
    let mut g = Graph::new(20);
    for u in 1..20 {
        g.add_edge(NodeId(0), NodeId(u));
        if u > 1 {
            g.add_edge(NodeId(1), NodeId(u));
        }
    }
    assert!(g.adj[1].is_spilled());
    assert!(g.delete_node(NodeId(0)).into_iter().map(|v| v.0).eq(1..20));
    assert!(g.neighbors(NodeId(1)).map(|v| v.0).eq(2..20));
    for u in 2..20 {
        assert!(g.neighbors(NodeId(u)).eq([NodeId(1)]));
    }
    assert_eq!(g.num_edges(), 18);
}
