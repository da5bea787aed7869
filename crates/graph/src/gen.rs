//! Workload generators.
//!
//! The paper's guarantees are parameterized by the initial topology (its
//! diameter `D` and maximum degree `Δ`), so the experiments sweep a family of
//! graphs chosen to stress different corners:
//!
//! - `star` maximizes Δ at minimal D (the lower-bound construction of
//!   Theorem 2);
//! - `path`/`cycle` minimize Δ at maximal D;
//! - `kary_tree` gives the polylogarithmic-degree regime the paper highlights
//!   for peer-to-peer networks ("∆ is polylogarithmic, so the diameter
//!   increase would be a O(log log n) multiplicative factor");
//! - `caterpillar` and `broom` mix high-degree hubs with long spines;
//! - `random_tree` (uniform, via Prüfer sequences) is the generic tree case;
//! - `gnp_connected`, `barabasi_albert`, `random_regular`, `grid` and
//!   `hypercube` are general graphs from which a BFS spanning tree is
//!   extracted during the setup phase.
//!
//! All random generators take an explicit `Rng` so experiments are seeded
//! and reproducible.

use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A path `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
    }
    g
}

/// A cycle over `n ≥ 3` nodes.
///
/// # Panics
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs n >= 3, got {n}");
    let mut g = path(n);
    g.add_edge(NodeId(0), NodeId(n as u32 - 1));
    g
}

/// A star `K_{1,n-1}`: node 0 is the hub, nodes `1..n` are leaves.
///
/// This is exactly the graph used in the proof of Theorem 2 (with
/// `Δ = n - 1`).
///
/// # Panics
/// Panics if `n < 1`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "star needs n >= 1");
    let mut g = Graph::new(n);
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i as u32));
    }
    g
}

/// A complete `k`-ary tree with `n` nodes in heap layout: node `i`'s children
/// are `k*i + 1 … k*i + k` (when < n). `k = 2` gives a complete binary tree.
///
/// # Panics
/// Panics if `k == 0`.
pub fn kary_tree(n: usize, k: usize) -> Graph {
    assert!(k >= 1, "kary_tree needs k >= 1");
    let mut g = Graph::new(n);
    for i in 1..n {
        let parent = (i - 1) / k;
        g.add_edge(NodeId(parent as u32), NodeId(i as u32));
    }
    g
}

/// A caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves. Total nodes: `spine * (1 + legs)`. Spine nodes come first
/// (IDs `0..spine`).
///
/// # Panics
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    assert!(spine >= 1, "caterpillar needs spine >= 1");
    let n = spine * (1 + legs);
    let mut g = Graph::new(n);
    for i in 1..spine {
        g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
    }
    let mut next = spine as u32;
    for s in 0..spine {
        for _ in 0..legs {
            g.add_edge(NodeId(s as u32), NodeId(next));
            next += 1;
        }
    }
    g
}

/// A broom: a path of `handle` nodes with `bristles` extra leaves attached to
/// the last path node. Stresses a single high-degree hub far from the rest.
///
/// # Panics
/// Panics if `handle == 0`.
pub fn broom(handle: usize, bristles: usize) -> Graph {
    assert!(handle >= 1, "broom needs handle >= 1");
    let mut g = Graph::new(handle + bristles);
    for i in 1..handle {
        g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32));
    }
    let hub = NodeId(handle as u32 - 1);
    for b in 0..bristles {
        g.add_edge(hub, NodeId((handle + b) as u32));
    }
    g
}

/// A uniformly random labelled tree on `n` nodes, generated from a random
/// Prüfer sequence.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    match n {
        0 => return Graph::new(0),
        1 => return Graph::new(1),
        2 => return Graph::from_edges(2, &[(0, 1)]),
        _ => {}
    }
    let seq: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    prufer_to_tree(n, &seq)
}

/// Decodes a Prüfer sequence (length `n - 2`, entries in `0..n`) into its
/// labelled tree.
///
/// # Panics
/// Panics if `n < 2`, the sequence length is not `n - 2`, or an entry is out
/// of range.
pub fn prufer_to_tree(n: usize, seq: &[usize]) -> Graph {
    assert!(n >= 2, "prufer_to_tree needs n >= 2");
    assert_eq!(seq.len(), n - 2, "prufer sequence must have length n-2");
    let mut g = Graph::new(n);
    let mut degree = vec![1u32; n];
    for &s in seq {
        assert!(s < n, "prufer entry {s} out of range");
        degree[s] += 1;
    }
    // ptr/leaf scan: O(n) decoding
    let mut ptr = 0;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &s in seq {
        g.add_edge(NodeId(leaf as u32), NodeId(s as u32));
        degree[s] -= 1;
        if degree[s] == 1 && s < ptr {
            leaf = s;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    g.add_edge(NodeId(leaf as u32), NodeId(n as u32 - 1));
    g
}

/// A random recursive tree: node `i` attaches to a uniformly random earlier
/// node. Lower diameter and higher degree skew than the uniform tree.
pub fn random_attachment_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for i in 1..n {
        let p = rng.gen_range(0..i);
        g.add_edge(NodeId(p as u32), NodeId(i as u32));
    }
    g
}

/// Erdős–Rényi `G(n, p)` conditioned on connectivity: after sampling, any
/// disconnected components are stitched to the giant component with one
/// random edge each (a standard benign repair that adds `O(#components)`
/// edges).
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
        }
    }
    stitch_components(&mut g, rng);
    g
}

/// Barabási–Albert preferential attachment: starts from a clique of `m`
/// nodes; each new node attaches to `m` distinct existing nodes chosen
/// proportionally to degree. Produces the power-law degree distributions the
/// paper's cascading-failure discussion references.
///
/// # Panics
/// Panics if `m == 0` or `n < m`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Graph {
    assert!(m >= 1, "barabasi_albert needs m >= 1");
    assert!(n >= m, "barabasi_albert needs n >= m");
    let mut g = Graph::new(n);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<u32> = Vec::new();
    for i in 0..m {
        for j in (i + 1)..m {
            g.add_edge(NodeId(i as u32), NodeId(j as u32));
            endpoints.push(i as u32);
            endpoints.push(j as u32);
        }
    }
    if m == 1 && n > 1 {
        endpoints.push(0);
    }
    for v in m..n {
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m.min(v) {
            let t = *endpoints
                .choose(rng)
                .expect("endpoint list is nonempty once the seed clique exists");
            if t as usize != v {
                targets.insert(t);
            }
        }
        for &t in &targets {
            g.add_edge(NodeId(v as u32), NodeId(t));
            endpoints.push(v as u32);
            endpoints.push(t);
        }
    }
    g
}

/// Random `d`-regular graph via the configuration model with rejection of
/// self-loops/multi-edges (retries until simple; falls back to stitching for
/// stubborn leftovers). Requires `n*d` even and `d < n`.
///
/// # Panics
/// Panics if `n * d` is odd or `d >= n`.
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "d must be < n");
    'outer: for _attempt in 0..200 {
        let mut stubs: Vec<u32> = (0..n)
            .flat_map(|v| std::iter::repeat_n(v as u32, d))
            .collect();
        stubs.shuffle(rng);
        let mut g = Graph::new(n);
        for pair in stubs.chunks(2) {
            let (a, b) = (NodeId(pair[0]), NodeId(pair[1]));
            if a == b || g.has_edge(a, b) {
                continue 'outer;
            }
            g.add_edge(a, b);
        }
        stitch_components(&mut g, rng);
        return g;
    }
    // Deterministic fallback: circulant graph (d/2 chords each side).
    let mut g = Graph::new(n);
    for v in 0..n {
        for k in 1..=d.div_ceil(2) {
            let u = (v + k) % n;
            if u != v {
                g.add_edge(NodeId(v as u32), NodeId(u as u32));
            }
        }
    }
    g
}

/// A `rows × cols` 2-D grid.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
        }
    }
    g
}

/// The `d`-dimensional hypercube (`2^d` nodes).
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut g = Graph::new(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                g.add_edge(NodeId(v as u32), NodeId(u as u32));
            }
        }
    }
    g
}

/// Connects a possibly disconnected graph by adding one edge from each
/// non-primary component to a random node of the primary component.
fn stitch_components<R: Rng + ?Sized>(g: &mut Graph, rng: &mut R) {
    let nodes: Vec<NodeId> = g.nodes().collect();
    if nodes.is_empty() {
        return;
    }
    // Members come out of the dense distance table in ascending-id order,
    // so the `choose(rng)` draws below see the same candidate list every
    // run. (The old hash-map materialization reshuffled the candidates per
    // process, which broke seeded topology replay.)
    let mut comp: Vec<Vec<NodeId>> = Vec::new();
    let mut seen = vec![false; g.capacity()];
    for &v in &nodes {
        if seen[v.index()] {
            continue;
        }
        let members: Vec<NodeId> = crate::bfs::bfs_distances(g, v).nodes().collect();
        for m in &members {
            seen[m.index()] = true;
        }
        comp.push(members);
    }
    if comp.len() <= 1 {
        return;
    }
    comp.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let primary = comp[0].clone();
    for other in &comp[1..] {
        let a = *other.choose(rng).expect("component is nonempty");
        let b = *primary.choose(rng).expect("component is nonempty");
        g.add_edge(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::diameter_exact;
    use crate::hash::{fnv1a, FNV_BASIS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(diameter_exact(&g), Some(4));
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(NodeId(0)), 5);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(diameter_exact(&g), Some(2));
    }

    #[test]
    fn kary_tree_shape() {
        let g = kary_tree(7, 2);
        // complete binary tree of 7 nodes: root degree 2, internal degree 3
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 3);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_connected());
        let g4 = kary_tree(21, 4);
        assert_eq!(g4.degree(NodeId(0)), 4);
        assert!(g4.is_connected());
    }

    #[test]
    fn caterpillar_shape() {
        let g = caterpillar(4, 2);
        assert_eq!(g.len(), 12);
        assert_eq!(g.num_edges(), 11);
        assert!(g.is_connected());
        assert_eq!(g.degree(NodeId(1)), 4); // 2 spine + 2 legs
    }

    #[test]
    fn broom_shape() {
        let g = broom(3, 4);
        assert_eq!(g.len(), 7);
        assert_eq!(g.degree(NodeId(2)), 5); // 1 spine + 4 bristles
        assert!(g.is_connected());
    }

    #[test]
    fn prufer_known_sequence() {
        // Prüfer sequence [3, 3] on 4 nodes => edges (0,3), (1,3), (2,3): a star at 3.
        let g = prufer_to_tree(4, &[3, 3]);
        assert_eq!(g.degree(NodeId(3)), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 3, 10, 57, 200] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.num_edges(), n - 1, "n={n}");
            assert!(g.is_connected(), "n={n}");
        }
    }

    #[test]
    fn random_attachment_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = random_attachment_tree(100, &mut rng);
        assert_eq!(g.num_edges(), 99);
        assert!(g.is_connected());
    }

    #[test]
    fn gnp_is_connected_after_stitching() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnp_connected(80, 0.02, &mut rng);
        assert!(g.is_connected());
        assert_eq!(g.len(), 80);
    }

    #[test]
    fn barabasi_albert_degrees() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = barabasi_albert(200, 3, &mut rng);
        assert!(g.is_connected());
        // every node beyond the seed clique has degree >= m
        for v in g.nodes().skip(3) {
            assert!(g.degree(v) >= 3, "node {v:?} degree {}", g.degree(v));
        }
    }

    #[test]
    fn random_regular_has_right_degrees_mostly() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_regular(50, 4, &mut rng);
        assert!(g.is_connected());
        // configuration model with stitching: degrees are 4 within ±1 stitch
        for v in g.nodes() {
            assert!(g.degree(v) >= 3 && g.degree(v) <= 6);
        }
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.len(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(diameter_exact(&g), Some(5));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4);
        assert_eq!(g.len(), 16);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(diameter_exact(&g), Some(4));
    }

    /// FNV-1a over the sorted edge list: a cheap, dependency-free
    /// fingerprint of the exact topology.
    fn topology_hash(g: &Graph) -> u64 {
        let mut edges = g.edges();
        edges.sort();
        edges.iter().fold(FNV_BASIS, |h, (a, b)| {
            fnv1a(fnv1a(h, a.0.to_le_bytes()), b.0.to_le_bytes())
        })
    }

    #[test]
    fn seeded_topologies_replay_bit_identically() {
        // Pins the exact edge sets the seeded random generators produce.
        // These hashes changed exactly once — when `stitch_components`
        // stopped drawing its stitch endpoints from hash-map-ordered member
        // lists — and must never drift silently again: every seeded
        // experiment and attack campaign in this repo replays through these
        // generators, so a changed hash means changed experiment inputs.
        let gnp = gnp_connected(400, 0.006, &mut StdRng::seed_from_u64(1234));
        let reg = random_regular(200, 4, &mut StdRng::seed_from_u64(77));
        let ba = barabasi_albert(300, 3, &mut StdRng::seed_from_u64(9));
        assert_eq!(topology_hash(&gnp), 0xf605_591c_0940_9130);
        assert_eq!(topology_hash(&reg), 0x9f53_3807_9ad5_8815);
        assert_eq!(topology_hash(&ba), 0x3c81_38a7_0070_f1f0);

        // Same seed, fresh RNG: the whole pipeline (including component
        // stitching) must reproduce the edge set inside one process too.
        let gnp2 = gnp_connected(400, 0.006, &mut StdRng::seed_from_u64(1234));
        assert_eq!(topology_hash(&gnp), topology_hash(&gnp2));
    }
}
