//! Reverse Cuthill–McKee reordering — the paper's "RCM" ordering (§IV-B),
//! standing in for HSL MC60.
//!
//! RCM relabels vertices in reverse breadth-first order from a
//! pseudo-peripheral root, visiting neighbors in increasing-degree order.
//! It concentrates nonzeros near the diagonal, which shrinks the MPK
//! boundary sets of banded-ish matrices (Fig. 6's RCM curves).

use crate::graph::Graph;
use crate::Csr;

/// Compute the RCM permutation of `a`'s symmetrized pattern.
///
/// Returns `perm` with `perm[new] = old`: row/column `perm[i]` of the
/// original matrix becomes row/column `i` of the reordered one. Handles
/// disconnected graphs by restarting from a fresh pseudo-peripheral root
/// per component.
pub fn rcm_permutation(a: &Csr) -> Vec<usize> {
    let g = Graph::from_csr(a);
    let n = g.nvertices();
    let mut visited = vec![false; n];
    let mut depth = vec![usize::MAX; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);

    // Iterate components in vertex order for determinism.
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        let root = pseudo_peripheral_in_component(&g, seed, &visited, &mut depth);
        // Cuthill-McKee BFS with degree-sorted neighbor visits.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root as u32);
        visited[root] = true;
        let mut nbrs: Vec<u32> = Vec::new();
        while let Some(u) = queue.pop_front() {
            order.push(u as usize);
            nbrs.clear();
            nbrs.extend(g.neighbors(u as usize).iter().filter(|&&w| !visited[w as usize]));
            nbrs.sort_by_key(|&w| (g.degree(w as usize), w));
            for &w in &nbrs {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    order.reverse();
    order
}

/// Pseudo-peripheral search restricted to the unvisited component of `seed`.
/// `depth` is all `usize::MAX` on entry and on return: each BFS unsets only
/// the vertices it reached, so a search costs its component, not the graph.
fn pseudo_peripheral_in_component(
    g: &Graph,
    seed: usize,
    visited: &[bool],
    depth: &mut [usize],
) -> usize {
    // BFS that ignores visited vertices.
    let mut bfs = |root: usize| -> (Vec<u32>, usize) {
        let mut order = vec![root as u32];
        depth[root] = 0;
        let mut head = 0usize;
        let mut ecc = 0usize;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            for &w in g.neighbors(u) {
                let w = w as usize;
                if depth[w] == usize::MAX && !visited[w] {
                    depth[w] = depth[u] + 1;
                    ecc = ecc.max(depth[w]);
                    order.push(w as u32);
                }
            }
        }
        order.iter().for_each(|&v| depth[v as usize] = usize::MAX);
        (order, ecc)
    };

    let mut root = seed;
    let (mut order, mut ecc) = bfs(root);
    for _ in 0..8 {
        // deepest, minimum-degree candidate
        let last = *order.last().unwrap() as usize;
        let mut cand = last;
        for &v in order.iter().rev().take(16) {
            if g.degree(v as usize) < g.degree(cand) {
                cand = v as usize;
            }
        }
        let (o2, e2) = bfs(cand);
        if e2 > ecc {
            root = cand;
            order = o2;
            ecc = e2;
        } else {
            return cand;
        }
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perm::permute_symmetric;
    use crate::Coo;

    #[test]
    fn rcm_is_permutation() {
        let a = crate::gen::laplace2d(7, 9);
        let p = rcm_permutation(&a);
        let mut seen = [false; 63];
        for &v in &p {
            assert!(!seen[v]);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// A path graph (bandwidth 1) with its vertices shuffled.
    fn shuffled_path() -> Csr {
        let n = 50;
        let mut c = Coo::new(n, n);
        // deterministic shuffle via multiplicative map (17 coprime to 50)
        let label = |i: usize| (i * 17 + 3) % n;
        for i in 0..n {
            c.add(label(i), label(i), 4.0);
            if i + 1 < n {
                c.add(label(i), label(i + 1), -1.0);
                c.add(label(i + 1), label(i), -1.0);
            }
        }
        c.to_csr()
    }

    /// Two edges and two isolated vertices.
    fn disconnected() -> Csr {
        let mut c = Coo::new(6, 6);
        c.add(0, 1, 1.0);
        c.add(1, 0, 1.0);
        c.add(4, 5, 1.0);
        c.add(5, 4, 1.0);
        for i in 0..6 {
            c.add(i, i, 1.0);
        }
        c.to_csr()
    }

    /// `n / 2` disjoint 2x2 blocks: a component per pair of rows.
    fn pairs(n: usize) -> Csr {
        let rowptr = (0..=n).map(|i| 2 * i).collect();
        let cols = (0..n as u32).flat_map(|i| [i & !1, i | 1]).collect();
        Csr::from_raw(n, n, rowptr, cols, vec![1.0; 2 * n])
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_band() {
        // RCM must restore the band a shuffle destroyed
        let a = shuffled_path();
        assert!(a.bandwidth() > 5, "shuffle should destroy the band");
        let p = rcm_permutation(&a);
        let b = permute_symmetric(&a, &p);
        assert_eq!(b.bandwidth(), 1, "RCM must recover the path band");
    }

    #[test]
    fn rcm_on_grid_beats_random_labeling() {
        let a = crate::gen::laplace2d(12, 12);
        let p = rcm_permutation(&a);
        let b = permute_symmetric(&a, &p);
        // grid natural ordering bandwidth is 12; RCM should be close.
        assert!(b.bandwidth() <= 14, "rcm bandwidth {}", b.bandwidth());
    }

    #[test]
    fn rcm_handles_disconnected() {
        let p = rcm_permutation(&disconnected());
        assert_eq!(p.len(), 6);
        let mut s = p.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4, 5]);
    }

    /// The word-wise FNV of the permutation of each test graph, recorded
    /// before the pseudo-peripheral search shared one depth scratch across
    /// its searches.
    #[test]
    fn permutations_are_pinned() {
        let hash =
            |a: &Csr| ca_obs::metrics::fnv1a_words(rcm_permutation(a).iter().map(|&v| v as u64));
        let graphs = [
            crate::gen::laplace2d(7, 9),
            shuffled_path(),
            crate::gen::laplace2d(12, 12),
            disconnected(),
            Csr::identity(1000),
            pairs(1000),
            crate::gen::convection_diffusion(60, 40, 2.0),
            crate::gen::circuit(5000, 20140527),
        ];
        let got: Vec<u64> = graphs.iter().map(hash).collect();
        let want = [
            0x37db4850b26f87d0,
            0x1338ee97af264968,
            0x87e05feef416cceb,
            0xda4a72a589bedbe8,
            0xa84907c59e63feb5,
            0xd7ed2b2b87b9325d,
            0xf28e1ee7783c46cd,
            0xea7c2839644a4325,
        ];
        assert_eq!(got, want);
    }

    /// A graph of single-vertex components: a search per component must
    /// cost that component only. Release builds only, like the other
    /// timings.
    #[cfg(not(debug_assertions))]
    #[test]
    fn many_components_order_in_linear_time() {
        let a = Csr::identity(200_000);
        let t = std::time::Instant::now();
        let p = rcm_permutation(&a);
        let dt = t.elapsed();
        assert_eq!(p.len(), 200_000);
        assert!(dt.as_secs_f64() < 1.0, "identity(200 000) took {dt:?}");
    }
}
