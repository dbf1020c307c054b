//! Graph view of a sparse matrix's symmetrized pattern.
//!
//! The MPK's boundary-set recursion, RCM, and the k-way partitioner all
//! operate on the adjacency graph of `A + A^T` (structural symmetrization,
//! diagonal dropped).

use crate::Csr;

/// Adjacency structure of the symmetrized sparsity pattern.
#[derive(Debug, Clone)]
pub struct Graph {
    ptr: Vec<usize>,
    adj: Vec<u32>,
}

impl Graph {
    /// Build the adjacency graph of `A + A^T` (pattern only, no self loops).
    pub fn from_csr(a: &Csr) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "adjacency graph needs a square matrix");
        let n = a.nrows();
        let at = a.transpose();
        let mut ptr = vec![0usize; n + 1];
        // Count merged degrees (two sorted lists, union minus diagonal).
        for i in 0..n {
            ptr[i + 1] = merged_count(a.row(i).0, at.row(i).0, i as u32);
        }
        for i in 0..n {
            ptr[i + 1] += ptr[i];
        }
        let mut adj = vec![0u32; ptr[n]];
        for i in 0..n {
            let dst = &mut adj[ptr[i]..ptr[i + 1]];
            merge_into(a.row(i).0, at.row(i).0, i as u32, dst);
        }
        Self { ptr, adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn nvertices(&self) -> usize {
        self.ptr.len() - 1
    }

    /// Neighbors of vertex `v` (sorted, no self loop).
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.ptr[v]..self.ptr[v + 1]]
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.ptr[v + 1] - self.ptr[v]
    }

    /// BFS level structure rooted at `root`, confined to unvisited
    /// vertices. Returns `(levels, order)` where `levels[v]` is the BFS
    /// depth (usize::MAX for unreached) and `order` lists vertices in BFS
    /// order.
    pub fn bfs_levels(&self, root: usize) -> (Vec<usize>, Vec<u32>) {
        let n = self.nvertices();
        let mut levels = vec![usize::MAX; n];
        let mut order = Vec::with_capacity(n);
        let mut frontier = vec![root as u32];
        levels[root] = 0;
        order.push(root as u32);
        let mut depth = 0usize;
        while !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                for &w in self.neighbors(u as usize) {
                    if levels[w as usize] == usize::MAX {
                        levels[w as usize] = depth;
                        order.push(w);
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        (levels, order)
    }

    /// A pseudo-peripheral vertex found by repeated BFS from the farthest,
    /// smallest-degree vertex of the last level (George–Liu heuristic).
    /// `start` seeds the search; the returned vertex is a good RCM root.
    pub fn pseudo_peripheral(&self, start: usize) -> usize {
        let mut root = start;
        let (mut levels, mut order) = self.bfs_levels(root);
        let mut ecc = *order.last().map(|&v| &levels[v as usize]).unwrap_or(&0);
        loop {
            // candidates: deepest level, pick min degree
            let deepest = ecc;
            let mut best: Option<usize> = None;
            for &v in order.iter().rev() {
                if levels[v as usize] != deepest {
                    break;
                }
                match best {
                    None => best = Some(v as usize),
                    Some(b) => {
                        if self.degree(v as usize) < self.degree(b) {
                            best = Some(v as usize);
                        }
                    }
                }
            }
            let cand = best.unwrap_or(root);
            let (l2, o2) = self.bfs_levels(cand);
            let ecc2 = o2.last().map(|&v| l2[v as usize]).unwrap_or(0);
            if ecc2 > ecc {
                root = cand;
                levels = l2;
                order = o2;
                ecc = ecc2;
            } else {
                return cand;
            }
        }
    }
}

fn merged_count(a: &[u32], b: &[u32], skip: u32) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() || j < b.len() {
        let x = if i < a.len() { a[i] } else { u32::MAX };
        let y = if j < b.len() { b[j] } else { u32::MAX };
        let m = x.min(y);
        if x == m {
            i += 1;
        }
        if y == m {
            j += 1;
        }
        if m != skip {
            n += 1;
        }
    }
    n
}

fn merge_into(a: &[u32], b: &[u32], skip: u32, dst: &mut [u32]) {
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < a.len() || j < b.len() {
        let x = if i < a.len() { a[i] } else { u32::MAX };
        let y = if j < b.len() { b[j] } else { u32::MAX };
        let m = x.min(y);
        if x == m {
            i += 1;
        }
        if y == m {
            j += 1;
        }
        if m != skip {
            dst[k] = m;
            k += 1;
        }
    }
    debug_assert_eq!(k, dst.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    /// Path graph 0-1-2-3 as an asymmetric matrix (only upper edges stored),
    /// exercising the symmetrization.
    fn path4() -> Graph {
        let mut c = Coo::new(4, 4);
        for i in 0..3 {
            c.add(i, i + 1, 1.0);
        }
        for i in 0..4 {
            c.add(i, i, 2.0); // diagonal must be dropped
        }
        Graph::from_csr(&c.to_csr())
    }

    #[test]
    fn symmetrized_adjacency() {
        let g = path4();
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn bfs_levels_on_path() {
        let g = path4();
        let (levels, order) = g.bfs_levels(0);
        assert_eq!(levels, vec![0, 1, 2, 3]);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pseudo_peripheral_finds_endpoint() {
        let g = path4();
        let p = g.pseudo_peripheral(1);
        assert!(p == 0 || p == 3, "got {p}");
    }

    #[test]
    fn grid_graph_levels_match_manhattan() {
        let a = crate::gen::laplace2d(5, 5);
        let g = Graph::from_csr(&a);
        let (levels, _) = g.bfs_levels(0);
        // vertex (i,j) at index i*5+j has BFS depth i+j from corner 0
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(levels[i * 5 + j], i + j);
            }
        }
    }
}
