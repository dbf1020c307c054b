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
    ///
    /// One counting pass transposes the column indices alone (no values),
    /// and one merge per row writes the sorted union of row `i` of `A` and
    /// of `A^T` without `i`. `adj` is reserved at the union's upper bound
    /// `2 nnz`, so no push reallocates, and trimmed to its length after.
    pub fn from_csr(a: &Csr) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "adjacency graph needs a square matrix");
        let n = a.nrows();
        let (rp, ci) = (a.row_ptr(), a.col_idx());
        // pattern of A^T: count each column into tp[c], sum to column ends,
        // then fill backwards so that tp[c] ends at the column's start and
        // each column lists its rows in ascending order
        let mut tp = vec![0usize; n + 1];
        for &c in ci {
            tp[c as usize] += 1;
        }
        for j in 1..n {
            tp[j] += tp[j - 1];
        }
        tp[n] = ci.len();
        let mut ti = vec![0u32; ci.len()];
        for i in (0..n).rev() {
            for &c in ci[rp[i]..rp[i + 1]].iter().rev() {
                tp[c as usize] -= 1;
                ti[tp[c as usize]] = i as u32;
            }
        }
        let mut ptr = Vec::with_capacity(n + 1);
        ptr.push(0);
        let mut adj = Vec::with_capacity(2 * ci.len());
        for i in 0..n {
            let (x, y) = (&ci[rp[i]..rp[i + 1]], &ti[tp[i]..tp[i + 1]]);
            let (mut p, mut q) = (0, 0);
            while p < x.len() || q < y.len() {
                let u = x.get(p).copied().unwrap_or(u32::MAX);
                let w = y.get(q).copied().unwrap_or(u32::MAX);
                let m = u.min(w);
                p += usize::from(u == m);
                q += usize::from(w == m);
                if m != i as u32 {
                    adj.push(m);
                }
            }
            ptr.push(adj.len());
        }
        adj.shrink_to_fit();
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

    /// BFS level structure of the component of `root`. Returns
    /// `(levels, order)` where `levels[v]` is the BFS depth of `v`
    /// (`u32::MAX` for unreached) and `order` lists the reached vertices in
    /// BFS order; `order` is its own queue.
    pub fn bfs_levels(&self, root: usize) -> (Vec<u32>, Vec<u32>) {
        let mut levels = vec![u32::MAX; self.nvertices()];
        let mut order = Vec::with_capacity(self.nvertices());
        levels[root] = 0;
        order.push(root as u32);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let depth = levels[u as usize] + 1;
            for &w in self.neighbors(u as usize) {
                if levels[w as usize] == u32::MAX {
                    levels[w as usize] = depth;
                    order.push(w);
                }
            }
        }
        (levels, order)
    }

    /// A pseudo-peripheral vertex found by repeated BFS from the farthest,
    /// smallest-degree vertex of the last level (George–Liu heuristic),
    /// with its BFS levels. `start` seeds the search; the returned vertex
    /// is a good RCM root.
    pub fn pseudo_peripheral(&self, start: usize) -> (usize, Vec<u32>) {
        let (mut levels, mut order) = self.bfs_levels(start);
        loop {
            let ecc = levels[*order.last().unwrap() as usize];
            // candidates: deepest level, pick min degree
            let mut cand = *order.last().unwrap() as usize;
            for &v in order.iter().rev().take_while(|&&v| levels[v as usize] == ecc) {
                if self.degree(v as usize) < self.degree(cand) {
                    cand = v as usize;
                }
            }
            let (l2, o2) = self.bfs_levels(cand);
            if l2[*o2.last().unwrap() as usize] <= ecc {
                return (cand, l2);
            }
            levels = l2;
            order = o2;
        }
    }
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
        let (p, levels) = g.pseudo_peripheral(1);
        assert!(p == 0 || p == 3, "got {p}");
        assert_eq!(levels, g.bfs_levels(p).0);
    }

    #[test]
    fn grid_graph_levels_match_manhattan() {
        let a = crate::gen::laplace2d(5, 5);
        let g = Graph::from_csr(&a);
        let (levels, _) = g.bfs_levels(0);
        // vertex (i,j) at index i*5+j has BFS depth i+j from corner 0
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(levels[i * 5 + j] as usize, i + j);
            }
        }
    }
}
