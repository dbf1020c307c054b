//! Hypergraph partitioning — the paper's §VII outlook ("We also plan to
//! study other partitioning algorithms (e.g., hypergraph partitioning)").
//!
//! The column-net hypergraph model (Catalyurek & Aykanat) represents each
//! matrix column as a *net* connecting the rows with a nonzero in it. The
//! (lambda - 1) metric — each net contributes `(parts it touches) - 1` —
//! counts the SpMV scatter volume *exactly*, unlike the graph edge-cut
//! which only approximates it on non-symmetric patterns.
//!
//! The partitioner is a flat (non-multilevel) recursive bisection with
//! Fiduccia–Mattheysen-style single-vertex moves on the (lambda - 1)
//! gain, deterministic and dependency-free. No METIS/PaToH-class quality
//! is claimed; the point is the *model* comparison against the graph
//! partitioner, which the `ext_partitioners` study runs.

use crate::partition::{sweep_order, Partition};
use crate::Csr;

/// Column-net hypergraph of a sparse matrix: vertex `i` = row `i`; net
/// `j` = the set of rows with a nonzero in column `j`.
#[derive(Debug, Clone)]
pub struct Hypergraph {
    /// Net -> member vertices (CSR of the transpose pattern).
    net_ptr: Vec<usize>,
    net_mem: Vec<u32>,
    /// Vertex -> nets it belongs to (the row pattern itself).
    vtx_ptr: Vec<usize>,
    vtx_nets: Vec<u32>,
    nvtx: usize,
}

impl Hypergraph {
    /// Build the column-net model of `a`.
    pub fn column_net(a: &Csr) -> Self {
        let at = a.transpose();
        Self {
            net_ptr: at.row_ptr().to_vec(),
            net_mem: at.col_idx().to_vec(),
            vtx_ptr: a.row_ptr().to_vec(),
            vtx_nets: a.col_idx().to_vec(),
            nvtx: a.nrows(),
        }
    }

    /// Number of vertices (rows).
    pub fn nvtx(&self) -> usize {
        self.nvtx
    }

    /// Number of nets (columns).
    pub fn nnets(&self) -> usize {
        self.net_ptr.len() - 1
    }

    /// Members of net `j`.
    pub fn net(&self, j: usize) -> &[u32] {
        &self.net_mem[self.net_ptr[j]..self.net_ptr[j + 1]]
    }

    /// Nets of vertex `v`.
    pub fn nets_of(&self, v: usize) -> &[u32] {
        &self.vtx_nets[self.vtx_ptr[v]..self.vtx_ptr[v + 1]]
    }

    /// The (lambda - 1) connectivity metric of a partition: the exact SpMV
    /// scatter volume in vector elements.
    pub fn lambda_minus_one(&self, part: &[u32], nparts: usize) -> usize {
        let mut total = 0usize;
        let mut seen = vec![u32::MAX; nparts];
        for j in 0..self.nnets() {
            let mut lambda = 0usize;
            for &v in self.net(j) {
                let p = part[v as usize] as usize;
                if seen[p] != j as u32 {
                    seen[p] = j as u32;
                    lambda += 1;
                }
            }
            total += lambda.saturating_sub(1);
        }
        total
    }
}

/// K-way hypergraph partition by recursive bisection with FM refinement on
/// the (lambda - 1) gain. Deterministic.
pub fn hypergraph_partition(a: &Csr, nparts: usize, fm_passes: usize) -> Partition {
    assert!(nparts >= 1);
    let hg = Hypergraph::column_net(a);
    let n = hg.nvtx();
    let mut part = vec![0u32; n];
    if nparts > 1 {
        let all: Vec<u32> = (0..n as u32).collect();
        bisect(&hg, &all, 0, nparts, fm_passes, &mut part);
    }
    Partition { part, nparts }
}

fn bisect(
    hg: &Hypergraph,
    verts: &[u32],
    base: u32,
    nparts: usize,
    fm_passes: usize,
    part: &mut [u32],
) {
    if nparts == 1 || verts.len() <= 1 {
        for &v in verts {
            part[v as usize] = base;
        }
        return;
    }
    let left_parts = nparts / 2;
    let right_parts = nparts - left_parts;
    let target_left = verts.len() * left_parts / nparts;

    // initial split: breadth-first over shared nets from the first vertex
    // (keeps net members together), remainder appended in index order
    let order = sweep_order(hg.nvtx(), verts, |u| {
        hg.nets_of(u as usize).iter().flat_map(|&net| hg.net(net as usize).iter().copied())
    });
    // side[v]: 0 = left, 1 = right, OUTSIDE = not in this vertex set
    const OUTSIDE: u8 = u8::MAX;
    let mut side = vec![OUTSIDE; hg.nvtx()];
    for (i, &v) in order.iter().enumerate() {
        side[v as usize] = u8::from(i >= target_left.max(1));
    }

    // FM refinement on (lambda - 1) between the two sides, restricted to
    // nets fully inside this vertex set's closure
    let mut sizes = [0usize; 2];
    for &v in verts {
        sizes[side[v as usize] as usize] += 1;
    }
    let max_imb = (verts.len() as f64 * 0.55).ceil() as usize;
    for _ in 0..fm_passes {
        let mut moved = 0usize;
        for &v in &order {
            let sv = side[v as usize] as usize;
            if sizes[sv] <= 1 || sizes[1 - sv] + 1 > max_imb {
                continue;
            }
            // gain = nets that become internal minus nets that become cut
            let mut gain = 0i64;
            for &net in hg.nets_of(v as usize) {
                let (mut same, mut other) = (0usize, 0usize);
                for &w in hg.net(net as usize) {
                    let sw = side[w as usize];
                    if w == v || sw == OUTSIDE {
                        continue;
                    }
                    if sw as usize == sv {
                        same += 1;
                    } else {
                        other += 1;
                    }
                }
                if same == 0 && other > 0 {
                    gain += 1; // net un-cuts when v leaves
                } else if other == 0 && same > 0 {
                    gain -= 1; // net becomes cut
                }
            }
            if gain > 0 {
                side[v as usize] = 1 - sv as u8;
                sizes[sv] -= 1;
                sizes[1 - sv] += 1;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }

    let left: Vec<u32> = verts.iter().copied().filter(|&v| side[v as usize] == 0).collect();
    let right: Vec<u32> = verts.iter().copied().filter(|&v| side[v as usize] == 1).collect();
    if left.is_empty() || right.is_empty() {
        // degenerate split: fall back to index halves
        let (l, r) = verts.split_at(target_left.max(1).min(verts.len() - 1));
        bisect(hg, l, base, left_parts, fm_passes, part);
        bisect(hg, r, base + left_parts as u32, right_parts, fm_passes, part);
        return;
    }
    bisect(hg, &left, base, left_parts, fm_passes, part);
    bisect(hg, &right, base + left_parts as u32, right_parts, fm_passes, part);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn column_net_model_shapes() {
        let a = gen::laplace2d(4, 4);
        let hg = Hypergraph::column_net(&a);
        assert_eq!(hg.nvtx(), 16);
        assert_eq!(hg.nnets(), 16);
        // net j contains exactly the rows with a nonzero in column j;
        // for the symmetric Laplacian that is row j and its neighbors
        assert!(hg.net(5).contains(&5));
        assert_eq!(hg.net(0).len(), a.transpose().row_nnz(0));
    }

    #[test]
    fn lambda_metric_counts_scatter_volume() {
        // 4-vertex path; nets = columns. Split {0,1} | {2,3}: columns 1 and
        // 2 straddle the cut (column 1 touches rows 0,1,2; column 2 touches
        // rows 1,2,3), every other column stays internal.
        let a = gen::laplace2d(1, 4); // path of 4
        let hg = Hypergraph::column_net(&a);
        let part = vec![0u32, 0, 1, 1];
        assert_eq!(hg.lambda_minus_one(&part, 2), 2);
        // one part: zero volume
        assert_eq!(hg.lambda_minus_one(&[0, 0, 0, 0], 2), 0);
    }

    #[test]
    fn partition_covers_and_balances() {
        let a = gen::laplace2d(12, 12);
        for k in [2usize, 3, 4] {
            let p = hypergraph_partition(&a, k, 3);
            assert_eq!(p.part.len(), 144);
            assert!(p.part.iter().all(|&q| (q as usize) < k));
            assert!(p.imbalance() < 1.6, "k={k}: imbalance {}", p.imbalance());
        }
    }

    #[test]
    fn hypergraph_beats_naive_split_on_lambda() {
        let a = gen::circuit(2000, 5);
        let hg = Hypergraph::column_net(&a);
        let p = hypergraph_partition(&a, 2, 3);
        let naive: Vec<u32> = (0..2000).map(|v| u32::from(v >= 1000)).collect();
        let l_hg = hg.lambda_minus_one(&p.part, 2);
        let l_naive = hg.lambda_minus_one(&naive, 2);
        assert!(
            l_hg < l_naive,
            "hypergraph lambda-1 {l_hg} should beat naive {l_naive} (scrambled labels)"
        );
    }

    #[test]
    fn deterministic() {
        let a = gen::circuit(800, 9);
        let p1 = hypergraph_partition(&a, 3, 2);
        let p2 = hypergraph_partition(&a, 3, 2);
        assert_eq!(p1.part, p2.part);
    }
}
