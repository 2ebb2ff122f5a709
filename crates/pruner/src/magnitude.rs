//! Magnitude-based pruning policies (§2.1, §3, Fig. 2 of the paper).
//!
//! Each policy returns a [`SparsityMask`]; the caller applies it and/or
//! compresses to the matching format. All selection is on `|w|` (or block
//! aggregates of it) — the baseline weight-saliency metric the paper's
//! energy study compares against second-order selection.

use venom_format::{NmConfig, SparsityMask, VnmConfig, SELECTED_COLUMNS};
use venom_tensor::Matrix;

/// Unstructured magnitude pruning: keeps the `(1 - sparsity)` fraction of
/// entries with the largest absolute value (the "ideal" policy of Fig. 11).
///
/// # Panics
/// Panics unless `0 <= sparsity < 1`.
pub fn prune_unstructured(w: &Matrix<f32>, sparsity: f64) -> SparsityMask {
    assert!((0.0..1.0).contains(&sparsity), "sparsity in [0,1)");
    let total = w.len();
    let keep = total - (total as f64 * sparsity).round() as usize;
    let mut order: Vec<usize> = (0..total).collect();
    let data = w.as_slice();
    order.sort_by(|&a, &b| data[b].abs().partial_cmp(&data[a].abs()).unwrap());
    let mut mask = SparsityMask::empty(w.rows(), w.cols());
    for &idx in order.iter().take(keep) {
        mask.set(idx / w.cols(), idx % w.cols(), true);
    }
    mask
}

/// Row-wise N:M magnitude pruning: the largest-`|w|` `n` entries of every
/// aligned group of `m` columns survive.
pub fn prune_nm(w: &Matrix<f32>, cfg: NmConfig) -> SparsityMask {
    venom_format::nm::magnitude_nm_mask(w, cfg)
}

/// Two-stage V:N:M magnitude pruning (Fig. 2): per `V x M` block, the four
/// columns with the largest L1 norm survive vector-wise pruning; within
/// each row, the `n` largest of the four selected survive N:M pruning.
/// Each column's block L1 norm is summed once, rows ascending in `f64`,
/// and the columns are stably sorted on those sums (ties keep column
/// order).
///
/// # Panics
/// Panics if either stage has to order a NaN (a NaN weight in a block
/// or among a row's selected columns).
pub fn prune_vnm(w: &Matrix<f32>, cfg: VnmConfig) -> SparsityMask {
    let mut mask = SparsityMask::empty(w.rows(), w.cols());
    let mut cols: Vec<(usize, f64)> = Vec::with_capacity(cfg.m);
    for b in 0..cfg.row_blocks(w.rows()) {
        let r0 = b * cfg.v;
        let r1 = (r0 + cfg.v).min(w.rows());
        for g in 0..cfg.k_groups(w.cols()) {
            let c0 = g * cfg.m;
            let c1 = (c0 + cfg.m).min(w.cols());
            // Stage 1: column selection by block L1 norm.
            cols.clear();
            cols.extend((c0..c1).map(|c| (c, (r0..r1).map(|r| w.get(r, c).abs() as f64).sum())));
            cols.sort_by(|(_, sa), (_, sb)| sb.partial_cmp(sa).expect("column sums are not NaN"));
            let kept = cols.len().min(SELECTED_COLUMNS);
            let mut sel = [0usize; SELECTED_COLUMNS];
            for (s, &(c, _)) in sel.iter_mut().zip(&cols) {
                *s = c;
            }
            // Stage 2: N:M within the selected columns, per row.
            for r in r0..r1 {
                let mut sc = sel;
                let sc = &mut sc[..kept];
                sc.sort_by(|&a, &bc| {
                    let (wa, wb) = (w.get(r, a).abs(), w.get(r, bc).abs());
                    wb.partial_cmp(&wa).expect("weights are not NaN")
                });
                for &c in sc.iter().take(cfg.n) {
                    mask.set(r, c, true);
                }
            }
        }
    }
    debug_assert!(mask.complies_vnm(cfg));
    mask
}

/// Vector-wise (`vw_l`) magnitude pruning: the matrix is cut into `l x 1`
/// vertical vectors; the `(1 - sparsity)` fraction with the largest L1
/// norm survives, ranked globally (the CLASP/vectorSparse policy).
///
/// # Panics
/// Panics unless `l >= 1` and `0 <= sparsity < 1`.
pub fn prune_vectorwise(w: &Matrix<f32>, l: usize, sparsity: f64) -> SparsityMask {
    assert!(l >= 1, "vector length must be positive");
    assert!((0.0..1.0).contains(&sparsity), "sparsity in [0,1)");
    let bands = w.rows().div_ceil(l);
    let mut vectors: Vec<(usize, usize, f64)> = Vec::with_capacity(bands * w.cols());
    for band in 0..bands {
        let r0 = band * l;
        let r1 = (r0 + l).min(w.rows());
        for c in 0..w.cols() {
            let norm: f64 = (r0..r1).map(|r| w.get(r, c).abs() as f64).sum();
            vectors.push((band, c, norm));
        }
    }
    let keep = vectors.len() - (vectors.len() as f64 * sparsity).round() as usize;
    vectors.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    let mut mask = SparsityMask::empty(w.rows(), w.cols());
    for &(band, c, _) in vectors.iter().take(keep) {
        let r0 = band * l;
        let r1 = (r0 + l).min(w.rows());
        for r in r0..r1 {
            mask.set(r, c, true);
        }
    }
    mask
}

/// Block-wise magnitude pruning with square `v x v` blocks ranked globally
/// by L1 norm (Fig. 2 policy 1).
///
/// # Panics
/// Panics unless `v >= 1` and `0 <= sparsity < 1`.
pub fn prune_blockwise(w: &Matrix<f32>, v: usize, sparsity: f64) -> SparsityMask {
    assert!(v >= 1, "block size must be positive");
    assert!((0.0..1.0).contains(&sparsity), "sparsity in [0,1)");
    let rb = w.rows().div_ceil(v);
    let cb = w.cols().div_ceil(v);
    let mut blocks: Vec<(usize, usize, f64)> = Vec::with_capacity(rb * cb);
    for br in 0..rb {
        for bc in 0..cb {
            let mut norm = 0.0f64;
            for r in br * v..((br + 1) * v).min(w.rows()) {
                for c in bc * v..((bc + 1) * v).min(w.cols()) {
                    norm += w.get(r, c).abs() as f64;
                }
            }
            blocks.push((br, bc, norm));
        }
    }
    let keep = blocks.len() - (blocks.len() as f64 * sparsity).round() as usize;
    blocks.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    let mut mask = SparsityMask::empty(w.rows(), w.cols());
    for &(br, bc, _) in blocks.iter().take(keep) {
        for r in br * v..((br + 1) * v).min(w.rows()) {
            for c in bc * v..((bc + 1) * v).min(w.cols()) {
                mask.set(r, c, true);
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_tensor::random;

    fn w() -> Matrix<f32> {
        random::glorot_matrix(64, 80, 42)
    }

    #[test]
    fn unstructured_hits_target_sparsity() {
        let mask = prune_unstructured(&w(), 0.75);
        assert!((mask.sparsity() - 0.75).abs() < 0.01);
    }

    #[test]
    fn unstructured_keeps_largest() {
        let mut m = Matrix::<f32>::zeros(1, 4);
        m.set(0, 0, 0.1);
        m.set(0, 1, -9.0);
        m.set(0, 2, 3.0);
        m.set(0, 3, 0.01);
        let mask = prune_unstructured(&m, 0.5);
        assert!(mask.get(0, 1) && mask.get(0, 2));
    }

    #[test]
    fn vnm_mask_complies_and_hits_sparsity() {
        for (v, n, m) in [(16, 2, 8), (32, 2, 10), (64, 2, 20)] {
            let cfg = VnmConfig::new(v, n, m);
            let mask = prune_vnm(&random::glorot_matrix(128, 400, 7), cfg);
            assert!(mask.complies_vnm(cfg), "{cfg}");
            assert!((mask.sparsity() - cfg.sparsity()).abs() < 0.02, "{cfg}");
        }
    }

    /// The comparator-sum selection [`prune_vnm`] must equal: every
    /// comparison re-sums both columns' block L1 norms.
    fn prune_vnm_ref(w: &Matrix<f32>, cfg: VnmConfig) -> SparsityMask {
        let mut mask = SparsityMask::empty(w.rows(), w.cols());
        for b in 0..cfg.row_blocks(w.rows()) {
            let r0 = b * cfg.v;
            let r1 = (r0 + cfg.v).min(w.rows());
            for g in 0..cfg.k_groups(w.cols()) {
                let c0 = g * cfg.m;
                let c1 = (c0 + cfg.m).min(w.cols());
                let mut cols: Vec<usize> = (c0..c1).collect();
                cols.sort_by(|&a, &bc| {
                    let sa: f64 = (r0..r1).map(|r| w.get(r, a).abs() as f64).sum();
                    let sb: f64 = (r0..r1).map(|r| w.get(r, bc).abs() as f64).sum();
                    sb.partial_cmp(&sa).unwrap()
                });
                let sel: Vec<usize> = cols.into_iter().take(SELECTED_COLUMNS).collect();
                for r in r0..r1 {
                    let mut sc = sel.clone();
                    sc.sort_by(|&a, &bc| {
                        w.get(r, bc).abs().partial_cmp(&w.get(r, a).abs()).unwrap()
                    });
                    for &c in sc.iter().take(cfg.n) {
                        mask.set(r, c, true);
                    }
                }
            }
        }
        mask
    }

    #[test]
    fn vnm_mask_equals_the_comparator_sum_oracle() {
        // Seeded weights over partial row blocks and tail groups, M above
        // 64 and V = 1, plus a quantized weight whose equal column sums
        // make the sort's tie order matter.
        let shapes = [(128, 400), (70, 93), (33, 230)];
        let patterns = [(1, 2, 8), (16, 2, 8), (32, 1, 10), (64, 2, 20), (4, 3, 100)];
        for (i, &(r, k)) in shapes.iter().enumerate() {
            for (j, &(v, n, m)) in patterns.iter().enumerate() {
                let cfg = VnmConfig::new(v, n, m);
                let seed = (10 * i + j) as u64;
                let w = random::glorot_matrix(r, k, seed);
                assert_eq!(prune_vnm(&w, cfg), prune_vnm_ref(&w, cfg), "{r}x{k} {cfg}");
                let ties = Matrix::from_fn(r, k, |a, b| {
                    w.get(a, b).signum() * ((a * 7 + b * 3) % 4) as f32
                });
                assert_eq!(
                    prune_vnm(&ties, cfg),
                    prune_vnm_ref(&ties, cfg),
                    "ties {r}x{k} {cfg}"
                );
            }
        }
    }

    #[test]
    fn vectorwise_prunes_whole_vectors() {
        let mask = prune_vectorwise(&w(), 8, 0.5);
        assert!((mask.sparsity() - 0.5).abs() < 0.02);
        // Every 8-row vector is all-kept or all-pruned.
        for band in 0..8 {
            for c in 0..80 {
                let states: Vec<bool> = (band * 8..band * 8 + 8).map(|r| mask.get(r, c)).collect();
                assert!(
                    states.iter().all(|&s| s == states[0]),
                    "band {band} col {c}"
                );
            }
        }
    }

    #[test]
    fn blockwise_prunes_square_blocks() {
        let mask = prune_blockwise(&w(), 4, 0.75);
        assert!((mask.sparsity() - 0.75).abs() < 0.02);
        for br in 0..16 {
            for bc in 0..20 {
                let first = mask.get(br * 4, bc * 4);
                for r in br * 4..br * 4 + 4 {
                    for c in bc * 4..bc * 4 + 4 {
                        assert_eq!(mask.get(r, c), first);
                    }
                }
            }
        }
    }

    #[test]
    fn nm_wrapper_delegates() {
        let cfg = NmConfig::new(2, 4);
        let mask = prune_nm(&w(), cfg);
        assert!(mask.complies_nm(cfg));
        assert!((mask.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn rejects_full_sparsity() {
        let _ = prune_unstructured(&w(), 1.0);
    }
}
