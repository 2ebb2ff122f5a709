//! SDDMM — sampled dense-dense matrix multiplication with a V:N:M output.
//!
//! The paper's discussion (§9a) positions Spatha as a general sparse-MMM
//! tool; the companion operation for sparse attention (the DFSS mechanism
//! of the related work, and Magicube's second routine) is SDDMM:
//! `S = (Q · K) ⊙ pattern`, where only the positions of a structured
//! sparsity pattern are computed and the result is emitted directly in the
//! compressed V:N:M layout — ready to feed [`crate::spmm`] after softmax.
//!
//! The kernel computes, per `V x M` output block, only the 4 selected
//! columns (a `V x 4` slab per group): dense `mma` tiles over the gathered
//! K columns, exactly mirroring stage 1's gather in reverse.

use rayon::prelude::*;
use venom_format::{SparsityMask, VnmConfig, VnmMatrix, SELECTED_COLUMNS};
use venom_fp16::Half;
use venom_sim::pipeline::{simulate, KernelCounts, KernelTiming};
use venom_sim::{BlockResources, DeviceConfig};
use venom_tensor::Matrix;

/// Result of an SDDMM call.
#[derive(Clone, Debug)]
pub struct SddmmResult {
    /// The sampled product, compressed in the pattern's V:N:M layout.
    pub out: VnmMatrix,
    /// Simulated timing.
    pub timing: KernelTiming,
    /// Priced resource counts.
    pub counts: KernelCounts,
}

/// Builds the cost-model counts for `S[r x c] = Q[r x d] * K[d x c]`
/// sampled at a V:N:M pattern.
pub fn sddmm_counts(r: usize, d: usize, c: usize, cfg: VnmConfig) -> KernelCounts {
    let k_groups = cfg.k_groups(c);
    let cond_c = k_groups * SELECTED_COLUMNS;
    let (bs_r, bs_c_cond) = (cfg.v.max(16), 64usize);
    let grid = (r.div_ceil(bs_r) * cond_c.div_ceil(bs_c_cond)) as u64;
    // Dense mma over the gathered columns: m16n8k16 tiles.
    let mma = (bs_r.div_ceil(16) * bs_c_cond.div_ceil(8) * d.div_ceil(16)) as u64;
    let q_bytes = (bs_r * d * 2) as u64;
    let k_bytes = (bs_c_cond * d * 2) as u64;
    // Output: compressed values + m-indices (2 bits) + column-loc.
    let out_bytes = (bs_r * bs_c_cond / SELECTED_COLUMNS * cfg.n * 2) as u64
        + (bs_r * bs_c_cond / SELECTED_COLUMNS * cfg.n / 4) as u64;
    KernelCounts {
        name: format!("sddmm[{cfg}]"),
        grid_blocks: grid.max(1),
        block: BlockResources::new(256, (3 * (bs_r + bs_c_cond) * 32 * 2) as u32, 96),
        k_iters: d.div_ceil(32) as u64,
        pipeline_stages: 2,
        mma_dense_per_block: mma,
        gmem_load_bytes_per_block: q_bytes + k_bytes,
        gmem_store_bytes_per_block: out_bytes,
        l2_hit_fraction: 0.5,
        smem_transactions_per_block: (q_bytes + k_bytes) / 128 * 2,
        prologue_cycles_per_wave: 1400,
        efficiency: crate::counts::SPATHA_EFFICIENCY,
        // Effective work: only the sampled positions' dot products.
        effective_flops: 2 * (r * d * cond_c) as u64,
        ..KernelCounts::named("sddmm")
    }
}

/// Builds the cost-model counts for the *swapped-operand* SDDMM variant
/// (the FlashSparse trick applied to the sampled product): the grid tiles
/// only the condensed columns, each block streams the whole of `Q` once
/// and forms the sampled dots on CUDA cores — no `mma` fragments, so a
/// short `Q` (few query rows) never pays for a padded 16-row fragment or
/// the multi-stage pipeline fill. The flip against [`sddmm_counts`] is a
/// pure cost question: tall `Q` amortizes the mma path's prologue and
/// wins on tensor-core throughput; short `Q` rides this stream.
pub fn sddmm_counts_swapped(r: usize, d: usize, c: usize, cfg: VnmConfig) -> KernelCounts {
    let k_groups = cfg.k_groups(c);
    let cond_c = k_groups * SELECTED_COLUMNS;
    let bs_c_cond = 64usize.min(cond_c.max(1));
    let grid = cond_c.div_ceil(bs_c_cond).max(1) as u64;
    // One scalar FMA per (row, sampled column, k) triple in the block.
    let fma = (r * d * bs_c_cond) as u64;
    // Q streams through every block (no fragment reuse to hide it); the
    // block's own K columns load once.
    let q_bytes = (r * d * 2) as u64;
    let k_bytes = (bs_c_cond * d * 2) as u64;
    let out_bytes = (r * bs_c_cond / SELECTED_COLUMNS.max(1) * cfg.n * 2) as u64;
    KernelCounts {
        name: format!("sddmm_swapped[{cfg}]"),
        grid_blocks: grid,
        // No shared-memory staging, a lean register budget.
        block: BlockResources::new(128, 0, 32),
        k_iters: d.div_ceil(32) as u64,
        pipeline_stages: 1,
        fma_per_block: fma,
        gmem_load_bytes_per_block: q_bytes + k_bytes,
        gmem_store_bytes_per_block: out_bytes,
        l2_hit_fraction: 0.0,
        smem_transactions_per_block: 0,
        prologue_cycles_per_wave: 150,
        efficiency: 0.85,
        effective_flops: 2 * (r * d * cond_c) as u64,
        ..KernelCounts::named("sddmm_swapped")
    }
}

/// Sampled dense-dense multiply: computes `Q * K` only at the positions of
/// `pattern` (which must comply with `cfg`) and returns the compressed
/// result.
///
/// # Panics
/// Panics on shape mismatches or a non-compliant pattern.
pub fn sddmm(
    q: &Matrix<Half>,
    k: &Matrix<Half>,
    pattern: &SparsityMask,
    cfg: VnmConfig,
    dev: &DeviceConfig,
) -> SddmmResult {
    assert_eq!(q.cols(), k.rows(), "inner dimensions must agree");
    assert_eq!(pattern.rows(), q.rows(), "pattern rows must match Q");
    assert_eq!(pattern.cols(), k.cols(), "pattern cols must match K");

    let counts = sddmm_counts(q.rows(), q.cols(), k.cols(), cfg);
    let timing = simulate(dev, &counts).expect("sddmm blocks fit the shipped presets");

    let out = VnmMatrix::compress(&execute_functional(q, k, pattern), pattern, cfg);
    SddmmResult {
        out,
        timing,
        counts,
    }
}

/// Functional SDDMM over f32-staged operands: `Q` is decoded row-major,
/// `K` is decoded *transposed* (one contiguous column per sampled dot
/// product), both exactly once. Each sampled position accumulates its dot
/// product in the same `kk` order as a scalar `mac_f32` chain, so the
/// rounded `Half` outputs are bit-identical to the pre-staging loop. Rows
/// of the pattern are processed in parallel.
fn execute_functional(q: &Matrix<Half>, k: &Matrix<Half>, pattern: &SparsityMask) -> Matrix<Half> {
    let (rows, d, cols) = (q.rows(), q.cols(), k.cols());
    let q_f32 = venom_fp16::slice::decode_f32_vec(q.as_slice());
    // K transposed: kt[c * d + kk] = K[kk][c].
    let table = venom_fp16::f16_to_f32_table();
    let mut kt_f32 = vec![0.0f32; d * cols];
    for kk in 0..d {
        let krow = k.row(kk);
        for c in 0..cols {
            kt_f32[c * d + kk] = table[krow[c].to_bits() as usize];
        }
    }

    let mut out = vec![Half::ZERO; rows * cols];
    out.par_chunks_mut(cols).enumerate().for_each(|(r, orow)| {
        let qrow = &q_f32[r * d..(r + 1) * d];
        for (c, o) in orow.iter_mut().enumerate() {
            if !pattern.get(r, c) {
                continue;
            }
            let kcol = &kt_f32[c * d..(c + 1) * d];
            let mut acc = 0.0f32;
            for (&qv, &kv) in qrow.iter().zip(kcol) {
                acc += qv * kv;
            }
            *o = Half::from_f32(acc);
        }
    });
    Matrix::from_vec(rows, cols, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_tensor::{gemm, random};

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    fn pattern(rows: usize, cols: usize, cfg: VnmConfig, seed: u64) -> SparsityMask {
        // Magnitude pattern derived from a probe product, like dynamic
        // attention sparsity would.
        let probe = random::normal_matrix(rows, cols, 0.0, 1.0, seed);
        let mut mask = SparsityMask::empty(rows, cols);
        for b in 0..cfg.row_blocks(rows) {
            let r0 = b * cfg.v;
            let r1 = (r0 + cfg.v).min(rows);
            for g in 0..cfg.k_groups(cols) {
                let c0 = g * cfg.m;
                let c1 = (c0 + cfg.m).min(cols);
                let mut cols_idx: Vec<usize> = (c0..c1).collect();
                cols_idx.sort_by(|&a, &bb| {
                    let sa: f32 = (r0..r1).map(|r| probe.get(r, a).abs()).sum();
                    let sb: f32 = (r0..r1).map(|r| probe.get(r, bb).abs()).sum();
                    sb.partial_cmp(&sa).unwrap()
                });
                let sel: Vec<usize> = cols_idx[..SELECTED_COLUMNS.min(cols_idx.len())].to_vec();
                for r in r0..r1 {
                    for (j, &c) in sel.iter().enumerate() {
                        if j < cfg.n {
                            mask.set(r, c, true);
                        }
                    }
                }
            }
        }
        mask
    }

    #[test]
    fn sddmm_matches_masked_dense_product() {
        let cfg = VnmConfig::new(16, 2, 8);
        let (r, d, c) = (32usize, 24usize, 64usize);
        let q = random::normal_matrix(r, d, 0.0, 1.0, 1).to_half();
        let k = random::normal_matrix(d, c, 0.0, 1.0, 2).to_half();
        let mask = pattern(r, c, cfg, 3);
        assert!(mask.complies_vnm(cfg));
        let res = sddmm(&q, &k, &mask, cfg, &dev());
        // Reference: full product, masked, rounded to half.
        let full = gemm::gemm_ref(&q, &k);
        let got = res.out.decompress();
        for i in 0..r {
            for j in 0..c {
                if mask.get(i, j) {
                    let want = Half::from_f32(full.get(i, j));
                    assert_eq!(got.get(i, j), want, "({i},{j})");
                } else {
                    assert!(got.get(i, j).is_zero(), "({i},{j}) must be pruned");
                }
            }
        }
    }

    #[test]
    fn sddmm_output_feeds_spmm() {
        // The attention pipeline: S = sddmm(Q, K^T), P = softmax-ish(S),
        // O = spmm(P, V). Here we skip softmax and just chain the kernels.
        let cfg = VnmConfig::new(16, 2, 8);
        let (s_len, d) = (32usize, 16usize);
        let q = random::normal_matrix(s_len, d, 0.0, 1.0, 4).to_half();
        let kt = random::normal_matrix(d, s_len, 0.0, 1.0, 5).to_half();
        let mask = pattern(s_len, s_len, cfg, 6);
        let scores = sddmm(&q, &kt, &mask, cfg, &dev());
        let v = random::normal_matrix(s_len, d, 0.0, 1.0, 7).to_half();
        let out = crate::spmm(&scores.out, &v, &crate::SpmmOptions::default(), &dev());
        let want = scores.out.spmm_ref(&v);
        assert!(venom_tensor::norms::allclose(&out.c, &want, 1e-3, 1e-3));
    }

    #[test]
    fn sddmm_timing_scales_with_sparsity() {
        let d = dev();
        let t8 = simulate(&d, &sddmm_counts(1024, 64, 4096, VnmConfig::new(64, 2, 8))).unwrap();
        let t32 = simulate(&d, &sddmm_counts(1024, 64, 4096, VnmConfig::new(64, 2, 32))).unwrap();
        assert!(
            t32.time_ms < t8.time_ms,
            "sparser pattern computes fewer columns: {} !< {}",
            t32.time_ms,
            t8.time_ms
        );
    }

    #[test]
    fn swapped_counts_flip_on_query_rows() {
        // The swapped-operand stream wins when Q is short (a padded mma
        // fragment plus the pipeline prologue dominate); the mma path
        // wins once Q is tall enough to amortize them — the selection is
        // a cost question, not a threshold.
        let d = dev();
        let cfg = VnmConfig::new(16, 2, 8);
        let price = |r: usize| {
            let mma = simulate(&d, &sddmm_counts(r, 64, 1024, cfg))
                .unwrap()
                .time_ms;
            let sw = simulate(&d, &sddmm_counts_swapped(r, 64, 1024, cfg))
                .unwrap()
                .time_ms;
            (mma, sw)
        };
        let (mma_short, sw_short) = price(8);
        assert!(
            sw_short < mma_short,
            "short Q must ride the swapped stream: {sw_short} !< {mma_short}"
        );
        let (mma_tall, sw_tall) = price(2048);
        assert!(
            mma_tall < sw_tall,
            "tall Q must ride the mma path: {mma_tall} !< {sw_tall}"
        );
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn sddmm_rejects_bad_shapes() {
        let q = Matrix::<Half>::zeros(8, 4);
        let k = Matrix::<Half>::zeros(8, 8);
        let mask = SparsityMask::empty(8, 8);
        let _ = sddmm(&q, &k, &mask, VnmConfig::new(16, 2, 8), &dev());
    }
}
