//! Derives the cost-model inputs ([`KernelCounts`]) for a Spatha launch.
//!
//! Every quantity is *counted* from the compressed matrix and the template
//! parameters — bytes from the actual structure sizes (values, m-indices,
//! column-loc, gathered B rows), instructions from the tile decomposition,
//! and shared-memory serialization from the bank analyzer run on the real
//! epilogue address patterns.

use crate::kernel::SpmmOptions;
use crate::tile::TileConfig;
use venom_format::{VnmMatrix, SELECTED_COLUMNS};
use venom_sim::banks;
use venom_sim::pipeline::KernelCounts;

/// Steady-state issue efficiency of the Spatha inner loop. Encodes the
/// paper's observation that the hand-tuned kernel runs close to, but not
/// at, the instruction-issue peak (Fig. 9: ~90% of the theoretical cap at
/// 80% sparsity).
pub const SPATHA_EFFICIENCY: f64 = 0.93;

/// Bank-conflict factor of the stage-3 epilogue, measured by replaying the
/// actual warp store pattern through the bank analyzer.
///
/// * `wide == true`: the Fig. 8 layout — 128-bit stores with one 16-byte pad
///   per 128-byte row segment. Conflict-free by construction.
/// * `wide == false`: 32-bit stores straight from the `mma` fragment layout
///   (thread `t` holds accumulator pairs of row `t/4`, columns `(t%4)*2`),
///   which lands quarter-warps on a handful of banks.
pub fn epilogue_conflict_factor(bs_c: usize, wide: bool) -> f64 {
    if wide {
        // Thread t stores 16 bytes; every 8 threads a 16-byte pad is
        // inserted (the PAD cells of Fig. 8).
        let addrs: Vec<u64> = (0..32u64)
            .map(|t| (t / 8) * (128 + 16) + (t % 8) * 16)
            .collect();
        banks::warp_access(&addrs, 16).conflict_factor()
    } else {
        // Thread t stores 4 bytes at (row = t/4, col = (t%4)*2) of an
        // unpadded f32 tile with bs_c columns.
        let stride = (bs_c * 4) as u64;
        let addrs: Vec<u64> = (0..32u64).map(|t| (t / 4) * stride + (t % 4) * 8).collect();
        banks::warp_access(&addrs, 4).conflict_factor()
    }
}

/// L2 hit fraction of the gathered B loads.
///
/// With M = 4 every B row is read (dense-like streaming; row tiles re-read
/// the same columns, most re-reads hit). As M grows the gather becomes
/// scattered and row selections of different thread blocks overlap only by
/// chance (~4/M of rows shared), so the hit rate decays toward a floor.
/// The constants encode Ampere GEMM L2 behaviour (Sun et al.), not any
/// benchmark result this model is asked to predict.
fn b_l2_hit(m: usize) -> f64 {
    0.25 + 0.45 * (SELECTED_COLUMNS as f64 / m as f64)
}

/// Builds the [`KernelCounts`] for one Spatha SpMM launch.
///
/// # Panics
/// Panics if `tile.bs_r` differs from the format's `V` (the paper fixes
/// `BSr = V` so one block shares one column-loc row).
pub fn build_counts(
    a: &VnmMatrix,
    b_cols: usize,
    tile: &TileConfig,
    opts: &SpmmOptions,
) -> KernelCounts {
    let (r, k) = a.shape();
    build_counts_shape(r, k, b_cols, a.config(), tile, opts)
}

/// Shape-only variant of [`build_counts`]: prices a launch for a
/// hypothetical `R x K` V:N:M matrix without materialising it (used by the
/// end-to-end transformer profiler at GPT-3 scale).
///
/// # Panics
/// Panics if `tile.bs_r != cfg.v`.
pub fn build_counts_shape(
    r: usize,
    k: usize,
    b_cols: usize,
    cfg: venom_format::VnmConfig,
    tile: &TileConfig,
    opts: &SpmmOptions,
) -> KernelCounts {
    build_counts_dtyped(r, k, b_cols, cfg, tile, opts, OperandDtype::F16)
}

/// [`build_counts`] for the int8-quantized container: same metadata and
/// tile decomposition, 1-byte operand planes and the `Uint8` table row's
/// doubled k-depth per `mma.sp` issue.
///
/// # Panics
/// Panics if `tile.bs_r` differs from the format's `V`.
pub fn build_counts_i8(
    a: &venom_format::QuantVnmMatrix,
    b_cols: usize,
    tile: &TileConfig,
    opts: &SpmmOptions,
) -> KernelCounts {
    let (r, k) = a.shape();
    build_counts_shape_i8(r, k, b_cols, a.config(), tile, opts)
}

/// Shape-only variant of [`build_counts_i8`].
///
/// # Panics
/// Panics if `tile.bs_r != cfg.v`.
pub fn build_counts_shape_i8(
    r: usize,
    k: usize,
    b_cols: usize,
    cfg: venom_format::VnmConfig,
    tile: &TileConfig,
    opts: &SpmmOptions,
) -> KernelCounts {
    build_counts_dtyped(r, k, b_cols, cfg, tile, opts, OperandDtype::I8)
}

/// Rows per thread block of the bandwidth-optimized band kernel (one
/// block owns one output row band, like the runtime's condensed stream).
pub const BAND_TILE_ROWS: usize = 16;

/// Steady-state issue efficiency of the scalar band loop: a plain
/// FMA-per-lane kernel with no tensor-core scheduling pressure, but also
/// none of Spatha's hand-tuned instruction mixing.
pub const BAND_EFFICIENCY: f64 = 0.85;

/// Builds the [`KernelCounts`] for the bandwidth-optimized band/swapped
/// SpMM (the non-mma path of [`crate::spmm_swapped`] and the runtime's
/// band replay).
///
/// The structure it prices is deliberately lean — that *is* the path's
/// value proposition left of the ridge point:
///
/// * the operand stream carries an f16 value plus a source index per
///   nonzero at the width the runtime's container stores
///   ([`venom_format::Sources::width`]): 4 B where K fits 16-bit sources,
///   6 B past that, versus the mma path's staged tile traffic,
/// * `B` is streamed row-major exactly once across the whole grid (no
///   per-block re-gather, no shared-memory staging), and
/// * the work is scalar FMAs on the CUDA cores — so the compute roof is
///   [`venom_sim::DeviceConfig::cuda_fp16_flops`], a ~4x lower ridge than
///   the sparse-tensor roof. Right of *that* ridge the band kernel loses
///   honestly, which is what lets the planner's cost comparison flip at
///   the crossover instead of at a hard-coded threshold.
pub fn build_counts_band(r: usize, k: usize, b_cols: usize, nnz: usize) -> KernelCounts {
    let c = b_cols;
    let bands = r.div_ceil(BAND_TILE_ROWS) as u64;
    let nnz_block = (nnz as u64).div_ceil(bands);
    // Operand stream: f16 value + source row, streamed once (no L2
    // reuse). B: one row-major f16 pass shared across the grid, charged
    // pro rata per block; reuse across bands is folded into charging the
    // pass once instead of per block.
    let stream_bytes = nnz_block * (2 + venom_format::Sources::width(k) as u64);
    let b_bytes = ((k * c * 2) as u64).div_ceil(bands);
    // Output: one f32 row band per block.
    let gmem_store = (BAND_TILE_ROWS * c * 4) as u64;
    KernelCounts {
        name: format!("band[r{r} k{k}]"),
        grid_blocks: bands,
        // No shared memory, a small register budget: occupancy is never
        // the band kernel's problem.
        block: venom_sim::BlockResources::new(128, 0, 32),
        // The main loop walks each row's operand run once per panel.
        k_iters: (nnz_block / BAND_TILE_ROWS as u64).max(1),
        pipeline_stages: 1,
        mma_sp_per_block: 0,
        mma_dense_per_block: 0,
        fma_per_block: nnz_block * c as u64,
        gmem_load_bytes_per_block: stream_bytes + b_bytes,
        gmem_store_bytes_per_block: gmem_store,
        l2_hit_fraction: 0.0,
        smem_transactions_per_block: 0,
        smem_epilogue_transactions_per_block: 0,
        // A single lightweight kernel: no column-loc prefetch, no
        // multi-stage pipeline fill.
        prologue_cycles_per_wave: 150,
        efficiency: BAND_EFFICIENCY,
        effective_flops: 2 * r as u64 * k as u64 * c as u64,
    }
}

/// Operand precision of a counted Spatha launch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum OperandDtype {
    /// 2-byte operands, `mma.sp.m16n8k{16,32}` (Table 1's Fp16 row).
    F16,
    /// 1-byte operands, `mma.sp.m16n8k{32,64}` (Table 1's Uint8 row):
    /// half the value/B bytes, double the k-depth per instruction, plus
    /// one 4-byte dequantization scale per block row.
    I8,
}

fn build_counts_dtyped(
    r: usize,
    k: usize,
    b_cols: usize,
    cfg: venom_format::VnmConfig,
    tile: &TileConfig,
    opts: &SpmmOptions,
    dtype: OperandDtype,
) -> KernelCounts {
    assert_eq!(tile.bs_r, cfg.v, "Spatha requires BSr == V (paper §4.1.1)");
    let c = b_cols;
    // Bytes per stored value / RHS element, and how many of the f16
    // shape's k-steps one instruction covers.
    let (elem_bytes, k_per_mma) = match dtype {
        OperandDtype::F16 => (2usize, 1u64),
        OperandDtype::I8 => (1usize, 2u64),
    };

    let k_groups = cfg.k_groups(k);
    let k_cond = k_groups * SELECTED_COLUMNS;

    let row_tiles = r.div_ceil(tile.bs_r) as u64;
    let col_tiles = c.div_ceil(tile.bs_c) as u64;
    let grid_blocks = row_tiles * col_tiles;
    let k_iters = (k_cond.div_ceil(tile.bs_k_cond)) as u64;

    // --- Instructions -----------------------------------------------------
    let m_tiles = tile.bs_r.div_ceil(tile.mma.m) as u64;
    let n_tiles = tile.bs_c.div_ceil(tile.mma.n) as u64;
    // Int8 `mma.sp` covers twice the k-depth per issue (Table 1: k32/64
    // versus the f16 row's k16/32), halving the instruction count.
    let k_steps = (k_cond.div_ceil(tile.mma.k) as u64).div_ceil(k_per_mma);
    let mma_sp_per_block = m_tiles * n_tiles * k_steps;

    // --- Global memory traffic --------------------------------------------
    // A values: BSr rows x K_cond/2 stored values (2 B halves, 1 B i8).
    let a_values = (tile.bs_r * k_cond / 2 * elem_bytes) as u64;
    // m-indices: 2 bits per stored value (dtype-independent).
    let a_meta = ((tile.bs_r * k_cond / 2 * 2) / 8) as u64;
    // Per-row dequantization scales of the int8 path (4 B per block row).
    let a_scales = match dtype {
        OperandDtype::F16 => 0u64,
        OperandDtype::I8 => (tile.bs_r * 4) as u64,
    };
    // column-loc: 4 entries per group for this block row (1 B each for
    // M <= 256), loaded once per block. Absent in the "fixed indices"
    // ablation variant (Fig. 9 w/o column-loc).
    let col_loc = if opts.use_column_loc {
        (k_groups * SELECTED_COLUMNS * if cfg.m <= 256 { 1 } else { 2 }) as u64
    } else {
        0
    };
    // Gathered B: 4 rows per group x BSc columns (2 B f16, 1 B i8).
    let b_bytes = (k_cond * tile.bs_c * elem_bytes) as u64;
    let gmem_load = a_values + a_meta + a_scales + col_loc + b_bytes;
    // Output: half-precision C tile (the int8 path dequantizes in the
    // epilogue and stores the same half tile).
    let gmem_store = (tile.bs_r * tile.bs_c * 2) as u64;

    // Weighted L2 hit: A structures are re-read by every block in the same
    // grid row (first read misses), B follows the gather model above.
    let a_bytes_total = (a_values + a_meta + a_scales + col_loc) as f64;
    let a_hit = 1.0 - 1.0 / col_tiles as f64;
    let bh = b_l2_hit(cfg.m);
    let l2_hit = (a_bytes_total * a_hit + b_bytes as f64 * bh) / (a_bytes_total + b_bytes as f64);

    // --- Shared memory traffic ---------------------------------------------
    // Main loop: operands staged GMEM->SMEM then read SMEM->RF; 128 B per
    // conflict-free transaction. The Fig. 7 storage order makes the A reads
    // conflict-free (verified in venom-format::storage tests); the B tile
    // is written/read in coalesced rows.
    let main_smem = ((a_values + a_meta + b_bytes) / 128) * 2;
    // Epilogue: f32 accumulators staged through SMEM (store + read back),
    // charged with the measured conflict factor of the selected layout.
    // These transactions are reported separately: the cost model charges
    // them additively (stage 3 runs behind a barrier, §4.1.3).
    let epi_factor = epilogue_conflict_factor(tile.bs_c, opts.wide_smem_store);
    let epi_bytes = (tile.bs_r * tile.bs_c * 4) as u64;
    let epi_smem = ((epi_bytes / 128) as f64 * (1.0 + epi_factor)) as u64;
    let smem_transactions = main_smem;

    // --- Fixed costs --------------------------------------------------------
    // Two-level column-loc prefetch + pipeline fill (§4.1.1 step 11).
    let prologue = 600 + 400 * tile.stages as u64;

    let dtype_tag = match dtype {
        OperandDtype::F16 => "",
        OperandDtype::I8 => "-i8",
    };
    KernelCounts {
        name: format!("spatha{dtype_tag}[{}]{}", cfg, tile),
        grid_blocks,
        block: tile.block_resources(),
        k_iters,
        pipeline_stages: tile.stages,
        mma_sp_per_block,
        mma_dense_per_block: 0,
        fma_per_block: 0,
        gmem_load_bytes_per_block: gmem_load,
        gmem_store_bytes_per_block: gmem_store,
        l2_hit_fraction: l2_hit,
        smem_transactions_per_block: smem_transactions,
        smem_epilogue_transactions_per_block: epi_smem,
        prologue_cycles_per_wave: prologue,
        efficiency: SPATHA_EFFICIENCY,
        // Dense-equivalent FLOPs, as the paper reports speedups.
        effective_flops: 2 * r as u64 * k as u64 * c as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SpmmOptions;
    use venom_format::{SparsityMask, VnmConfig, VnmMatrix};
    use venom_sim::pipeline::simulate;
    use venom_sim::DeviceConfig;
    use venom_tensor::random;

    fn vnm_fixture(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        // Simple compliant mask: keep the first two of the first four
        // columns of every group for every row.
        let mask = SparsityMask::from_fn(r, k, |_, c| c % cfg.m < cfg.n);
        let _ = &w;
        VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
    }

    #[test]
    fn epilogue_factors_match_figure8() {
        // Padded 128-bit layout: conflict-free.
        assert_eq!(epilogue_conflict_factor(64, true), 1.0);
        // Naive 32-bit fragment layout: heavily serialized.
        assert!(epilogue_conflict_factor(64, false) >= 4.0);
    }

    #[test]
    fn instruction_count_reflects_op_reduction() {
        let tile = TileConfig::new(64, 64, 32, 32, 32, 2);
        let opts = SpmmOptions::default();
        let a8 = vnm_fixture(128, 1024, VnmConfig::new(64, 2, 8), 1);
        let a16 = vnm_fixture(128, 1024, VnmConfig::new(64, 2, 16), 2);
        let c8 = build_counts(&a8, 256, &tile, &opts);
        let c16 = build_counts(&a16, 256, &tile, &opts);
        // Doubling M halves the condensed K and thus the instructions.
        assert_eq!(c8.mma_sp_per_block, 2 * c16.mma_sp_per_block);
        // B traffic halves too (half the gathered rows).
        assert!(c8.gmem_load_bytes_per_block > c16.gmem_load_bytes_per_block);
    }

    #[test]
    fn column_loc_toggle_changes_only_loads() {
        let tile = TileConfig::new(64, 64, 32, 32, 32, 2);
        let a = vnm_fixture(128, 2048, VnmConfig::new(64, 2, 16), 3);
        let with = build_counts(&a, 256, &tile, &SpmmOptions::default());
        let without = build_counts(
            &a,
            256,
            &tile,
            &SpmmOptions {
                use_column_loc: false,
                ..SpmmOptions::default()
            },
        );
        assert!(with.gmem_load_bytes_per_block > without.gmem_load_bytes_per_block);
        assert_eq!(with.mma_sp_per_block, without.mma_sp_per_block);
        assert_eq!(
            with.smem_transactions_per_block,
            without.smem_transactions_per_block
        );
    }

    #[test]
    fn wide_store_reduces_epilogue_transactions() {
        let tile = TileConfig::new(64, 64, 32, 32, 32, 2);
        let a = vnm_fixture(128, 1024, VnmConfig::new(64, 2, 8), 4);
        let wide = build_counts(&a, 256, &tile, &SpmmOptions::default());
        let narrow = build_counts(
            &a,
            256,
            &tile,
            &SpmmOptions {
                wide_smem_store: false,
                ..SpmmOptions::default()
            },
        );
        assert!(
            narrow.smem_epilogue_transactions_per_block > wide.smem_epilogue_transactions_per_block
        );
        // The main loop is unaffected by the store width.
        assert_eq!(
            narrow.smem_transactions_per_block,
            wide.smem_transactions_per_block
        );
    }

    #[test]
    fn simulated_speedup_tracks_sparsity() {
        // Same GEMM at rising sparsity must get faster monotonically.
        let dev = DeviceConfig::rtx3090();
        let tile = TileConfig::new(128, 64, 32, 32, 32, 3);
        let mut prev = f64::INFINITY;
        for m in [8usize, 16, 32] {
            let a = vnm_fixture(1024, 4096, VnmConfig::new(128, 2, m), 5);
            let counts = build_counts(&a, 4096, &tile, &SpmmOptions::default());
            let t = simulate(&dev, &counts).unwrap().time_ms;
            assert!(t < prev, "m={m}: {t} !< {prev}");
            prev = t;
        }
    }

    #[test]
    fn int8_counts_halve_bytes_and_instructions() {
        use venom_format::QuantVnmMatrix;
        let tile = TileConfig::new(64, 64, 32, 32, 32, 2);
        let opts = SpmmOptions::default();
        let a = vnm_fixture(128, 1024, VnmConfig::new(64, 2, 8), 7);
        let q = QuantVnmMatrix::quantize(&a, venom_quant::Calibration::AbsMax);
        let f16 = build_counts(&a, 256, &tile, &opts);
        let i8c = build_counts_i8(&q, 256, &tile, &opts);
        // Double k per mma.sp halves the instruction count exactly.
        assert_eq!(i8c.mma_sp_per_block * 2, f16.mma_sp_per_block);
        // Value and B planes halve; metadata and the small scale vector
        // keep the total strictly above half.
        assert!(i8c.gmem_load_bytes_per_block < f16.gmem_load_bytes_per_block);
        assert!(i8c.gmem_load_bytes_per_block * 2 > f16.gmem_load_bytes_per_block);
        // And the priced launch is strictly cheaper on the same device.
        let dev = DeviceConfig::rtx3090();
        let t16 = simulate(&dev, &f16).unwrap().time_ms;
        let t8 = simulate(&dev, &i8c).unwrap().time_ms;
        assert!(t8 < t16, "i8 {t8} !< f16 {t16}");
    }

    #[test]
    fn band_counts_flip_the_winner_at_the_ridge() {
        // Left of the ridge (c=8) the lean band kernel undercuts the mma
        // pipeline's staging traffic and fixed costs; far right of it
        // (c=4096) the CUDA-core FMA roof buries the band path. The
        // planner's routing is exactly this comparison.
        let dev = DeviceConfig::rtx3090();
        let tile = TileConfig::new(64, 64, 32, 32, 32, 2);
        let a = vnm_fixture(1024, 768, VnmConfig::new(64, 2, 8), 9);
        let (r, k) = a.shape();
        for (c, band_wins) in [(8usize, true), (4096, false)] {
            let spatha = build_counts(&a, c, &tile, &SpmmOptions::default());
            let band = build_counts_band(r, k, c, a.nnz());
            let ts = simulate(&dev, &spatha).unwrap().time_ms;
            let tb = simulate(&dev, &band).unwrap().time_ms;
            assert_eq!(tb < ts, band_wins, "c={c}: band={tb:.4}ms spatha={ts:.4}ms");
        }
    }

    #[test]
    fn band_counts_scale_streams_with_c() {
        // B and store traffic grow with c; the operand stream does not.
        let lo = build_counts_band(1024, 768, 8, 150_000);
        let hi = build_counts_band(1024, 768, 64, 150_000);
        assert!(hi.gmem_load_bytes_per_block > lo.gmem_load_bytes_per_block);
        assert!(hi.gmem_store_bytes_per_block > lo.gmem_store_bytes_per_block);
        assert_eq!(hi.fma_per_block, 8 * lo.fma_per_block);
        assert_eq!(hi.mma_sp_per_block, 0);
        assert_eq!(hi.smem_transactions_per_block, 0);
    }

    #[test]
    fn band_counts_price_wide_sources_at_four_bytes() {
        // Past K = 65536 the stream stores u32 sources: 6 B per operand.
        let b_bytes = |k: u64| (k * 8 * 2).div_ceil(4);
        let narrow = build_counts_band(64, 65_536, 8, 1000);
        let wide = build_counts_band(64, 70_000, 8, 1000);
        assert_eq!(narrow.gmem_load_bytes_per_block, 250 * 4 + b_bytes(65_536));
        assert_eq!(wide.gmem_load_bytes_per_block, 250 * 6 + b_bytes(70_000));
    }

    #[test]
    #[should_panic(expected = "BSr == V")]
    fn rejects_mismatched_block_rows() {
        let tile = TileConfig::new(32, 64, 32, 32, 32, 2);
        let a = vnm_fixture(128, 512, VnmConfig::new(64, 2, 8), 6);
        let _ = build_counts(&a, 128, &tile, &SpmmOptions::default());
    }
}
