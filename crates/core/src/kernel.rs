//! The Spatha SpMM kernel: functional execution + simulated timing.
//!
//! Functional execution mirrors the GPU mapping exactly: the grid of
//! thread-block tiles is processed in parallel (rayon standing in for SMs),
//! each block gathers its selected B rows (stage 1), decomposes its warp
//! tiles into `mma.sp.m16n8k32` instruction tiles executed by the simulated
//! tensor core (stage 2), and writes the output tile back (stage 3). The
//! arithmetic goes through
//! [`venom_sim::tensorcore::mma_sp_f32_strided`] over *f32-staged*
//! operands: both the compressed values and the dense RHS are decoded from
//! fp16 exactly once per call (the conversion is exact), so the result
//! carries genuine tensor-core numerics (exact fp16 products, f32
//! accumulation in instruction order) bit-identical to the retained
//! `Half`-operand reference [`venom_sim::tensorcore::mma_sp_f16`] — at a
//! fraction of the decode work. Per-block scratch lives in a per-thread
//! workspace instead of fresh allocations, and the block grid is split
//! over rows *and* columns when there are fewer block rows than cores.

use crate::autotune::default_config;
use crate::counts::build_counts;
use crate::tile::TileConfig;
use rayon::prelude::*;
use venom_format::{VnmMatrix, SELECTED_COLUMNS};
use venom_fp16::Half;
use venom_sim::pipeline::{simulate, KernelCounts, KernelTiming};
use venom_sim::tensorcore::mma_sp_f32_strided;
use venom_sim::DeviceConfig;
use venom_tensor::Matrix;

/// Options of one SpMM call.
#[derive(Clone, Copy, Debug)]
pub struct SpmmOptions {
    /// Template parameters; `None` lets the library pick via
    /// [`default_config`].
    pub tile: Option<TileConfig>,
    /// Load B rows through the column-loc indirection (true) or simulate
    /// the "fixed indices" ablation of Fig. 9 (false).
    pub use_column_loc: bool,
    /// Use the padded 128-bit epilogue of Fig. 8 (true) or the 32-bit
    /// variant of the Fig. 10 ablation (false).
    pub wide_smem_store: bool,
}

impl Default for SpmmOptions {
    fn default() -> Self {
        SpmmOptions {
            tile: None,
            use_column_loc: true,
            wide_smem_store: true,
        }
    }
}

/// Result of one SpMM call.
#[derive(Clone, Debug)]
pub struct SpmmResult {
    /// The product `A * B` in f32 (the accumulator precision).
    pub c: Matrix<f32>,
    /// Simulated timing on the target device.
    pub timing: KernelTiming,
    /// The priced resource counts (for reports and ablations).
    pub counts: KernelCounts,
    /// The template instantiation used.
    pub tile: TileConfig,
}

/// Sparse matrix-matrix multiply `C = A * B`, priced on `dev` with the
/// template instantiation `opts.tile`, or [`default_config`]'s when that
/// is `None`.
///
/// # Panics
/// Panics if `B` has a row count different from `A`'s K, if
/// `opts.tile` has `bs_r != A.config().v`, or if the configuration
/// cannot launch on `dev`.
pub fn spmm(a: &VnmMatrix, b: &Matrix<Half>, opts: &SpmmOptions, dev: &DeviceConfig) -> SpmmResult {
    let (r, k) = a.shape();
    assert_eq!(b.rows(), k, "B must have K = {k} rows");
    let c_cols = b.cols();
    let tile = opts
        .tile
        .unwrap_or_else(|| default_config(a.config(), k, c_cols, dev));

    let counts = build_counts(r, k, c_cols, a.config(), &tile, opts);
    let timing = simulate(dev, &counts)
        .unwrap_or_else(|e| panic!("configuration {tile} cannot launch on {}: {e:?}", dev.name));

    SpmmResult {
        c: execute_functional(a, b, &tile),
        timing,
        counts,
        tile,
    }
}

/// Prices a Spatha SpMM for a *hypothetical* `R x K` matrix in pattern
/// `cfg` against a `K x b_cols` dense operand, without materialising
/// anything, with the autotuner selecting the template instantiation —
/// the configuration the shipped library would use, and the one the
/// benchmark sweeps report.
///
/// # Panics
/// Panics if no candidate configuration fits `dev`.
pub fn spmm_time_tuned(
    r: usize,
    k: usize,
    b_cols: usize,
    cfg: venom_format::VnmConfig,
    opts: &SpmmOptions,
    dev: &DeviceConfig,
) -> KernelTiming {
    let (tile, _) = crate::autotune::autotune(r, k, b_cols, cfg, opts, dev);
    let counts = build_counts(r, k, b_cols, cfg, &tile, opts);
    simulate(dev, &counts).expect("autotuned configuration fits by construction")
}

/// Per-worker scratch of the staged pipeline, reused across every block a
/// thread executes (the per-block `Vec` allocations of the pre-staging
/// engine were a measurable fraction of small-shape wall time). Buffers are
/// reallocated only when the requested sizes change.
struct Workspace {
    /// Staged "shared memory" B gather: `k_steps * mma.k` selected rows,
    /// each padded to a multiple of `mma.n` columns, already decoded to f32.
    b_tile: Vec<f32>,
    /// Staged LHS fragment: `mma.m x mma.k/2` pre-decoded stored values.
    a_vals: Vec<f32>,
    /// Metadata aligned with `a_vals`.
    a_meta: Vec<u8>,
    /// f32 accumulators for the partial-width column-tail fragments (the
    /// full-width fragments accumulate directly into the output band).
    d_tail: Vec<f32>,
}

impl Workspace {
    const fn new() -> Self {
        Workspace {
            b_tile: Vec::new(),
            a_vals: Vec::new(),
            a_meta: Vec::new(),
            d_tail: Vec::new(),
        }
    }

    fn ensure(&mut self, b_tile_len: usize, frag_len: usize, d_tail_len: usize) {
        if self.b_tile.len() != b_tile_len {
            self.b_tile = vec![0.0; b_tile_len];
        }
        if self.a_vals.len() != frag_len {
            self.a_vals = vec![0.0; frag_len];
            self.a_meta = vec![0; frag_len];
        }
        if self.d_tail.len() != d_tail_len {
            self.d_tail = vec![0.0; d_tail_len];
        }
    }
}

thread_local! {
    /// One workspace per worker thread; rayon tasks on the same thread
    /// share it, mirroring how a persistent SM reuses its shared memory.
    static WORKSPACE: std::cell::RefCell<Workspace> =
        const { std::cell::RefCell::new(Workspace::new()) };
}

/// The f32-staged operands of one SpMM call: both the compressed values and
/// the dense RHS are decoded exactly once (the `f16 -> f32` conversion is
/// exact, so the staged products — and therefore the results — are
/// bit-identical to decoding at every multiply-accumulate).
struct Staged<'a> {
    a: &'a VnmMatrix,
    /// `a.values()` decoded to f32; `0.0` still marks padding slots.
    a_f32: Vec<f32>,
    /// The dense RHS decoded to f32, row-major `K x c_cols`.
    b_f32: Vec<f32>,
    b_cols: usize,
    tile: TileConfig,
}

/// Stage 0–3 functional execution over the block grid.
fn execute_functional(a: &VnmMatrix, b: &Matrix<Half>, tile: &TileConfig) -> Matrix<f32> {
    let (r, _k) = a.shape();
    let c_cols = b.cols();
    let row_tiles = r.div_ceil(tile.bs_r);
    let col_tiles = c_cols.div_ceil(tile.bs_c);

    // Stage 0: decode both operands to f32 once, up front.
    let staged = Staged {
        a,
        a_f32: venom_fp16::slice::decode_f32_vec(a.values()),
        b_f32: venom_fp16::slice::decode_f32_vec(b.as_slice()),
        b_cols: c_cols,
        tile: *tile,
    };

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if col_tiles == 1 || row_tiles >= threads {
        execute_rows(&staged)
    } else {
        // Tall-skinny output (fewer block rows than workers): split the
        // grid over both dimensions so every core gets work.
        execute_grid(&staged)
    }
}

/// 1-D schedule: one rayon task per block row (grid Y). The B gather
/// happens once per block row at full output width; every column fragment
/// slices the same staged tile.
fn execute_rows(staged: &Staged<'_>) -> Matrix<f32> {
    let (r, _) = staged.a.shape();
    let c_cols = staged.b_cols;
    let bs_r = staged.tile.bs_r;
    let mut out = vec![0.0f32; r * c_cols];
    out.par_chunks_mut(bs_r * c_cols)
        .enumerate()
        .for_each(|(rt, out_band)| {
            execute_band(staged, rt, 0, c_cols, out_band, c_cols);
        });
    Matrix::from_vec(r, c_cols, out)
}

/// 2-D schedule: one rayon task per `(rt, ct)` block. Each task computes
/// its tile into a private buffer (the tiles of one band are not contiguous
/// in the output), which is then assembled sequentially. Identical
/// arithmetic to [`execute_rows`] — each output element is produced by
/// exactly one block either way.
fn execute_grid(staged: &Staged<'_>) -> Matrix<f32> {
    let (r, _) = staged.a.shape();
    let c_cols = staged.b_cols;
    let tile = staged.tile;
    let row_tiles = r.div_ceil(tile.bs_r);
    let col_tiles = c_cols.div_ceil(tile.bs_c);

    let tiles: Vec<Vec<f32>> = (0..row_tiles * col_tiles)
        .into_par_iter()
        .map(|t| {
            let (rt, ct) = (t / col_tiles, t % col_tiles);
            let rows_here = tile.bs_r.min(r - rt * tile.bs_r);
            let col0 = ct * tile.bs_c;
            let cols_here = tile.bs_c.min(c_cols - col0);
            let mut buf = vec![0.0f32; rows_here * cols_here];
            execute_band(staged, rt, col0, cols_here, &mut buf, cols_here);
            buf
        })
        .collect();

    let mut out = vec![0.0f32; r * c_cols];
    for (t, buf) in tiles.iter().enumerate() {
        let (rt, ct) = (t / col_tiles, t % col_tiles);
        let row0 = rt * tile.bs_r;
        let rows_here = tile.bs_r.min(r - row0);
        let col0 = ct * tile.bs_c;
        let cols_here = tile.bs_c.min(c_cols - col0);
        for i in 0..rows_here {
            out[(row0 + i) * c_cols + col0..(row0 + i) * c_cols + col0 + cols_here]
                .copy_from_slice(&buf[i * cols_here..(i + 1) * cols_here]);
        }
    }
    Matrix::from_vec(r, c_cols, out)
}

/// One thread block: computes the `bs_r x cols_here` output tile starting
/// at `(rt * bs_r, col0)` into `out` (row stride `out_stride`, row 0 =
/// block row 0). `out` must be zero-initialised: the accumulators chain
/// directly on top of it, in the same per-element order as the reference
/// paths, so results are bit-identical to [`VnmMatrix::spmm_ref`].
fn execute_band(
    staged: &Staged<'_>,
    rt: usize,
    col0: usize,
    cols_here: usize,
    out: &mut [f32],
    out_stride: usize,
) {
    let a = staged.a;
    let tile = &staged.tile;
    let (r, _) = a.shape();
    let cfg = a.config();
    let n = cfg.n;
    let k_groups = a.k_groups();

    let row0 = rt * tile.bs_r;
    let rows_here = tile.bs_r.min(r - row0);

    let shape = tile.mma;
    let groups_per_step = shape.k / SELECTED_COLUMNS; // 8 groups per k-step
    let k_steps = k_groups.div_ceil(groups_per_step);
    // The staged tile pads each gathered row to a multiple of mma.n so
    // fragment reads never need a column guard; the padding is zero, so a
    // tail fragment's out-of-range products are exact zeros that the
    // write-back then drops.
    let width = cols_here.div_ceil(shape.n) * shape.n;
    let full_nts = cols_here / shape.n;
    let tail_cols = cols_here - full_nts * shape.n;

    let m_indices = a.m_indices();
    let slots_per_row = k_groups * n;
    let frag_len = shape.m * shape.k / 2;

    WORKSPACE.with(|cell| {
        let ws = &mut *cell.borrow_mut();
        ws.ensure(k_steps * shape.k * width, frag_len, tile.bs_r * shape.n);

        // Stage 1: gather the selected (pre-decoded) B rows of every K
        // group into the "shared memory" tile — once per block, shared by
        // all column fragments.
        for g in 0..k_groups {
            let sel = a.selected_b_rows(rt, g);
            for (j, &brow) in sel.iter().enumerate() {
                let src = &staged.b_f32[brow * staged.b_cols + col0..][..cols_here];
                let dst = &mut ws.b_tile[(g * SELECTED_COLUMNS + j) * width..][..width];
                dst[..cols_here].copy_from_slice(src);
                dst[cols_here..].fill(0.0);
            }
        }
        if tail_cols > 0 {
            ws.d_tail[..rows_here * shape.n].fill(0.0);
        }

        // Stage 2: mma.sp instruction tiles. Loop order (k-step, then row
        // fragment, then column fragment) builds each LHS fragment once and
        // reuses it across the whole tile width; every full-width fragment
        // accumulates straight into the output band.
        for ks in 0..k_steps {
            let g0 = ks * groups_per_step;
            let b_step = &ws.b_tile[ks * shape.k * width..];
            for mt in 0..tile.bs_r / shape.m {
                let frag_row0 = row0 + mt * shape.m;
                if frag_row0 >= row0 + rows_here {
                    break;
                }

                // LHS fragment: 16 rows x (k/2) staged values + metadata.
                for i in 0..shape.m {
                    let row = frag_row0 + i;
                    for gg in 0..groups_per_step {
                        let g = g0 + gg;
                        for s in 0..2 {
                            let dst = i * (shape.k / 2) + gg * 2 + s;
                            if row < r && g < k_groups && s < n {
                                let slot = row * slots_per_row + g * n + s;
                                ws.a_vals[dst] = staged.a_f32[slot];
                                ws.a_meta[dst] = m_indices[slot];
                            } else {
                                ws.a_vals[dst] = 0.0;
                                ws.a_meta[dst] = 0;
                            }
                        }
                    }
                }

                let d_row0 = mt * shape.m * out_stride;
                for nt in 0..full_nts {
                    let frag_col0 = nt * shape.n;
                    mma_sp_f32_strided(
                        shape,
                        &ws.a_vals,
                        &ws.a_meta,
                        &b_step[frag_col0..],
                        width,
                        &mut out[d_row0 + frag_col0..],
                        out_stride,
                    );
                }
                if tail_cols > 0 {
                    // The column tail keeps its own accumulators across all
                    // k-steps (writing back per step would split the f32
                    // accumulation chain and change the rounding).
                    mma_sp_f32_strided(
                        shape,
                        &ws.a_vals,
                        &ws.a_meta,
                        &b_step[full_nts * shape.n..],
                        width,
                        &mut ws.d_tail[mt * shape.m * shape.n..],
                        shape.n,
                    );
                }
            }
        }

        // Stage 3: only the column tail needs an explicit write-back.
        if tail_cols > 0 {
            let frag_col0 = full_nts * shape.n;
            for i in 0..rows_here {
                for cc in 0..tail_cols {
                    out[i * out_stride + frag_col0 + cc] += ws.d_tail[i * shape.n + cc];
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_format::{SparsityMask, VnmConfig};
    use venom_tensor::{norms, random};

    /// Magnitude V:N:M mask (test-local copy; the pruner crate owns the
    /// production implementation).
    fn vnm_mask(w: &Matrix<f32>, cfg: VnmConfig) -> SparsityMask {
        let mut mask = SparsityMask::empty(w.rows(), w.cols());
        for b in 0..cfg.row_blocks(w.rows()) {
            let r0 = b * cfg.v;
            let r1 = (r0 + cfg.v).min(w.rows());
            for g in 0..cfg.k_groups(w.cols()) {
                let c0 = g * cfg.m;
                let c1 = (c0 + cfg.m).min(w.cols());
                let mut cols: Vec<usize> = (c0..c1).collect();
                cols.sort_by(|&x, &y| {
                    let sx: f32 = (r0..r1).map(|r| w.get(r, x).abs()).sum();
                    let sy: f32 = (r0..r1).map(|r| w.get(r, y).abs()).sum();
                    sy.partial_cmp(&sx).unwrap()
                });
                let sel: Vec<usize> = cols.into_iter().take(SELECTED_COLUMNS).collect();
                for r in r0..r1 {
                    let mut sc = sel.clone();
                    sc.sort_by(|&x, &y| w.get(r, y).abs().partial_cmp(&w.get(r, x).abs()).unwrap());
                    for &c in sc.iter().take(cfg.n) {
                        mask.set(r, c, true);
                    }
                }
            }
        }
        mask
    }

    fn fixture(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = vnm_mask(&w, cfg);
        VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
    }

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    #[test]
    fn spmm_matches_format_reference() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = fixture(64, 128, cfg, 1);
        let b = random::normal_matrix(128, 48, 0.0, 1.0, 2).to_half();
        let tile = TileConfig::new(32, 32, 32, 32, 32, 2);
        let opts = SpmmOptions {
            tile: Some(tile),
            ..SpmmOptions::default()
        };
        let got = spmm(&a, &b, &opts, &dev());
        let want = a.spmm_ref(&b);
        let err = norms::max_abs_diff(&got.c, &want);
        assert!(err < 1e-2, "err={err}");
    }

    #[test]
    fn spmm_matches_dense_gemm_through_decompression() {
        let cfg = VnmConfig::new(16, 2, 10);
        let a = fixture(48, 100, cfg, 3);
        let b = random::normal_matrix(100, 40, 0.0, 1.0, 4).to_half();
        let got = spmm(&a, &b, &SpmmOptions::default(), &dev());
        let want = venom_tensor::gemm::gemm_ref(&a.decompress(), &b);
        assert!(norms::allclose(&got.c, &want, 1e-3, 1e-3));
    }

    #[test]
    fn irregular_shapes_are_handled() {
        // R not divisible by V, K not by M, C not by BSc / mma.n.
        let cfg = VnmConfig::new(16, 2, 10);
        let a = fixture(50, 93, cfg, 5);
        let b = random::normal_matrix(93, 37, 0.0, 1.0, 6).to_half();
        let got = spmm(&a, &b, &SpmmOptions::default(), &dev());
        let want = a.spmm_ref(&b);
        assert!(norms::allclose(&got.c, &want, 1e-3, 1e-3));
    }

    #[test]
    fn minimum_vector_size_v16_works() {
        // V must be a multiple of mma.m = 16: the 16 rows of an instruction
        // tile share one B fragment, so they must share one column
        // selection. (V = 1 "plain N:M" is a pruning-only configuration in
        // the paper too — its kernels always use V >= 32.)
        let cfg = VnmConfig::new(16, 2, 8);
        let a = fixture(48, 64, cfg, 7);
        let b = random::normal_matrix(64, 16, 0.0, 1.0, 8).to_half();
        let got = spmm(&a, &b, &SpmmOptions::default(), &dev());
        let want = a.spmm_ref(&b);
        assert!(norms::allclose(&got.c, &want, 1e-3, 1e-3));
    }

    #[test]
    fn ablation_variants_same_result_different_time() {
        let cfg = VnmConfig::new(64, 2, 16);
        let a = fixture(128, 256, cfg, 9);
        let b = random::normal_matrix(256, 64, 0.0, 1.0, 10).to_half();
        let base = spmm(&a, &b, &SpmmOptions::default(), &dev());
        let narrow = spmm(
            &a,
            &b,
            &SpmmOptions {
                wide_smem_store: false,
                ..SpmmOptions::default()
            },
            &dev(),
        );
        assert_eq!(base.c, narrow.c, "store width must not change the math");
        assert!(
            narrow.counts.smem_epilogue_transactions_per_block
                > base.counts.smem_epilogue_transactions_per_block
        );
        assert!(narrow.timing.time_ms >= base.timing.time_ms);
    }

    #[test]
    fn staged_kernel_is_bitwise_identical_to_spmm_ref() {
        // The staged pipeline accumulates every output element in the same
        // (group, slot) order as the compressed-format oracle, with the
        // same exact products — so the match is exact, not approximate.
        for (v, n, m) in [(16usize, 2usize, 8usize), (32, 2, 16), (64, 2, 8)] {
            let cfg = VnmConfig::new(v, n, m);
            let a = fixture(2 * v + 7, 5 * m + 3, cfg, v as u64);
            let b = random::normal_matrix(5 * m + 3, 43, 0.0, 1.0, v as u64 + 1).to_half();
            let got = spmm(&a, &b, &SpmmOptions::default(), &dev());
            let want = a.spmm_ref(&b);
            assert_eq!(got.c, want, "V={v} N={n} M={m}");
        }
    }

    #[test]
    fn row_and_grid_schedules_match_bitwise() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = fixture(70, 93, cfg, 21);
        let b = random::normal_matrix(93, 75, 0.0, 1.0, 22).to_half();
        let tile = TileConfig::new(32, 32, 32, 32, 32, 2);
        let staged = Staged {
            a: &a,
            a_f32: venom_fp16::slice::decode_f32_vec(a.values()),
            b_f32: venom_fp16::slice::decode_f32_vec(b.as_slice()),
            b_cols: b.cols(),
            tile,
        };
        let rows = execute_rows(&staged);
        let grid = execute_grid(&staged);
        assert_eq!(rows, grid);
        assert_eq!(rows, a.spmm_ref(&b));
    }

    #[test]
    fn spmm_reports_the_price_only_entry_price() {
        // The compute entry prices exactly what the price-only entries
        // (`build_counts` + `simulate`, `default_config`) price for the
        // same shape, with an explicit tile and with the default one.
        let cfg = VnmConfig::new(64, 2, 8);
        let (r, k, c) = (128, 512, 96);
        let a = fixture(r, k, cfg, 11);
        let b = random::normal_matrix(k, c, 0.0, 1.0, 12).to_half();
        let explicit = TileConfig::new(64, 32, 32, 32, 32, 2);
        for tile in [Some(explicit), None] {
            let opts = SpmmOptions {
                tile,
                ..SpmmOptions::default()
            };
            let res = spmm(&a, &b, &opts, &dev());
            let want_tile = tile.unwrap_or_else(|| default_config(cfg, k, c, &dev()));
            assert_eq!(res.tile, want_tile);
            let counts = build_counts(r, k, c, cfg, &want_tile, &opts);
            assert_eq!(res.counts, counts, "{tile:?}");
            assert_eq!(res.timing, simulate(&dev(), &counts).unwrap(), "{tile:?}");
        }
        assert_ne!(default_config(cfg, k, c, &dev()), explicit);
    }

    #[test]
    #[should_panic(expected = "B must have K")]
    fn shape_mismatch_panics() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = fixture(32, 64, cfg, 13);
        let b = Matrix::<Half>::zeros(32, 8);
        let _ = spmm(&a, &b, &SpmmOptions::default(), &dev());
    }
}
