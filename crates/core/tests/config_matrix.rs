//! Exhaustive template-configuration matrix: every legal tile shape must
//! produce bit-identical results — the template parameters are a
//! performance knob, never a correctness knob.

use venom_core::{spmm, SpmmOptions, TileConfig};
use venom_format::{SparsityMask, VnmConfig, VnmMatrix};
use venom_fp16::Half;
use venom_sim::DeviceConfig;
use venom_tensor::{norms, random, Matrix};

/// Options pinning the template instantiation to `tile`.
fn pinned(tile: TileConfig) -> SpmmOptions {
    SpmmOptions {
        tile: Some(tile),
        ..SpmmOptions::default()
    }
}

fn fixture(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
    let w = random::glorot_matrix(r, k, seed);
    // Deterministic compliant mask: first two of the first four columns of
    // every group, shifted per block for variety.
    let mask = SparsityMask::from_fn(r, k, |row, c| {
        let g = c / cfg.m;
        let rel = c % cfg.m;
        let shift = (row / cfg.v + g) % (cfg.m - 3);
        rel >= shift && rel < shift + cfg.n
    });
    assert!(mask.complies_vnm(cfg), "fixture mask must comply");
    VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
}

#[test]
fn every_legal_tile_produces_the_same_result() {
    let dev = DeviceConfig::rtx3090();
    let cfg = VnmConfig::new(32, 2, 8);
    let a = fixture(64, 128, cfg, 1);
    let b: Matrix<Half> = random::activation_matrix(128, 48, 2).to_half();
    let reference = a.spmm_ref(&b);

    let mut tried = 0;
    for bs_c in [16usize, 32, 64] {
        for bs_k in [32usize, 64] {
            for ws_r in [16usize, 32] {
                for ws_c in [8usize, 16, 32] {
                    if bs_c % ws_c != 0 {
                        continue;
                    }
                    for stages in [1u32, 2, 4] {
                        let tile = TileConfig::new(32, bs_c, bs_k, ws_r, ws_c, stages);
                        let out = spmm(&a, &b, &pinned(tile), &dev);
                        assert!(
                            norms::allclose(&out.c, &reference, 1e-3, 1e-3),
                            "{tile}: max diff {}",
                            norms::max_abs_diff(&out.c, &reference)
                        );
                        tried += 1;
                    }
                }
            }
        }
    }
    assert!(
        tried >= 30,
        "the sweep must actually cover the space ({tried})"
    );
}

#[test]
fn ablation_flags_never_change_results() {
    let dev = DeviceConfig::rtx3090();
    let cfg = VnmConfig::new(16, 2, 10);
    let a = fixture(48, 100, cfg, 3);
    let b: Matrix<Half> = random::activation_matrix(100, 24, 4).to_half();
    let reference = a.spmm_ref(&b);
    for use_column_loc in [true, false] {
        for wide in [true, false] {
            let opts = SpmmOptions {
                use_column_loc,
                wide_smem_store: wide,
                ..SpmmOptions::default()
            };
            let out = spmm(&a, &b, &opts, &dev);
            assert!(
                norms::allclose(&out.c, &reference, 1e-3, 1e-3),
                "colloc={use_column_loc} wide={wide}"
            );
        }
    }
}

#[test]
fn timing_varies_across_tiles_but_work_is_constant() {
    // The cost model must distinguish configurations (that is the point of
    // autotuning) while the instruction count per warp-level invariant
    // stays fixed: mma total is independent of the tile split.
    let dev = DeviceConfig::rtx3090();
    let cfg = VnmConfig::new(64, 2, 8);
    let a = fixture(128, 512, cfg, 5);
    let b: Matrix<Half> = random::activation_matrix(512, 256, 6).to_half();
    let mut times = Vec::new();
    let mut total_mma = Vec::new();
    for (bs_c, ws_c, stages) in [(32usize, 16usize, 2u32), (64, 32, 2), (128, 32, 4)] {
        let tile = TileConfig::new(64, bs_c, 32, 32, ws_c, stages);
        let out = spmm(&a, &b, &pinned(tile), &dev);
        times.push(out.timing.time_ms);
        total_mma.push(out.counts.mma_sp_per_block * out.counts.grid_blocks);
    }
    assert!(
        times.iter().any(|&t| (t - times[0]).abs() > 1e-9),
        "tiles must differ in time"
    );
    assert!(
        total_mma.iter().all(|&m| m == total_mma[0]),
        "total instruction count is tile-invariant: {total_mma:?}"
    );
}

#[test]
fn deep_pipelines_help_long_k_loops() {
    let dev = DeviceConfig::rtx3090();
    let cfg = VnmConfig::new(64, 2, 4);
    let mk = |stages: u32| {
        let tile = TileConfig::new(64, 64, 32, 32, 32, stages);
        venom_core::build_counts(128, 8192, 1024, cfg, &tile, &SpmmOptions::default())
    };
    let shallow = venom_sim::pipeline::simulate(&dev, &mk(1)).unwrap();
    let deep = venom_sim::pipeline::simulate(&dev, &mk(4)).unwrap();
    // 8192 original K = 8192 condensed at m=4 -> 256 k-iters: fill cost is
    // negligible, but the deeper pipeline hides latency: it must never be
    // slower in the model, and its pipeline efficiency must be close to 1.
    assert!(deep.pipeline_efficiency > 0.95);
    assert!(shallow.pipeline_efficiency > deep.pipeline_efficiency * 0.99);
}
