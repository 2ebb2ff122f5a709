//! Template-parameter selection: a fast rule-based default plus a cost-model
//! autotuner over the instantiation space (the Rust analogue of picking a
//! template specialisation in the CUDA library).

use crate::counts::build_counts;
use crate::kernel::SpmmOptions;
use crate::tile::TileConfig;
use venom_sim::pipeline::simulate;
use venom_sim::DeviceConfig;

/// The candidate template space the autotuner enumerates. `bs_r` is fixed
/// to `V` by the kernel contract, so the free parameters are the output
/// column tile, the K tile, the warp tile split and the pipeline depth.
fn candidates(v: usize) -> Vec<TileConfig> {
    let mut out = Vec::new();
    let ws_r_opts: &[usize] = if v.is_multiple_of(32) {
        &[32, 16]
    } else {
        &[16]
    };
    for &bs_c in &[32usize, 64, 128] {
        for &bs_k_cond in &[32usize, 64] {
            for &ws_r in ws_r_opts {
                if !v.is_multiple_of(ws_r) {
                    continue;
                }
                for &ws_c in &[16usize, 32, 64] {
                    if bs_c % ws_c != 0 {
                        continue;
                    }
                    for &stages in &[2u32, 3, 4] {
                        let t = TileConfig::new(v, bs_c, bs_k_cond, ws_r, ws_c, stages);
                        // Keep blocks within a sane warp budget.
                        if t.warps() >= 2 && t.warps() <= 16 {
                            out.push(t);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Rule-based default configuration (the library's built-in heuristic)
/// for a `K`-column weight in pattern `cfg` against `b_cols` output
/// columns: small output matrices get small column tiles (less wave
/// quantization), large ones get wide tiles (more reuse); deep
/// pipelining only pays off with enough K iterations.
///
/// # Panics
/// Panics if `V` is not a multiple of 16 (the kernel cannot share a B
/// fragment across rows with different column selections).
pub fn default_config(
    cfg: venom_format::VnmConfig,
    k: usize,
    b_cols: usize,
    dev: &DeviceConfig,
) -> TileConfig {
    let v = cfg.v;
    assert!(
        v.is_multiple_of(16) && v >= 16,
        "the Spatha kernel requires V to be a multiple of 16"
    );

    let k_cond = cfg.k_groups(k) * venom_format::SELECTED_COLUMNS;
    let bs_c = if b_cols >= 2048 {
        128
    } else if b_cols >= 512 {
        64
    } else {
        32
    };
    let bs_k_cond = if k_cond >= 512 { 64 } else { 32 };
    let stages = if k_cond / bs_k_cond >= 8 { 3 } else { 2 };
    let ws_r = if v.is_multiple_of(32) { 32 } else { 16 };
    let ws_c = if bs_c >= 64 { 32 } else { bs_c.min(32) };
    let t = TileConfig::new(v, bs_c, bs_k_cond, ws_r, ws_c, stages);
    if t.fits(dev) {
        t
    } else {
        // Fall back to the smallest footprint candidate.
        TileConfig::new(v, 32, 32, ws_r, 16, 2)
    }
}

/// Exhaustive cost-model search over the candidate template space for a
/// hypothetical `R x K` matrix in pattern `cfg` (the benchmark sweeps
/// price thousands of problems without materialising them); returns the
/// fastest launchable configuration and its predicted milliseconds.
///
/// # Panics
/// Panics if no candidate fits the device (cannot happen for the
/// supported `V` values on the shipped presets).
pub fn autotune(
    r: usize,
    k: usize,
    b_cols: usize,
    cfg: venom_format::VnmConfig,
    opts: &SpmmOptions,
    dev: &DeviceConfig,
) -> (TileConfig, f64) {
    let v = cfg.v;
    assert!(
        v.is_multiple_of(16) && v >= 16,
        "the Spatha kernel requires V to be a multiple of 16"
    );
    let mut best: Option<(TileConfig, f64)> = None;
    for t in candidates(v) {
        let counts = build_counts(r, k, b_cols, cfg, &t, opts);
        let Ok(timing) = simulate(dev, &counts) else {
            continue;
        };
        match best {
            Some((_, ms)) if ms <= timing.time_ms => {}
            _ => best = Some((t, timing.time_ms)),
        }
    }
    best.expect("at least one candidate configuration must fit the device")
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_format::VnmConfig;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    #[test]
    fn default_config_respects_v() {
        for v in [32usize, 64, 128] {
            let t = default_config(VnmConfig::new(v, 2, 8), 1024, 4096, &dev());
            assert_eq!(t.bs_r, v);
            assert!(t.fits(&dev()));
        }
    }

    #[test]
    fn default_config_shrinks_tiles_for_small_outputs() {
        let cfg = VnmConfig::new(64, 2, 8);
        let small = default_config(cfg, 1024, 64, &dev());
        let large = default_config(cfg, 1024, 8192, &dev());
        assert!(small.bs_c < large.bs_c);
    }

    #[test]
    fn autotune_never_loses_to_default() {
        let cfg = VnmConfig::new(128, 2, 16);
        let opts = SpmmOptions::default();
        let d = dev();
        let (tuned, tuned_ms) = autotune(1024, 4096, 4096, cfg, &opts, &d);
        let def = default_config(cfg, 4096, 4096, &d);
        let def_ms = simulate(&d, &build_counts(1024, 4096, 4096, cfg, &def, &opts))
            .unwrap()
            .time_ms;
        assert!(
            tuned_ms <= def_ms + 1e-12,
            "tuned {tuned_ms} vs default {def_ms} ({tuned})"
        );
    }

    #[test]
    fn candidate_space_is_nontrivial() {
        assert!(candidates(64).len() > 20);
        assert!(candidates(32).iter().all(|t| t.bs_r == 32));
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn v_must_be_multiple_of_16() {
        let _ = default_config(VnmConfig::new(8, 2, 8), 64, 64, &dev());
    }
}
