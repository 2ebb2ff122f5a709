//! Ablation: sensitivity of the Spatha kernel to its template parameters
//! (§4.1's tunables: thread-block tile, warp tile, pipelining depth).
//!
//! For a fixed problem, each parameter is swept with the others held at the
//! autotuned optimum — showing which design choices carry the performance
//! (the paper's motivation for a template-based library over a fixed
//! kernel).

use venom_bench::{banner, csv_header, csv_row};
use venom_core::{autotune, build_counts, SpmmOptions, TileConfig};
use venom_format::VnmConfig;
use venom_sim::pipeline::simulate;
use venom_sim::DeviceConfig;

fn time_of(
    r: usize,
    k: usize,
    c: usize,
    cfg: VnmConfig,
    tile: &TileConfig,
    dev: &DeviceConfig,
) -> Option<f64> {
    let counts = build_counts(r, k, c, cfg, tile, &SpmmOptions::default());
    simulate(dev, &counts).ok().map(|t| t.time_ms)
}

fn main() {
    let dev = DeviceConfig::rtx3090();
    let (r, k, c) = (1024usize, 4096usize, 4096usize);
    let cfg = VnmConfig::new(128, 2, 16);
    let opts = SpmmOptions::default();
    let (best, best_ms) = autotune(r, k, c, cfg, &opts, &dev);

    banner(&format!(
        "Tile ablation on {r}x{k}x{c} at {cfg}; optimum {best} = {best_ms:.3} ms"
    ));

    banner("Output-column tile BSc (others at optimum)");
    csv_header(&["bs_c", "ws_c", "time_ms", "slowdown_vs_best"]);
    for bs_c in [32usize, 64, 128] {
        let ws_c = best.ws_c.min(bs_c);
        let t = TileConfig::new(
            best.bs_r,
            bs_c,
            best.bs_k_cond,
            best.ws_r,
            ws_c,
            best.stages,
        );
        if let Some(ms) = time_of(r, k, c, cfg, &t, &dev) {
            csv_row(&format!("{bs_c},{ws_c}"), &[ms, ms / best_ms]);
        }
    }

    banner("K tile (condensed) BSk");
    csv_header(&["bs_k_cond", "time_ms", "slowdown_vs_best"]);
    for bs_k in [32usize, 64, 96, 128] {
        if bs_k % 32 != 0 {
            continue;
        }
        let t = TileConfig::new(
            best.bs_r,
            best.bs_c,
            bs_k,
            best.ws_r,
            best.ws_c,
            best.stages,
        );
        if let Some(ms) = time_of(r, k, c, cfg, &t, &dev) {
            csv_row(&bs_k.to_string(), &[ms, ms / best_ms]);
        }
    }

    banner("Pipeline depth (batchSize)");
    csv_header(&["stages", "time_ms", "slowdown_vs_best"]);
    for stages in 1..=5u32 {
        let t = TileConfig::new(
            best.bs_r,
            best.bs_c,
            best.bs_k_cond,
            best.ws_r,
            best.ws_c,
            stages,
        );
        if let Some(ms) = time_of(r, k, c, cfg, &t, &dev) {
            csv_row(&stages.to_string(), &[ms, ms / best_ms]);
        }
    }

    banner("Warp tile split (WSr x WSc)");
    csv_header(&["ws_r,ws_c", "warps", "time_ms", "slowdown_vs_best"]);
    for ws_r in [16usize, 32] {
        for ws_c in [16usize, 32, 64] {
            if best.bs_r % ws_r != 0 || best.bs_c % ws_c != 0 {
                continue;
            }
            let t = TileConfig::new(
                best.bs_r,
                best.bs_c,
                best.bs_k_cond,
                ws_r,
                ws_c,
                best.stages,
            );
            if t.warps() > 16 || t.warps() < 2 {
                continue;
            }
            if let Some(ms) = time_of(r, k, c, cfg, &t, &dev) {
                csv_row(
                    &format!("{ws_r}x{ws_c}"),
                    &[t.warps() as f64, ms, ms / best_ms],
                );
            }
        }
    }
}
