//! Property tests for the pricing layer: every format's cost model must
//! be non-increasing in sparsity (pruning more can only remove priced
//! work), and the int8 V:N:M model must price strictly below the f16
//! model for identical structure on bandwidth-bound shapes (half the
//! value/B bytes, half the `mma.sp` issues).
//!
//! Sparsity ladders use *nested* masks — each sparser mask is a subset
//! of the denser one — so the property isolates the model's response to
//! removed work from incidental structure changes.

use proptest::prelude::*;
use venom_core::SpmmOptions;
use venom_format::{BlockedEllMatrix, CsrMatrix, CvseMatrix, SparsityMask, VnmConfig, VnmMatrix};
use venom_fp16::Half;
use venom_runtime::{pricing, DType};
use venom_sim::DeviceConfig;
use venom_tensor::{random, Matrix};

fn dev() -> DeviceConfig {
    DeviceConfig::rtx3090()
}

/// A pseudo-random priority in [0, 100) per coordinate; keeping
/// `priority < keep_pct` yields nested masks across `keep_pct` values.
fn priority(i: usize, j: usize, seed: u64) -> usize {
    let h = i
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(j.wrapping_mul(0x85EB_CA6B))
        .wrapping_add(seed as usize);
    (h ^ (h >> 13) ^ (h >> 27)) % 100
}

fn unstructured(r: usize, k: usize, keep_pct: usize, seed: u64) -> Matrix<Half> {
    let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
    let mask = SparsityMask::from_fn(r, k, |i, j| priority(i, j, seed) < keep_pct);
    mask.apply_f32(&w).to_half()
}

/// The priced Spatha launch time of `a` at `c` columns, autotuned.
fn vnm_ms(a: &VnmMatrix, c: usize, dtype: DType) -> f64 {
    pricing::price_vnm(a, c, dtype, &SpmmOptions::default(), &dev())
        .expect("the autotuned tile launches")
        .expect("launchable V")
        .timing
        .time_ms
}

/// A compliant V:2:M weight (keep the first two columns of each group).
fn vnm_weight(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
    let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
    let mask = SparsityMask::from_fn(r, k, |_, c| c % cfg.m < cfg.n);
    VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// V:N:M: growing M (same V, same shape) removes stored values and
    /// gathered B rows — the priced launch must never get slower.
    #[test]
    fn vnm_price_non_increasing_in_sparsity(
        vexp in 0usize..2,
        seed in 0u64..100,
    ) {
        let v = 64 << vexp; // 64 or 128
        let (r, k, c) = (4 * v, 1600, 2048);
        let mut prev = f64::INFINITY;
        for m in [8usize, 10, 16, 20, 40] {
            let a = vnm_weight(r, k, VnmConfig::new(v, 2, m), seed);
            let t = vnm_ms(&a, c, DType::F16);
            prop_assert!(t <= prev, "V={v} M={m}: {t} > {prev}");
            prev = t;
        }
    }

    /// CSR (Sputnik model): pruning more entries from the same mask must
    /// never price slower.
    #[test]
    fn csr_price_non_increasing_in_sparsity(seed in 0u64..100) {
        let (r, k, c) = (512, 2048, 1024);
        let mut prev = f64::INFINITY;
        for keep in [50usize, 25, 10, 5, 2] {
            let w = unstructured(r, k, keep, seed);
            let t = pricing::price_csr(&CsrMatrix::from_dense(&w), c, &dev()).time_ms;
            prop_assert!(t <= prev, "keep={keep}%: {t} > {prev}");
            prev = t;
        }
    }

    /// CVSE (CLASP model): same nested ladder, fixed vector length.
    #[test]
    fn cvse_price_non_increasing_in_sparsity(seed in 0u64..100) {
        let (r, k, c) = (512, 2048, 1024);
        let mut prev = f64::INFINITY;
        for keep in [50usize, 25, 10, 5] {
            let w = unstructured(r, k, keep, seed);
            let t = pricing::price_cvse(&CvseMatrix::from_dense(&w, 8), c, &dev()).time_ms;
            prop_assert!(t <= prev, "keep={keep}%: {t} > {prev}");
            prev = t;
        }
    }

    /// Blocked-ELL: pruning whole blocks from the same block mask can
    /// only shrink `ell_width` — the priced time must follow.
    #[test]
    fn blocked_ell_price_non_increasing_in_sparsity(seed in 0u64..100) {
        let (r, k, c, bs) = (512, 2048, 1024, 16);
        let dense = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mut prev = f64::INFINITY;
        for keep in [80usize, 40, 20, 10] {
            let mask = SparsityMask::from_fn(r, k, |i, j| priority(i / bs, j / bs, seed) < keep);
            let w = mask.apply_f32(&dense).to_half();
            let t = pricing::price_blocked_ell(&BlockedEllMatrix::from_dense(&w, bs), c, &dev())
                .time_ms;
            prop_assert!(t <= prev, "keep={keep}%: {t} > {prev}");
            prev = t;
        }
    }

    /// The int8 model prices strictly below f16 for identical structure
    /// on bandwidth-bound shapes: both run the same autotuned template,
    /// i8 moves half the value/B bytes and issues half the `mma.sp`s.
    #[test]
    fn i8_prices_strictly_below_f16_for_identical_structure(
        vexp in 0usize..2,
        m in prop::sample::select(vec![8usize, 10, 20]),
        kmul in 1usize..3,
        seed in 0u64..100,
    ) {
        let v = 64 << vexp;
        let (r, k, c) = (2 * v, 1600 * kmul, 4096); // wide C: bandwidth-bound
        let a = vnm_weight(r, k, VnmConfig::new(v, 2, m), seed);
        let f16 = vnm_ms(&a, c, DType::F16);
        let i8 = vnm_ms(&a, c, DType::I8);
        prop_assert!(i8 < f16, "V={v} M={m} k={k}: i8 {i8} !< f16 {f16}");
    }
}
