//! Planned sparse attention: the activation-side plan/execute split.
//!
//! The weight side of the engine plans once and replays per request
//! ([`crate::MatmulPlan`]); this module gives the *activation* side the
//! same treatment. Attention's inner product `S = Q Kᵀ` is an SDDMM —
//! only the positions a mask allows are ever needed — and the paper's
//! companion routine (§9a, and Magicube's second kernel) emits it
//! directly in compressed form, ready to feed softmax and the `P·V`
//! SpMM without a dense round trip.
//!
//! Two pieces:
//!
//! * [`AttentionMask`] — dynamic per-request masks (causal,
//!   sliding-window, blockwise) as first-class values. A mask is a
//!   predicate, not a matrix: the dense path applies it in place and the
//!   planned path reads each row's sampled run straight from
//!   [`AttentionMask::row_range`], so no `O(seq²)` mask or index storage
//!   ever materializes.
//! * [`AttentionPlan`] — the full pipeline `SDDMM → masked softmax over
//!   the compressed scores → P·V`, computed only at the mask's sampled
//!   positions yet bit-identical to the dense reference chain
//!   (`gemm_parallel` → mask → `softmax_rows` → `gemm_parallel`),
//!   because masked entries contribute exactly-zero terms the dense
//!   accumulation order already skips or absorbs.
//!
//! The plan is priced from [`venom_core::sddmm_counts`]-derived
//! [`KernelCounts`], answers `regime(dev)`, and picks between the mma
//! and swapped-operand SDDMM schedules by simulated cost — the same
//! flip-on-cost discipline as `plan_auto`, no thresholds.

use crate::matmul::PlanError;
use rayon::prelude::*;
use venom_core::{sddmm_counts, sddmm_counts_swapped};
use venom_format::VnmConfig;
use venom_fp16::{f16_to_f32_table, f32_to_f16_bits, Half};
use venom_sim::pipeline::{simulate, KernelCounts, KernelTiming};
use venom_sim::{DeviceConfig, Regime, Roofline};
use venom_tensor::Matrix;

/// A dynamic attention mask: which key positions each query row may
/// attend to. First-class and cheap to pass around — a predicate with
/// one contiguous run of allowed columns per row, never a stored bitmap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AttentionMask {
    /// Decoder masking: position `r` attends to positions `c <= r`.
    Causal,
    /// Causal sliding window: position `r` attends to the last `window`
    /// positions `c` with `r - window < c <= r` (Longformer/Mistral
    /// style local attention).
    SlidingWindow {
        /// Window length in positions (>= 1); `window >= seq` degenerates
        /// to [`AttentionMask::Causal`].
        window: usize,
    },
    /// Block-diagonal masking: the sequence splits into contiguous
    /// blocks of `block` positions and attention stays within a block.
    Blockwise {
        /// Block length in positions (>= 1).
        block: usize,
    },
}

impl AttentionMask {
    /// Whether query row `r` may attend to key column `c`.
    #[inline]
    pub fn allows(&self, r: usize, c: usize) -> bool {
        match *self {
            AttentionMask::Causal => c <= r,
            AttentionMask::SlidingWindow { window } => c <= r && r - c < window,
            AttentionMask::Blockwise { block } => r / block.max(1) == c / block.max(1),
        }
    }

    /// The contiguous range of key columns row `r` attends to at
    /// sequence length `seq`. Every supported mask kind is contiguous
    /// per row, which is what lets the planned path read each row's
    /// sampled run from here instead of storing a bitmap or index planes.
    pub fn row_range(&self, r: usize, seq: usize) -> core::ops::Range<usize> {
        match *self {
            AttentionMask::Causal => 0..(r + 1).min(seq),
            AttentionMask::SlidingWindow { window } => {
                (r + 1).saturating_sub(window.max(1))..(r + 1).min(seq)
            }
            AttentionMask::Blockwise { block } => {
                let b = block.max(1);
                (r / b) * b..((r / b + 1) * b).min(seq)
            }
        }
    }

    /// Allowed positions over a `seq x seq` score matrix.
    pub fn nnz(&self, seq: usize) -> usize {
        (0..seq).map(|r| self.row_range(r, seq).len()).sum()
    }

    /// Fraction of the `seq x seq` score matrix the mask keeps.
    pub fn density(&self, seq: usize) -> f64 {
        if seq == 0 {
            return 0.0;
        }
        self.nnz(seq) as f64 / (seq * seq) as f64
    }

    /// Mask parameter validation for [`AttentionPlan::build`].
    fn validate(&self) -> Result<(), PlanError> {
        let bad = |reason: String| PlanError::Unplannable {
            what: "attention",
            reason,
        };
        match *self {
            AttentionMask::SlidingWindow { window: 0 } => {
                Err(bad("sliding window length must be at least 1".into()))
            }
            AttentionMask::Blockwise { block: 0 } => {
                Err(bad("block length must be at least 1".into()))
            }
            _ => Ok(()),
        }
    }
}

impl core::fmt::Display for AttentionMask {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AttentionMask::Causal => write!(f, "causal"),
            AttentionMask::SlidingWindow { window } => write!(f, "sliding-window({window})"),
            AttentionMask::Blockwise { block } => write!(f, "blockwise({block})"),
        }
    }
}

/// Which SDDMM schedule a plan replays — selected by simulated cost at
/// build time, exactly like `plan_auto` picks a weight format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SddmmPath {
    /// Row-tiled dense `mma` over the gathered K columns
    /// ([`venom_core::sddmm_counts`]).
    Mma,
    /// Swapped-operand stream: tile only the condensed columns, stream Q
    /// ([`venom_core::sddmm_counts_swapped`]).
    Swapped,
}

impl core::fmt::Display for SddmmPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SddmmPath::Mma => write!(f, "sddmm-mma"),
            SddmmPath::Swapped => write!(f, "sddmm-swapped"),
        }
    }
}

/// A planned attention pipeline for one `(seq, hidden, heads, mask)`
/// shape: SDDMM over each row's sampled run (read from the mask),
/// softmax over the compressed scores, `P·V` over the same run — never
/// materializing the dense `seq x seq` score matrix, yet bit-identical
/// to the dense reference chain at every unmasked position (masked
/// positions contribute exactly-zero terms the dense order already
/// absorbs).
#[derive(Clone, Debug)]
pub struct AttentionPlan {
    seq: usize,
    hidden: usize,
    heads: usize,
    d_head: usize,
    mask: AttentionMask,
    /// Sampled positions of the `seq x seq` score matrix, per head.
    nnz: usize,
    scale: f32,
    path: SddmmPath,
    counts: KernelCounts,
    timing: KernelTiming,
}

impl AttentionPlan {
    /// Builds and prices the plan.
    ///
    /// # Errors
    /// [`PlanError::Unplannable`] on a degenerate shape (zero sequence,
    /// heads not dividing hidden) or mask parameters.
    pub fn build(
        seq: usize,
        hidden: usize,
        heads: usize,
        mask: AttentionMask,
        dev: &DeviceConfig,
    ) -> Result<AttentionPlan, PlanError> {
        let bad = |reason: String| PlanError::Unplannable {
            what: "attention",
            reason,
        };
        mask.validate()?;
        if seq == 0 {
            return Err(bad("sequence length must be at least 1".into()));
        }
        if heads == 0 || !hidden.is_multiple_of(heads) {
            return Err(bad(format!(
                "heads ({heads}) must divide the hidden size ({hidden})"
            )));
        }
        let d_head = hidden / heads;
        let nnz = mask.nnz(seq);
        let (path, counts, timing) = attn_price(seq, d_head, heads, nnz, mask, dev);
        Ok(AttentionPlan {
            seq,
            hidden,
            heads,
            d_head,
            mask,
            nnz,
            scale: 1.0 / (d_head as f32).sqrt(),
            path,
            counts,
            timing,
        })
    }

    /// The attention matmuls over projected activations: per head,
    /// `softmax(Q_h K_hᵀ / sqrt(d)) V_h`, computed only at the mask's
    /// sampled positions. Bit-identical to the dense per-head chain
    /// (`gemm_parallel` scores, in-place mask, `softmax_rows`,
    /// `gemm_parallel` context) at every position, NaN and infinity
    /// included.
    ///
    /// Layout: Q, K and V are staged once per call (rounded through f16
    /// and decoded exactly, as the dense path's `.to_half()` does) into
    /// arena-leased head-major panels — Q and V as `[h][r][kk]`, K
    /// transposed as `[h][kk][c]`. One parallel region then walks the
    /// context rows, heads inner. A row's sampled columns are one
    /// contiguous run, so `Q Kᵀ` is swept across that run of the K panel:
    /// `s[c] += q[kk] * kᵀ[kk][c]` for `kk = 0..d`.
    ///
    /// Why the bits cannot move: that sweep is the dense `gemm_parallel`
    /// loop itself — each score starts at `0.0` and accumulates `q * k`
    /// in `kk` order with a separate multiply and add, skipping zero `q`
    /// — only vectorized across columns. Scaling, the max fold, `exp`,
    /// the running sum, the f16 rounding of `p` and the zero-`p` skip in
    /// `P·V` then run in the dense order over the sampled entries.
    /// Masked entries are the only ones left out, and in the dense chain
    /// they are `-inf` scores whose `exp` adds `+0.0` to a nonnegative
    /// sum and whose zero-half probabilities `P·V` skips.
    ///
    /// # Panics
    /// Panics when the operand shapes disagree with the planned
    /// `(seq, hidden)`.
    pub fn attention(&self, q: &Matrix<f32>, k: &Matrix<f32>, v: &Matrix<f32>) -> Matrix<f32> {
        let (seq, hidden, heads, d) = (self.seq, self.hidden, self.heads, self.d_head);
        for (name, m) in [("Q", q), ("K", k), ("V", v)] {
            assert_eq!(
                (m.rows(), m.cols()),
                (seq, hidden),
                "{name} shape must match the planned (seq, hidden)"
            );
        }
        let table = f16_to_f32_table();
        let round = |x: f32| table[f32_to_f16_bits(x) as usize];
        let panel = seq * d;
        let timer = venom_obs::profile::PhaseTimer::start();
        let mut qp = crate::arena::lease(seq * hidden);
        let mut kt = crate::arena::lease(seq * hidden);
        let mut vp = crate::arena::lease(seq * hidden);
        for r in 0..seq {
            for h in 0..heads {
                let (src, dst) = (h * d..(h + 1) * d, h * panel + r * d);
                for (o, &x) in qp[dst..dst + d].iter_mut().zip(&q.row(r)[src.clone()]) {
                    *o = round(x);
                }
                for (o, &x) in vp[dst..dst + d].iter_mut().zip(&v.row(r)[src.clone()]) {
                    *o = round(x);
                }
                for (kk, &x) in k.row(r)[src].iter().enumerate() {
                    kt[h * panel + kk * seq + r] = round(x);
                }
            }
        }
        timer.stop("attention", "stage", (3 * seq * hidden * 4) as u64);

        let timer = venom_obs::profile::PhaseTimer::start();
        let mut ctx = Matrix::<f32>::zeros(seq, hidden);
        let (qs, ks, vs) = (&qp[..], &kt[..], &vp[..]);
        ctx.as_mut_slice()
            .par_chunks_mut(hidden)
            .enumerate()
            .for_each(|(r, orow)| {
                // The sampled run `c0..c0 + n`, in ascending column order
                // — the dense accumulation order minus the masked entries.
                let run = self.mask.row_range(r, seq);
                let (c0, n) = (run.start, run.len());
                if n == 0 {
                    // No sampled column: the dense guarded softmax yields
                    // zeros, so the context row stays zero.
                    return;
                }
                // Leased at the full `seq` so the buffer a thread reuses
                // never regrows as the runs lengthen.
                let mut scratch = crate::arena::lease(seq);
                let s = &mut scratch[..n];
                for h in 0..heads {
                    let qrow = &qs[h * panel + r * d..h * panel + (r + 1) * d];
                    let kth = &ks[h * panel..(h + 1) * panel];
                    s.fill(0.0);
                    for (kk, &qv) in qrow.iter().enumerate() {
                        if qv == 0.0 {
                            // Zero Q entries are skipped, as the dense
                            // GEMM skips zero A entries (0 · ±inf would
                            // otherwise turn the score NaN).
                            continue;
                        }
                        let krun = &kth[kk * seq + c0..kk * seq + c0 + n];
                        for (sv, &kv) in s.iter_mut().zip(krun) {
                            *sv += qv * kv;
                        }
                    }
                    for sv in s.iter_mut() {
                        *sv *= self.scale;
                    }
                    // Masked softmax over the compressed row. The row
                    // max over sampled entries equals the dense row max
                    // (masked entries are -inf); masked exp terms are
                    // +0.0 and leave the dense running sum bit-exact.
                    let max = s.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    if max == f32::NEG_INFINITY {
                        // Every sampled score is -inf or NaN: the dense
                        // guarded softmax zeroes the row, so P·V
                        // contributes nothing.
                        continue;
                    }
                    let mut sum = 0.0f32;
                    for sv in s.iter_mut() {
                        *sv = (*sv - max).exp();
                        sum += *sv;
                    }
                    // P·V over the same run: probabilities round through
                    // f16 exactly as the dense path's `probs.to_half()`,
                    // and exact-zero probabilities are skipped — the
                    // dense kernel skips them too.
                    let out = &mut orow[h * d..(h + 1) * d];
                    let vh = &vs[h * panel..(h + 1) * panel];
                    for (c, &sv) in s.iter().enumerate() {
                        let p = Half::from_f32(sv / sum);
                        if p.is_zero() {
                            continue;
                        }
                        let pv = table[p.to_bits() as usize];
                        let vrow = &vh[(c0 + c) * d..(c0 + c + 1) * d];
                        for (o, &x) in out.iter_mut().zip(vrow) {
                            *o += pv * x;
                        }
                    }
                }
                crate::arena::release(scratch);
            });
        // Compulsory traffic of the sweep, booked once for all heads: the
        // staged K and V panels and the context written once.
        timer.stop("attention", "mma", (3 * seq * hidden * 4) as u64);
        for buf in [qp, kt, vp] {
            crate::arena::release(buf);
        }
        ctx
    }

    /// The mask the plan samples.
    pub fn mask(&self) -> AttentionMask {
        self.mask
    }

    /// `(seq, hidden, heads)` of the planned shape.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.seq, self.hidden, self.heads)
    }

    /// Sampled score positions per head.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Fraction of the dense `seq x seq` score matrix the plan computes.
    pub fn density(&self) -> f64 {
        self.nnz as f64 / (self.seq * self.seq) as f64
    }

    /// The SDDMM schedule cost selection picked.
    pub fn path(&self) -> SddmmPath {
        self.path
    }

    /// The priced resource counts of the whole pipeline.
    pub fn counts(&self) -> &KernelCounts {
        &self.counts
    }

    /// Simulated timing of one forward on the build device.
    pub fn timing(&self) -> &KernelTiming {
        &self.timing
    }

    /// Simulated milliseconds per forward.
    pub fn cost_ms(&self) -> f64 {
        self.timing.time_ms
    }

    /// Roofline placement of the pipeline on `dev`.
    pub fn roofline(&self, dev: &DeviceConfig) -> Roofline {
        venom_sim::roofline::analyze(dev, &self.counts)
    }

    /// Compute- or memory-bound verdict on `dev`.
    pub fn regime(&self, dev: &DeviceConfig) -> Regime {
        self.roofline(dev).regime()
    }
}

/// Prices the attention pipeline on both SDDMM schedules and keeps the
/// cheaper one (`cost_cmp`, no shape thresholds).
fn attn_price(
    seq: usize,
    d_head: usize,
    heads: usize,
    nnz: usize,
    mask: AttentionMask,
    dev: &DeviceConfig,
) -> (SddmmPath, KernelCounts, KernelTiming) {
    let [mma, swapped] = attn_schedules(seq, d_head, heads, nnz, mask, dev);
    if crate::pricing::cost_cmp(swapped.2.time_ms, mma.2.time_ms) == core::cmp::Ordering::Less {
        swapped
    } else {
        mma
    }
}

/// The attention pipeline priced on each SDDMM schedule, `[mma,
/// swapped]`. The counts derive from [`venom_core::sddmm_counts`] at a
/// V:N:M configuration whose condensed slab matches the mask's density
/// (`SELECTED_COLUMNS / m ≈ nnz / seq²`), scaled to all heads, with the
/// effective work pinned to the mask's true sampled positions — so
/// `regime(dev)` answers for the real pipeline, not a proxy.
fn attn_schedules(
    seq: usize,
    d_head: usize,
    heads: usize,
    nnz: usize,
    mask: AttentionMask,
    dev: &DeviceConfig,
) -> [(SddmmPath, KernelCounts, KernelTiming); 2] {
    let density = (nnz as f64 / (seq * seq).max(1) as f64).max(1e-6);
    // The equivalent V:N:M pattern: m sized so the condensed slab keeps
    // the same fraction of columns as the mask does.
    let m = ((venom_format::SELECTED_COLUMNS as f64 / density).round() as usize)
        .clamp(venom_format::SELECTED_COLUMNS, 4096);
    let cfg = VnmConfig::new(16, 2, m);
    let price = |path, mut counts: KernelCounts| {
        counts.grid_blocks = counts.grid_blocks.saturating_mul(heads as u64).max(1);
        // SDDMM work plus the P·V pass over the same sampled entries.
        counts.effective_flops = (heads * 2 * nnz * d_head) as u64 * 2;
        counts.name = format!("attn[{mask}]");
        let timing = simulate(dev, &counts).expect("attn counts fit the shipped presets");
        (path, counts, timing)
    };
    [
        price(SddmmPath::Mma, sddmm_counts(seq, d_head, seq, cfg)),
        price(
            SddmmPath::Swapped,
            sddmm_counts_swapped(seq, d_head, seq, cfg),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    #[test]
    fn mask_predicates_match_their_row_ranges() {
        let seq = 37;
        for mask in [
            AttentionMask::Causal,
            AttentionMask::SlidingWindow { window: 5 },
            AttentionMask::SlidingWindow { window: 64 },
            AttentionMask::Blockwise { block: 8 },
        ] {
            let mut nnz = 0;
            for r in 0..seq {
                let range = mask.row_range(r, seq);
                for c in 0..seq {
                    assert_eq!(
                        mask.allows(r, c),
                        range.contains(&c),
                        "{mask} disagrees at ({r},{c})"
                    );
                }
                assert!(!range.is_empty(), "{mask} row {r} must attend somewhere");
                assert!(range.contains(&r), "{mask} row {r} must see itself");
                nnz += range.len();
            }
            assert_eq!(mask.nnz(seq), nnz);
        }
    }

    #[test]
    fn attention_plan_keeps_the_cheaper_schedule() {
        // Short sequences stream Q through the swapped schedule; long
        // ones ride the row-tiled mma (the flip lies between 64 and 128).
        for (seq, want) in [(64, SddmmPath::Swapped), (256, SddmmPath::Mma)] {
            let mask = AttentionMask::Causal;
            let plan = AttentionPlan::build(seq, 64, 1, mask, &dev()).unwrap();
            assert_eq!(plan.path(), want, "seq {seq}");
            let [mma, swapped] = attn_schedules(seq, 64, 1, mask.nnz(seq), mask, &dev());
            assert_eq!(
                plan.cost_ms(),
                mma.2.time_ms.min(swapped.2.time_ms),
                "seq {seq}: the plan must keep the cheaper schedule"
            );
        }
    }

    #[test]
    fn attention_plan_prices_and_answers_regime() {
        let plan = AttentionPlan::build(128, 128, 4, AttentionMask::Causal, &dev()).unwrap();
        assert!(plan.cost_ms() > 0.0);
        assert_eq!(plan.nnz(), 128 * 129 / 2);
        assert_eq!(plan.density(), AttentionMask::Causal.density(128));
        let roof = plan.roofline(&dev());
        assert!(roof.intensity > 0.0);
        // Sparser masks must price cheaper at the same shape: the cost
        // derivation tracks the mask, not just the shape.
        let window = AttentionPlan::build(
            128,
            128,
            4,
            AttentionMask::SlidingWindow { window: 8 },
            &dev(),
        )
        .unwrap();
        assert!(
            window.cost_ms() < plan.cost_ms(),
            "sliding-window ({}) must price below causal ({})",
            window.cost_ms(),
            plan.cost_ms()
        );
    }

    #[test]
    fn attention_plan_rejects_degenerate_shapes() {
        let e = AttentionPlan::build(0, 64, 4, AttentionMask::Causal, &dev()).unwrap_err();
        assert!(e.to_string().contains("sequence"), "{e}");
        let e = AttentionPlan::build(8, 64, 5, AttentionMask::Causal, &dev()).unwrap_err();
        assert!(e.to_string().contains("divide"), "{e}");
        let e = AttentionPlan::build(8, 64, 4, AttentionMask::SlidingWindow { window: 0 }, &dev())
            .unwrap_err();
        assert!(e.to_string().contains("window"), "{e}");
    }
}
