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
//! Three pieces:
//!
//! * [`AttentionMask`] — dynamic per-request masks (causal,
//!   sliding-window, blockwise) as first-class values. A mask is a
//!   predicate, not a matrix: the dense path applies it in place and the
//!   planned path condenses it into a gather order, so no `O(seq²)` mask
//!   storage ever materializes.
//! * [`SddmmPlan`] — stage `K` once (the exact f16→f32 decode the
//!   one-shot kernel performs per call), replay per head or request.
//!   Replay is bit-identical to one-shot [`venom_core::sddmm()`].
//! * [`AttentionPlan`] — the full pipeline `SDDMM → masked softmax over
//!   the compressed scores → P·V`, computed only at the mask's sampled
//!   positions yet bit-identical to the dense reference chain
//!   (`gemm_parallel` → mask → `softmax_rows` → `gemm_parallel`),
//!   because masked entries contribute exactly-zero terms the dense
//!   accumulation order already skips or absorbs.
//!
//! Both plans are priced from [`venom_core::sddmm_counts`]-derived
//! [`KernelCounts`], answer `regime(dev)`, and pick between the mma and
//! swapped-operand SDDMM schedules by simulated cost — the same
//! flip-on-cost discipline as `plan_auto`, no thresholds.

use crate::matmul::PlanError;
use rayon::prelude::*;
use venom_core::{sddmm_counts, sddmm_counts_swapped};
use venom_format::{SparsityMask, VnmConfig, VnmMatrix};
use venom_fp16::{f16_to_f32_table, f32_to_f16_bits, Half};
use venom_sim::pipeline::{simulate, KernelCounts, KernelTiming};
use venom_sim::{DeviceConfig, Regime, Roofline};
use venom_tensor::Matrix;

/// A dynamic attention mask: which key positions each query row may
/// attend to. First-class and cheap to pass around — the block structure
/// only materializes (as a [`SparsityMask`]) when a V:N:M kernel needs
/// it.
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
    /// blocks of `block` positions and attention stays within a block —
    /// the blockwise structure [`SparsityMask`] groups columns by.
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
    /// per row, which is what lets the planned path store a condensed
    /// gather order instead of a bitmap.
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

    /// Materializes the predicate as a [`SparsityMask`] — the bridge to
    /// the V:N:M block structure ([`SparsityMask::complies_vnm`],
    /// [`SparsityMask::and`] for intersecting with a pattern's selected
    /// columns).
    pub fn to_sparsity_mask(&self, seq: usize) -> SparsityMask {
        SparsityMask::from_fn(seq, seq, |r, c| self.allows(r, c))
    }

    /// The mask kind as a census label.
    pub fn kind(&self) -> &'static str {
        match self {
            AttentionMask::Causal => "causal",
            AttentionMask::SlidingWindow { .. } => "sliding-window",
            AttentionMask::Blockwise { .. } => "blockwise",
        }
    }

    /// A fingerprint salt folding the mask kind and parameters — for
    /// [`crate::PlanKey::with_salt`], so same-shape plans under different
    /// masks occupy distinct cache lines.
    pub fn salt(&self) -> u64 {
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let h = 0xcbf2_9ce4_8422_2325u64;
        match *self {
            AttentionMask::Causal => mix(h, 1),
            AttentionMask::SlidingWindow { window } => mix(mix(h, 2), window as u64),
            AttentionMask::Blockwise { block } => mix(mix(h, 3), block as u64),
        }
    }

    /// Shape/parameter validation shared by the plan builders.
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

/// Prices both SDDMM schedules and returns the cheaper one with its
/// counts and timing. The flip is pure cost comparison (`cost_cmp`), no
/// shape thresholds.
fn select_sddmm_path(
    r: usize,
    d: usize,
    c: usize,
    cfg: VnmConfig,
    dev: &DeviceConfig,
) -> (SddmmPath, KernelCounts, KernelTiming) {
    let mma = sddmm_counts(r, d, c, cfg);
    let swapped = sddmm_counts_swapped(r, d, c, cfg);
    let t_mma = simulate(dev, &mma).expect("sddmm counts fit the shipped presets");
    let t_swapped = simulate(dev, &swapped).expect("swapped sddmm counts fit the shipped presets");
    if crate::pricing::cost_cmp(t_swapped.time_ms, t_mma.time_ms) == core::cmp::Ordering::Less {
        (SddmmPath::Swapped, swapped, t_swapped)
    } else {
        (SddmmPath::Mma, mma, t_mma)
    }
}

/// A planned SDDMM: `K` is staged once (transposed, decoded through the
/// exact f16→f32 table) and the sampled positions are condensed into a
/// gather order, so replaying against a fresh `Q` pays neither staging
/// nor pattern discovery. Replay is bit-identical to one-shot
/// [`venom_core::sddmm()`]: each sampled dot product accumulates in the
/// same `kk` order over the same staged values.
#[derive(Clone, Debug)]
pub struct SddmmPlan {
    rows: usize,
    d: usize,
    cols: usize,
    cfg: VnmConfig,
    pattern: SparsityMask,
    /// K transposed and decoded: `kt[c * d + kk] = f32(K[kk][c])`.
    kt_f32: Vec<f32>,
    /// Condensed gather order: `cols_idx[row_ptr[r]..row_ptr[r+1]]` are
    /// row `r`'s sampled columns, ascending — the accumulation order the
    /// one-shot kernel uses.
    row_ptr: Vec<u32>,
    cols_idx: Vec<u32>,
    path: SddmmPath,
    counts: KernelCounts,
    timing: KernelTiming,
}

impl SddmmPlan {
    /// Stages `k` and condenses `pattern` into a replayable plan.
    ///
    /// # Errors
    /// [`PlanError::Unplannable`] when the pattern does not comply with
    /// `cfg` or the shapes disagree.
    pub fn build(
        k: &Matrix<Half>,
        pattern: &SparsityMask,
        cfg: VnmConfig,
        dev: &DeviceConfig,
    ) -> Result<SddmmPlan, PlanError> {
        let bad = |reason: String| PlanError::Unplannable {
            what: "sddmm",
            reason,
        };
        if pattern.cols() != k.cols() {
            return Err(bad(format!(
                "pattern has {} columns but K has {}",
                pattern.cols(),
                k.cols()
            )));
        }
        if !pattern.complies_vnm(cfg) {
            return Err(bad(format!("pattern does not comply with {cfg}")));
        }
        let (rows, d, cols) = (pattern.rows(), k.rows(), k.cols());

        // Stage K transposed exactly as the one-shot kernel does per
        // call: one contiguous decoded column per sampled dot product.
        let table = f16_to_f32_table();
        let mut kt_f32 = vec![0.0f32; d * cols];
        for kk in 0..d {
            let krow = k.row(kk);
            for (c, &kv) in krow.iter().enumerate() {
                kt_f32[c * d + kk] = table[kv.to_bits() as usize];
            }
        }

        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut cols_idx = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            for c in pattern.row_indices(r) {
                cols_idx.push(c as u32);
            }
            row_ptr.push(cols_idx.len() as u32);
        }

        let (path, counts, timing) = select_sddmm_path(rows, d, cols, cfg, dev);
        Ok(SddmmPlan {
            rows,
            d,
            cols,
            cfg,
            pattern: pattern.clone(),
            kt_f32,
            row_ptr,
            cols_idx,
            path,
            counts,
            timing,
        })
    }

    /// Replays the plan against a fresh `Q`: the sampled product in the
    /// pattern's compressed V:N:M layout, bit-identical to
    /// `venom_core::sddmm(q, k, pattern, cfg, Functional, dev).out`.
    ///
    /// # Panics
    /// Panics when `q`'s shape disagrees with the staged `K`/pattern.
    pub fn replay(&self, q: &Matrix<Half>) -> VnmMatrix {
        assert_eq!(q.cols(), self.d, "inner dimensions must agree");
        assert_eq!(q.rows(), self.rows, "pattern rows must match Q");
        let timer = venom_obs::profile::PhaseTimer::start();
        let q_f32 = venom_fp16::slice::decode_f32_vec(q.as_slice());
        timer.stop("sddmm", "stage", (q.len() * 2) as u64);
        let d = self.d;
        let timer = venom_obs::profile::PhaseTimer::start();
        let mut out = vec![Half::ZERO; self.rows * self.cols];
        // Both priced schedules (`self.path`) replay the same way: each
        // row walks its condensed gather order, and every sampled dot
        // accumulates in `kk` order over the same staged values — the
        // schedules differ in tiling and pricing, never in bits.
        out.par_chunks_mut(self.cols)
            .enumerate()
            .for_each(|(r, orow)| {
                let qrow = &q_f32[r * d..(r + 1) * d];
                let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                for &c in &self.cols_idx[lo..hi] {
                    let kcol = &self.kt_f32[c as usize * d..(c as usize + 1) * d];
                    orow[c as usize] = Half::from_f32(dot_f32(qrow, kcol));
                }
            });
        // Compulsory traffic of the gather-order replay: the staged K
        // panel, the condensed index planes, and the sampled outputs.
        timer.stop(
            "sddmm",
            "gather",
            (self.kt_f32.len() * 4
                + self.cols_idx.len() * 4
                + self.row_ptr.len() * 4
                + self.cols_idx.len() * 2) as u64,
        );
        let timer = venom_obs::profile::PhaseTimer::start();
        let dense = Matrix::from_vec(self.rows, self.cols, out);
        let compressed = VnmMatrix::compress(&dense, &self.pattern, self.cfg);
        timer.stop("sddmm", "epilogue", (self.cols_idx.len() * 2) as u64);
        compressed
    }

    /// The schedule cost selection picked.
    pub fn path(&self) -> SddmmPath {
        self.path
    }

    /// The V:N:M pattern the plan samples.
    pub fn pattern(&self) -> &SparsityMask {
        &self.pattern
    }

    /// `(rows, d, cols)` of the sampled product.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.rows, self.d, self.cols)
    }

    /// The priced resource counts of the selected schedule.
    pub fn counts(&self) -> &KernelCounts {
        &self.counts
    }

    /// Simulated timing of one replay on the build device.
    pub fn timing(&self) -> &KernelTiming {
        &self.timing
    }

    /// Simulated milliseconds per replay.
    pub fn cost_ms(&self) -> f64 {
        self.timing.time_ms
    }

    /// Roofline placement of the selected schedule on `dev`.
    pub fn roofline(&self, dev: &DeviceConfig) -> Roofline {
        venom_sim::roofline::analyze(dev, &self.counts)
    }

    /// Compute- or memory-bound verdict on `dev`.
    pub fn regime(&self, dev: &DeviceConfig) -> Regime {
        self.roofline(dev).regime()
    }

    /// Approximate resident bytes (the staged K plus the gather order).
    pub fn approx_bytes(&self) -> usize {
        self.kt_f32.len() * 4 + self.cols_idx.len() * 4 + self.row_ptr.len() * 4
    }
}

/// Accumulates `a · b` in index order — the scalar `mac_f32` chain every
/// reference kernel uses.
#[inline]
fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// A planned attention pipeline for one `(seq, hidden, heads, mask)`
/// shape: SDDMM over the mask's condensed gather order, softmax over the
/// compressed scores, `P·V` over the same order — never materializing
/// the dense `seq x seq` score matrix, yet bit-identical to the dense
/// reference chain at every unmasked position (masked positions
/// contribute exactly-zero terms the dense order already absorbs).
#[derive(Clone, Debug)]
pub struct AttentionPlan {
    seq: usize,
    hidden: usize,
    heads: usize,
    d_head: usize,
    mask: AttentionMask,
    /// Condensed gather order over the `seq x seq` score matrix.
    row_ptr: Vec<u32>,
    cols: Vec<u32>,
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

        let mut row_ptr = Vec::with_capacity(seq + 1);
        let mut cols = Vec::with_capacity(mask.nnz(seq));
        row_ptr.push(0u32);
        for r in 0..seq {
            cols.extend(mask.row_range(r, seq).map(|c| c as u32));
            row_ptr.push(cols.len() as u32);
        }

        let (path, counts, timing) = attn_price(seq, d_head, heads, cols.len(), mask, dev);
        Ok(AttentionPlan {
            seq,
            hidden,
            heads,
            d_head,
            mask,
            row_ptr,
            cols,
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
                let (lo, hi) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
                if lo == hi {
                    // No sampled column: the dense guarded softmax yields
                    // zeros, so the context row stays zero.
                    return;
                }
                // The sampled run `c0..c0 + n`, in ascending column order
                // — the dense accumulation order minus the masked entries.
                let (c0, n) = (self.cols[lo] as usize, hi - lo);
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
        // staged K and V panels, the context written once, and the
        // condensed index planes driving the gather.
        timer.stop(
            "attention",
            "mma",
            (3 * seq * hidden * 4 + self.cols.len() * 4 + self.row_ptr.len() * 4) as u64,
        );
        for buf in [qp, kt, vp] {
            crate::arena::release(buf);
        }
        ctx
    }

    /// The mask the plan was condensed from.
    pub fn mask(&self) -> AttentionMask {
        self.mask
    }

    /// `(seq, hidden, heads)` of the planned shape.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.seq, self.hidden, self.heads)
    }

    /// Sampled score positions per head.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Fraction of the dense `seq x seq` score matrix the plan computes.
    pub fn density(&self) -> f64 {
        self.mask.density(self.seq)
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

    /// Approximate resident bytes (the condensed gather order).
    pub fn approx_bytes(&self) -> usize {
        self.cols.len() * 4 + self.row_ptr.len() * 4
    }
}

/// Prices the attention pipeline on both SDDMM schedules and keeps the
/// cheaper one. The counts derive from [`venom_core::sddmm_counts`] at a
/// V:N:M configuration whose condensed slab matches the mask's density
/// (`SELECTED_COLUMNS / m ≈ nnz / seq²`), scaled to all heads, with the
/// effective work pinned to the mask's true sampled positions — so
/// `regime(dev)` answers for the real pipeline, not a proxy.
fn attn_price(
    seq: usize,
    d_head: usize,
    heads: usize,
    nnz: usize,
    mask: AttentionMask,
    dev: &DeviceConfig,
) -> (SddmmPath, KernelCounts, KernelTiming) {
    let density = (nnz as f64 / (seq * seq).max(1) as f64).max(1e-6);
    // The equivalent V:N:M pattern: m sized so the condensed slab keeps
    // the same fraction of columns as the mask does.
    let m = ((venom_format::SELECTED_COLUMNS as f64 / density).round() as usize)
        .clamp(venom_format::SELECTED_COLUMNS, 4096);
    let cfg = VnmConfig::new(16, 2, m);
    let finish = |mut counts: KernelCounts| {
        counts.grid_blocks = counts.grid_blocks.saturating_mul(heads as u64).max(1);
        // SDDMM work plus the P·V pass over the same sampled entries.
        counts.effective_flops = (heads * 2 * nnz * d_head) as u64 * 2;
        counts.name = format!("attn[{mask}]");
        counts
    };
    let mma = finish(sddmm_counts(seq, d_head, seq, cfg));
    let swapped = finish(sddmm_counts_swapped(seq, d_head, seq, cfg));
    let t_mma = simulate(dev, &mma).expect("attn counts fit the shipped presets");
    let t_swapped = simulate(dev, &swapped).expect("swapped attn counts fit the shipped presets");
    if crate::pricing::cost_cmp(t_swapped.time_ms, t_mma.time_ms) == core::cmp::Ordering::Less {
        (SddmmPath::Swapped, swapped, t_swapped)
    } else {
        (SddmmPath::Mma, mma, t_mma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_core::ExecMode;
    use venom_tensor::random;

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    /// A V:N:M-compliant dynamic pattern (magnitude-ranked columns per
    /// block group, like attention sparsity would produce).
    fn vnm_pattern(rows: usize, cols: usize, cfg: VnmConfig, seed: u64) -> SparsityMask {
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
                let sel = &cols_idx[..venom_format::SELECTED_COLUMNS.min(cols_idx.len())];
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
            assert_eq!(
                mask.to_sparsity_mask(seq).nnz(),
                nnz,
                "{mask} bitmap bridge disagrees"
            );
        }
    }

    #[test]
    fn mask_salts_separate_kinds_and_parameters() {
        let salts = [
            AttentionMask::Causal.salt(),
            AttentionMask::SlidingWindow { window: 8 }.salt(),
            AttentionMask::SlidingWindow { window: 16 }.salt(),
            AttentionMask::Blockwise { block: 8 }.salt(),
        ];
        for i in 0..salts.len() {
            for j in i + 1..salts.len() {
                assert_ne!(salts[i], salts[j], "salt collision {i} vs {j}");
            }
        }
    }

    #[test]
    fn sddmm_plan_replay_is_bit_identical_to_oneshot() {
        // The conformance grid: V x {2:8, 2:16}.
        let (r, d, c) = (64usize, 24usize, 64usize);
        for v in [16usize, 32, 64] {
            for (n, m) in [(2usize, 8usize), (2, 16)] {
                let cfg = VnmConfig::new(v, n, m);
                let q = random::normal_matrix(r, d, 0.0, 1.0, 1).to_half();
                let k = random::normal_matrix(d, c, 0.0, 1.0, 2).to_half();
                let pattern = vnm_pattern(r, c, cfg, 3);
                assert!(pattern.complies_vnm(cfg));
                let plan = SddmmPlan::build(&k, &pattern, cfg, &dev()).unwrap();
                let want = venom_core::sddmm(&q, &k, &pattern, cfg, ExecMode::Functional, &dev());
                assert_eq!(
                    plan.replay(&q),
                    want.out,
                    "{cfg}: plan replay drifted from one-shot sddmm"
                );
            }
        }
    }

    #[test]
    fn sddmm_plan_path_flips_on_cost_with_query_rows() {
        let d = dev();
        let cfg = VnmConfig::new(16, 2, 8);
        let k = random::normal_matrix(64, 1024, 0.0, 1.0, 4).to_half();
        let short = vnm_pattern(16, 1024, cfg, 5);
        let tall = vnm_pattern(2048, 1024, cfg, 6);
        let short_plan = SddmmPlan::build(&k, &short, cfg, &d).unwrap();
        let tall_plan = SddmmPlan::build(&k, &tall, cfg, &d).unwrap();
        assert_eq!(short_plan.path(), SddmmPath::Swapped, "short Q streams");
        assert_eq!(tall_plan.path(), SddmmPath::Mma, "tall Q rides mma");
        // Both answer the roofline question.
        let _ = short_plan.regime(&d);
        let _ = tall_plan.regime(&d);
    }

    #[test]
    fn sddmm_plan_rejects_noncompliant_patterns() {
        let cfg = VnmConfig::new(16, 2, 8);
        let k = random::normal_matrix(16, 32, 0.0, 1.0, 7).to_half();
        let dense_pattern = SparsityMask::dense(32, 32);
        let err = SddmmPlan::build(&k, &dense_pattern, cfg, &dev()).unwrap_err();
        assert!(err.to_string().contains("comply"), "{err}");
    }

    #[test]
    fn attention_plan_prices_and_answers_regime() {
        let plan = AttentionPlan::build(128, 128, 4, AttentionMask::Causal, &dev()).unwrap();
        assert!(plan.cost_ms() > 0.0);
        assert_eq!(plan.nnz(), 128 * 129 / 2);
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
