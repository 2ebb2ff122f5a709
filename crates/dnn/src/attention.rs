//! Multi-head attention — the pruned MHA of Fig. 14.
//!
//! Four weight projections (`W_Q`, `W_K`, `W_V`, `W_O`), each a
//! [`PlannedLinear`] over the format-erased [`MatmulPlan`] surface — so
//! a projection can be dense, V:N:M, or any other planned format, and
//! one attention layer can mix them. The attention matmuls (`Q K^T` and
//! `P V`) stay dense, and softmax sits between them, exactly as in the
//! figure. One body ([`MultiHeadAttention::forward_via`], with an
//! optional mask) serves both execution paths: the planned path stages
//! the activations once and runs the Q/K/V plans over the shared staged
//! operand, the per-call path ([`ExecPath::PerCall`]) re-stages per
//! projection, and the two are bit-identical. [`SparseAttention`] runs
//! the same planned Q/K/V projections around its [`AttentionPlan`].
//!
//! [`MatmulPlan`]: venom_runtime::MatmulPlan

use crate::layers::{softmax_rows, ExecPath, Linear, PlanStrategy, PlannedLinear};
use std::sync::Arc;
use venom_format::VnmConfig;
use venom_runtime::{stage, AttentionMask, AttentionPlan, Engine, PlanError};
use venom_tensor::{gemm, Matrix};

/// Multi-head self-attention over a single sequence.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    /// Query projection.
    pub wq: PlannedLinear,
    /// Key projection.
    pub wk: PlannedLinear,
    /// Value projection.
    pub wv: PlannedLinear,
    /// Output projection.
    pub wo: PlannedLinear,
    /// Number of heads (must divide the hidden size).
    pub heads: usize,
}

impl MultiHeadAttention {
    /// Dense MHA with Glorot weights.
    ///
    /// # Panics
    /// Panics unless `heads` divides `hidden`.
    pub fn dense(hidden: usize, heads: usize, seed: u64) -> Self {
        assert_eq!(hidden % heads, 0, "heads must divide the hidden size");
        let dense_proj = |s: u64| {
            let lin = Linear::glorot(hidden, hidden, s);
            PlannedLinear {
                plan: std::sync::Arc::new(lin.plan),
                bias: lin.bias,
            }
        };
        MultiHeadAttention {
            wq: dense_proj(seed),
            wk: dense_proj(seed + 1),
            wv: dense_proj(seed + 2),
            wo: dense_proj(seed + 3),
            heads,
        }
    }

    /// The four projections.
    pub fn projections(&self) -> [&PlannedLinear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    /// Sparsifies the four projections in place with magnitude V:N:M
    /// pruning (Fig. 14's four SpMMs), planning each compressed weight on
    /// `engine`.
    pub fn sparsify(&mut self, engine: &Engine, cfg: VnmConfig) {
        self.sparsify_with(engine, cfg, PlanStrategy::Vnm)
            .expect("V:N:M planning accepts any complying mask");
    }

    /// Prunes the four projections by magnitude to `cfg` and plans each
    /// pruned weight per `strategy` — letting one attention layer mix
    /// storage formats. Projections that are already sparse are left
    /// untouched (repeated sparsification must not compound pruning).
    ///
    /// # Errors
    /// Returns [`PlanError`] when a forced format cannot serve a pruned
    /// projection.
    pub fn sparsify_with(
        &mut self,
        engine: &Engine,
        cfg: VnmConfig,
        strategy: PlanStrategy,
    ) -> Result<(), PlanError> {
        for proj in [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo] {
            if proj.format() != venom_format::MatmulFormat::Dense {
                continue;
            }
            let w = proj.plan.weight_dense();
            let lin = Linear::from_half(&w, proj.bias.clone());
            let mask = venom_pruner::magnitude::prune_vnm(&w.to_f32(), cfg);
            *proj = lin.to_sparse_with(engine, &mask, cfg, strategy)?;
        }
        Ok(())
    }

    /// Self-attention forward over `x` (`seq x hidden`).
    ///
    /// # Panics
    /// Panics on feature mismatch.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::Planned, x, None)
    }

    /// Masked self-attention under any [`AttentionMask`] — the dense
    /// reference the planned [`SparseAttention`] pipeline is
    /// bit-identical to. [`AttentionMask::Causal`] gives GPT-style
    /// decoder attention (position `i` attends only to positions
    /// `<= i`); every mask applies per row range, never materialized as
    /// an `O(seq²)` mask matrix.
    ///
    /// # Panics
    /// Panics on feature mismatch.
    pub fn forward_masked(&self, x: &Matrix<f32>, mask: &AttentionMask) -> Matrix<f32> {
        self.forward_via(ExecPath::Planned, x, Some(mask))
    }

    /// The retained per-call path: every projection converts, transposes
    /// and dispatches through the one-shot kernel entry points (the
    /// unplanned baseline of the serving benchmarks). Bit-identical to
    /// [`Self::forward`].
    ///
    /// # Panics
    /// Panics on feature mismatch.
    pub fn forward_percall(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_via(ExecPath::PerCall, x, None)
    }

    /// The single forward body both execution paths share:
    /// bidirectional when `mask` is `None`, masked otherwise.
    ///
    /// # Panics
    /// Panics on feature mismatch.
    pub fn forward_via(
        &self,
        path: ExecPath,
        x: &Matrix<f32>,
        mask: Option<&AttentionMask>,
    ) -> Matrix<f32> {
        let (q, k, v) = self.project_qkv(path, x);
        let ctx = self.attention_core(x, &q, &k, &v, mask);
        self.wo.forward_via(path, &ctx)
    }

    /// The three input projections of `x` through the chosen path.
    fn project_qkv(
        &self,
        path: ExecPath,
        x: &Matrix<f32>,
    ) -> (Matrix<f32>, Matrix<f32>, Matrix<f32>) {
        match path {
            ExecPath::Planned => {
                // One staging pass feeds all three input projections (they
                // share the operand; per-plan staging would produce the
                // same bits three times over).
                let staged = stage::stage_activations_t(x);
                (
                    self.wq.forward_staged(&staged, x.rows()),
                    self.wk.forward_staged(&staged, x.rows()),
                    self.wv.forward_staged(&staged, x.rows()),
                )
            }
            ExecPath::PerCall => (
                self.wq.forward_percall(x),
                self.wk.forward_percall(x),
                self.wv.forward_percall(x),
            ),
        }
    }

    /// The attention matmuls between the projections: per-head
    /// `softmax(Q_h K_h^T / sqrt(d)) V_h`, identical in the planned and
    /// per-call paths.
    fn attention_core(
        &self,
        x: &Matrix<f32>,
        q: &Matrix<f32>,
        k: &Matrix<f32>,
        v: &Matrix<f32>,
        mask: Option<&AttentionMask>,
    ) -> Matrix<f32> {
        let hidden = self.wq.shape().0;
        let d_head = hidden / self.heads;
        let seq = x.rows();

        let scale = 1.0 / (d_head as f32).sqrt();
        let mut ctx = Matrix::<f32>::zeros(seq, hidden);
        for h in 0..self.heads {
            let c0 = h * d_head;
            // scores = Q_h K_h^T * scale  (seq x seq)
            let qh = q.block(0, c0, seq, d_head).to_half();
            let kh = k.block(0, c0, seq, d_head).to_half();
            let mut scores = gemm::gemm_parallel(&qh, &kh.transpose()).map(|s| s * scale);
            if let Some(mask) = mask {
                // Every supported mask is a contiguous per-row range, so
                // masking writes -inf outside the range directly — no
                // seq x seq predicate matrix is ever allocated.
                for r in 0..seq {
                    let keep = mask.row_range(r, seq);
                    let row = scores.row_mut(r);
                    row[..keep.start].fill(f32::NEG_INFINITY);
                    row[keep.end..].fill(f32::NEG_INFINITY);
                }
            }
            let probs = softmax_rows(&scores);
            // ctx_h = probs V_h  (seq x d_head)
            let vh = v.block(0, c0, seq, d_head).to_half();
            let ch = gemm::gemm_parallel(&probs.to_half(), &vh);
            for r in 0..seq {
                for c in 0..d_head {
                    ctx.set(r, c0 + c, ch.get(r, c));
                }
            }
        }
        ctx
    }
}

/// Planned masked attention: a [`MultiHeadAttention`]'s projections
/// paired with an [`AttentionPlan`] for one `(seq, mask)` shape. The
/// forward runs the projections exactly as the dense layer does, then
/// executes the planned pipeline (SDDMM over each row's sampled run,
/// read from the mask → masked softmax over the compressed scores →
/// `P·V`) instead of the dense score matrix — bit-identical to
/// [`MultiHeadAttention::forward_masked`] under the plan's mask, never
/// materializing the `seq x seq` scores.
#[derive(Clone, Debug)]
pub struct SparseAttention {
    /// The projections (and head split) the plan executes between.
    pub mha: MultiHeadAttention,
    /// The planned attention pipeline for this layer's `(seq, mask)`.
    pub plan: Arc<AttentionPlan>,
}

impl SparseAttention {
    /// Adopts `mha` under a planned attention pipeline for sequences of
    /// length `seq` under `mask`, planned on `engine`.
    ///
    /// # Errors
    /// Propagates [`PlanError::Unplannable`] from the plan build
    /// (degenerate shape or mask parameters).
    pub fn from_mha(
        mha: MultiHeadAttention,
        engine: &Engine,
        seq: usize,
        mask: &AttentionMask,
    ) -> Result<Self, PlanError> {
        let hidden = mha.wq.shape().0;
        let plan = engine.plan_attention(seq, hidden, mha.heads, mask)?;
        Ok(SparseAttention { mha, plan })
    }

    /// The mask the layer's plan was condensed from.
    pub fn mask(&self) -> AttentionMask {
        self.plan.mask()
    }

    /// Planned masked forward — bit-identical to
    /// `self.mha.forward_masked(x, &self.mask())`.
    ///
    /// # Panics
    /// Panics when `x` disagrees with the planned `(seq, hidden)`.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        let (q, k, v) = self.mha.project_qkv(ExecPath::Planned, x);
        self.mha.wo.forward(&self.plan.attention(&q, &k, &v))
    }

    /// The unplanned per-call baseline: per-call projections and the
    /// dense masked attention core, re-staged on every invocation —
    /// what the `attn_plan_vs_dense` bench series compares against.
    /// Bit-identical to [`Self::forward`].
    ///
    /// # Panics
    /// Panics on feature mismatch.
    pub fn forward_percall(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.mha
            .forward_via(ExecPath::PerCall, x, Some(&self.plan.mask()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_format::MatmulFormat;
    use venom_sim::DeviceConfig;
    use venom_tensor::random;

    fn engine() -> Engine {
        Engine::new(DeviceConfig::rtx3090())
    }

    #[test]
    fn forward_shape_is_preserved() {
        let mha = MultiHeadAttention::dense(64, 4, 1);
        let x = random::activation_matrix(16, 64, 2);
        let y = mha.forward(&x);
        assert_eq!((y.rows(), y.cols()), (16, 64));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        assert!(mha
            .projections()
            .iter()
            .all(|p| p.format() == MatmulFormat::Dense));
    }

    #[test]
    fn single_head_equals_multi_head_with_one_head() {
        // Sanity: heads=1 runs the same math without the split.
        let mha = MultiHeadAttention::dense(32, 1, 3);
        let x = random::activation_matrix(8, 32, 4);
        let y = mha.forward(&x);
        assert_eq!((y.rows(), y.cols()), (8, 32));
    }

    #[test]
    fn planned_forward_is_bit_identical_to_percall() {
        let mut mha = MultiHeadAttention::dense(64, 4, 13);
        mha.sparsify(&engine(), VnmConfig::new(16, 2, 4));
        let x = random::activation_matrix(12, 64, 14);
        assert_eq!(mha.forward(&x), mha.forward_percall(&x));
    }

    #[test]
    fn auto_strategy_mixes_formats_and_stays_exact() {
        let mut mha = MultiHeadAttention::dense(64, 4, 21);
        mha.sparsify_with(&engine(), VnmConfig::new(16, 2, 8), PlanStrategy::Auto)
            .unwrap();
        let x = random::activation_matrix(10, 64, 22);
        assert_eq!(mha.forward(&x), mha.forward_percall(&x));
        // Every projection carries a priced plan in some chosen format.
        for p in mha.projections() {
            assert!(
                p.plan.cost_ms().is_some(),
                "auto plans are priced ({})",
                p.format()
            );
        }
    }

    #[test]
    fn repeated_sparsify_does_not_compound_pruning() {
        // Sparsifying twice (even with a different pattern) must leave
        // the first pass's weights untouched, as the pre-redesign
        // Dense-only conversion did.
        let mut mha = MultiHeadAttention::dense(64, 4, 31);
        mha.sparsify(&engine(), VnmConfig::new(16, 2, 8));
        let x = random::activation_matrix(9, 64, 32);
        let first = mha.forward(&x);
        mha.sparsify(&engine(), VnmConfig::new(16, 2, 16));
        assert_eq!(mha.forward(&x), first, "second sparsify must be a no-op");
        assert_eq!(mha.wq.format(), MatmulFormat::Vnm);
    }

    #[test]
    fn sparsified_mha_close_to_masked_dense() {
        let mut mha = MultiHeadAttention::dense(64, 4, 5);
        let x = random::activation_matrix(12, 64, 6);
        // Build the dense-with-masked-weights reference BEFORE sparsifying.
        let cfg = VnmConfig::new(16, 2, 4); // 50%: mild pruning
        let mut reference = mha.clone();
        for proj in [
            &mut reference.wq,
            &mut reference.wk,
            &mut reference.wv,
            &mut reference.wo,
        ] {
            let wf = proj.plan.weight_dense().to_f32();
            let mask = venom_pruner::magnitude::prune_vnm(&wf, cfg);
            let lin = Linear::new(&mask.apply_f32(&wf), proj.bias.clone());
            *proj = PlannedLinear {
                plan: std::sync::Arc::new(lin.plan),
                bias: lin.bias,
            };
        }
        mha.sparsify(&engine(), cfg);
        assert_eq!(mha.wq.format(), MatmulFormat::Vnm);
        let y_sparse = mha.forward(&x);
        let y_ref = reference.forward(&x);
        assert!(
            venom_tensor::norms::allclose(&y_sparse, &y_ref, 5e-2, 5e-2),
            "max diff {}",
            venom_tensor::norms::max_abs_diff(&y_sparse, &y_ref)
        );
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn rejects_indivisible_heads() {
        let _ = MultiHeadAttention::dense(30, 4, 1);
    }

    #[test]
    fn causal_first_position_sees_only_itself() {
        // With causal masking, output row 0 depends only on input row 0:
        // changing later rows must not affect it.
        let mha = MultiHeadAttention::dense(32, 2, 9);
        let mut x = random::activation_matrix(8, 32, 10);
        let y1 = mha.forward_masked(&x, &AttentionMask::Causal);
        for c in 0..32 {
            x.set(5, c, x.get(5, c) + 7.0);
        }
        let y2 = mha.forward_masked(&x, &AttentionMask::Causal);
        for c in 0..32 {
            assert!(
                (y1.get(0, c) - y2.get(0, c)).abs() < 1e-5,
                "row 0 must not see row 5 under causal masking"
            );
            // But the last row MUST change.
        }
        let changed = (0..32).any(|c| (y1.get(7, c) - y2.get(7, c)).abs() > 1e-4);
        assert!(changed, "later rows do attend to row 5");
    }

    #[test]
    fn planned_attention_is_bit_identical_to_dense_under_every_mask_kind() {
        // The tentpole conformance contract: the planned pipeline
        // (SDDMM -> masked softmax over compressed scores -> P·V) must
        // reproduce the dense chain (full scores, -inf masking,
        // softmax_rows, dense P·V) bit for bit — under each mask kind,
        // with sparsified projections in the loop.
        let mut mha = MultiHeadAttention::dense(64, 4, 41);
        mha.sparsify(&engine(), VnmConfig::new(16, 2, 4));
        let x = random::activation_matrix(24, 64, 42);
        for mask in [
            AttentionMask::Causal,
            AttentionMask::SlidingWindow { window: 5 },
            AttentionMask::Blockwise { block: 8 },
        ] {
            let attn = SparseAttention::from_mha(mha.clone(), &engine(), 24, &mask)
                .unwrap_or_else(|e| panic!("{mask}: {e}"));
            let planned = attn.forward(&x);
            let dense = mha.forward_masked(&x, &mask);
            assert_eq!(planned, dense, "{mask}: planned pipeline drifted");
            // The per-call baseline (what the bench floor compares
            // against) agrees too.
            assert_eq!(attn.forward_percall(&x), dense, "{mask}: per-call drifted");
        }
    }

    #[test]
    fn planned_attention_matches_dense_bitwise_on_non_finite_inputs() {
        // NaN propagation through the masked softmax, pinned against the
        // dense reference chain: Q/K/V carry NaN, ±inf, f32 subnormals
        // (which round to zero halves) and -0.0, and one row's scores
        // overflow to +inf. NaN outputs are compared by their bits.
        let (seq, hidden, heads) = (24usize, 32usize, 2usize);
        let mha = MultiHeadAttention::dense(hidden, heads, 51);
        let x = Matrix::<f32>::zeros(seq, hidden);
        let mut q = random::activation_matrix(seq, hidden, 52);
        let mut k = random::activation_matrix(seq, hidden, 53);
        let mut v = random::activation_matrix(seq, hidden, 54);
        // Head 0, Q column 1: zero halves (-0.0 and a subnormal) meeting
        // an infinite K entry — the dense GEMM skips the zero operand,
        // so 0 · inf must not turn these scores NaN.
        for r in 0..seq {
            q.set(r, 1, if r % 2 == 0 { -0.0 } else { 1e-40 });
        }
        k.set(3, 1, f32::INFINITY);
        // Row 9: a Q value beyond the f16 range overflows its scores to
        // ±inf (the row max is +inf, so the row turns NaN).
        q.set(9, 2, 7.0e4);
        // Row 14: a NaN query makes every score of the row NaN.
        q.set(14, 5, f32::NAN);
        // Head 1: NaN and -inf keys, a -0.0 and a subnormal query.
        k.set(7, 20, f32::NAN);
        k.set(12, 18, f32::NEG_INFINITY);
        q.set(4, 17, -0.0);
        q.set(6, 19, -1e-39);
        // Values: NaN, ±inf, subnormals and -0.0 in both heads.
        v.set(10, 3, f32::from_bits(0x7FC0_1234));
        v.set(11, 4, f32::INFINITY);
        v.set(2, 20, f32::NEG_INFINITY);
        v.set(16, 21, 1e-41);
        v.set(17, 0, -0.0);
        for mask in [
            AttentionMask::Causal,
            AttentionMask::SlidingWindow { window: 5 },
            AttentionMask::Blockwise { block: 8 },
        ] {
            let plan = AttentionPlan::build(seq, hidden, heads, mask, engine().device())
                .unwrap_or_else(|e| panic!("{mask}: {e}"));
            let planned = plan.attention(&q, &k, &v);
            let dense = mha.attention_core(&x, &q, &k, &v, Some(&mask));
            for r in 0..seq {
                for c in 0..hidden {
                    let (p, d) = (planned.get(r, c), dense.get(r, c));
                    assert_eq!(
                        p.to_bits(),
                        d.to_bits(),
                        "{mask}: ({r},{c}) planned {p} vs dense {d}"
                    );
                }
            }
            assert!(
                dense.as_slice().iter().any(|v| v.is_nan()),
                "{mask}: the inputs must reach a NaN output"
            );
        }
    }

    #[test]
    fn causal_differs_from_bidirectional() {
        let mha = MultiHeadAttention::dense(32, 4, 11);
        let x = random::activation_matrix(8, 32, 12);
        let bi = mha.forward(&x);
        let causal = mha.forward_masked(&x, &AttentionMask::Causal);
        assert_ne!(bi, causal);
        // Probabilities still normalise: outputs stay finite.
        assert!(causal.as_slice().iter().all(|v| v.is_finite()));
    }
}
