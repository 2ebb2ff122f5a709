//! Transformer model configurations and a functional encoder block.
//!
//! The presets are the models of the paper's Fig. 15 case study. Weight
//! shapes follow the standard pre-LN encoder: four `H x H` attention
//! projections plus the `4H x H` and `H x 4H` feed-forward weights per
//! layer — the tensors §7.2 sparsifies. Blocks hold format-erased
//! execution plans ([`PlannedLinear`]), so one block can mix V:N:M, 2:4,
//! CSR, CVSE, Blocked-ELL and dense weights; `forward` replays the
//! plans, and the per-call dispatch survives as the bit-identical
//! unplanned baseline behind the same shared body
//! ([`Self::forward_with`]).
//!
//! [`Self::forward_with`]: SparseEncoderBlock::forward_with

use crate::attention::{MultiHeadAttention, SparseAttention};
use crate::layers::{gelu, ExecPath, LayerNorm, Linear, PlanStrategy, PlannedLinear};
use venom_runtime::{Engine, PlanError};
use venom_tensor::Matrix;

/// Architecture hyperparameters of a transformer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransformerConfig {
    /// Model name for reports.
    pub name: &'static str,
    /// Hidden size H.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Feed-forward inner size (4H for the measured models).
    pub ff_inner: usize,
    /// Sequence length used in the paper's evaluation.
    pub seq_len: usize,
    /// Total parameter count of one layer's weight tensors.
    pub layer_params: usize,
}

impl TransformerConfig {
    /// Builds a config, deriving the per-layer parameter count.
    pub const fn new(
        name: &'static str,
        hidden: usize,
        heads: usize,
        layers: usize,
        ff_inner: usize,
        seq_len: usize,
    ) -> Self {
        TransformerConfig {
            name,
            hidden,
            heads,
            layers,
            ff_inner,
            seq_len,
            layer_params: 4 * hidden * hidden + 2 * hidden * ff_inner,
        }
    }

    /// BERT-base: 12 layers, hidden 768 (110M parameters).
    pub const fn bert_base() -> Self {
        Self::new("BERT-base", 768, 12, 12, 3072, 512)
    }

    /// BERT-large: 24 layers, hidden 1024 (336M parameters).
    pub const fn bert_large() -> Self {
        Self::new("BERT-large", 1024, 16, 24, 4096, 512)
    }

    /// GPT2-large: 36 layers, hidden 1280 (774M parameters).
    pub const fn gpt2_large() -> Self {
        Self::new("GPT2-large", 1280, 20, 36, 5120, 1024)
    }

    /// GPT-3 175B configuration (hidden 12288); the paper measures a
    /// single layer of it to fit one GPU.
    pub const fn gpt3_175b() -> Self {
        Self::new("GPT-3", 12288, 96, 96, 49152, 2048)
    }

    /// The sparsifiable weight tensor shapes of one layer, `(out, in)`.
    pub fn weight_shapes(&self) -> Vec<(usize, usize)> {
        vec![
            (self.hidden, self.hidden),   // W_Q
            (self.hidden, self.hidden),   // W_K
            (self.hidden, self.hidden),   // W_V
            (self.hidden, self.hidden),   // W_O
            (self.ff_inner, self.hidden), // FFN W_1
            (self.hidden, self.ff_inner), // FFN W_2
        ]
    }

    /// Dimension of one attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// One pre-LN encoder block (functional, single sequence).
#[derive(Clone, Debug)]
pub struct EncoderBlock {
    /// Self-attention.
    pub mha: MultiHeadAttention,
    /// First feed-forward linear (`ff_inner x hidden`).
    pub ff1: Linear,
    /// Second feed-forward linear (`hidden x ff_inner`).
    pub ff2: Linear,
    /// Pre-attention layer norm.
    pub ln1: LayerNorm,
    /// Pre-FFN layer norm.
    pub ln2: LayerNorm,
}

impl EncoderBlock {
    /// A dense encoder block with Glorot weights.
    pub fn dense(cfg: &TransformerConfig, seed: u64) -> Self {
        EncoderBlock {
            mha: MultiHeadAttention::dense(cfg.hidden, cfg.heads, seed),
            ff1: Linear::glorot(cfg.ff_inner, cfg.hidden, seed + 10),
            ff2: Linear::glorot(cfg.hidden, cfg.ff_inner, seed + 11),
            ln1: LayerNorm::new(cfg.hidden),
            ln2: LayerNorm::new(cfg.hidden),
        }
    }

    /// Forward over `x` (`seq x hidden`) with residual connections.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        let attn = self.mha.forward(&self.ln1.forward(x));
        let mut h = x.clone();
        for (o, a) in h.as_mut_slice().iter_mut().zip(attn.as_slice()) {
            *o += a;
        }
        let ff = self
            .ff2
            .forward(&gelu(&self.ff1.forward(&self.ln2.forward(&h))));
        for (o, f) in h.as_mut_slice().iter_mut().zip(ff.as_slice()) {
            *o += f;
        }
        h
    }
}

/// A fully sparsified encoder block: all six weight tensors planned
/// through the format-erased surface.
#[derive(Clone, Debug)]
pub struct SparseEncoderBlock {
    /// Self-attention with planned projections.
    pub mha: MultiHeadAttention,
    /// Planned masked attention adopted via
    /// [`crate::SparseTransformerEncoder::adopt_planned_attention`];
    /// `None` keeps the dense bidirectional attention core.
    pub planned_attn: Option<SparseAttention>,
    /// First planned feed-forward linear.
    pub ff1: PlannedLinear,
    /// Second planned feed-forward linear.
    pub ff2: PlannedLinear,
    /// Pre-attention layer norm.
    pub ln1: LayerNorm,
    /// Pre-FFN layer norm.
    pub ln2: LayerNorm,
}

impl SparseEncoderBlock {
    /// Sparsifies a dense block with magnitude V:N:M pruning on all six
    /// weight tensors (the §7.2 configuration), planning every compressed
    /// weight on `engine`.
    ///
    /// # Panics
    /// Panics if the hidden/ff sizes are incompatible with `cfg`
    /// (dimensions must exceed V).
    pub fn from_dense(engine: &Engine, block: &EncoderBlock, cfg: venom_format::VnmConfig) -> Self {
        Self::from_dense_with(engine, block, cfg, PlanStrategy::Vnm)
            .expect("V:N:M planning accepts any complying mask")
    }

    /// Prunes all six weight tensors by magnitude to `cfg` and plans each
    /// per `strategy` — a block built with [`PlanStrategy::Auto`] mixes
    /// storage formats per weight.
    ///
    /// # Errors
    /// Returns [`PlanError`] when a forced format cannot serve a pruned
    /// weight.
    pub fn from_dense_with(
        engine: &Engine,
        block: &EncoderBlock,
        cfg: venom_format::VnmConfig,
        strategy: PlanStrategy,
    ) -> Result<Self, PlanError> {
        let mut mha = block.mha.clone();
        mha.sparsify_with(engine, cfg, strategy)?;
        let sparsify = |lin: &Linear| -> Result<PlannedLinear, PlanError> {
            let wf = lin.weight().to_f32();
            let mask = venom_pruner::magnitude::prune_vnm(&wf, cfg);
            lin.to_sparse_with(engine, &mask, cfg, strategy)
        };
        Ok(SparseEncoderBlock {
            mha,
            planned_attn: None,
            ff1: sparsify(&block.ff1)?,
            ff2: sparsify(&block.ff2)?,
            ln1: block.ln1.clone(),
            ln2: block.ln2.clone(),
        })
    }

    /// The six planned weight tensors [`Self::forward`] runs: the
    /// projections of the adopted attention when there is one, else
    /// those of `mha`.
    pub fn plans(&self) -> [&PlannedLinear; 6] {
        let mha = self.planned_attn.as_ref().map_or(&self.mha, |a| &a.mha);
        [&mha.wq, &mha.wk, &mha.wv, &mha.wo, &self.ff1, &self.ff2]
    }

    /// The shared forward body: the same dataflow as
    /// [`EncoderBlock::forward`], every weight op dispatched through the
    /// chosen execution path. Both paths are bit-identical.
    pub fn forward_with(&self, x: &Matrix<f32>, path: ExecPath) -> Matrix<f32> {
        let ln1 = self.ln1.forward(x);
        let attn = match &self.planned_attn {
            // An adopted attention plan replaces the dense bidirectional
            // core with the planned masked pipeline; the per-call path
            // stays the unplanned dense-masked baseline, bit-identical
            // by the conformance contract.
            Some(attn) => match path {
                ExecPath::Planned => attn.forward(&ln1),
                ExecPath::PerCall => attn.forward_percall(&ln1),
            },
            None => self.mha.forward_via(path, &ln1, None),
        };
        let mut h = x.clone();
        for (o, a) in h.as_mut_slice().iter_mut().zip(attn.as_slice()) {
            *o += a;
        }
        let ff = self.ff2.forward_via(
            path,
            &gelu(&self.ff1.forward_via(path, &self.ln2.forward(&h))),
        );
        for (o, f) in h.as_mut_slice().iter_mut().zip(ff.as_slice()) {
            *o += f;
        }
        h
    }

    /// Forward with every weight GEMM replaying its plan.
    pub fn forward(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_with(x, ExecPath::Planned)
    }

    /// The retained per-call path: every weight op goes through the
    /// one-shot entry points, redoing setup per call — the unplanned
    /// baseline of the serving benchmarks. Bit-identical to
    /// [`Self::forward`].
    pub fn forward_percall(&self, x: &Matrix<f32>) -> Matrix<f32> {
        self.forward_with(x, ExecPath::PerCall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_format::MatmulFormat;
    use venom_runtime::DeviceConfig;
    use venom_tensor::random;

    #[test]
    fn preset_shapes_match_the_papers_models() {
        let b = TransformerConfig::bert_large();
        assert_eq!((b.hidden, b.heads, b.layers), (1024, 16, 24));
        let g2 = TransformerConfig::gpt2_large();
        assert_eq!((g2.hidden, g2.layers), (1280, 36));
        let g3 = TransformerConfig::gpt3_175b();
        assert_eq!((g3.hidden, g3.heads), (12288, 96));
        // GPT-3's total parameters ~ 175B: layers x layer_params plus
        // embeddings; the matrix part alone is ~174B.
        let total = g3.layers * g3.layer_params;
        assert!(
            total > 170_000_000_000 && total < 180_000_000_000,
            "total={total}"
        );
    }

    #[test]
    fn weight_shape_inventory() {
        let cfg = TransformerConfig::bert_base();
        let shapes = cfg.weight_shapes();
        assert_eq!(shapes.len(), 6);
        assert_eq!(shapes[0], (768, 768));
        assert_eq!(shapes[4], (3072, 768));
        assert_eq!(shapes[5], (768, 3072));
        let params: usize = shapes.iter().map(|(a, b)| a * b).sum();
        assert_eq!(params, cfg.layer_params);
    }

    #[test]
    fn encoder_block_preserves_shape_and_is_finite() {
        // A miniature config so the functional test stays fast.
        let cfg = TransformerConfig::new("mini", 32, 4, 2, 64, 16);
        let block = EncoderBlock::dense(&cfg, 1);
        let x = random::activation_matrix(16, 32, 2);
        let y = block.forward(&x);
        assert_eq!((y.rows(), y.cols()), (16, 32));
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        // Residual path: output correlates with input (not wiped out).
        let dot: f32 = y
            .as_slice()
            .iter()
            .zip(x.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(dot != 0.0);
    }

    #[test]
    fn planned_sparse_block_is_bit_identical_to_percall() {
        let engine = Engine::new(DeviceConfig::rtx3090());
        let cfg = TransformerConfig::new("mini", 32, 4, 2, 64, 16);
        let block = EncoderBlock::dense(&cfg, 3);
        let sparse =
            SparseEncoderBlock::from_dense(&engine, &block, venom_format::VnmConfig::new(16, 2, 4));
        let x = random::activation_matrix(16, 32, 4);
        assert_eq!(sparse.forward(&x), sparse.forward_percall(&x));
        assert!(sparse
            .plans()
            .iter()
            .all(|p| p.format() == MatmulFormat::Vnm));
    }

    #[test]
    fn forced_format_block_is_bit_identical_to_percall() {
        let engine = Engine::new(DeviceConfig::rtx3090());
        let cfg = TransformerConfig::new("mini", 32, 4, 2, 64, 16);
        let block = EncoderBlock::dense(&cfg, 5);
        for format in [MatmulFormat::Csr, MatmulFormat::Cvse, MatmulFormat::Dense] {
            let sparse = SparseEncoderBlock::from_dense_with(
                &engine,
                &block,
                venom_format::VnmConfig::new(16, 2, 8),
                PlanStrategy::Format(format),
            )
            .unwrap_or_else(|e| panic!("{e}"));
            let x = random::activation_matrix(16, 32, 6);
            assert_eq!(sparse.forward(&x), sparse.forward_percall(&x), "{format}");
            assert!(sparse.plans().iter().all(|p| p.format() == format));
        }
    }

    #[test]
    fn head_dim_divides() {
        assert_eq!(TransformerConfig::bert_large().head_dim(), 64);
        assert_eq!(TransformerConfig::gpt3_175b().head_dim(), 128);
    }
}
