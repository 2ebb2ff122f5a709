//! The [`Engine`]: the factory that builds execution plans against one
//! target device — including the automatic format selection of the
//! unified matmul surface.

use crate::descriptor::{DType, MatmulDescriptor};
use crate::matmul::{MatmulPlan, PlanError};
use crate::plan::{Plan, Stream};
use crate::pricing::{self, Baseline, Priced, VnmPrice};
use crate::simd::avx2_dispatch;
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;
use venom_baselines::{DenseGemm, SparseLtSpmm};
use venom_core::SpmmOptions;
use venom_format::{
    BlockedEllMatrix, CsrMatrix, CvseMatrix, MatmulFormat, NmCompressed, NmConfig, SparseKernel,
    SparsityMask, VnmConfig, VnmMatrix,
};
use venom_fp16::Half;
use venom_quant::Calibration;
use venom_sim::DeviceConfig;
use venom_tensor::Matrix;

/// Vector heights `plan_auto` probes for V:N:M compliance, largest (most
/// reuse) first. All are kernel-launchable multiples of 16.
const AUTO_V: [usize; 4] = [128, 64, 32, 16];

/// Group widths probed for N = 2 compliance, sparsest first, so the
/// first complying pattern is the cheapest-to-execute one.
const AUTO_M: [usize; 7] = [100, 40, 20, 16, 10, 8, 4];

/// Vector lengths probed for the CVSE encoding.
const AUTO_CVSE_L: [usize; 3] = [16, 8, 4];

/// Block sizes probed for Blocked-ELL (must divide both dimensions).
const AUTO_ELL_BS: [usize; 4] = [32, 16, 8, 4];

/// The hardware N:M pattern the cuSPARSELt model consumes.
const NM_2_4: NmConfig = NmConfig { n: 2, m: 4 };

/// Builds plans for one device configuration. Cheap to clone; layers and
/// models hold the plans, not the engine.
#[derive(Clone, Debug)]
pub struct Engine {
    dev: DeviceConfig,
    opts: SpmmOptions,
    b_cols_hint: usize,
    calibration: Calibration,
}

impl Engine {
    /// Default output-column bound plans are tuned for when the caller
    /// gives none: the BERT evaluation sequence length of the paper.
    pub const DEFAULT_B_COLS_HINT: usize = MatmulDescriptor::DEFAULT_B_COLS;

    /// An engine targeting `dev` with default options (int8 plans
    /// calibrate with [`Calibration::AbsMax`] unless overridden).
    pub fn new(dev: DeviceConfig) -> Self {
        Engine {
            dev,
            opts: SpmmOptions::default(),
            b_cols_hint: Self::DEFAULT_B_COLS_HINT,
            calibration: Calibration::AbsMax,
        }
    }

    /// Overrides the output-column bound used by [`Self::plan_spmm`],
    /// [`Self::plan_quant_spmm`], [`Self::plan_gemm`] and
    /// [`Self::descriptor`].
    #[must_use]
    pub fn with_b_cols_hint(mut self, b_cols: usize) -> Self {
        self.b_cols_hint = b_cols;
        self
    }

    /// Overrides the kernel options plans are priced with (column-loc /
    /// epilogue ablations, explicit tile).
    #[must_use]
    pub fn with_options(mut self, opts: SpmmOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Overrides the calibrator int8 plans quantize weights and
    /// activations with.
    #[must_use]
    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// The calibrator of the engine's int8 plans.
    pub fn calibration(&self) -> Calibration {
        self.calibration
    }

    /// The target device.
    pub fn device(&self) -> &DeviceConfig {
        &self.dev
    }

    /// The column bound [`Self::plan_spmm`] tunes for.
    pub fn b_cols_hint(&self) -> usize {
        self.b_cols_hint
    }

    /// A descriptor for a `out x in` weight at the engine's column hint.
    pub fn descriptor(&self, out_features: usize, in_features: usize) -> MatmulDescriptor {
        MatmulDescriptor::new(out_features, in_features).with_b_cols(self.b_cols_hint)
    }

    /// Plans a V:N:M SpMM on the Spatha path, tuned and priced at the
    /// engine's column hint (wider runs stay exact; only the captured
    /// pricing assumes the bound).
    ///
    /// # Panics
    /// Panics if the engine's explicit [`SpmmOptions::tile`] cannot
    /// launch for `a` on the device (its `BSr` is not `V`, or its block
    /// does not fit an SM).
    pub fn plan_spmm(&self, a: &VnmMatrix) -> Plan {
        let (r, k) = a.shape();
        Plan::build_vnm(a, self.descriptor(r, k), &self.opts, &self.dev)
    }

    /// Quantizes a compressed V:N:M weight with the engine's calibrator
    /// and plans its i32-accumulating int8 dispatch at the engine's
    /// column hint.
    ///
    /// # Panics
    /// Panics under the same unlaunchable explicit tile as
    /// [`Self::plan_spmm`], and if `a` holds NaN or ±Inf, which
    /// calibration refuses ([`Self::try_plan_quant_spmm`] returns both
    /// as errors).
    pub fn plan_quant_spmm(&self, a: &VnmMatrix) -> Plan {
        self.try_plan_quant_spmm(a)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::plan_quant_spmm`], reporting a weight the int8 path cannot
    /// serve.
    ///
    /// # Errors
    /// [`PlanError::Incompatible`] when `a` holds NaN or ±Inf, or when
    /// the engine's explicit [`SpmmOptions::tile`] cannot launch it.
    pub fn try_plan_quant_spmm(&self, a: &VnmMatrix) -> Result<Plan, PlanError> {
        quantizable(a)?;
        let (r, k) = a.shape();
        let desc = self.descriptor(r, k);
        let price = pricing::price_vnm(a, desc.b_cols, DType::I8, &self.opts, &self.dev)?;
        Ok(Plan::quant(a, self.calibration, desc, price))
    }

    /// Plans a dense GEMM priced on the cuBLAS model for this engine's
    /// device at the engine's column hint — the same pricing seam sparse
    /// plans get, so dense-vs-sparse comparisons in [`Self::plan_auto`]
    /// are fair.
    pub fn plan_gemm(&self, w: &Matrix<Half>) -> Plan {
        let desc = MatmulDescriptor::for_weight(w).with_b_cols(self.b_cols_hint);
        Plan::build_dense(w, desc, Some(self.priced_dense(&desc)))
    }

    /// Plans `weights` in an explicitly chosen storage format: prices
    /// the format exactly as [`Self::plan_auto`] prices its candidate,
    /// then builds that one plan.
    ///
    /// The weight's *nonzero structure* decides eligibility: `vnm` and
    /// `nm` require the zeros to comply with a supported pattern
    /// (`V:2:M` over the probed grid, resp. the hardware 2:4);
    /// `blocked-ell` requires a block size dividing both dimensions;
    /// `csr`, `cvse` and `dense` accept anything. The descriptor's
    /// *dtype* decides the execution path on top: `i8` descriptors plan
    /// the calibrated quantized container, which only the V:N:M format
    /// implements — any other format reports the dtype as ineligible.
    ///
    /// # Errors
    /// Returns [`PlanError::Incompatible`] with the reason when the
    /// weights cannot be served in `format` (structure mismatch, an
    /// `i8` descriptor on a format with no int8 path or on a weight
    /// holding NaN or ±Inf, or an explicit [`SpmmOptions::tile`] that
    /// cannot launch the V:N:M weight).
    ///
    /// # Panics
    /// Panics if `weights` does not match the descriptor's shape.
    pub fn plan_with_format(
        &self,
        format: MatmulFormat,
        desc: &MatmulDescriptor,
        weights: &Matrix<Half>,
    ) -> Result<Arc<dyn MatmulPlan>, PlanError> {
        Ok(Arc::new(self.format_plan(format, desc, weights)?))
    }

    /// [`Self::plan_with_format`], returning the plan itself.
    pub(crate) fn format_plan(
        &self,
        format: MatmulFormat,
        desc: &MatmulDescriptor,
        weights: &Matrix<Half>,
    ) -> Result<Plan, PlanError> {
        desc.assert_matches(weights);
        let w = Weight::new(weights);
        let quote = self.quote(format, desc, &w)?;
        Ok(self.build(quote, *desc, &w))
    }

    /// Prices `format` for the weight without building its executor —
    /// the per-format pricing both [`Self::plan_with_format`] and
    /// [`Self::plan_auto`] go through. V:N:M prices the Spatha stream
    /// of the descriptor's dtype; `plan_auto` quotes the band executor
    /// next to it. CSR, CVSE (every rung of its vector-length ladder)
    /// and Blocked-ELL price from popcounts of the weight's nonzero mask
    /// and build no container; [`Self::build`] makes the winner's.
    fn quote(
        &self,
        format: MatmulFormat,
        desc: &MatmulDescriptor,
        w: &Weight<'_>,
    ) -> Result<Quote, PlanError> {
        let incompatible = |reason: String| PlanError::Incompatible { format, reason };
        let (b_cols, dev) = (desc.b_cols, &self.dev);
        match format {
            MatmulFormat::Vnm => {
                let a = self.compress_vnm_detected(desc, w, None)?;
                if desc.dtype == DType::I8 {
                    quantizable(&a.0)?;
                }
                let price = pricing::price_vnm(&a.0, b_cols, desc.dtype, &self.opts, dev)?;
                let a = Rc::new(a);
                Ok(match desc.dtype {
                    DType::I8 => Quote::Quant(a, price),
                    DType::F16 => Quote::Spatha(a, price),
                })
            }
            other if desc.dtype == DType::I8 => Err(incompatible(format!(
                "dtype i8 is ineligible for '{other}': the int8 path \
                 (i32-accumulating stream, Uint8 mma.sp pricing) is only \
                 implemented for the quantized V:N:M container — \
                 request format 'vnm' or dtype 'f16'"
            ))),
            MatmulFormat::Dense => Ok(Quote::Dense(self.priced_dense(desc))),
            MatmulFormat::Nm => {
                if !w.mask().complies_nm(NM_2_4) {
                    return Err(incompatible(
                        "nonzero pattern violates the hardware 2:4 pattern cuSPARSELt consumes"
                            .to_string(),
                    ));
                }
                let shape = desc.gemm_shape();
                let priced = (SparseLtSpmm::time(shape, dev), SparseLtSpmm::counts(shape));
                Ok(Quote::Nm(priced))
            }
            MatmulFormat::Csr => Ok(Quote::Kernel(
                Baseline::Csr,
                Baseline::Csr.price(w.mask(), b_cols, dev),
            )),
            MatmulFormat::Cvse => {
                // Probe the vector-length ladder and keep the cheapest
                // encoding (the format's one tuning knob).
                let (l, priced) = AUTO_CVSE_L
                    .iter()
                    .map(|&l| (l, Baseline::Cvse(l).price(w.mask(), b_cols, dev)))
                    .min_by(|(_, (x, _)), (_, (y, _))| pricing::cost_cmp(x.time_ms, y.time_ms))
                    .expect("the ladder is nonempty");
                Ok(Quote::Kernel(Baseline::Cvse(l), priced))
            }
            MatmulFormat::BlockedEll => {
                let (r, k) = (w.dense.rows(), w.dense.cols());
                let bs = AUTO_ELL_BS
                    .iter()
                    .copied()
                    .find(|&bs| r % bs == 0 && k % bs == 0)
                    .ok_or_else(|| {
                        incompatible(format!(
                            "no probed block size {AUTO_ELL_BS:?} divides both {r} and {k}"
                        ))
                    })?;
                let ell = Baseline::BlockedEll(bs);
                Ok(Quote::Kernel(ell, ell.price(w.mask(), b_cols, dev)))
            }
        }
    }

    /// Builds the executor and per-call reference of a priced candidate.
    /// A candidate sharing its V:N:M compression with candidates that
    /// lost moves it into the plan; only a still-shared one is cloned. An
    /// f16 V:N:M winner of an `i8` descriptor's compression, which kept
    /// no stream, condenses its weight.
    fn build(&self, quote: Quote, desc: MatmulDescriptor, w: &Weight<'_>) -> Plan {
        let owned = |a: Rc<Compressed>| {
            let (a, stream) = Rc::try_unwrap(a).unwrap_or_else(|a| (*a).clone());
            let stream = stream.unwrap_or_else(|| Stream::sweep(a.operands()));
            (a, stream)
        };
        match quote {
            Quote::Spatha(a, price) => {
                let (a, stream) = owned(a);
                Plan::spatha(a, stream, desc, &self.opts, &self.dev, price)
            }
            Quote::Quant(a, price) => Plan::quant(&a.0, self.calibration, desc, price),
            Quote::Band(a, priced) => {
                let (a, stream) = owned(a);
                Plan::band(a, stream, desc, priced)
            }
            Quote::Dense(priced) => Plan::build_dense(w.dense, desc, Some(priced)),
            Quote::Nm((timing, counts)) => {
                let a = NmCompressed::compress(w.dense, w.mask(), NM_2_4);
                Plan::build_kernel(Arc::new(a), desc, timing, counts)
            }
            Quote::Kernel(baseline, (timing, counts)) => {
                let kernel: Arc<dyn SparseKernel> = match baseline {
                    Baseline::Csr => Arc::new(CsrMatrix::from_dense(w.dense)),
                    Baseline::Cvse(l) => Arc::new(CvseMatrix::from_dense(w.dense, l)),
                    Baseline::BlockedEll(bs) => Arc::new(BlockedEllMatrix::from_dense(w.dense, bs)),
                };
                Plan::build_kernel(kernel, desc, timing, counts)
            }
        }
    }

    /// The cuBLAS-model pricing of a dense GEMM of the descriptor's shape.
    fn priced_dense(&self, desc: &MatmulDescriptor) -> Priced {
        let shape = desc.gemm_shape();
        (
            DenseGemm::time(shape, &self.dev),
            DenseGemm::select(shape, &self.dev),
        )
    }

    /// Detects a complying V:2:M pattern and compresses, preferring a
    /// caller-supplied pattern over grid re-detection (a pruner that
    /// knows its pattern should not depend on the probed grid containing
    /// it). Each tried pattern is one pass over the weight, which checks
    /// compliance as it compresses and stops at the first violation
    /// ([`Stream::compress`]). For an f16 descriptor the pattern that
    /// complies also yields the stream its executor replays; an `i8`
    /// descriptor's plan replays the quantized codes, so it keeps none.
    fn compress_vnm_detected(
        &self,
        desc: &MatmulDescriptor,
        w: &Weight<'_>,
        pattern: Option<VnmConfig>,
    ) -> Result<Compressed, PlanError> {
        let (mask, dtype) = (w.mask(), desc.dtype);
        pattern
            .and_then(|cfg| Stream::compress(w.dense, mask, cfg, dtype).ok())
            .or_else(|| detect_vnm(w.dense, mask, dtype))
            .ok_or_else(|| PlanError::Incompatible {
                format: MatmulFormat::Vnm,
                reason: format!(
                    "nonzero pattern complies with no probed V:2:M pattern \
                     (V in {AUTO_V:?}, M in {AUTO_M:?})"
                ),
            })
    }

    /// Plans the bandwidth-optimized non-mma V:N:M band executor
    /// explicitly, over the detected (or hinted) pattern.
    ///
    /// [`Self::plan_auto`] already considers this executor as a
    /// candidate and routes memory-bound shapes to it; this forces it
    /// (the CLI's `--format band`). The plan executes the
    /// FlashSparse-style swapped-operand replay and is priced on the
    /// CUDA-core DRAM roofline. `pattern` has the same contract as in
    /// [`Self::plan_auto_hinted`]; `None` re-detects it.
    ///
    /// # Errors
    /// [`PlanError::Incompatible`] when the nonzero structure complies
    /// with no V:2:M pattern, or on an `i8` descriptor (the band replay
    /// has no int8 price, so `plan_auto` never fields an int8 band
    /// candidate either).
    ///
    /// # Panics
    /// Panics if `weights` does not match the descriptor's shape.
    pub fn plan_band_hinted(
        &self,
        desc: &MatmulDescriptor,
        weights: &Matrix<Half>,
        pattern: Option<VnmConfig>,
    ) -> Result<Arc<dyn MatmulPlan>, PlanError> {
        Ok(Arc::new(self.band_plan(desc, weights, pattern)?))
    }

    /// [`Self::plan_band_hinted`], returning the plan itself.
    pub(crate) fn band_plan(
        &self,
        desc: &MatmulDescriptor,
        weights: &Matrix<Half>,
        pattern: Option<VnmConfig>,
    ) -> Result<Plan, PlanError> {
        desc.assert_matches(weights);
        if desc.dtype == DType::I8 {
            return Err(PlanError::Incompatible {
                format: MatmulFormat::Vnm,
                reason: "dtype i8 is ineligible for the band path: there is no int8 \
                         band price or candidate — request dtype 'f16' or format 'vnm'"
                    .to_string(),
            });
        }
        let (a, stream) = self.compress_vnm_detected(desc, &Weight::new(weights), pattern)?;
        let stream = stream.expect("an f16 compression keeps its stream");
        let priced =
            pricing::price_band(a.shape(), stream.ops.extent().nnz, desc.b_cols, &self.dev);
        Ok(Plan::band(a, stream, *desc, priced))
    }

    /// Plans `weights` in the cost-model-cheapest eligible format.
    ///
    /// Every candidate the nonzero structure is eligible for is *priced*
    /// for the descriptor's shape on this engine's device, and only the
    /// cheapest is *built*. Pricing reads what each cost model reads and
    /// no more: the dense path (the cuBLAS model) and the hardware 2:4
    /// path (the cuSPARSELt model, after a compliance check on the
    /// weight's nonzero mask) price from the shape alone; V:N:M
    /// compresses once, in one pass that also emits the operands its
    /// executors are built from, autotunes its template space, and
    /// prices its band replay from the count of those operands; CSR, CVSE
    /// (which also tunes its vector length) and Blocked-ELL price from
    /// row and band popcounts of the nonzero mask, without building
    /// their containers. Candidates compare in a fixed order under
    /// [`pricing::cost_cmp`], the first minimum winning, and the
    /// winner's container and executor — the condensed stream, band
    /// replay or int8 stream — are built last, so a loser never builds
    /// one.
    ///
    /// The dense path always competes, so a weight that is not sparse
    /// enough to pay off simply plans dense — the FlashSparse-style
    /// per-shape layout choice. V:N:M weights field *two* executors: the
    /// Spatha `mma.sp` stream and the bandwidth-optimized band replay —
    /// both priced in DRAM bytes, so memory-bound shapes (small
    /// `b_cols`, tall-skinny weights) route to the non-mma path at the
    /// device's ridge point. A V:N:M stream whose explicit
    /// [`SpmmOptions::tile`] cannot launch is ineligible, not an error.
    ///
    /// The descriptor's dtype widens the candidate set: an `i8`
    /// descriptor *allows* the quantized int8 V:N:M plan, which is then
    /// priced against every f16 format on the same currency — so auto
    /// mode compares f16 vs i8, and a weight with no complying V:N:M
    /// structure, or one holding NaN or ±Inf (which calibration
    /// refuses), still plans in the cheapest f16 format instead of
    /// failing.
    ///
    /// # Panics
    /// Panics if `weights` does not match the descriptor's shape.
    pub fn plan_auto(
        &self,
        desc: &MatmulDescriptor,
        weights: &Matrix<Half>,
    ) -> Arc<dyn MatmulPlan> {
        self.plan_auto_hinted(desc, weights, None)
    }

    /// [`Self::plan_auto`] with a known prune pattern: when the caller
    /// pruned the weights itself (e.g. a magnitude V:N:M pruner), the
    /// pattern seeds the V:N:M candidates directly instead of relying on
    /// the probed re-detection grid — so patterns outside the grid
    /// (other N, unusual M) still compete as V:N:M. Pricing and building
    /// are as in [`Self::plan_auto`]: every candidate priced, the
    /// cheapest built.
    ///
    /// # Panics
    /// Panics if `weights` does not match the descriptor's shape.
    pub fn plan_auto_hinted(
        &self,
        desc: &MatmulDescriptor,
        weights: &Matrix<Half>,
        pattern: Option<VnmConfig>,
    ) -> Arc<dyn MatmulPlan> {
        Arc::new(self.auto_plan(desc, weights, pattern))
    }

    /// [`Self::plan_auto_hinted`], returning the plan itself.
    pub(crate) fn auto_plan(
        &self,
        desc: &MatmulDescriptor,
        weights: &Matrix<Half>,
        pattern: Option<VnmConfig>,
    ) -> Plan {
        desc.assert_matches(weights);
        let f16_desc = desc.with_dtype(DType::F16);
        let (b_cols, dev) = (desc.b_cols, &self.dev);
        let w = Weight::new(weights);
        let mut quotes: Vec<Quote> = Vec::new();
        // The V:N:M candidates share one compression, and the i8 stream
        // is priced on the f16 stream's autotuned tile (the int8 plan
        // runs the same template).
        if let Ok(a) = self.compress_vnm_detected(desc, &w, pattern) {
            let a = Rc::new(a);
            let mma = pricing::price_vnm(&a.0, b_cols, DType::F16, &self.opts, dev);
            if desc.dtype == DType::I8 && quantizable(&a.0).is_ok() {
                let tile = match &mma {
                    Ok(Some(price)) => Some(price.tile),
                    _ => self.opts.tile,
                };
                let opts = SpmmOptions { tile, ..self.opts };
                if let Ok(price) = pricing::price_vnm(&a.0, b_cols, DType::I8, &opts, dev) {
                    quotes.push(Quote::Quant(Rc::clone(&a), price));
                }
            }
            if let Ok(price) = mma {
                quotes.push(Quote::Spatha(Rc::clone(&a), price));
            }
            // The band executor competes over the same compression: its
            // DRAM-byte pricing undercuts the mma stream left of the
            // ridge point, so routing flips there — no hard-coded
            // threshold.
            let nnz =
                a.1.as_ref()
                    .map_or_else(|| a.0.nnz(), |s| s.ops.extent().nnz);
            let priced = pricing::price_band(a.0.shape(), nnz, b_cols, dev);
            quotes.push(Quote::Band(a, priced));
        }
        for &f in MatmulFormat::ALL
            .iter()
            .filter(|&&f| f != MatmulFormat::Vnm)
        {
            if let Ok(quote) = self.quote(f, &f16_desc, &w) {
                quotes.push(quote);
            }
        }
        let best = quotes
            .into_iter()
            .min_by(|a, b| pricing::cost_cmp(a.cost_ms(), b.cost_ms()))
            .expect("the dense path is always eligible");
        self.build(best, f16_desc, &w)
    }

    /// Plans the activation-side attention pipeline for one
    /// `(seq, hidden, heads, mask)` shape: SDDMM over each row's sampled
    /// run (read from the mask), masked softmax over the compressed
    /// scores, and the `P·V` contraction — priced on
    /// `sddmm_counts`-derived counts with the mma-vs-swapped schedule
    /// flip decided by simulated cost (see [`crate::AttentionPlan`]).
    /// Layers of one shape share the returned `Arc`.
    ///
    /// # Errors
    /// [`PlanError::Unplannable`] on a degenerate shape (zero sequence,
    /// heads not dividing hidden) or mask parameters (zero window/block).
    pub fn plan_attention(
        &self,
        seq: usize,
        hidden: usize,
        heads: usize,
        mask: &crate::AttentionMask,
    ) -> Result<Arc<crate::AttentionPlan>, PlanError> {
        crate::AttentionPlan::build(seq, hidden, heads, *mask, &self.dev).map(Arc::new)
    }
}

/// `dense` compressed under the strongest V:2:M pattern of the probed
/// grid its nonzero mask complies with: largest V, then sparsest M. A
/// pattern with larger V also complies at every smaller probed V, so the
/// first hit is the strongest structure the weight actually has.
fn detect_vnm(dense: &Matrix<Half>, mask: &SparsityMask, dtype: DType) -> Option<Compressed> {
    let (r, k) = (mask.rows(), mask.cols());
    AUTO_V
        .iter()
        .filter(|&&v| v <= r)
        .flat_map(|&v| {
            AUTO_M
                .iter()
                .filter(move |&&m| m <= k)
                .map(move |&m| VnmConfig::new(v, 2, m))
        })
        .find_map(|cfg| Stream::compress(dense, mask, cfg, dtype).ok())
}

/// Whether the int8 path can quantize `a`: calibration needs finite
/// values.
fn quantizable(a: &VnmMatrix) -> Result<(), PlanError> {
    if a.values().iter().all(|h| h.is_finite()) {
        return Ok(());
    }
    Err(PlanError::Incompatible {
        format: MatmulFormat::Vnm,
        reason: "dtype i8 cannot quantize a weight holding NaN or ±Inf: calibration needs \
                 finite values — request dtype 'f16'"
            .to_string(),
    })
}

/// A compressed V:N:M weight and, for an f16 descriptor, the operand
/// stream its compression emitted, which the winning f16 V:N:M plan
/// replays.
type Compressed = (VnmMatrix, Option<Stream<u16>>);

/// The weight being planned, with its nonzero mask — the structure
/// eligibility is decided on and the CSR, CVSE and Blocked-ELL models
/// are priced from — computed at most once, and only when a candidate
/// asks for it.
struct Weight<'a> {
    dense: &'a Matrix<Half>,
    mask: OnceCell<SparsityMask>,
}

impl<'a> Weight<'a> {
    fn new(dense: &'a Matrix<Half>) -> Self {
        Weight {
            dense,
            mask: OnceCell::new(),
        }
    }

    /// The mask of stored nonzeros.
    fn mask(&self) -> &SparsityMask {
        self.mask.get_or_init(|| pack_nonzeros(self.dense))
    }
}

avx2_dispatch! {
    /// [`SparsityMask::from_nonzero_halves`], compiled for AVX2 where the
    /// host has it: the packing is exact bit tests, so the instance
    /// cannot change the mask.
    fn pack_nonzeros(dense: &Matrix<Half>) -> SparsityMask = SparsityMask::from_nonzero_halves;
}

/// A plan candidate that is priced but not built: what its cost model
/// read, and what building its executor needs beyond the weight.
enum Quote {
    /// The f16 Spatha `mma.sp` stream over the compressed V:N:M weight
    /// (`None`: V below the kernel's fragment contract, unpriced).
    Spatha(Rc<Compressed>, Option<VnmPrice>),
    /// The int8 stream over the quantized V:N:M weight.
    Quant(Rc<Compressed>, Option<VnmPrice>),
    /// The band replay of the compressed V:N:M weight.
    Band(Rc<Compressed>, Priced),
    /// The dense stream on the cuBLAS model.
    Dense(Priced),
    /// The hardware 2:4 stream, compressed when built.
    Nm(Priced),
    /// CSR, CVSE (with its vector length) or Blocked-ELL (with its block
    /// size), priced from the nonzero mask; the container is built only
    /// for the winner.
    Kernel(Baseline, Priced),
}

impl Quote {
    /// The price candidates compare on — the built plan's
    /// [`MatmulPlan::cost_ms`], with an unpriced plan infinitely
    /// expensive.
    fn cost_ms(&self) -> f64 {
        match self {
            Quote::Spatha(_, price) | Quote::Quant(_, price) => {
                price.as_ref().map_or(f64::INFINITY, |p| p.timing.time_ms)
            }
            Quote::Band(_, (timing, _))
            | Quote::Dense((timing, _))
            | Quote::Nm((timing, _))
            | Quote::Kernel(_, (timing, _)) => timing.time_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_baselines::{ClaspSpmm, SputnikSpmm};
    use venom_pruner::magnitude;
    use venom_tensor::random;

    fn vnm_weight(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> Matrix<Half> {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = magnitude::prune_vnm(&w, cfg);
        mask.apply_f32(&w).to_half()
    }

    /// A `rows x cols` weight keeping about `density` of its entries,
    /// plus a nonzero at `(0, 0)` when `one` is set, with kept
    /// values drawn from ±1, subnormals, ±Inf and NaN and pruned ones
    /// from ±0.0.
    fn structured(rows: usize, cols: usize, density: f64, one: bool, seed: u64) -> Matrix<Half> {
        const KEPT: [u16; 6] = [0x3C00, 0xBC00, 0x0001, 0x7C00, 0xFC00, 0x7E00];
        let hash = |r: usize, c: usize| {
            let mut z = seed ^ ((r as u64) << 32 | c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        Matrix::from_fn(rows, cols, |r, c| {
            let h = hash(r, c);
            let kept = (h >> 11) as f64 / (1u64 << 53) as f64 <= density && density > 0.0;
            let bits = match (kept || (one && r == 0 && c == 0), h % 6) {
                (true, i) => KEPT[i as usize],
                (false, i) => [0x0000, 0x8000][i as usize % 2],
            };
            Half::from_bits(bits)
        })
    }

    /// The summary-priced baseline quote must equal the container-priced
    /// one: counts and time bits. The mask comes from the dispatched
    /// packing `Engine` uses, and must equal the bit-by-bit one.
    fn assert_summary_prices(w: &Matrix<Half>, case: &str) {
        let mask = pack_nonzeros(w);
        let want = SparsityMask::from_fn(w.rows(), w.cols(), |r, c| !w.get(r, c).is_zero());
        assert_eq!(mask, want, "{case}: dispatched mask");
        let dev = DeviceConfig::rtx3090();
        let same = |got: Priced, want: Priced, what: String| {
            assert_eq!(got.1, want.1, "{case} {what}: counts");
            assert_eq!(
                got.0.time_ms.to_bits(),
                want.0.time_ms.to_bits(),
                "{case} {what}: time bits"
            );
        };
        for width in [8usize, 256, 4096] {
            let csr = CsrMatrix::from_dense(w);
            let want = (
                SputnikSpmm::time(&csr, width, &dev),
                SputnikSpmm::counts(&csr, width),
            );
            same(
                Baseline::Csr.price(&mask, width, &dev),
                want,
                format!("csr c={width}"),
            );
            for l in AUTO_CVSE_L {
                let cvse = CvseMatrix::from_dense(w, l);
                let want = (
                    ClaspSpmm::time(&cvse, width, &dev),
                    ClaspSpmm::counts(&cvse, width),
                );
                let got = Baseline::Cvse(l).price(&mask, width, &dev);
                same(got, want, format!("cvse l={l} c={width}"));
            }
            for bs in AUTO_ELL_BS {
                if !w.rows().is_multiple_of(bs) || !w.cols().is_multiple_of(bs) {
                    continue;
                }
                let ell = BlockedEllMatrix::from_dense(w, bs);
                let want = (
                    pricing::price_blocked_ell(&ell, width, &dev),
                    pricing::blocked_ell_counts(&ell, width),
                );
                let got = Baseline::BlockedEll(bs).price(&mask, width, &dev);
                same(got, want, format!("ell bs={bs} c={width}"));
            }
        }
    }

    /// `plan_with_format(Cvse)` builds only its winning rung, and must
    /// return the plan that building every rung, pricing each container
    /// and planning the first cheapest gave: same `l`, cost bits, stored
    /// values and run bits.
    fn assert_cvse_plan_unchanged(w: &Matrix<Half>, case: &str) {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(64);
        let desc = engine.descriptor(w.rows(), w.cols());
        let (cvse, timing) = AUTO_CVSE_L
            .iter()
            .map(|&l| {
                let a = CvseMatrix::from_dense(w, l);
                let t = ClaspSpmm::time(&a, desc.b_cols, engine.device());
                (a, t)
            })
            .min_by(|x, y| pricing::cost_cmp(x.1.time_ms, y.1.time_ms))
            .expect("the ladder is nonempty");
        let counts = ClaspSpmm::counts(&cvse, desc.b_cols);
        let want = Plan::build_kernel(Arc::new(cvse), desc, timing, counts);
        let got = engine
            .plan_with_format(MatmulFormat::Cvse, &desc, w)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(got.counts(), want.counts(), "{case}: counts name vw_l");
        assert_eq!(
            got.cost_ms().map(f64::to_bits),
            want.cost_ms().map(f64::to_bits),
            "{case}: cost bits"
        );
        assert_eq!(got.stored_values(), want.stored_values(), "{case}: values");
        let b = random::normal_matrix(w.cols(), 3, 0.0, 1.0, 9).to_half();
        let bits = |m: Matrix<f32>| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got.run(&b)), bits(want.run(&b)), "{case}: run bits");
    }

    #[test]
    fn baseline_summaries_price_like_their_containers() {
        // Edge structures: all-zero, one nonzero, fully dense; rows not a
        // multiple of any vector length; the 63 x 80 shape no probed
        // Blocked-ELL block size divides.
        let cases = [
            ("all-zero 64x64", structured(64, 64, 0.0, false, 1)),
            ("one nonzero 63x80", structured(63, 80, 0.0, true, 2)),
            ("one nonzero 1x1", structured(1, 1, 0.0, true, 3)),
            ("dense 64x96", structured(64, 96, 1.0, false, 4)),
            ("dense 17x65", structured(17, 65, 1.0, false, 5)),
            ("10% 63x80", structured(63, 80, 0.1, false, 6)),
            ("30% 37x130", structured(37, 130, 0.3, false, 7)),
        ];
        for (case, w) in &cases {
            assert_summary_prices(w, case);
            assert_cvse_plan_unchanged(w, case);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The same equality over generated shapes and densities.
        #[test]
        fn baseline_summaries_price_like_their_containers_generated(
            rows in 1usize..100,
            cols in proptest::sample::select(vec![1usize, 8, 63, 64, 65, 80, 128, 130]),
            density in proptest::sample::select(vec![0.0, 0.002, 0.05, 0.3, 0.9, 1.0]),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let w = structured(rows, cols, density, false, seed);
            let case = format!("{rows}x{cols} at {density}");
            assert_summary_prices(&w, &case);
            assert_cvse_plan_unchanged(&w, &case);
        }
    }

    #[test]
    fn engine_builds_tuned_plans() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(128);
        let w = random::normal_matrix(64, 128, 0.0, 1.0, 1);
        let cfg = VnmConfig::new(32, 2, 8);
        let mask = magnitude::prune_vnm(&w, cfg);
        let a = VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg);
        let plan = engine.plan_spmm(&a);
        assert_eq!(plan.descriptor().b_cols, 128);
        let tile = plan.tile().expect("V = 32 is kernel-launchable");
        assert_eq!(tile.bs_r, 32);
        assert!(plan.timing().expect("priced at build").time_ms > 0.0);
    }

    #[test]
    fn plan_auto_survives_degenerate_weights() {
        // Regression for the NaN-unsafe cost comparisons: selection used
        // to `partial_cmp(..).unwrap()`, so any candidate whose priced
        // cost came out NaN panicked `plan_auto` mid-`min_by`. Degenerate
        // inputs (an all-zero weight has zero stored values everywhere)
        // must instead plan cleanly.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(32);
        let zero = Matrix::from_fn(64, 64, |_, _| 0.0f32).to_half();
        let desc = engine.descriptor(64, 64);
        let plan = engine.plan_auto(&desc, &zero);
        let b = random::normal_matrix(64, 8, 0.0, 1.0, 7).to_half();
        assert!(plan.run(&b).as_slice().iter().all(|&v| v == 0.0));
        // The CVSE ladder (the second fixed site) prices the degenerate
        // weight without panicking as well.
        let cvse = engine.plan_with_format(MatmulFormat::Cvse, &desc, &zero);
        assert!(cvse.is_ok(), "{cvse:?}");
    }

    #[test]
    fn hint_default_is_bert_sequence_length() {
        let engine = Engine::new(DeviceConfig::a100());
        assert_eq!(engine.b_cols_hint(), 512);
        assert_eq!(engine.device().name, DeviceConfig::a100().name);
    }

    #[test]
    fn plan_gemm_is_priced_on_the_engines_device() {
        // The satellite fix: dense plans get cost-model timing like
        // sparse plans, from the engine's DeviceConfig.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(256);
        let w = random::glorot_matrix(128, 256, 2).to_half();
        let plan = engine.plan_gemm(&w);
        let t = plan.timing().expect("plan_gemm attaches pricing");
        assert!(t.time_ms > 0.0);
        assert_eq!(plan.descriptor().b_cols, 256);
        // A wider bound prices at least as much work.
        let wide = engine.clone().with_b_cols_hint(4096).plan_gemm(&w);
        assert!(wide.timing().unwrap().time_ms >= t.time_ms);
    }

    #[test]
    fn plan_with_format_respects_structure() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(64);
        let w = vnm_weight(64, 80, VnmConfig::new(32, 2, 10), 3);
        let desc = engine.descriptor(64, 80);
        // The V:N:M-pruned weight plans in every always-eligible format...
        for f in [
            MatmulFormat::Vnm,
            MatmulFormat::Csr,
            MatmulFormat::Cvse,
            MatmulFormat::Dense,
        ] {
            let plan = engine
                .plan_with_format(f, &desc, &w)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(plan.format(), f);
            assert!(plan.cost_ms().unwrap() > 0.0, "{f} is priced");
        }
        // ...but not 2:4 (a 2:10 pattern leaves 8-wide gaps).
        let err = engine
            .plan_with_format(MatmulFormat::Nm, &desc, &w)
            .unwrap_err();
        assert!(err.to_string().contains("2:4"), "{err}");
        // Blocked-ELL rejects non-dividing shapes with the probed list.
        let odd = random::glorot_matrix(63, 80, 4).to_half();
        let e2 = engine
            .plan_with_format(MatmulFormat::BlockedEll, &engine.descriptor(63, 80), &odd)
            .unwrap_err();
        assert!(e2.to_string().contains("block size"), "{e2}");
    }

    #[test]
    fn every_format_plans_and_runs_bitwise_vs_its_oracle() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(32);
        // 2:4-pruned weights are eligible for all six formats.
        let dense = random::normal_matrix(64, 64, 0.0, 1.0, 5).to_half();
        let w = {
            let a = NmCompressed::compress_magnitude(&dense, NmConfig::new(2, 4));
            a.decompress()
        };
        let desc = engine.descriptor(64, 64);
        let b = random::normal_matrix(64, 13, 0.0, 1.0, 6).to_half();
        for f in MatmulFormat::ALL {
            let plan = engine
                .plan_with_format(f, &desc, &w)
                .unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(plan.format(), f);
            assert_eq!(
                plan.run(&b),
                plan.run_oneshot(&b),
                "planned vs per-call for {f}"
            );
        }
    }

    #[test]
    fn plan_auto_picks_vnm_on_a_paper_shape() {
        // Fig. 9's BERT-large linear layer at 80% sparsity: Spatha beats
        // the dense model and every baseline format, so auto must land
        // on vnm.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
        let cfg = VnmConfig::new(128, 2, 10);
        let w = vnm_weight(1024, 768, cfg, 7);
        let desc = engine.descriptor(1024, 768);
        let plan = engine.plan_auto(&desc, &w);
        assert_eq!(
            plan.format(),
            MatmulFormat::Vnm,
            "cost {:?}",
            plan.cost_ms()
        );
        // And the winner is genuinely the cheapest candidate.
        let dense_cost = engine
            .plan_with_format(MatmulFormat::Dense, &desc, &w)
            .unwrap()
            .cost_ms()
            .unwrap();
        assert!(plan.cost_ms().unwrap() < dense_cost);
    }

    #[test]
    fn pattern_hint_beats_grid_redetection() {
        // 2:12 is outside the probed M grid. Re-detection still finds a
        // *containing* 2:4 pattern (any aligned-divisor group holds at
        // most the sparser pattern's nonzeros) but that prices the weight
        // as if it were only 50% sparse; the hint restores the true
        // pattern and must plan strictly cheaper.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
        let cfg = VnmConfig::new(64, 2, 12);
        let w = vnm_weight(1024, 768, cfg, 11);
        let desc = engine.descriptor(1024, 768);
        let unhinted = engine.plan_auto(&desc, &w);
        let hinted = engine.plan_auto_hinted(&desc, &w, Some(cfg));
        assert_eq!(hinted.format(), MatmulFormat::Vnm);
        assert!(
            hinted.cost_ms().unwrap() < unhinted.cost_ms().unwrap(),
            "hinted {:?} must beat re-detected {:?} ({})",
            hinted.cost_ms(),
            unhinted.cost_ms(),
            unhinted.format(),
        );
    }

    #[test]
    fn i8_descriptor_plans_the_quantized_container() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(64);
        let w = vnm_weight(64, 80, VnmConfig::new(32, 2, 10), 13);
        let desc = engine.descriptor(64, 80).with_dtype(DType::I8);
        let plan = engine
            .plan_with_format(MatmulFormat::Vnm, &desc, &w)
            .unwrap();
        assert_eq!(plan.descriptor().dtype, DType::I8);
        assert_eq!(plan.format(), MatmulFormat::Vnm);
        // Planned and per-call int8 paths stay bit-identical.
        let b = random::normal_matrix(80, 9, 0.0, 1.0, 14).to_half();
        assert_eq!(plan.run(&b), plan.run_oneshot(&b));
    }

    #[test]
    fn i8_descriptor_reports_why_other_formats_are_ineligible() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(64);
        let w = vnm_weight(64, 64, VnmConfig::new(32, 2, 4), 15); // 2:4, nm-eligible in f16
        let desc = engine.descriptor(64, 64).with_dtype(DType::I8);
        for f in [MatmulFormat::Nm, MatmulFormat::Csr, MatmulFormat::Dense] {
            let err = engine.plan_with_format(f, &desc, &w).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("dtype i8"), "{msg}");
            assert!(msg.contains("vnm") || msg.contains("V:N:M"), "{msg}");
        }
    }

    #[test]
    fn plan_auto_prices_i8_below_f16_when_allowed() {
        // Fig. 9 shape: the i8 V:N:M candidate must beat every f16 format
        // (half the bytes on a bandwidth-bound dispatch) and win auto.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
        let cfg = VnmConfig::new(128, 2, 10);
        let w = vnm_weight(1024, 768, cfg, 16);
        let f16_plan = engine.plan_auto(&engine.descriptor(1024, 768), &w);
        let i8_desc = engine.descriptor(1024, 768).with_dtype(DType::I8);
        let i8_plan = engine.plan_auto(&i8_desc, &w);
        assert_eq!(
            i8_plan.descriptor().dtype,
            DType::I8,
            "auto must pick the i8 candidate"
        );
        assert!(
            i8_plan.cost_ms().unwrap() < f16_plan.cost_ms().unwrap(),
            "i8 {:?} !< f16 {:?}",
            i8_plan.cost_ms(),
            f16_plan.cost_ms()
        );
    }

    /// The Fig. 9 weight of the test above, where the i8 candidate wins,
    /// with a kept NaN and a kept -Inf.
    fn non_finite_fig09_weight() -> Matrix<Half> {
        let mut w = vnm_weight(1024, 768, VnmConfig::new(128, 2, 10), 16);
        for (r, h) in [(0, Half::NAN), (5, Half::NEG_INFINITY)] {
            let c = (0..768)
                .find(|&c| !w.get(r, c).is_zero())
                .expect("a kept value");
            w.set(r, c, h);
        }
        w
    }

    #[test]
    fn i8_auto_prices_only_f16_plans_for_a_non_finite_weight() {
        // Calibration refuses NaN and ±Inf, so the i8 candidate is
        // ineligible and auto builds the f16 winner.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
        let w = non_finite_fig09_weight();
        let desc = engine.descriptor(1024, 768);
        let plan = engine.plan_auto(&desc.with_dtype(DType::I8), &w);
        let f16 = engine.plan_auto(&desc, &w);
        assert_eq!(plan.descriptor().dtype, DType::F16);
        assert_eq!((plan.path(), plan.cost_ms()), (f16.path(), f16.cost_ms()));
    }

    #[test]
    fn i8_vnm_format_reports_a_non_finite_weight() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
        let w = non_finite_fig09_weight();
        let desc = engine.descriptor(1024, 768);
        let err = engine
            .plan_with_format(MatmulFormat::Vnm, &desc.with_dtype(DType::I8), &w)
            .expect_err("calibration refuses NaN and -Inf");
        assert!(
            matches!(
                err,
                PlanError::Incompatible {
                    format: MatmulFormat::Vnm,
                    ..
                }
            ) && err.to_string().contains("NaN or ±Inf"),
            "{err}"
        );
        assert!(engine
            .plan_with_format(MatmulFormat::Vnm, &desc, &w)
            .is_ok());
    }

    #[test]
    fn i8_auto_falls_back_to_f16_formats_for_unstructured_weights() {
        // 50% unstructured sparsity violates every probed V:2:M pattern
        // (three-in-a-group rows are everywhere): the i8 candidate is
        // ineligible, and auto still returns a plan (the cheapest f16
        // format) instead of failing.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(512);
        let w = {
            let d = random::normal_matrix(256, 512, 0.0, 1.0, 17);
            let mask = SparsityMask::from_fn(256, 512, |i, j| {
                let h = (i * 2654435761) ^ (j * 0x9E37_79B9);
                ((h ^ (h >> 7)) ^ (h >> 13)) % 2 == 0
            });
            mask.apply_f32(&d).to_half()
        };
        let desc = engine.descriptor(256, 512).with_dtype(DType::I8);
        let plan = engine.plan_auto(&desc, &w);
        assert_eq!(plan.descriptor().dtype, DType::F16, "fallback stays f16");
    }

    #[test]
    fn plan_quant_spmm_builds_priced_i8_plans() {
        let engine = Engine::new(DeviceConfig::rtx3090())
            .with_b_cols_hint(128)
            .with_calibration(venom_quant::Calibration::Percentile(99.5));
        let cfg = VnmConfig::new(32, 2, 8);
        let w = random::normal_matrix(64, 128, 0.0, 1.0, 18);
        let mask = magnitude::prune_vnm(&w, cfg);
        let a = VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg);
        let plan = engine.plan_quant_spmm(&a);
        assert_eq!(plan.descriptor().b_cols, 128);
        assert_eq!(
            plan.quantized().expect("an int8 plan").calibration(),
            venom_quant::Calibration::Percentile(99.5),
            "the engine's calibrator reaches the container"
        );
        assert!(plan.timing().expect("V=32 is launchable").time_ms > 0.0);
    }

    #[test]
    fn plan_auto_picks_dense_for_dense_weights() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(1024);
        let w = random::glorot_matrix(256, 512, 8).to_half();
        let plan = engine.plan_auto(&engine.descriptor(256, 512), &w);
        assert_eq!(plan.format(), MatmulFormat::Dense);
    }

    #[test]
    fn plan_auto_routes_memory_bound_shapes_to_the_band_path() {
        // The acceptance shape: r=1024, k=768, c=8 sits far left of the
        // CUDA-core ridge, so the band replay's DRAM pricing must beat
        // the mma stream and every baseline.
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(8);
        let cfg = VnmConfig::new(128, 2, 10);
        let w = vnm_weight(1024, 768, cfg, 7);
        let desc = engine.descriptor(1024, 768);
        let plan = engine.plan_auto(&desc, &w);
        assert_eq!(plan.format(), MatmulFormat::Vnm);
        assert_eq!(plan.path(), "band", "cost {:?}", plan.cost_ms());
        assert_eq!(
            plan.regime(engine.device()),
            Some(venom_sim::Regime::MemoryBound)
        );
        // The routed winner still executes bit-exactly.
        let b = random::normal_matrix(768, 8, 0.0, 1.0, 30).to_half();
        assert_eq!(plan.run(&b), plan.run_oneshot(&b));
    }

    #[test]
    fn plan_auto_keeps_the_mma_stream_right_of_the_ridge() {
        // Fig. 9's wide bound (c=4096) is compute-bound: the band
        // replay's CUDA-core roof prices it out and the Spatha mma
        // stream must stay the winner (the fig09 pin).
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
        let cfg = VnmConfig::new(128, 2, 10);
        let w = vnm_weight(1024, 768, cfg, 7);
        let plan = engine.plan_auto(&engine.descriptor(1024, 768), &w);
        assert_eq!(plan.format(), MatmulFormat::Vnm);
        assert_eq!(plan.path(), "vnm", "cost {:?}", plan.cost_ms());
        assert_eq!(
            plan.regime(engine.device()),
            Some(venom_sim::Regime::ComputeBound)
        );
    }

    #[test]
    fn plan_band_forces_the_non_mma_path() {
        let engine = Engine::new(DeviceConfig::rtx3090()).with_b_cols_hint(4096);
        let cfg = VnmConfig::new(64, 2, 10);
        let w = vnm_weight(256, 320, cfg, 19);
        let desc = engine.descriptor(256, 320);
        // Even on a compute-bound bound the forced path is the band one.
        let plan = engine
            .plan_band_hinted(&desc, &w, None)
            .expect("eligible structure");
        assert_eq!(plan.path(), "band");
        let b = random::normal_matrix(320, 12, 0.0, 1.0, 20).to_half();
        assert_eq!(plan.run(&b), plan.run_oneshot(&b));
        // An i8 descriptor is rejected with the reason.
        let err = engine
            .plan_band_hinted(&desc.with_dtype(DType::I8), &w, None)
            .unwrap_err();
        assert!(err.to_string().contains("i8"), "{err}");
    }
}
