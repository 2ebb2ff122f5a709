//! Execution plans: one [`Plan`] type over one condensed operand stream.
//!
//! A plan's stream stores, for every output row, the row's nonzero
//! operands as `(value, source B row)` pairs in the exact order the
//! format's one-shot path accumulates them — ascending `(K group, slot)`
//! for the V:N:M kernel, ascending `k` for the dense GEMM, stored order
//! for CSR/CVSE/Blocked-ELL — with explicit zeros dropped exactly where
//! the one-shot paths skip them (see
//! [`venom_format::SparseKernel::for_each_operand`]). Replaying the
//! stream therefore reproduces every f32 accumulation chain bit-for-bit
//! while touching each operand once, at full output width, instead of
//! through per-call staging rebuilt on every dispatch.
//!
//! Formats differ in data, not in type. A [`Plan`] pairs a `Stream`
//! with the weight in its compressed format, which the per-call
//! reference path ([`MatmulPlan::run_oneshot`]) runs. The stream is the
//! format crate's operand container ([`venom_format::Operands`]) with u16
//! source rows (u32 where K > 65536) over one of two value planes, each
//! a `Lane`:
//!
//! * **f16** — f16 bit patterns, decoded through the exact f16→f32 LUT
//!   as they replay, 4 B per operand (6 B past 16-bit K). Every value is
//!   an f16 weight element, so the narrow store moves no bit. One of two
//!   loops replays it:
//!   - the K-chunked band **sweep** (phase `"mma"`), standing in for the
//!     `mma.sp` pipeline. It serves V:N:M (autotuned and priced on the
//!     Spatha model; per-call reference `venom_core::spmm`, or
//!     `spmm_ref` below V = 16), dense (cuBLAS model; `gemm_parallel`)
//!     and N:M, CSR, CVSE and Blocked-ELL (their baselines' models; the
//!     format's own `spmm_parallel`);
//!   - the FlashSparse-style register **panels** (phase `"band"`), over
//!     a V:N:M weight, priced on the CUDA-core DRAM roofline; the
//!     per-call reference is `venom_core::spmm_swapped`. It is a second
//!     replay, not a second kind of plan: [`crate::Engine::plan_auto`]
//!     prices it next to the sweep and routes memory-bound shapes to it.
//! * **i8** — the quantized V:N:M container's codes, 3 B per operand,
//!   widened to i16 as they load and accumulated in i32, replayed by the
//!   same sweep. Activations are quantized at the boundary and the
//!   epilogue dequantizes (see the `qplan` module for the numerics
//!   contract); the per-call reference is `spmm_parallel_i8` plus
//!   dequantization.
//!
//! Where a stream comes from — every one is filled by
//! [`venom_format::OperandBuilder`], rows ascending, with no counting
//! pass:
//! * a cold f16 V:N:M plan, which the engine builds from a dense weight,
//!   keeps the operands its one-pass compression emitted
//!   ([`VnmMatrix::try_compress_with`]), for either replay; an `i8`
//!   descriptor compresses without keeping them;
//! * every other f16 plan — over an already compressed V:N:M weight
//!   ([`crate::Engine::plan_spmm`]), dense, N:M, CSR, CVSE and
//!   Blocked-ELL — condenses the format's `for_each_operand`
//!   ([`venom_format::Operands::condense`]);
//! * an int8 plan condenses its quantized container's codes
//!   ([`QuantVnmMatrix::operands`]).
//!
//! The sweep works one band of `BAND_ROWS` output rows at a time. It
//! walks K in chunks of about `CHUNK_BYTES` of staged B (more where that
//! holds less than one quad of operands per row), and in each chunk
//! replays every row's operands whose sources lie below the chunk's end,
//! so the V rows of a V:N:M block fetch their shared selected B rows
//! once per band (Spatha's B-tile reuse) instead of once per operand.
//! The panels keep each output row's columns in fixed-width register
//! panels (64 columns, then one panel as wide as the remaining 8-column
//! groups, then a narrower tail) while the row's whole stream replays
//! over them. Both loops are written once over the lane and compiled
//! twice, for the baseline target and for AVX2, and the AVX2 instance
//! runs where the host has it (see the `simd` module). None of this can
//! move a bit: each row still consumes its stream strictly in order,
//! wider lanes and panels run the same per-element chain, `fma` is never
//! enabled, and integer sums are exact in any order. (As in any compiled
//! f32 code, which NaN payload survives where two NaNs meet is left to
//! the compiler; a NaN result stays NaN.)

use crate::arena;
use crate::descriptor::{DType, MatmulDescriptor};
use crate::matmul::{MatmulPlan, PlanError};
use crate::pricing::{self, Priced, VnmPrice};
use crate::qplan;
use crate::simd::avx2_dispatch;
use crate::stage;
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use venom_core::{SpmmOptions, TileConfig};
use venom_format::{
    CompressError, Extent, MatmulFormat, OperandBuilder, Operands, QuantVnmMatrix, Sources,
    SparseKernel, SparsityMask, VnmConfig, VnmMatrix,
};
use venom_fp16::lut::LUT_ENTRIES;
use venom_fp16::Half;
use venom_quant::Calibration;
use venom_sim::pipeline::KernelCounts;
use venom_sim::{DeviceConfig, KernelTiming};
use venom_tensor::Matrix;

/// Row height of one parallel task in every executor; matches
/// `gemm_parallel`'s banding so task granularity is comparable across the
/// dense and sparse paths.
///
/// It is also the unit of B-row reuse in [`Stream`]'s sweep. The rows of
/// one V:N:M block share their column-loc selection, so a band's rows
/// fetch the same selected B rows only when the band lies inside one
/// V-block: V >= `BAND_ROWS` and V divisible by `BAND_ROWS`. Other
/// patterns (V = 8, say) replay exactly, with less reuse.
pub(crate) const BAND_ROWS: usize = 16;

/// Bytes of staged B that one K-chunk of [`Stream`]'s sweep spans: the
/// chunk's B rows stay cache-resident while every row of the band
/// replays against them.
const CHUNK_BYTES: usize = 64 << 10;

/// Operands per row that one K-chunk holds at least, on average: one
/// quad of [`Stream`]'s unrolled sweep. A quad split across two chunks
/// reads and writes its output row once more, so where the byte budget
/// spans fewer operands (a wide `b_cols` over a sparse stream) the chunk
/// widens past it.
const CHUNK_MIN_OPS: usize = 4;

/// The value plane of a [`Stream`], and everything that differs with it
/// between f16 and int8 plans: how a stored value loads, the staged B
/// element and the accumulator, how an operand is staged, and the
/// epilogue to f32. Implemented for `u16` (f16 bit patterns) here and
/// for `i8` (quantized codes) in the `qplan` module; the replays and the
/// run surface are written once over it.
pub(crate) trait Lane: Copy + Send + Sync + 'static {
    /// A staged B element: the exact f32 decode of an f16 value, or an
    /// int8 code widened to i16.
    type Staged: Copy + Default + Send + Sync;
    /// An output accumulator: f32, or i32.
    type Acc: Copy + Default + Send + Sync;
    /// The table a stored value loads through: the f16→f32 LUT, or none.
    type Decode: ?Sized + Sync + 'static;
    /// What a run reads beyond its stream: nothing for f16; for int8 the
    /// plan's quantized weight, the one owner of its row scales and of
    /// the activation calibrator.
    type Boundary: ?Sized + Sync;

    /// The decode table.
    fn decode() -> &'static Self::Decode;

    /// A stored value, loaded for the multiply.
    fn load(table: &Self::Decode, v: Self) -> Self::Staged;

    /// `acc + v * x`: one step of every accumulation chain.
    fn mac(acc: Self::Acc, v: Self::Staged, x: Self::Staged) -> Self::Acc;

    /// Stages the half operand `b` into `dst`, whose rows are `stride`
    /// wide, at column `col0`, and returns its activation scale (1 for
    /// f16, which decodes exactly).
    fn stage_half(
        bd: &Self::Boundary,
        b: &Matrix<Half>,
        dst: &mut [Self::Staged],
        stride: usize,
        col0: usize,
    ) -> f32;

    /// Stages an f32 operand that holds exact f16 decodes (see
    /// [`stage::stage_activations_t_into`]), with its activation scale.
    fn stage_f32<'a>(bd: &Self::Boundary, staged: &'a [f32]) -> (Cow<'a, [Self::Staged]>, f32);

    /// Runs `replay` over the accumulators of the band of output rows
    /// starting at `row0` and leaves the band's f32 result in `out`
    /// (`b_cols` wide). `acts` lists each request's column count and
    /// activation scale, left to right.
    fn finish(
        bd: &Self::Boundary,
        acts: &[(usize, f32)],
        row0: usize,
        b_cols: usize,
        out: &mut [f32],
        replay: impl FnOnce(&mut [Self::Acc]),
    );

    /// A zero-filled staging buffer holding a `len`-element window, and
    /// the window's offset.
    fn lease(len: usize) -> (Vec<Self::Staged>, usize);

    /// Hands a [`Self::lease`]d buffer back.
    fn release(buf: Vec<Self::Staged>);
}

impl Lane for u16 {
    type Staged = f32;
    type Acc = f32;
    type Decode = [f32; LUT_ENTRIES];
    type Boundary = ();

    #[inline]
    fn decode() -> &'static [f32; LUT_ENTRIES] {
        venom_fp16::f16_to_f32_table()
    }

    #[inline(always)]
    fn load(lut: &[f32; LUT_ENTRIES], h: u16) -> f32 {
        lut[usize::from(h)]
    }

    #[inline(always)]
    fn mac(acc: f32, v: f32, x: f32) -> f32 {
        acc + v * x
    }

    fn stage_half(_: &(), b: &Matrix<Half>, dst: &mut [f32], stride: usize, col0: usize) -> f32 {
        let cols = b.cols();
        if cols == stride {
            stage::decode_rhs_into(b, dst);
        } else {
            for r in 0..b.rows() {
                venom_fp16::slice::decode_f32_into(b.row(r), &mut dst[r * stride + col0..][..cols]);
            }
        }
        1.0
    }

    fn stage_f32<'a>(_: &(), staged: &'a [f32]) -> (Cow<'a, [f32]>, f32) {
        (Cow::Borrowed(staged), 1.0)
    }

    #[inline(always)]
    fn finish(
        _: &(),
        _: &[(usize, f32)],
        _: usize,
        _: usize,
        out: &mut [f32],
        replay: impl FnOnce(&mut [f32]),
    ) {
        replay(out)
    }

    fn lease(len: usize) -> (Vec<f32>, usize) {
        arena::lease_aligned(len)
    }

    fn release(buf: Vec<f32>) {
        arena::release(buf)
    }
}

/// A stream's source-row index: u16, or u32 where K > 65536.
trait Source: Copy + Into<u64> {}

impl Source for u16 {}

impl Source for u32 {}

/// Which loop replays a [`Stream`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Replay {
    /// The K-chunked band sweep standing in for the `mma.sp` pipeline.
    Sweep,
    /// The register panels of the bandwidth-optimized band replay.
    Panels,
}

impl Replay {
    /// The kernel label and compute phase that phase profiling records
    /// a run under (see [`venom_obs::profile`]).
    fn profile(self) -> (&'static str, &'static str) {
        match self {
            Replay::Sweep => ("spmm[mma]", "mma"),
            Replay::Panels => ("spmm[band]", "band"),
        }
    }
}

/// The operand container over one value plane and the loop that replays
/// it.
#[derive(Clone, Debug)]
pub(crate) struct Stream<L> {
    pub(crate) ops: Operands<L>,
    replay: Replay,
}

impl Stream<u16> {
    /// Compresses `dense` under `mask` in one pass, which checks the
    /// pattern. For an f16 `dtype` the pass keeps the operands it emits as
    /// the weight's stream, with room for the slot count, the most it can
    /// emit; an int8 plan replays the quantized codes, so for `i8` it
    /// keeps none.
    ///
    /// # Errors
    /// As [`VnmMatrix::try_compress_with`].
    pub(crate) fn compress(
        dense: &Matrix<Half>,
        mask: &SparsityMask,
        cfg: VnmConfig,
        dtype: DType,
    ) -> Result<(VnmMatrix, Option<Self>), CompressError> {
        if dtype == DType::I8 {
            return VnmMatrix::try_compress(dense, mask, cfg).map(|a| (a, None));
        }
        let (rows, k) = (dense.rows(), dense.cols());
        // The builder reserves its room at the first push, after the
        // pass's own buffers, which are freed first: the plan's buffers
        // then pack together in the heap, and a churning server's peak
        // RSS stays that of the two-pass build.
        let mut ops = OperandBuilder::new(rows, k, rows * cfg.k_groups(k) * cfg.n);
        let mut sink = |r, values: &[Half], columns: &[usize]| {
            ops.extend_row(r, values.iter().map(|h| h.to_bits()), columns)
        };
        let a = VnmMatrix::try_compress_with(dense, mask, cfg, Some(&mut sink))?;
        Ok((a, Some(Self::sweep(ops.finish()))))
    }
}

impl<L: Lane> Stream<L> {
    /// A stream the sweep replays.
    pub(crate) fn sweep(ops: Operands<L>) -> Self {
        Stream {
            ops,
            replay: Replay::Sweep,
        }
    }

    /// The panels' hot body of [`Self::run_acc`]: the band of output
    /// rows starting at `row0` into `out` (its `rows x b_cols` slice, at
    /// most [`BAND_ROWS`] rows), one [`Self::replay_row`] per row.
    #[inline(always)]
    fn panels_band<S: Source>(
        &self,
        srcs: &[S],
        dec: &L::Decode,
        row0: usize,
        b: &[L::Staged],
        b_cols: usize,
        out: &mut [L::Acc],
    ) {
        for (i, orow) in out.chunks_mut(b_cols).enumerate() {
            self.replay_row(srcs, dec, row0 + i, b, b_cols, orow);
        }
    }

    /// The sweep's hot body of [`Self::run_acc`], over the same band: K
    /// is walked in chunks of `CHUNK_BYTES` of staged B rows, or more
    /// where that would hold fewer than `CHUNK_MIN_OPS` operands per row
    /// on average (see [`Self::chunk_rows`]). For each chunk, every row
    /// of the band replays the next run of its stream whose sources lie
    /// below the chunk's end, and a per-row cursor remembers where the
    /// run stopped; the last chunk takes the rest of each row without
    /// scanning. Where the band's rows share their selected columns (a
    /// V:N:M band inside one V-block, see [`BAND_ROWS`]), each selected
    /// B row is fetched from memory once per band, then hit in cache by
    /// the other rows.
    ///
    /// Why the bits cannot move: each row still consumes its stream
    /// strictly in order — a run ends at the first operand at or past the
    /// chunk's end, even when a later one lies below it — so every output
    /// element accumulates the same chain as a one-pass replay. Formats
    /// whose stored sources are not ascending only reuse less.
    #[inline(always)]
    fn sweep_band<S: Source>(
        &self,
        srcs: &[S],
        dec: &L::Decode,
        row0: usize,
        b: &[L::Staged],
        b_cols: usize,
        out: &mut [L::Acc],
    ) {
        let (chunk, k) = (self.chunk_rows(b_cols), self.ops.extent().k);
        let mut cursor = [0usize; BAND_ROWS];
        for (i, c) in cursor.iter_mut().take(out.len() / b_cols).enumerate() {
            *c = self.ops.row(row0 + i).start;
        }
        let mut k_end = chunk;
        while k_end < k {
            for (i, orow) in out.chunks_mut(b_cols).enumerate() {
                let (lo, hi) = (cursor[i], self.ops.row(row0 + i).end);
                let end = srcs[lo..hi]
                    .iter()
                    .position(|&s| s.into() as usize >= k_end)
                    .map_or(hi, |p| lo + p);
                self.sweep_run(srcs, dec, lo..end, b, b_cols, orow);
                cursor[i] = end;
            }
            k_end += chunk;
        }
        for (i, orow) in out.chunks_mut(b_cols).enumerate() {
            let hi = self.ops.row(row0 + i).end;
            self.sweep_run(srcs, dec, cursor[i]..hi, b, b_cols, orow);
        }
    }

    /// B rows per K-chunk of [`Self::sweep_band`] at output width
    /// `b_cols`: the `CHUNK_BYTES` budget of staged elements, widened to
    /// hold `CHUNK_MIN_OPS` operands per row on average.
    fn chunk_rows(&self, b_cols: usize) -> usize {
        let budget = CHUNK_BYTES / (std::mem::size_of::<L::Staged>() * b_cols);
        let Extent { rows, k, nnz, .. } = self.ops.extent();
        let min_ops = CHUNK_MIN_OPS * k * rows / nnz.max(1);
        budget.max(min_ops).max(1)
    }

    /// Replays the stream entries `ops` into one output row, four at a
    /// time, reading and writing the row once per quad. The per-element
    /// sum is evaluated left to right (`((o + v0*b0) + v1*b1) + ...`),
    /// which is exactly the accumulation chain of one-entry-at-a-time
    /// iteration — the unroll changes traffic, not bits.
    #[inline(always)]
    fn sweep_run<S: Source>(
        &self,
        srcs: &[S],
        dec: &L::Decode,
        ops: Range<usize>,
        b: &[L::Staged],
        b_cols: usize,
        orow: &mut [L::Acc],
    ) {
        let (vals, srcs) = (&self.ops.values()[ops.clone()], &srcs[ops]);
        let val = |v: L| L::load(dec, v);
        let brow = |s: S| &b[s.into() as usize * b_cols..][..b_cols];
        let quads = vals.len() / 4 * 4;
        for (v, s) in vals[..quads].chunks_exact(4).zip(srcs.chunks_exact(4)) {
            let (v0, v1, v2, v3) = (val(v[0]), val(v[1]), val(v[2]), val(v[3]));
            let (b0, b1, b2, b3) = (brow(s[0]), brow(s[1]), brow(s[2]), brow(s[3]));
            for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o = L::mac(L::mac(L::mac(L::mac(*o, v0, x0), v1, x1), v2, x2), v3, x3);
            }
        }
        for (&q, &s) in vals[quads..].iter().zip(&srcs[quads..]) {
            let v = val(q);
            for (o, &x) in orow.iter_mut().zip(brow(s)) {
                *o = L::mac(*o, v, x);
            }
        }
    }

    /// The panels over output row `r` (`orow`, `b_cols` wide), the
    /// FlashSparse swap in register form. While at least
    /// `8 * SWAP_PANEL` columns remain, a 64-wide accumulator replays the
    /// whole row's stream over its B segments. The remaining whole
    /// 8-column panels then share one accumulator of their joint width,
    /// so any width up to 64 reads the row's stream once (plus once more
    /// for a narrower tail). Each stored nonzero costs one load and one
    /// contiguous B segment read per panel, and each output element is
    /// written once.
    ///
    /// One stream pass per 64 columns keeps a batch's cost growing with
    /// its width, so served throughput does not hang on how many
    /// requests happen to coalesce into a batch.
    ///
    /// Why the bits cannot move: per `(row, column)` the sum is the same
    /// left-to-right chain from zero as `spmm_ref`'s. A wide panel only
    /// evaluates more independent column chains per operand, and a fixed
    /// width lets the compiler keep them in vector registers.
    #[inline(always)]
    fn replay_row<S: Source>(
        &self,
        srcs: &[S],
        dec: &L::Decode,
        r: usize,
        b: &[L::Staged],
        b_cols: usize,
        orow: &mut [L::Acc],
    ) {
        const PANEL: usize = venom_core::SWAP_PANEL;
        const WIDE: usize = 8 * PANEL;
        let ops = self.ops.row(r);
        let (vals, srcs) = (&self.ops.values()[ops.clone()], &srcs[ops]);
        let mut j0 = 0usize;
        while b_cols - j0 >= WIDE {
            replay_panel::<WIDE, L, S>(vals, srcs, dec, b, b_cols, j0, &mut orow[j0..j0 + WIDE]);
            j0 += WIDE;
        }
        let panels = (b_cols - j0) / PANEL;
        let out = &mut orow[j0..j0 + panels * PANEL];
        macro_rules! pass {
            ($w:expr) => {
                replay_panel::<{ $w }, L, S>(vals, srcs, dec, b, b_cols, j0, out)
            };
        }
        match panels {
            0 => {}
            1 => pass!(PANEL),
            2 => pass!(2 * PANEL),
            3 => pass!(3 * PANEL),
            4 => pass!(4 * PANEL),
            5 => pass!(5 * PANEL),
            6 => pass!(6 * PANEL),
            7 => pass!(7 * PANEL),
            _ => unreachable!("fewer than {WIDE} columns remain"),
        }
        j0 += panels * PANEL;
        let w = b_cols - j0;
        if w > 0 {
            let mut acc = [L::Acc::default(); PANEL];
            for (&v, &src) in vals.iter().zip(srcs) {
                let vf = L::load(dec, v);
                let bseg = &b[src.into() as usize * b_cols + j0..][..w];
                for (a, &bv) in acc[..w].iter_mut().zip(bseg) {
                    *a = L::mac(*a, vf, bv);
                }
            }
            orow[j0..].copy_from_slice(&acc[..w]);
        }
    }

    /// The band of output rows starting at `row0` into `out`, through the
    /// AVX2 dispatch of the stream's replay (see the `simd` module). Each
    /// replay keeps an entry of its own: one body running both made the
    /// panels about 13% slower at width 8.
    #[inline(always)]
    fn replay_band(
        &self,
        dec: &L::Decode,
        row0: usize,
        b: &[L::Staged],
        b_cols: usize,
        out: &mut [L::Acc],
    ) {
        match (self.ops.sources(), self.replay) {
            (Sources::Narrow(s), Replay::Sweep) => sweep(self, s, dec, row0, b, b_cols, out),
            (Sources::Wide(s), Replay::Sweep) => sweep(self, s, dec, row0, b, b_cols, out),
            (Sources::Narrow(s), Replay::Panels) => panels(self, s, dec, row0, b, b_cols, out),
            (Sources::Wide(s), Replay::Panels) => panels(self, s, dec, row0, b, b_cols, out),
        }
    }

    /// Checks a staged RHS (`k x b_cols`) and an output of `len` elements
    /// against the stream's shape.
    fn check(&self, b: &[L::Staged], b_cols: usize, len: usize) {
        let Extent { rows, k, .. } = self.ops.extent();
        assert_eq!(b.len(), k * b_cols, "staged RHS size mismatch");
        assert_eq!(len, rows * b_cols, "output size mismatch");
    }

    /// `C = A * B` over a staged RHS (`k x b_cols`, row-major) into the
    /// accumulators `out` (`rows x b_cols`, zero-initialised), with no
    /// epilogue: one parallel task per band of [`BAND_ROWS`] output rows.
    /// Output rows are disjoint across bands and each element accumulates
    /// sequentially in stream order, so the result is bit-identical
    /// regardless of the worker count, of how the replay tiles K or
    /// columns, and of the vector width its loop is compiled for.
    fn run_acc(&self, b: &[L::Staged], b_cols: usize, out: &mut [L::Acc]) {
        self.check(b, b_cols, out.len());
        let dec = L::decode();
        out.par_chunks_mut(BAND_ROWS * b_cols)
            .enumerate()
            .for_each(|(band, chunk)| self.replay_band(dec, band * BAND_ROWS, b, b_cols, chunk));
    }

    /// [`Self::run_acc`] through the lane's epilogue into the f32 `out`:
    /// each band's accumulators are finished while they are still in
    /// cache (see [`Lane::finish`]).
    fn run_into(
        &self,
        bd: &L::Boundary,
        acts: &[(usize, f32)],
        b: &[L::Staged],
        b_cols: usize,
        out: &mut [f32],
    ) {
        self.check(b, b_cols, out.len());
        let dec = L::decode();
        out.par_chunks_mut(BAND_ROWS * b_cols)
            .enumerate()
            .for_each(|(band, chunk)| {
                let row0 = band * BAND_ROWS;
                L::finish(bd, acts, row0, b_cols, chunk, |acc| {
                    self.replay_band(dec, row0, b, b_cols, acc)
                });
            });
    }

    /// [`Self::run_into`] with an owned result matrix.
    fn run(
        &self,
        bd: &L::Boundary,
        acts: &[(usize, f32)],
        b: &[L::Staged],
        b_cols: usize,
    ) -> Matrix<f32> {
        let Extent { rows, bytes, .. } = self.ops.extent();
        let mut out = vec![0.0f32; rows * b_cols];
        let (kernel, phase) = self.replay.profile();
        let timer = venom_obs::profile::PhaseTimer::start();
        self.run_into(bd, acts, b, b_cols, &mut out);
        timer.stop(kernel, phase, bytes + (out.len() * 4) as u64);
        Matrix::from_vec(rows, b_cols, out)
    }

    /// `C = A * B` over a half RHS, staged by the lane (through the
    /// arena on a cache line boundary for f16, see
    /// [`arena::lease_aligned`]).
    fn run_half(&self, bd: &L::Boundary, b: &Matrix<Half>) -> Matrix<f32> {
        let k = self.ops.extent().k;
        assert_eq!(b.rows(), k, "B must have K = {k} rows");
        let (mut buf, off) = L::lease(b.len());
        let staged = &mut buf[off..off + b.len()];
        let timer = venom_obs::profile::PhaseTimer::start();
        let act = L::stage_half(bd, b, staged, b.cols(), 0);
        timer.stop(self.replay.profile().0, "stage", (b.len() * 2) as u64);
        let c = self.run(bd, &[(b.cols(), act)], staged, b.cols());
        L::release(buf);
        c
    }

    /// One dispatch over many requests: concatenates the operands along
    /// the output-column dimension, multiplies once, and splits the
    /// result. Bit-identical to running each operand separately (columns
    /// are independent in every path, and each request keeps its own
    /// activation scale). The concatenation is staged as in
    /// [`Self::run_half`].
    fn run_batch(&self, bd: &L::Boundary, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>> {
        if bs.is_empty() {
            return Vec::new();
        }
        let k = self.ops.extent().k;
        let total: usize = bs.iter().map(|b| b.cols()).sum();
        let (mut buf, off) = L::lease(k * total);
        let staged = &mut buf[off..off + k * total];
        let timer = venom_obs::profile::PhaseTimer::start();
        let mut acts = Vec::with_capacity(bs.len());
        let mut col0 = 0usize;
        for b in bs {
            assert_eq!(b.rows(), k, "B must have K = {k} rows");
            acts.push((b.cols(), L::stage_half(bd, b, staged, total, col0)));
            col0 += b.cols();
        }
        timer.stop(self.replay.profile().0, "stage", (k * total * 2) as u64);
        let c = self.run(bd, &acts, staged, total);
        L::release(buf);

        let mut out = Vec::with_capacity(bs.len());
        let rows = self.ops.extent().rows;
        let mut col0 = 0usize;
        for b in bs {
            let cols = b.cols();
            let mut part = vec![0.0f32; rows * cols];
            for r in 0..rows {
                part[r * cols..(r + 1) * cols]
                    .copy_from_slice(&c.as_slice()[r * total + col0..r * total + col0 + cols]);
            }
            out.push(Matrix::from_vec(rows, cols, part));
            col0 += cols;
        }
        out
    }

    /// The fused layer path: stages `x` (`tokens x k` f32) through f16
    /// rounding into the kernel orientation, multiplies, and returns
    /// `(A * x^T)^T + bias` (`tokens x rows`) — element-for-element the
    /// chain `transpose(A * x.to_half().transpose()) + bias` of the
    /// per-call layer forward, in two fused passes.
    fn run_linear(&self, bd: &L::Boundary, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        assert_eq!(x.cols(), self.ops.extent().k, "input features mismatch");
        let mut staged = arena::lease(x.len());
        let timer = venom_obs::profile::PhaseTimer::start();
        stage::stage_activations_t_into(x, &mut staged);
        timer.stop(self.replay.profile().0, "stage", (x.len() * 4) as u64);
        let y = self.run_linear_staged(bd, &staged, x.rows(), bias);
        arena::release(staged);
        y
    }

    /// [`Self::run_linear`] over an already-staged RHS (shared by sibling
    /// plans of one layer, e.g. Q/K/V over the same activations).
    fn run_linear_staged(
        &self,
        bd: &L::Boundary,
        staged: &[f32],
        tokens: usize,
        bias: &[f32],
    ) -> Matrix<f32> {
        let Extent { rows, bytes, .. } = self.ops.extent();
        assert_eq!(bias.len(), rows, "bias must match out_features");
        let (kernel, phase) = self.replay.profile();
        let (b, act) = L::stage_f32(bd, staged);
        let mut c = arena::lease(rows * tokens);
        let timer = venom_obs::profile::PhaseTimer::start();
        self.run_into(bd, &[(tokens, act)], &b, tokens, &mut c);
        timer.stop(kernel, phase, bytes + (rows * tokens * 4) as u64);
        // Tiled transpose+bias epilogue: 32x32 blocks keep both the
        // strided reads from `c` and the writes to `y` inside the cache
        // (a row-by-row transpose touches a fresh cache line per element).
        const TILE: usize = 32;
        let timer = venom_obs::profile::PhaseTimer::start();
        let mut y = vec![0.0f32; tokens * rows];
        for t0 in (0..tokens).step_by(TILE) {
            let t1 = (t0 + TILE).min(tokens);
            for r0 in (0..rows).step_by(TILE) {
                let r1 = (r0 + TILE).min(rows);
                for t in t0..t1 {
                    let yrow = &mut y[t * rows..][r0..r1];
                    for (r, o) in (r0..r1).zip(yrow.iter_mut()) {
                        *o = c[r * tokens + t] + bias[r];
                    }
                }
            }
        }
        timer.stop(kernel, "epilogue", (y.len() * 4) as u64);
        arena::release(c);
        Matrix::from_vec(tokens, rows, y)
    }
}

avx2_dispatch! {
    /// [`Stream::sweep_band`], compiled for AVX2 where the host has it.
    fn sweep<L: Lane, S: Source>(
        s: &Stream<L>,
        srcs: &[S],
        dec: &L::Decode,
        row0: usize,
        b: &[L::Staged],
        b_cols: usize,
        out: &mut [L::Acc],
    ) = Stream::<L>::sweep_band::<S>;
}

avx2_dispatch! {
    /// [`Stream::panels_band`], compiled for AVX2 where the host has it.
    fn panels<L: Lane, S: Source>(
        s: &Stream<L>,
        srcs: &[S],
        dec: &L::Decode,
        row0: usize,
        b: &[L::Staged],
        b_cols: usize,
        out: &mut [L::Acc],
    ) = Stream::<L>::panels_band::<S>;
}

/// One `W`-column panel of [`Stream::replay_row`]: the row's stream
/// (`vals`, `srcs` as B rows) replayed over columns `j0..j0 + W` of the
/// staged RHS into a register accumulator, then written to `out` (`W`
/// wide).
#[inline(always)]
fn replay_panel<const W: usize, L: Lane, S: Source>(
    vals: &[L],
    srcs: &[S],
    dec: &L::Decode,
    b: &[L::Staged],
    b_cols: usize,
    j0: usize,
    out: &mut [L::Acc],
) {
    let mut acc = [L::Acc::default(); W];
    for (&v, &src) in vals.iter().zip(srcs) {
        let vf = L::load(dec, v);
        let bseg: &[L::Staged; W] = b[src.into() as usize * b_cols + j0..][..W]
            .try_into()
            .expect("a W-wide slice");
        for (a, &bv) in acc.iter_mut().zip(bseg) {
            *a = L::mac(*a, vf, bv);
        }
    }
    out.copy_from_slice(&acc);
}

/// The condensed stream a [`Plan`] replays, over its value plane.
#[derive(Clone, Debug)]
enum Exec {
    /// f16 bit patterns, replayed by the sweep or the panels.
    F16(Stream<u16>),
    /// Int8 codes, replayed by the sweep.
    I8(Stream<i8>),
}

impl Exec {
    /// Shape, operand count and resident bytes of the condensed stream.
    fn extent(&self) -> Extent {
        match self {
            Exec::F16(s) => s.ops.extent(),
            Exec::I8(s) => s.ops.extent(),
        }
    }
}

/// The weight in its compressed format, kept for the per-call reference
/// path and for re-planning.
#[derive(Clone, Debug)]
enum Reference {
    /// V:N:M through `venom_core::spmm` (`spmm_ref` below V = 16).
    Spatha {
        weight: VnmMatrix,
        opts: SpmmOptions,
        dev: DeviceConfig,
    },
    /// V:N:M through the per-call swapped-operand kernel.
    Swapped(VnmMatrix),
    /// Dense through `gemm_parallel`.
    Dense(Matrix<Half>),
    /// N:M, CSR, CVSE or Blocked-ELL through the format's `spmm_parallel`.
    Kernel(Arc<dyn SparseKernel>),
    /// Int8 V:N:M through `spmm_parallel_i8` and dequantization; the
    /// container's calibrator also calibrates the activations.
    Quant(QuantVnmMatrix),
}

impl Reference {
    /// Resident bytes of the compressed weight: values and metadata.
    fn bytes(&self) -> usize {
        match self {
            Reference::Spatha { weight, .. } | Reference::Swapped(weight) => weight.total_bytes(),
            Reference::Dense(w) => w.len() * 2,
            Reference::Kernel(k) => k.compressed_bytes(),
            Reference::Quant(weight) => weight.total_bytes(),
        }
    }
}

/// A built execution plan for one weight matmul — built once by the
/// [`crate::Engine`], replayed bit-exactly on every request.
///
/// Every format, dtype and replay is this one type; see the module docs
/// for what each serves. State only some plans have is behind
/// `Option`-returning accessors ([`Self::tile`], [`Self::vnm`],
/// [`Self::quantized`], [`Self::dense`], [`Self::run_i8`]).
#[derive(Clone, Debug)]
pub struct Plan {
    desc: MatmulDescriptor,
    exec: Exec,
    reference: Reference,
    timing: Option<KernelTiming>,
    counts: Option<KernelCounts>,
    /// Autotuned Spatha instantiation at the planned bound.
    tile: Option<TileConfig>,
}

/// The Spatha pricing of a plan-building entry point that promises a
/// plan: an instantiation that cannot launch is the caller's error.
fn launchable(priced: Result<Option<VnmPrice>, PlanError>) -> Option<VnmPrice> {
    priced.unwrap_or_else(|e| panic!("{e}"))
}

impl Plan {
    fn new(
        desc: MatmulDescriptor,
        exec: Exec,
        reference: Reference,
        tile: Option<TileConfig>,
        priced: Option<Priced>,
    ) -> Self {
        let extent = exec.extent();
        assert_eq!(
            (extent.rows, extent.k),
            (desc.out_features, desc.in_features),
            "weight shape does not match the descriptor"
        );
        let (timing, counts) = priced.unzip();
        Plan {
            desc,
            exec,
            reference,
            timing,
            counts,
            tile,
        }
    }

    /// The V:N:M stream plan on the Spatha path over an already
    /// compressed weight, priced and then built; prefer
    /// [`crate::Engine::plan_spmm`].
    ///
    /// # Panics
    /// Panics if an explicit `opts.tile` cannot launch for `a` on `dev`.
    pub(crate) fn build_vnm(
        a: &VnmMatrix,
        desc: MatmulDescriptor,
        opts: &SpmmOptions,
        dev: &DeviceConfig,
    ) -> Self {
        let price = pricing::price_vnm(a, desc.b_cols, DType::F16, opts, dev);
        Self::spatha(
            a.clone(),
            Stream::sweep(a.operands()),
            desc,
            opts,
            dev,
            launchable(price),
        )
    }

    /// Builds the V:N:M plan the sweep replays over an already priced
    /// launch (`None`: V below the fragment contract, unpriced).
    pub(crate) fn spatha(
        a: VnmMatrix,
        stream: Stream<u16>,
        desc: MatmulDescriptor,
        opts: &SpmmOptions,
        dev: &DeviceConfig,
        price: Option<VnmPrice>,
    ) -> Self {
        let reference = Reference::Spatha {
            weight: a,
            opts: *opts,
            dev: dev.clone(),
        };
        Self::priced_vnm(desc, Exec::F16(stream), reference, price)
    }

    /// A V:N:M plan carrying its Spatha pricing.
    fn priced_vnm(
        desc: MatmulDescriptor,
        exec: Exec,
        reference: Reference,
        price: Option<VnmPrice>,
    ) -> Self {
        let (tile, priced) = price.map(|p| (p.tile, (p.timing, p.counts))).unzip();
        Self::new(desc, exec, reference, tile, priced)
    }

    /// Builds the V:N:M plan the panels replay over its
    /// [`pricing::price_band`] pricing.
    pub(crate) fn band(
        a: VnmMatrix,
        stream: Stream<u16>,
        desc: MatmulDescriptor,
        priced: Priced,
    ) -> Self {
        let exec = Exec::F16(Stream {
            replay: Replay::Panels,
            ..stream
        });
        Self::new(desc, exec, Reference::Swapped(a), None, Some(priced))
    }

    /// Quantizes a V:N:M weight under `calib` (which also calibrates the
    /// activations per call) and builds its int8 plan over an already
    /// priced launch on the `Uint8` `mma.sp` profile; prefer
    /// [`crate::Engine::plan_quant_spmm`].
    ///
    /// # Panics
    /// Panics if `a` holds NaN or ±Inf, which calibration refuses.
    pub(crate) fn quant(
        a: &VnmMatrix,
        calib: Calibration,
        desc: MatmulDescriptor,
        price: Option<VnmPrice>,
    ) -> Self {
        let desc = desc.with_dtype(DType::I8);
        let weight = QuantVnmMatrix::quantize(a, calib);
        let exec = Exec::I8(Stream::sweep(weight.operands()));
        Self::priced_vnm(desc, exec, Reference::Quant(weight), price)
    }

    /// A dense plan, carrying its cuBLAS-model pricing when it has one.
    pub(crate) fn build_dense(
        w: &Matrix<Half>,
        desc: MatmulDescriptor,
        priced: Option<Priced>,
    ) -> Self {
        let exec = Exec::F16(Stream::sweep(Operands::condense(w)));
        Self::new(desc, exec, Reference::Dense(w.clone()), None, priced)
    }

    /// A plan over any other [`SparseKernel`] (N:M, CSR, CVSE,
    /// Blocked-ELL) with its priced launch and the counts it was priced on.
    pub(crate) fn build_kernel(
        kernel: Arc<dyn SparseKernel>,
        desc: MatmulDescriptor,
        timing: KernelTiming,
        counts: KernelCounts,
    ) -> Self {
        let exec = Exec::F16(Stream::sweep(Operands::condense(kernel.as_ref())));
        let priced = Some((timing, counts));
        Self::new(desc, exec, Reference::Kernel(kernel), None, priced)
    }

    /// Plans a dense weight without pricing (no device in scope). Prefer
    /// [`crate::Engine::plan_gemm`], which attaches cost-model timing for
    /// the engine's device.
    pub fn from_dense(w: &Matrix<Half>) -> Self {
        Self::build_dense(w, MatmulDescriptor::for_weight(w), None)
    }

    /// The autotuned template instantiation (`None` off the V:N:M mma
    /// and int8 paths, and for V < 16 patterns, which only the
    /// functional streams support).
    pub fn tile(&self) -> Option<TileConfig> {
        self.tile
    }

    /// The compressed V:N:M weight of an f16 V:N:M plan (mma or band).
    pub fn vnm(&self) -> Option<&VnmMatrix> {
        match &self.reference {
            Reference::Spatha { weight, .. } | Reference::Swapped(weight) => Some(weight),
            _ => None,
        }
    }

    /// The calibrated int8 container of an int8 plan.
    pub fn quantized(&self) -> Option<&QuantVnmMatrix> {
        match &self.reference {
            Reference::Quant(weight) => Some(weight),
            _ => None,
        }
    }

    /// The int8 boundary of an int8 plan: its quantized weight.
    fn int8(&self) -> &QuantVnmMatrix {
        self.quantized()
            .expect("an int8 plan keeps its quantized weight")
    }

    /// The half weight of a dense plan.
    pub fn dense(&self) -> Option<&Matrix<Half>> {
        match &self.reference {
            Reference::Dense(w) => Some(w),
            _ => None,
        }
    }

    /// The exact integer entry point of an int8 plan: `C = A_q * B_q`
    /// with i32 accumulation over the codes widened to i16, which changes
    /// no value, and no epilogue: bit-identical to
    /// [`QuantVnmMatrix::spmm_ref_i8`] on the planned weight.
    ///
    /// # Panics
    /// Panics if `B` has a row count different from the planned K.
    pub fn run_i8(&self, b: &Matrix<i8>) -> Option<Matrix<i32>> {
        let Exec::I8(s) = &self.exec else {
            return None;
        };
        let Extent { rows, k, .. } = s.ops.extent();
        assert_eq!(b.rows(), k, "B must have K = {k} rows");
        let staged: Vec<i16> = b.as_slice().iter().map(|&q| i16::from(q)).collect();
        let mut out = vec![0i32; rows * b.cols()];
        s.run_acc(&staged, b.cols(), &mut out);
        Some(Matrix::from_vec(rows, b.cols(), out))
    }
}

impl MatmulPlan for Plan {
    fn format(&self) -> MatmulFormat {
        match &self.reference {
            Reference::Dense(_) => MatmulFormat::Dense,
            Reference::Kernel(k) => k.format(),
            _ => MatmulFormat::Vnm,
        }
    }

    fn path(&self) -> &'static str {
        match &self.exec {
            Exec::F16(s) if s.replay == Replay::Panels => "band",
            _ => self.format().name(),
        }
    }

    fn descriptor(&self) -> &MatmulDescriptor {
        &self.desc
    }

    fn timing(&self) -> Option<&KernelTiming> {
        self.timing.as_ref()
    }

    fn counts(&self) -> Option<&KernelCounts> {
        self.counts.as_ref()
    }

    fn stored_values(&self) -> usize {
        self.exec.extent().nnz
    }

    fn approx_bytes(&self) -> usize {
        64 + self.exec.extent().bytes as usize + self.reference.bytes()
    }

    fn weight_dense(&self) -> Matrix<Half> {
        match &self.reference {
            Reference::Spatha { weight, .. } | Reference::Swapped(weight) => weight.decompress(),
            Reference::Dense(w) => w.clone(),
            Reference::Kernel(k) => k.to_dense(),
            Reference::Quant(weight) => weight.to_dense(),
        }
    }

    fn run(&self, b: &Matrix<Half>) -> Matrix<f32> {
        match &self.exec {
            Exec::F16(s) => s.run_half(&(), b),
            Exec::I8(s) => s.run_half(self.int8(), b),
        }
    }

    fn run_batch(&self, bs: &[&Matrix<Half>]) -> Vec<Matrix<f32>> {
        match &self.exec {
            Exec::F16(s) => s.run_batch(&(), bs),
            Exec::I8(s) => s.run_batch(self.int8(), bs),
        }
    }

    fn run_linear(&self, x: &Matrix<f32>, bias: &[f32]) -> Matrix<f32> {
        match &self.exec {
            Exec::F16(s) => s.run_linear(&(), x, bias),
            Exec::I8(s) => s.run_linear(self.int8(), x, bias),
        }
    }

    fn run_linear_staged(&self, staged: &[f32], tokens: usize, bias: &[f32]) -> Matrix<f32> {
        assert_eq!(
            staged.len(),
            self.desc.in_features * tokens,
            "staged operand size mismatch"
        );
        match &self.exec {
            Exec::F16(s) => s.run_linear_staged(&(), staged, tokens, bias),
            Exec::I8(s) => s.run_linear_staged(self.int8(), staged, tokens, bias),
        }
    }

    fn run_oneshot(&self, b: &Matrix<Half>) -> Matrix<f32> {
        match &self.reference {
            // The full per-call entry point: tile selection, pricing and
            // staging redone on every dispatch. V below the fragment
            // contract has no launchable kernel; the compressed-format
            // oracle is the per-call reference there.
            Reference::Spatha { weight, opts, dev } => match self.tile {
                Some(_) => venom_core::spmm(weight, b, opts, dev).c,
                None => weight.spmm_ref(b),
            },
            // B decoded in one pass, product accumulated transposed,
            // transposed back by a move.
            Reference::Swapped(weight) => venom_core::spmm_swapped(weight, b),
            Reference::Dense(w) => venom_tensor::gemm::gemm_parallel(w, b),
            // The format's own per-call staged path.
            Reference::Kernel(k) => k.spmm_parallel(b),
            // Re-quantize the operand, run the container's own parallel
            // integer kernel, dequantize through the shared expression.
            Reference::Quant(weight) => {
                let (b_q, act_scale) = qplan::quantize_operand(b, weight.calibration());
                qplan::dequantize(weight.spmm_parallel_i8(&b_q), weight.scales(), act_scale)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use venom_core::spmm;
    use venom_format::VnmConfig;
    use venom_pruner::magnitude;
    use venom_tensor::{gemm, random};

    fn dev() -> DeviceConfig {
        DeviceConfig::rtx3090()
    }

    fn vnm_fixture(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = magnitude::prune_vnm(&w, cfg);
        VnmMatrix::compress(&mask.apply_f32(&w).to_half(), &mask, cfg)
    }

    fn build(a: &VnmMatrix, b_cols: usize) -> Plan {
        let desc = MatmulDescriptor::new(a.shape().0, a.shape().1).with_b_cols(b_cols);
        Plan::build_vnm(a, desc, &SpmmOptions::default(), &dev())
    }

    #[test]
    fn plan_run_is_bit_identical_to_one_shot_spmm() {
        let cfg = VnmConfig::new(64, 2, 10);
        let a = vnm_fixture(70, 93, cfg, 1);
        let b = random::normal_matrix(93, 37, 0.0, 1.0, 2).to_half();
        let plan = build(&a, 64);
        let got = plan.run(&b);
        let want = spmm(&a, &b, &SpmmOptions::default(), &dev()).c;
        assert_eq!(got, want);
        assert_eq!(got, a.spmm_ref(&b));
    }

    #[test]
    fn plan_supports_sub_fragment_v() {
        // V = 8 has no launchable tile (the kernel needs 16-row
        // fragments) but the functional stream executes it exactly.
        let cfg = VnmConfig::new(8, 2, 8);
        let a = vnm_fixture(24, 40, cfg, 3);
        let b = random::normal_matrix(40, 9, 0.0, 1.0, 4).to_half();
        let plan = build(&a, 16);
        assert!(plan.tile().is_none());
        assert_eq!(plan.run(&b), a.spmm_ref(&b));
        // The erased per-call path falls back to the oracle there.
        assert_eq!(MatmulPlan::run_oneshot(&plan, &b), a.spmm_ref(&b));
    }

    #[test]
    fn batched_run_matches_separate_runs() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = vnm_fixture(64, 64, cfg, 5);
        let plan = build(&a, 48);
        let b1 = random::normal_matrix(64, 11, 0.0, 1.0, 6).to_half();
        let b2 = random::normal_matrix(64, 24, 0.0, 1.0, 7).to_half();
        let b3 = random::normal_matrix(64, 1, 0.0, 1.0, 8).to_half();
        let batch = plan.run_batch(&[&b1, &b2, &b3]);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], plan.run(&b1));
        assert_eq!(batch[1], plan.run(&b2));
        assert_eq!(batch[2], plan.run(&b3));
    }

    #[test]
    fn fused_linear_matches_per_call_chain() {
        let cfg = VnmConfig::new(16, 2, 8);
        let a = vnm_fixture(32, 48, cfg, 9);
        let bias: Vec<f32> = (0..32).map(|i| i as f32 * 0.25 - 4.0).collect();
        let x = random::activation_matrix(19, 48, 10);
        let plan = build(&a, 32);
        let got = plan.run_linear(&x, &bias);
        // The per-call layer chain — also the trait's default method.
        let want = MatmulPlan::run_linear_percall(&plan, &x, &bias);
        assert_eq!(got, want);
        let xt = x.to_half().transpose();
        let mut manual = spmm(&a, &xt, &SpmmOptions::default(), &dev()).c.transpose();
        for r in 0..manual.rows() {
            for (c, bv) in bias.iter().enumerate() {
                manual.set(r, c, manual.get(r, c) + bv);
            }
        }
        assert_eq!(got, manual);
    }

    #[test]
    fn gemm_plan_matches_gemm_parallel() {
        let w = random::normal_matrix(33, 29, 0.0, 1.0, 11).to_half();
        let b = random::normal_matrix(29, 21, 0.0, 1.0, 12).to_half();
        let plan = Plan::from_dense(&w);
        assert_eq!(plan.run(&b), gemm::gemm_parallel(&w, &b));
        assert!(plan.timing().is_none(), "unpriced without a device");
        // Batched dense dispatch equals separate runs too.
        let batch = plan.run_batch(&[&b, &b]);
        assert_eq!(batch[0], plan.run(&b));
        assert_eq!(batch[1], plan.run(&b));
    }

    #[test]
    fn gemm_plan_fused_linear_matches_per_call_chain() {
        let w = random::normal_matrix(24, 40, 0.0, 1.0, 13).to_half();
        let bias: Vec<f32> = (0..24).map(|i| (i as f32).sin()).collect();
        let x = random::activation_matrix(15, 40, 14);
        let plan = Plan::from_dense(&w);
        let got = plan.run_linear(&x, &bias);
        assert_eq!(got, MatmulPlan::run_linear_percall(&plan, &x, &bias));
        let xt = x.to_half().transpose();
        let mut want = gemm::gemm_parallel(&w, &xt).transpose();
        for r in 0..want.rows() {
            for (c, bv) in bias.iter().enumerate() {
                want.set(r, c, want.get(r, c) + bv);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn format_plan_is_bit_identical_to_its_kernel_oracle() {
        use venom_format::{CsrMatrix, SparsityMask};
        let dense = {
            let w = random::normal_matrix(37, 53, 0.0, 1.0, 15);
            let mask = SparsityMask::from_fn(37, 53, |r, c| (r * 31 + c * 17) % 10 < 4);
            mask.apply_f32(&w).to_half()
        };
        let csr = CsrMatrix::from_dense(&dense);
        let desc = MatmulDescriptor::new(37, 53).with_b_cols(21);
        let (timing, counts) = (
            pricing::price_csr(&csr, 21, &dev()),
            pricing::csr_counts(&csr, 21),
        );
        let plan = Plan::build_kernel(Arc::new(csr.clone()), desc, timing, counts);
        let b = random::normal_matrix(53, 21, 0.0, 1.0, 16).to_half();
        assert_eq!(plan.run(&b), csr.spmm_ref(&b));
        assert_eq!(plan.run_oneshot(&b), csr.spmm_ref(&b));
        assert_eq!(plan.format(), MatmulFormat::Csr);
        // The fused layer path equals the per-call chain.
        let x = random::activation_matrix(9, 53, 17);
        let bias = vec![0.25f32; 37];
        assert_eq!(
            plan.run_linear(&x, &bias),
            plan.run_linear_percall(&x, &bias)
        );
    }

    #[test]
    fn shared_staging_matches_unshared() {
        let cfg = VnmConfig::new(16, 2, 8);
        let a = vnm_fixture(32, 32, cfg, 15);
        let plan = build(&a, 16);
        let x = random::activation_matrix(9, 32, 16);
        let bias = vec![0.5f32; 32];
        let staged = stage::stage_activations_t(&x);
        let got = plan.run_linear_staged(&staged, x.rows(), &bias);
        assert_eq!(got, plan.run_linear(&x, &bias));
    }

    #[test]
    fn repeated_runs_are_stable() {
        let cfg = VnmConfig::new(32, 2, 16);
        let a = vnm_fixture(32, 64, cfg, 17);
        let b = random::normal_matrix(64, 13, 0.0, 1.0, 18).to_half();
        let plan = build(&a, 16);
        let first = plan.run(&b);
        for _ in 0..3 {
            assert_eq!(plan.run(&b), first);
        }
    }

    #[test]
    #[should_panic(expected = "B must have K")]
    fn run_rejects_shape_mismatch() {
        let cfg = VnmConfig::new(16, 2, 8);
        let a = vnm_fixture(16, 32, cfg, 19);
        let plan = build(&a, 8);
        let _ = plan.run(&Matrix::<Half>::zeros(16, 4));
    }

    /// Output widths of the replay oracles: below, at and around one AVX2
    /// lane block and the 256-column encoder width.
    const WIDTHS: [usize; 7] = [1, 7, 8, 9, 255, 256, 300];

    /// Element bits with every NaN mapped to one pattern. Rust leaves the
    /// payload of a NaN that arithmetic produces unspecified, so the
    /// oracles compare NaN as NaN and every other value bit for bit.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// NaN, ±Inf, f16 subnormals of both signs and -0.0.
    const SPECIALS: [Half; 6] = [
        Half::NAN,
        Half::INFINITY,
        Half::NEG_INFINITY,
        Half::MIN_SUBNORMAL,
        Half::from_bits(0x8201),
        Half::from_bits(0x8000),
    ];

    /// Overwrites a few entries of `m` that `keep` allows with
    /// [`SPECIALS`], at seeded positions.
    fn inject(m: &mut Matrix<Half>, seed: usize, keep: impl Fn(usize, usize) -> bool) {
        let (rows, cols) = (m.rows(), m.cols());
        let mut placed = 0;
        for i in 0..rows * cols {
            let (r, c) = ((seed + i * 7919) % rows, (seed * 31 + i * 104_729) % cols);
            if keep(r, c) {
                m.set(r, c, SPECIALS[placed]);
                placed += 1;
                if placed == SPECIALS.len() {
                    return;
                }
            }
        }
    }

    /// A seeded `k x width` half operand carrying [`SPECIALS`].
    fn operand(k: usize, width: usize, seed: u64) -> Matrix<Half> {
        let mut b = random::normal_matrix(k, width, 0.0, 1.0, seed).to_half();
        inject(&mut b, seed as usize, |_, _| true);
        b
    }

    /// A magnitude-pruned V:N:M weight whose kept entries include
    /// [`SPECIALS`], with its mask.
    fn special_weight(
        r: usize,
        k: usize,
        cfg: VnmConfig,
        seed: u64,
    ) -> (Matrix<Half>, SparsityMask) {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = magnitude::prune_vnm(&w, cfg);
        let mut dense = mask.apply_f32(&w).to_half();
        inject(&mut dense, seed as usize, |r, c| mask.get(r, c));
        (dense, mask)
    }

    /// [`special_weight`], compressed.
    fn vnm_special(r: usize, k: usize, cfg: VnmConfig, seed: u64) -> VnmMatrix {
        let (dense, mask) = special_weight(r, k, cfg, seed);
        VnmMatrix::compress(&dense, &mask, cfg)
    }

    /// A seeded dense weight, 60% zeros, carrying [`SPECIALS`].
    fn sparse_special(r: usize, k: usize, seed: u64) -> Matrix<Half> {
        let w = random::normal_matrix(r, k, 0.0, 1.0, seed);
        let mask = venom_format::SparsityMask::from_fn(r, k, |i, j| (i * 31 + j * 17) % 10 < 4);
        let mut dense = mask.apply_f32(&w).to_half();
        inject(&mut dense, seed as usize, |i, j| mask.get(i, j));
        dense
    }

    /// The shapes of the stream oracle: K = 1, a row count and a K that
    /// are multiples of neither 16 nor any chunk, and (at widths 8 and 9)
    /// a K three chunks of the lane's staged B deep.
    fn stream_shapes<L: Lane>(width: usize) -> Vec<(usize, usize)> {
        let mut shapes = vec![(37, 1), (150, 230)];
        if width == 8 || width == 9 {
            let chunk = CHUNK_BYTES / (std::mem::size_of::<L::Staged>() * width);
            shapes.push((21, 2 * chunk + 5));
        }
        shapes
    }

    /// Runs `plan` on a seeded operand of `width` columns: it must be
    /// replayed by `replay`, and the dispatched replay
    /// ([`MatmulPlan::run`]) must equal the baseline-compiled band body,
    /// staged and finished by the same lane, and the per-call reference
    /// ([`MatmulPlan::run_oneshot`]). An f16 plan's operand carries
    /// [`SPECIALS`]; an int8 plan's is finite, since calibration refuses
    /// NaN and ±Inf. Returns whether the output mixes NaN and finite
    /// values, so that callers can check the special values reached it.
    fn check_plan(label: &str, plan: &Plan, replay: Replay, width: usize, seed: u64) -> bool {
        let k = plan.desc.in_features;
        let out = match &plan.exec {
            Exec::F16(s) => check_stream(label, plan, s, &(), replay, &operand(k, width, seed)),
            Exec::I8(s) => {
                let b = random::normal_matrix(k, width, 0.0, 1.0, seed).to_half();
                check_stream(label, plan, s, plan.int8(), replay, &b)
            }
        };
        out.iter().any(|x| x.is_nan()) && out.iter().any(|x| x.is_finite())
    }

    /// [`check_plan`] over the plan's stream and boundary, on `b`;
    /// returns the planned output.
    fn check_stream<L: Lane>(
        label: &str,
        plan: &Plan,
        stream: &Stream<L>,
        bd: &L::Boundary,
        replay: Replay,
        b: &Matrix<Half>,
    ) -> Vec<f32> {
        assert_eq!(stream.replay, replay, "{label}");
        let Extent { rows, k, .. } = stream.ops.extent();
        let width = b.cols();
        let got = plan.run(b);
        let mut staged = vec![L::Staged::default(); b.len()];
        let acts = [(width, L::stage_half(bd, b, &mut staged, width, 0))];
        let dec = L::decode();
        let mut base = vec![0.0f32; rows * width];
        for (band, chunk) in base.chunks_mut(BAND_ROWS * width).enumerate() {
            let row0 = band * BAND_ROWS;
            let (b, w) = (&staged, width);
            L::finish(bd, &acts, row0, w, chunk, |acc| {
                match (stream.ops.sources(), replay) {
                    (Sources::Narrow(s), Replay::Sweep) => {
                        stream.sweep_band(s, dec, row0, b, w, acc)
                    }
                    (Sources::Wide(s), Replay::Sweep) => stream.sweep_band(s, dec, row0, b, w, acc),
                    (Sources::Narrow(s), Replay::Panels) => {
                        stream.panels_band(s, dec, row0, b, w, acc)
                    }
                    (Sources::Wide(s), Replay::Panels) => {
                        stream.panels_band(s, dec, row0, b, w, acc)
                    }
                }
            });
        }
        let at = format!("{label} {rows}x{k} width {width}");
        assert_eq!(
            bits(got.as_slice()),
            bits(&base),
            "{at}: dispatched != baseline"
        );
        let oneshot = plan.run_oneshot(b);
        assert_eq!(
            bits(got.as_slice()),
            bits(oneshot.as_slice()),
            "{at}: planned != oneshot"
        );
        got.as_slice().to_vec()
    }

    /// The stream of an f16 plan.
    fn stream_of(plan: &Plan) -> &Stream<u16> {
        match &plan.exec {
            Exec::F16(s) => s,
            Exec::I8(_) => panic!("not an f16 plan"),
        }
    }

    /// A stream's operands: row pointers, f16 value bits and sources.
    fn operands(s: &Stream<u16>) -> &Operands<u16> {
        &s.ops
    }

    /// The stream a V:N:M compression emits equals the condensation of
    /// the compressed weight's `for_each_operand`: row pointers, value
    /// bits and sources. And every V:N:M plan the engine builds cold
    /// equals the condensation of its weight: band and Spatha plans from
    /// `plan_auto_hinted` (f16, and i8 where an f16 plan wins, whose
    /// compression kept no stream), `plan_band_hinted` and
    /// `plan_with_format(Vnm)`, hinted and unhinted, and a Spatha plan
    /// whose K exceeds 16-bit sources, which must also replay like its
    /// baseline-compiled sweep and its per-call reference. Cases cover
    /// V = 1, N = 1 and 3, M > 64, partial tail groups and row blocks,
    /// kept -0.0 (skipped) and kept NaN, ±Inf and subnormals.
    #[test]
    fn one_pass_vnm_condensation_equals_the_two_pass_stream() {
        let cases = [
            (70, 93, VnmConfig::new(16, 2, 8)),
            (33, 130, VnmConfig::new(1, 2, 8)),
            (37, 230, VnmConfig::new(4, 3, 100)),
            (64, 77, VnmConfig::new(64, 1, 10)),
            (150, 230, VnmConfig::new(128, 2, 20)),
        ];
        let mut paths = Vec::new();
        for (i, (r, k, cfg)) in cases.into_iter().enumerate() {
            let (w, mask) = special_weight(r, k, cfg, 40 + i as u64);
            let (a, emitted) =
                Stream::compress(&w, &mask, cfg, DType::F16).expect("the mask complies");
            let emitted = emitted.expect("an f16 compression keeps its stream");
            let want = Operands::condense(&a);
            let nan = |&h: &u16| Half::from_bits(h).is_nan();
            assert!(want.values().iter().any(nan), "{cfg}: specials kept");
            assert_eq!(operands(&emitted), &want, "{cfg}");
            assert_eq!(a.operands(), want, "{cfg}: the inlined walk");

            // Int8 plans calibrate on finite weights: the same mask with
            // every non-finite value replaced by 1.
            let finite = Matrix::from_fn(r, k, |i, j| {
                Some(w.get(i, j))
                    .filter(|h| h.is_finite())
                    .unwrap_or(Half::ONE)
            });
            let desc = MatmulDescriptor::new(r, k);
            for hint in [Some(cfg), None] {
                let mut plans = Vec::new();
                for width in [8, 4096] {
                    let engine = crate::Engine::new(dev()).with_b_cols_hint(width);
                    let desc = desc.with_b_cols(width);
                    plans.push((engine.auto_plan(&desc, &w, hint), false));
                    let i8_desc = desc.with_dtype(DType::I8);
                    plans.push((engine.auto_plan(&i8_desc, &finite, hint), true));
                }
                let engine = crate::Engine::new(dev());
                plans.extend(engine.band_plan(&desc, &w, hint).ok().zip(Some(false)));
                if hint.is_none() {
                    let plan = engine.format_plan(MatmulFormat::Vnm, &desc, &w);
                    plans.extend(plan.ok().zip(Some(false)));
                }
                for (plan, i8_desc) in plans {
                    let Some(a) = plan.vnm() else { continue };
                    let at = format!("{cfg} hint {hint:?} i8 {i8_desc}: {} plan", plan.path());
                    let want = Operands::condense(a);
                    assert_eq!(operands(stream_of(&plan)), &want, "{at}");
                    paths.push((plan.path(), hint.is_some(), i8_desc));
                }
            }
        }
        for want in [
            ("band", true, false),
            ("band", false, false),
            ("vnm", true, false),
            ("vnm", false, false),
            ("band", true, true),
        ] {
            assert!(paths.contains(&want), "no {want:?} plan among {paths:?}");
        }

        // K past 16-bit sources: the Spatha plan keeps 32-bit sources,
        // some of them past 65535.
        let k = (u16::MAX as usize + 1) + 8;
        let w = Matrix::from_fn(16, k, |_, c| if c % 8 < 2 { Half::ONE } else { Half::ZERO });
        let engine = crate::Engine::new(dev()).with_b_cols_hint(8);
        let plan = engine
            .format_plan(MatmulFormat::Vnm, &engine.descriptor(16, k), &w)
            .expect("16:2:8 complies");
        let stream = stream_of(&plan);
        let want = Operands::condense(plan.vnm().expect("a V:N:M plan"));
        assert_eq!(operands(stream), &want);
        let Sources::Wide(srcs) = stream.ops.sources() else {
            panic!("K = {k} needs 32-bit sources")
        };
        assert!(srcs.iter().any(|&s| s > u32::from(u16::MAX)));
        for width in [8, 256] {
            check_plan("16:2:8 wide K", &plan, Replay::Sweep, width, width as u64);
        }
    }

    #[test]
    fn vnm_stream_replay_matches_baseline_and_oneshot() {
        // V = 64 and 128 put each band inside one V-block; V = 8 makes
        // every band straddle two blocks.
        for cfg in [
            VnmConfig::new(64, 2, 10),
            VnmConfig::new(128, 2, 20),
            VnmConfig::new(8, 2, 4),
        ] {
            let mut mixed = false;
            for width in WIDTHS {
                for (rows, k) in stream_shapes::<u16>(width) {
                    let a = vnm_special(rows, k, cfg, (rows + k) as u64);
                    let plan = build(&a, width);
                    mixed |= check_plan(&cfg.to_string(), &plan, Replay::Sweep, width, k as u64);
                }
            }
            assert!(mixed, "{cfg}: the special values must reach the output");
        }
    }

    #[test]
    fn wide_sparse_stream_widens_its_chunks() {
        // At width 1024 the 64 KiB budget spans 16 B rows, where a 2:20
        // row holds 1.6 operands: the chunk widens to one quad per row.
        let (rows, k, width) = (37, 230, 1024);
        let a = vnm_special(rows, k, VnmConfig::new(128, 2, 20), 5);
        let plan = build(&a, width);
        let Exec::F16(stream) = &plan.exec else {
            panic!("not a stream plan")
        };
        let chunk = stream.chunk_rows(width);
        assert!(
            chunk > CHUNK_BYTES / (4 * width) && chunk < k,
            "chunk {chunk}"
        );
        check_plan("128:2:20", &plan, Replay::Sweep, width, 6);
    }

    #[test]
    fn dense_stream_replay_matches_baseline_and_oneshot() {
        let mut mixed = false;
        for width in WIDTHS {
            for (rows, k) in stream_shapes::<u16>(width) {
                let w = sparse_special(rows, k, (rows * k) as u64);
                mixed |= check_plan(
                    "dense",
                    &Plan::from_dense(&w),
                    Replay::Sweep,
                    width,
                    k as u64,
                );
            }
        }
        assert!(mixed, "the special values must reach the output");
    }

    #[test]
    fn format_stream_replay_matches_baseline_and_oneshot() {
        use venom_format::{BlockedEllMatrix, CsrMatrix, CvseMatrix};
        // CVSE and Blocked-ELL emit each row's operands in block order,
        // so their sources are not ascending.
        let mut mixed = [false; 3];
        for width in WIDTHS {
            for (rows, k) in stream_shapes::<u16>(width) {
                let w = sparse_special(rows, k, (rows + 3 * k) as u64);
                let desc = MatmulDescriptor::new(rows, k).with_b_cols(width);
                let csr = CsrMatrix::from_dense(&w);
                let (t, c) = (
                    pricing::price_csr(&csr, width, &dev()),
                    pricing::csr_counts(&csr, width),
                );
                let plan = Plan::build_kernel(Arc::new(csr), desc, t, c);
                mixed[0] |= check_plan("csr", &plan, Replay::Sweep, width, k as u64);
                let cvse = CvseMatrix::from_dense(&w, 4);
                let (t, c) = (
                    pricing::price_cvse(&cvse, width, &dev()),
                    pricing::cvse_counts(&cvse, width),
                );
                let plan = Plan::build_kernel(Arc::new(cvse), desc, t, c);
                mixed[1] |= check_plan("cvse", &plan, Replay::Sweep, width, k as u64);
                // The block edge must divide both dimensions.
                let bs = [5, 3, 1]
                    .into_iter()
                    .find(|bs| rows % bs == 0 && k % bs == 0);
                let ell = BlockedEllMatrix::from_dense(&w, bs.expect("1 divides"));
                let (t, c) = (
                    pricing::price_blocked_ell(&ell, width, &dev()),
                    pricing::blocked_ell_counts(&ell, width),
                );
                let plan = Plan::build_kernel(Arc::new(ell), desc, t, c);
                mixed[2] |= check_plan("blocked-ell", &plan, Replay::Sweep, width, k as u64);
            }
        }
        assert_eq!(
            mixed, [true; 3],
            "the special values must reach every output"
        );
    }

    #[test]
    fn stream_sweep_keeps_unordered_sources_in_stream_order() {
        // Two bands (one partial) of rows whose sources jump back and
        // forth across four chunks, with values spanning 25 binades, so
        // that any reordering changes a rounding. A row's run in a chunk
        // must stop at its first source past the chunk, and the nearer
        // ones after it must wait: only an order-preserving cursor
        // reproduces the one-pass chain.
        let (rows, per_row, width) = (21usize, 23usize, 256usize);
        let k = 3 * (CHUNK_BYTES / (4 * width)) + 5;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as u32
        };
        let srcs: Vec<u16> = (0..rows * per_row)
            .map(|_| (next() % k as u32) as u16)
            .collect();
        let vals: Vec<Half> = (0..rows * per_row)
            .map(|_| {
                let v = (next() % 2001) as f32 / 1000.0 - 1.0;
                Half::from_f32(v * 2f32.powi((next() % 25) as i32 - 14))
            })
            .collect();
        let b: Vec<f32> = (0..k * width)
            .map(|_| (next() % 2001) as f32 / 1000.0 - 1.0)
            .collect();
        let mut ops = OperandBuilder::new(rows, k, rows * per_row);
        for (i, (v, &s)) in vals.iter().zip(&srcs).enumerate() {
            ops.push(i / per_row, v.to_bits(), usize::from(s));
        }
        let stream = Stream::sweep(ops.finish());
        assert_eq!(stream.chunk_rows(width), CHUNK_BYTES / (4 * width));
        let mut got = vec![0.0f32; rows * width];
        stream.run_acc(&b, width, &mut got);
        let mut want = vec![0.0f32; rows * width];
        for (i, (&v, &s)) in vals.iter().zip(&srcs).enumerate() {
            let orow = &mut want[i / per_row * width..][..width];
            for (o, &x) in orow.iter_mut().zip(&b[usize::from(s) * width..][..width]) {
                *o += v.to_f32() * x;
            }
        }
        assert_eq!(bits(&got), bits(&want));
    }

    /// The band plan of `a` over the stream condensed from its slots.
    fn band_build(a: &VnmMatrix, b_cols: usize) -> Plan {
        let (rows, k) = a.shape();
        let desc = MatmulDescriptor::new(rows, k).with_b_cols(b_cols);
        let stream = Stream::sweep(a.operands());
        let priced = pricing::price_band(a.shape(), stream.ops.extent().nnz, b_cols, &dev());
        Plan::band(a.clone(), stream, desc, priced)
    }

    /// Output widths of the band oracle: every accumulator width of
    /// [`Stream::replay_row`]'s one-pass remainder (8 to 56 columns),
    /// with and without a narrow tail, both sides of its 64-column panel,
    /// and both sides of the 256-column encoder width.
    const BAND_WIDTHS: [usize; 18] = [
        1, 7, 8, 9, 16, 23, 31, 32, 33, 40, 48, 56, 63, 64, 65, 255, 256, 300,
    ];

    #[test]
    fn band_replay_matches_baseline_and_oneshot() {
        // K = 1 and row counts off the 16-row band; V = 8 makes every
        // band straddle two V-blocks.
        for cfg in [
            VnmConfig::new(64, 2, 10),
            VnmConfig::new(128, 2, 20),
            VnmConfig::new(8, 2, 4),
        ] {
            let mut mixed = false;
            for width in BAND_WIDTHS {
                for (rows, k) in [(37, 1), (150, 230)] {
                    let a = vnm_special(rows, k, cfg, (rows + k) as u64);
                    let plan = band_build(&a, width);
                    mixed |= check_plan(&cfg.to_string(), &plan, Replay::Panels, width, k as u64);
                }
            }
            assert!(mixed, "{cfg}: the special values must reach the output");
        }
    }

    #[test]
    fn band_plan_is_bit_identical_on_every_dispatch_path() {
        let cfg = VnmConfig::new(64, 2, 10);
        let a = vnm_fixture(70, 90, cfg, 21);
        let b = random::normal_matrix(90, 13, 0.0, 1.0, 22).to_half();
        let plan = band_build(&a, 13);
        let want = a.spmm_ref(&b);
        assert_eq!(plan.run(&b), want, "staged band replay");
        assert_eq!(
            MatmulPlan::run_oneshot(&plan, &b),
            want,
            "swapped-operand per-call path"
        );
        // And both agree with the mma-stream plan bit-for-bit.
        assert_eq!(build(&a, 13).run(&b), plan.run(&b));
    }

    #[test]
    fn band_plan_batch_and_linear_match_the_stream_plan() {
        let cfg = VnmConfig::new(32, 2, 8);
        let a = vnm_fixture(64, 64, cfg, 23);
        let band = band_build(&a, 16);
        let mma = build(&a, 16);
        // The concatenated width (1307) puts each request's columns at a
        // different offset within the 64-column panels.
        let bs: Vec<Matrix<Half>> = BAND_WIDTHS
            .iter()
            .enumerate()
            .map(|(i, &w)| operand(64, w, 24 + i as u64))
            .collect();
        let batch = band.run_batch(&bs.iter().collect::<Vec<_>>());
        assert_eq!(batch.len(), bs.len());
        for (got, b) in batch.iter().zip(&bs) {
            let at = format!("width {}", b.cols());
            assert_eq!(bits(got.as_slice()), bits(band.run(b).as_slice()), "{at}");
            assert_eq!(bits(got.as_slice()), bits(mma.run(b).as_slice()), "{at}");
        }
        let x = random::activation_matrix(11, 64, 26);
        let bias: Vec<f32> = (0..64).map(|i| (i as f32).cos()).collect();
        assert_eq!(band.run_linear(&x, &bias), mma.run_linear(&x, &bias));
        assert_eq!(
            band.run_linear(&x, &bias),
            MatmulPlan::run_linear_percall(&band, &x, &bias)
        );
    }

    #[test]
    fn band_plan_reports_its_path_and_memory_regime() {
        use venom_sim::Regime;
        let cfg = VnmConfig::new(64, 2, 8);
        let a = vnm_fixture(1024, 768, cfg, 27);
        // Small output width: left of the CUDA-core ridge.
        let plan = band_build(&a, 8);
        assert_eq!(plan.format(), MatmulFormat::Vnm);
        assert_eq!(MatmulPlan::path(&plan), "band");
        assert_eq!(
            MatmulPlan::regime(&plan, &dev()),
            Some(Regime::MemoryBound),
            "c=8 tall-skinny must sit left of the ridge"
        );
        assert!(MatmulPlan::cost_ms(&plan).is_some());
    }

    #[test]
    fn band_plan_over_wide_k_matches_spmm_swapped() {
        // K past 16-bit sources: the band plan replays 32-bit sources,
        // priced at 6 B per operand, bit for bit like its per-call
        // swapped-operand reference.
        let cfg = VnmConfig::new(16, 2, 8);
        let k = 65_600;
        let w = Matrix::from_fn(16, k, |_, c| {
            let h = Half::from_f32((c % 7) as f32 - 3.0);
            if c % 8 < 2 {
                h
            } else {
                Half::ZERO
            }
        });
        let engine = crate::Engine::new(dev()).with_b_cols_hint(8);
        let plan = engine
            .band_plan(&engine.descriptor(16, k), &w, Some(cfg))
            .expect("K past 16 bits plans on the band path");
        let Sources::Wide(_) = stream_of(&plan).ops.sources() else {
            panic!("K = {k} needs 32-bit sources")
        };
        // One 16-row band: its load is the whole stream plus one pass
        // over the 8-column f16 B.
        let load = plan.counts().expect("priced").gmem_load_bytes_per_block;
        assert_eq!(load, plan.stored_values() as u64 * 6 + k as u64 * 8 * 2);
        for width in [8, 65] {
            check_plan(
                "16:2:8 wide K band",
                &plan,
                Replay::Panels,
                width,
                width as u64,
            );
            let b = operand(k, width, 3);
            let a = plan.vnm().expect("a V:N:M plan");
            let want = venom_core::spmm_swapped(a, &b);
            assert_eq!(bits(plan.run(&b).as_slice()), bits(want.as_slice()));
        }
    }

    /// The int8 plan of `a` at column hint `b_cols`.
    fn quant_build(a: &VnmMatrix, b_cols: usize) -> Plan {
        let engine = crate::Engine::new(dev()).with_b_cols_hint(b_cols);
        engine.plan_quant_spmm(a)
    }

    /// [`check_plan`] over an int8 plan, which the sweep replays, and
    /// its integer core ([`Plan::run_i8`]) against `spmm_ref_i8` over
    /// codes that reach -128, -127 and 127.
    fn check_int8_plan(label: &str, plan: &Plan, width: usize, seed: u64) {
        check_plan(label, plan, Replay::Sweep, width, seed);
        let k = plan.desc.in_features;
        let b = Matrix::from_fn(k, width, |r, c| match (r * 7 + c * 13) % 11 {
            0 => i8::MIN,
            1 => i8::MAX,
            2 => -127,
            _ => ((r * 19 + c * 7) % 255) as u8 as i8,
        });
        let want = plan.quantized().expect("an int8 plan").spmm_ref_i8(&b);
        let at = format!("{label} k {k} width {width}");
        assert_eq!(plan.run_i8(&b), Some(want), "{at}: run_i8 != spmm_ref_i8");
    }

    #[test]
    fn int_replay_matches_baseline_and_the_i8_oracle() {
        // Widths around one AVX2 lane block, row counts off the band
        // height, K = 1, and (at widths 8 and 9) a K whose i16-staged B
        // spans three chunks of the sweep.
        for cfg in [VnmConfig::new(64, 2, 10), VnmConfig::new(8, 2, 4)] {
            for width in WIDTHS {
                for (rows, k) in stream_shapes::<i8>(width) {
                    let a = vnm_fixture(rows, k, cfg, (rows + k) as u64);
                    let plan = quant_build(&a, width);
                    if k > 230 {
                        let Exec::I8(stream) = &plan.exec else {
                            panic!("not an int8 plan")
                        };
                        assert!(2 * stream.chunk_rows(width) < k, "{cfg}: one chunk");
                    }
                    check_int8_plan(&cfg.to_string(), &plan, width, k as u64);
                }
            }
        }
    }

    #[test]
    fn int_replay_reads_wide_sources() {
        // K past 16-bit sources: the codes replay over 32-bit sources,
        // some of them past 65535.
        let k = (u16::MAX as usize + 1) + 64;
        let a = vnm_fixture(16, k, VnmConfig::new(16, 2, 8), 13);
        let plan = quant_build(&a, 8);
        let Exec::I8(stream) = &plan.exec else {
            panic!("not an int8 plan")
        };
        let Sources::Wide(srcs) = stream.ops.sources() else {
            panic!("K = {k} needs 32-bit sources")
        };
        assert!(srcs.iter().any(|&s| s > u32::from(u16::MAX)));
        for width in [8, 256] {
            check_int8_plan("16:2:8 wide K", &plan, width, width as u64);
        }
    }
}
