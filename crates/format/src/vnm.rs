//! The V:N:M compressed format (Fig. 3 of the paper).
//!
//! A `R x K` matrix pruned to the V:N:M pattern stores three structures:
//!
//! * **non-zero values** — `R x (K/M)*N` halves: each row keeps `N` values
//!   per `M`-wide group (the paper's `K/M*2` for N = 2),
//! * **m-indices** — one 2-bit index per nonzero identifying which of the
//!   *4 selected columns* the value came from (not which of the `M` original
//!   columns — that is the key trick that turns arbitrary N:M into 2:4),
//! * **column-loc** — `(R/V) x (K/M)*4` entries naming the 4 columns of
//!   each `V x M` block that survived vector-wise pruning.
//!
//! Together the values and m-indices of a row block form exactly the
//! operand layout of a native 2:4 sparse tensor-core instruction over the
//! *condensed* matrix of selected columns (`R x (K/M)*4`), while column-loc
//! drives the gather of rows from the dense operand B (Fig. 4).
//!
//! [`VnmMatrix::try_compress_with`] builds the three structures in one
//! pass over the mask words, checking the pattern as it goes, and hands
//! every stored nonzero to a sink in `spmm_ref` order. A cold f16 plan in
//! the runtime appends the sink's rows to its [`crate::Operands`] stream,
//! so building it reads the weight once.

use crate::mask::{group_bits, ones_at};
use crate::{OperandBuilder, Operands, SparsityMask, VnmConfig, SELECTED_COLUMNS};
use venom_fp16::Half;
use venom_tensor::Matrix;

/// A matrix compressed in the V:N:M format.
#[derive(Clone, Debug, PartialEq)]
pub struct VnmMatrix {
    cfg: VnmConfig,
    rows: usize,
    cols: usize,
    k_groups: usize,
    row_blocks: usize,
    /// `rows * k_groups * n` nonzero values (zero-padded slots for groups
    /// with fewer than `n` kept weights).
    values: Vec<Half>,
    /// Aligned with `values`: index into the block's 4 selected columns.
    m_indices: Vec<u8>,
    /// `row_blocks * k_groups * 4` selected columns, relative to the group
    /// start (`0..m`). Blocks using fewer than 4 distinct columns repeat
    /// their last used column (their values are zero, so this is harmless).
    column_loc: Vec<u16>,
}

/// The sink of [`VnmMatrix::try_compress_with`]: `emit(row, values,
/// columns)`, once per row.
pub type RowSink<'a> = &'a mut dyn FnMut(usize, &[Half], &[usize]);

/// Why a weight cannot be compressed under a [`VnmConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressError {
    /// The dense matrix and the mask differ in shape.
    ShapeMismatch {
        /// `(rows, cols)` of the dense matrix.
        dense: (usize, usize),
        /// `(rows, cols)` of the mask.
        mask: (usize, usize),
    },
    /// `cfg.m` exceeds the `u16` column-loc entries.
    GroupTooWide(VnmConfig),
    /// The mask violates the V:N:M pattern.
    PatternViolation(VnmConfig),
}

impl core::fmt::Display for CompressError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompressError::ShapeMismatch { dense, mask } => write!(
                f,
                "shape mismatch: dense is {}x{}, mask is {}x{}",
                dense.0, dense.1, mask.0, mask.1
            ),
            CompressError::GroupTooWide(cfg) => write!(
                f,
                "group width must fit u16 column-loc entries (pattern {cfg})"
            ),
            CompressError::PatternViolation(cfg) => write!(f, "mask violates the {cfg} pattern"),
        }
    }
}

impl std::error::Error for CompressError {}

impl VnmMatrix {
    /// Compresses `dense` under `mask`, which must comply with `cfg`.
    ///
    /// # Panics
    /// Panics where [`Self::try_compress`] errs: on a shape mismatch
    /// (message `shape mismatch`), `cfg.m > 65535`, or a mask that
    /// violates the V:N:M pattern (message `mask violates the <cfg>
    /// pattern`).
    pub fn compress(dense: &Matrix<Half>, mask: &SparsityMask, cfg: VnmConfig) -> Self {
        Self::try_compress(dense, mask, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Compresses `dense` under `mask` if the mask complies with `cfg`:
    /// [`Self::try_compress_with`] with no sink, which stages nothing.
    ///
    /// # Errors
    /// As [`Self::try_compress_with`].
    pub fn try_compress(
        dense: &Matrix<Half>,
        mask: &SparsityMask,
        cfg: VnmConfig,
    ) -> Result<Self, CompressError> {
        Self::try_compress_with(dense, mask, cfg, None)
    }

    /// Compresses `dense` under `mask` if the mask complies with `cfg`,
    /// in one pass over the mask words that also checks compliance. Given
    /// a sink, it hands every stored nonzero to it in `spmm_ref` order:
    /// once per row, rows ascending, as `emit(row, values, columns)` with
    /// the row's values and their columns ascending, kept zeros (which
    /// still fill their slots) skipped — the shape of
    /// [`crate::OperandBuilder::extend_row`]. These are the operands
    /// [`crate::SparseKernel::for_each_operand`] visits on the returned
    /// weight. Only a sink's row is staged. On an error the rows before
    /// the violation may have been emitted.
    ///
    /// Each row block is one pass over its mask words. Column-loc lists
    /// the set bits of each group's range in the OR of the block's rows,
    /// padded with the last one (0 when none); a fifth one is a violation.
    /// The block's m-indices come from a column→rank table filled as
    /// column-loc is. Each row then walks the set bits of its own range:
    /// the value comes from `dense` (a kept entry may be zero), and the
    /// m-index from the table. A group with fewer than `n` kept entries
    /// pads with zero values carrying the last m-index (0 when none); one
    /// with more is a violation. For `M <= 64` a group's bits are
    /// funnelled into one word first, and its slots are written without
    /// branching on the bits.
    ///
    /// # Errors
    /// [`CompressError::ShapeMismatch`] when `dense` and `mask` differ in
    /// shape, then [`CompressError::GroupTooWide`] when `cfg.m > 65535`,
    /// then [`CompressError::PatternViolation`] exactly when
    /// [`SparsityMask::complies_vnm`] is false.
    pub fn try_compress_with(
        dense: &Matrix<Half>,
        mask: &SparsityMask,
        cfg: VnmConfig,
        mut emit: Option<RowSink<'_>>,
    ) -> Result<Self, CompressError> {
        let (rows, cols) = (dense.rows(), dense.cols());
        if (rows, cols) != (mask.rows(), mask.cols()) {
            return Err(CompressError::ShapeMismatch {
                dense: (rows, cols),
                mask: (mask.rows(), mask.cols()),
            });
        }
        if cfg.m > u16::MAX as usize {
            return Err(CompressError::GroupTooWide(cfg));
        }

        let violation = CompressError::PatternViolation(cfg);
        let (n, m) = (cfg.n, cfg.m);
        let k_groups = cfg.k_groups(cols);
        let row_blocks = cfg.row_blocks(rows);
        let slots_per_row = k_groups * n;
        // The pass's own buffers come first, so that once freed they leave
        // no holes between the long-lived ones: the m-index of each column
        // the current row block uses, the current row's stored nonzeros
        // and their columns (for a sink only), and the OR of the block's
        // mask words.
        let mut rank = vec![0u8; cols];
        let keep = emit.is_some();
        let staged = if keep { slots_per_row } else { 0 };
        let (mut row_ops, mut row_cols) = (vec![Half::ZERO; staged], vec![0; staged]);
        let mut union = Vec::with_capacity(cols.div_ceil(64));
        // Values and m-indices grow a row block at a time, so a pattern
        // that fails early (grid detection tries many) touches little.
        let mut values = Vec::with_capacity(rows * slots_per_row);
        let mut m_indices = Vec::with_capacity(rows * slots_per_row);
        let mut column_loc = vec![0u16; row_blocks * k_groups * SELECTED_COLUMNS];
        let groups = |g: usize| (g * m, ((g + 1) * m).min(cols));
        for (b, block_loc) in column_loc
            .chunks_exact_mut(k_groups * SELECTED_COLUMNS)
            .enumerate()
        {
            let block = mask.block_rows(cfg, b);
            mask.union_words(block.clone(), &mut union);
            for (g, sel) in block_loc.chunks_exact_mut(SELECTED_COLUMNS).enumerate() {
                let (c0, c1) = groups(g);
                let mut used = 0;
                let mut put = |c: usize| {
                    if used == SELECTED_COLUMNS {
                        return Err(violation);
                    }
                    sel[used] = c as u16;
                    rank[c0 + c] = used as u8;
                    used += 1;
                    Ok(())
                };
                if m <= 64 {
                    let mut bits = group_bits(&union, c0, c1);
                    while bits != 0 {
                        put(bits.trailing_zeros() as usize)?;
                        bits &= bits - 1;
                    }
                } else {
                    ones_at(&union, c0, c1).try_for_each(put)?;
                }
                let pad = if used > 0 { sel[used - 1] } else { 0 };
                sel[used..].fill(pad);
            }
            let slots = block.start * slots_per_row..block.end * slots_per_row;
            values.resize(slots.end, Half::ZERO);
            m_indices.resize(slots.end, 0);
            let rows_out = values[slots.clone()]
                .chunks_exact_mut(slots_per_row)
                .zip(m_indices[slots].chunks_exact_mut(slots_per_row));
            for (r, (row_vals, row_idx)) in block.zip(rows_out) {
                let (words, dense_row) = (mask.row_words(r), dense.row(r));
                // For a sink, the row's nonzero slots are appended to
                // `row_ops`.
                let mut len = 0;
                let groups_out = row_vals
                    .chunks_exact_mut(n)
                    .zip(row_idx.chunks_exact_mut(n))
                    .enumerate();
                for (g, (vals, idx)) in groups_out {
                    let (c0, c1) = groups(g);
                    if m <= 64 {
                        // One slot per set bit of the row's range, in
                        // order, then padding, with no branch on the bits:
                        // a spent `bits` reads column 0, drops the value
                        // and keeps the last m-index. Bits left over are
                        // more than `n` kept entries. Only a nonzero value
                        // is branched on, to stage it for a sink.
                        let mut bits = group_bits(words, c0, c1);
                        let mut last = 0u8;
                        for (v, j) in vals.iter_mut().zip(idx.iter_mut()) {
                            let live = bits != 0;
                            let c = c0 + (bits.trailing_zeros() % 64) as usize;
                            last = if live { rank[c] } else { last };
                            *v = if live { dense_row[c] } else { Half::ZERO };
                            *j = last;
                            if keep && !v.is_zero() {
                                (row_ops[len], row_cols[len]) = (*v, c);
                                len += 1;
                            }
                            bits &= bits.wrapping_sub(1);
                        }
                        if bits != 0 {
                            return Err(violation);
                        }
                    } else {
                        let mut found = 0usize;
                        for c in ones_at(words, c0, c1) {
                            if found == n {
                                return Err(violation);
                            }
                            let c = c0 + c;
                            vals[found] = dense_row[c];
                            idx[found] = rank[c];
                            if keep && !vals[found].is_zero() {
                                (row_ops[len], row_cols[len]) = (vals[found], c);
                                len += 1;
                            }
                            found += 1;
                        }
                        let last = if found > 0 { idx[found - 1] } else { 0 };
                        idx[found..].fill(last);
                    }
                }
                if let Some(emit) = emit.as_mut() {
                    emit(r, &row_ops[..len], &row_cols[..len]);
                }
            }
        }

        Ok(VnmMatrix {
            cfg,
            rows,
            cols,
            k_groups,
            row_blocks,
            values,
            m_indices,
            column_loc,
        })
    }

    /// The pattern descriptor.
    pub fn config(&self) -> VnmConfig {
        self.cfg
    }

    /// Logical (uncompressed) shape `(R, K)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Logical rows (R).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical columns (K).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of `M`-wide groups along K (including a partial tail).
    pub fn k_groups(&self) -> usize {
        self.k_groups
    }

    /// Number of `V`-tall row blocks (including a partial tail).
    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    /// Stored value slots per row (`k_groups * n`).
    pub fn slots_per_row(&self) -> usize {
        self.k_groups * self.cfg.n
    }

    /// The raw values buffer, `(row, group, slot)` row-major.
    pub fn values(&self) -> &[Half] {
        &self.values
    }

    /// The raw m-indices buffer, aligned with [`Self::values`].
    pub fn m_indices(&self) -> &[u8] {
        &self.m_indices
    }

    /// The raw column-loc buffer, `(block, group, j)` row-major.
    pub fn column_loc(&self) -> &[u16] {
        &self.column_loc
    }

    /// The 4 selected columns of `(block, group)`, as *absolute* B-row
    /// indices (clamped entries from padded tail groups are still < K).
    pub fn selected_b_rows(&self, block: usize, group: usize) -> [usize; SELECTED_COLUMNS] {
        let base = (block * self.k_groups + group) * SELECTED_COLUMNS;
        let mut out = [0usize; SELECTED_COLUMNS];
        for (j, o) in out.iter_mut().enumerate() {
            *o = (group * self.cfg.m + self.column_loc[base + j] as usize).min(self.cols - 1);
        }
        out
    }

    /// Bytes of the values structure (2 per half).
    pub fn values_bytes(&self) -> usize {
        self.values.len() * 2
    }

    /// Bytes of the m-indices structure at the hardware's 2 bits per index.
    pub fn m_indices_bytes(&self) -> usize {
        (self.m_indices.len() * 2).div_ceil(8)
    }

    /// Bytes of the column-loc structure (one byte per entry for M <= 256,
    /// two otherwise — the width an implementation would actually ship).
    pub fn column_loc_bytes(&self) -> usize {
        let entry = if self.cfg.m <= 256 { 1 } else { 2 };
        self.column_loc.len() * entry
    }

    /// Total compressed footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        self.values_bytes() + self.m_indices_bytes() + self.column_loc_bytes()
    }

    /// Compression ratio versus the dense `R x K` half matrix.
    pub fn compression_ratio(&self) -> f64 {
        (self.rows * self.cols * 2) as f64 / self.total_bytes() as f64
    }

    /// Reconstructs the dense matrix (pruned entries become zero).
    pub fn decompress(&self) -> Matrix<Half> {
        let mut out = Matrix::<Half>::zeros(self.rows, self.cols);
        self.for_each_nonzero(|r, c, v| out.set(r, c, v));
        out
    }

    /// The condensed matrix of selected columns: shape
    /// `R x k_groups*4`, where column `g*4 + j` holds the row's value at the
    /// block's j-th selected column. By construction every group of 4
    /// condensed columns holds at most N nonzeros per row — i.e. the
    /// condensed matrix is exactly the 2:4 operand SPTCs consume (Fig. 4).
    pub fn condensed(&self) -> Matrix<Half> {
        let mut out = Matrix::<Half>::zeros(self.rows, self.k_groups * SELECTED_COLUMNS);
        let n = self.cfg.n;
        for r in 0..self.rows {
            for g in 0..self.k_groups {
                for s in 0..n {
                    let slot = (r * self.k_groups + g) * n + s;
                    let v = self.values[slot];
                    if v.is_zero() {
                        continue;
                    }
                    let j = self.m_indices[slot] as usize;
                    out.set(r, g * SELECTED_COLUMNS + j, v);
                }
            }
        }
        out
    }

    /// Reference SpMM over the compressed representation:
    /// `C = self * B` with f32 accumulation, traversing values/m-indices/
    /// column-loc directly (no decompression). This is the correctness
    /// oracle the Spatha kernel is validated against.
    ///
    /// # Panics
    /// Panics if `B` has fewer rows than K.
    pub fn spmm_ref(&self, b: &Matrix<Half>) -> Matrix<f32> {
        assert_eq!(b.rows(), self.cols, "B must have K rows");
        let n = self.cfg.n;
        let mut out = Matrix::<f32>::zeros(self.rows, b.cols());
        for r in 0..self.rows {
            let blk = r / self.cfg.v;
            let orow = out.row_mut(r);
            for g in 0..self.k_groups {
                for s in 0..n {
                    let slot = (r * self.k_groups + g) * n + s;
                    let v = self.values[slot];
                    if v.is_zero() {
                        continue;
                    }
                    let j = self.m_indices[slot] as usize;
                    let rel = self.column_loc[(blk * self.k_groups + g) * SELECTED_COLUMNS + j];
                    let k = g * self.cfg.m + rel as usize;
                    let vf = v.to_f32();
                    for (o, &bv) in orow.iter_mut().zip(b.row(k)) {
                        *o += vf * bv.to_f32();
                    }
                }
            }
        }
        out
    }

    /// Calls `f(row, col, value)` for every stored nonzero, in
    /// `(row, group, slot)` order.
    pub fn for_each_nonzero(&self, mut f: impl FnMut(usize, usize, Half)) {
        let (n, spr) = (self.cfg.n, self.slots_per_row());
        let loc_per_block = self.k_groups * SELECTED_COLUMNS;
        if spr == 0 {
            return;
        }
        let rows = self
            .values
            .chunks_exact(spr)
            .zip(self.m_indices.chunks_exact(spr));
        for (r, (row_vals, row_idx)) in rows.enumerate() {
            let loc = &self.column_loc[r / self.cfg.v * loc_per_block..][..loc_per_block];
            let groups = row_vals
                .chunks_exact(n)
                .zip(row_idx.chunks_exact(n))
                .zip(loc.chunks_exact(SELECTED_COLUMNS));
            for (g, ((vals, idx), sel)) in groups.enumerate() {
                for (&v, &j) in vals.iter().zip(idx) {
                    if !v.is_zero() {
                        f(r, g * self.cfg.m + usize::from(sel[usize::from(j)]), v);
                    }
                }
            }
        }
    }

    /// The stored nonzeros as an f16 operand stream, in
    /// [`Self::for_each_nonzero`] order — what
    /// [`crate::Operands::condense`] builds through the trait's visitor,
    /// with the walk inlined into the builder.
    pub fn operands(&self) -> Operands<u16> {
        let mut ops = OperandBuilder::new(self.rows, self.cols, self.values.len());
        self.for_each_nonzero(|r, c, v| ops.push(r, v.to_bits(), c));
        ops.finish()
    }

    /// Number of stored nonzero (non-padding) values.
    pub fn nnz(&self) -> usize {
        self.values.iter().filter(|v| !v.is_zero()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use venom_tensor::random;

    /// The column-at-a-time compression [`VnmMatrix::try_compress`] must
    /// equal bit for bit: column-loc from each row block's OR, then per
    /// row and group `mask.get`/`dense.get` over the selected columns,
    /// skipping padded duplicates.
    fn compress_ref(dense: &Matrix<Half>, mask: &SparsityMask, cfg: VnmConfig) -> VnmMatrix {
        assert!(mask.complies_vnm(cfg), "mask violates the {cfg} pattern");
        let rows = dense.rows();
        let cols = dense.cols();
        let k_groups = cfg.k_groups(cols);
        let row_blocks = cfg.row_blocks(rows);
        let mut column_loc = vec![0u16; row_blocks * k_groups * SELECTED_COLUMNS];
        let mut union = Vec::new();
        for (b, block_loc) in column_loc
            .chunks_exact_mut(k_groups * SELECTED_COLUMNS)
            .enumerate()
        {
            mask.union_words(mask.block_rows(cfg, b), &mut union);
            for (g, sel) in block_loc.chunks_exact_mut(SELECTED_COLUMNS).enumerate() {
                let c0 = g * cfg.m;
                let mut used = 0;
                for c in ones_at(&union, c0, (c0 + cfg.m).min(cols)) {
                    sel[used] = c as u16;
                    used += 1;
                }
                let pad = if used > 0 { sel[used - 1] } else { 0 };
                sel[used..].fill(pad);
            }
        }
        let n = cfg.n;
        let mut values = Vec::with_capacity(rows * k_groups * n);
        let mut m_indices = Vec::with_capacity(rows * k_groups * n);
        for r in 0..rows {
            let b = r / cfg.v;
            for g in 0..k_groups {
                let base = (b * k_groups + g) * SELECTED_COLUMNS;
                let sel = &column_loc[base..base + SELECTED_COLUMNS];
                let mut found = 0usize;
                let mut last_idx = 0u8;
                for (j, &rel) in sel.iter().enumerate() {
                    if sel[..j].contains(&rel) {
                        continue;
                    }
                    let c = g * cfg.m + rel as usize;
                    if c < cols && mask.get(r, c) {
                        values.push(dense.get(r, c));
                        last_idx = j as u8;
                        m_indices.push(last_idx);
                        found += 1;
                    }
                }
                for _ in found..n {
                    values.push(Half::ZERO);
                    m_indices.push(last_idx);
                }
            }
        }
        VnmMatrix {
            cfg,
            rows,
            cols,
            k_groups,
            row_blocks,
            values,
            m_indices,
            column_loc,
        }
    }

    /// How [`near_vnm`] breaks its mask.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// The mask is left as drawn, compliant.
        None,
        /// One row crowds `n + 1` entries into a group (or, in a group too
        /// narrow for that, the mask is left compliant).
        Crowd,
        /// The rows of one row block spread over more than four columns of
        /// a group, each keeping at most `n` (compliant where the block
        /// has too few rows or the group too few columns for that).
        Spread,
    }

    /// A `rows x cols` mask near `cfg` and a dense matrix drawn apart from
    /// it. Each `V x M` block draws up to four live columns and each row
    /// keeps up to `n` of them, so groups and rows are often padded; then
    /// `fault` may break the pattern. Dense entries draw from ±0,
    /// subnormals, normals, ±Inf and NaN, so kept entries may be zero and
    /// pruned ones nonzero.
    fn near_vnm(
        rows: usize,
        cols: usize,
        cfg: VnmConfig,
        fault: Fault,
        seed: u64,
    ) -> (Matrix<Half>, SparsityMask) {
        const BITS: [u16; 10] = [
            0x0000, 0x8000, 0x0001, 0x83FF, 0x3C00, 0xC500, 0x7C00, 0xFC00, 0x7E00, 0xFE01,
        ];
        let mut state = seed;
        let mut next = move |below: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % below as u64) as usize
        };
        let dense = Matrix::from_fn(rows, cols, |_, _| Half::from_bits(BITS[next(BITS.len())]));
        let mut mask = SparsityMask::empty(rows, cols);
        for r0 in (0..rows).step_by(cfg.v) {
            for c0 in (0..cols).step_by(cfg.m) {
                let width = cfg.m.min(cols - c0);
                let live: Vec<usize> = (0..next(SELECTED_COLUMNS + 1))
                    .map(|_| c0 + next(width))
                    .collect();
                if live.is_empty() {
                    continue;
                }
                for r in r0..(r0 + cfg.v).min(rows) {
                    for _ in 0..next(cfg.n + 1) {
                        mask.set(r, live[next(live.len())], true);
                    }
                }
            }
        }
        let (b, g) = (next(cfg.row_blocks(rows)), next(cfg.k_groups(cols)));
        let (r0, c0) = (b * cfg.v, g * cfg.m);
        let (block, group) = (r0..(r0 + cfg.v).min(rows), c0..(c0 + cfg.m).min(cols));
        match fault {
            Fault::None => {}
            Fault::Crowd => {
                let r = r0 + next(block.len());
                for c in group.take(cfg.n + 1) {
                    mask.set(r, c, true);
                }
            }
            Fault::Spread => {
                for (i, r) in block.enumerate() {
                    for c in group.clone() {
                        mask.set(r, c, false);
                    }
                    for j in 0..cfg.n {
                        mask.set(r, c0 + (i * cfg.n + j) % group.len(), true);
                    }
                }
            }
        }
        (dense, mask)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Word-parallel compression equals the column-at-a-time oracle
        /// bit for bit, emits exactly the operands `for_each_operand`
        /// visits on the result, in order, and errs exactly where the mask
        /// violates the pattern (a row's group over `n`, or a block's group
        /// over four columns): group widths below, at and above 64, widths
        /// not dividing 64, partial tail groups and row blocks, V = 1,
        /// padded groups, kept ±0 and NaN, ±Inf and subnormal values.
        #[test]
        fn try_compress_equals_the_column_oracle(
            cols in prop::sample::select(vec![1usize, 5, 63, 64, 65, 130, 200]),
            m in prop::sample::select(vec![4usize, 8, 10, 16, 20, 32, 40, 64, 100, 128]),
            v in prop::sample::select(vec![1usize, 2, 3, 4, 16]),
            n in 1usize..4,
            rows in 1usize..40,
            fault in prop::sample::select(vec![Fault::None, Fault::Crowd, Fault::Spread]),
            seed in any::<u64>(),
        ) {
            let cfg = VnmConfig::new(v, n, m);
            let (dense, mask) = near_vnm(rows, cols, cfg, fault, seed);
            let (mut emitted, mut rows_emitted) = (Vec::new(), Vec::new());
            let mut sink = |r: usize, values: &[Half], columns: &[usize]| {
                rows_emitted.push(r);
                for (h, &c) in values.iter().zip(columns) {
                    emitted.push((r, h.to_bits(), c));
                }
            };
            let got = VnmMatrix::try_compress_with(&dense, &mask, cfg, Some(&mut sink));
            prop_assert_eq!(got.is_ok(), mask.complies_vnm(cfg), "{} {:?}", cfg, fault);
            match got {
                Ok(a) => {
                    let want = compress_ref(&dense, &mask, cfg);
                    let bits = |a: &VnmMatrix| a.values().iter().map(|h| h.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(&a), bits(&want), "{}", cfg);
                    prop_assert_eq!(a.m_indices(), want.m_indices(), "{}", cfg);
                    prop_assert_eq!(a.column_loc(), want.column_loc(), "{}", cfg);
                    prop_assert_eq!((a.k_groups(), a.row_blocks()), (want.k_groups(), want.row_blocks()));
                    let mut visited = Vec::new();
                    crate::SparseKernel::for_each_operand(&a, &mut |r, x, c| {
                        visited.push((r, x.to_bits(), c));
                    });
                    prop_assert_eq!(emitted, visited, "{}", cfg);
                    prop_assert_eq!(rows_emitted, (0..rows).collect::<Vec<_>>());
                }
                Err(e) => prop_assert_eq!(e, CompressError::PatternViolation(cfg)),
            }
        }
    }

    /// Magnitude-based V:N:M mask (duplicated here in miniature so format
    /// tests do not depend on the pruner crate).
    fn vnm_mask(w: &Matrix<f32>, cfg: VnmConfig) -> SparsityMask {
        let mut mask = SparsityMask::empty(w.rows(), w.cols());
        for b in 0..cfg.row_blocks(w.rows()) {
            let r0 = b * cfg.v;
            let r1 = (r0 + cfg.v).min(w.rows());
            for g in 0..cfg.k_groups(w.cols()) {
                let c0 = g * cfg.m;
                let c1 = (c0 + cfg.m).min(w.cols());
                // Select the 4 columns with the largest |w| column sums.
                let mut cols: Vec<usize> = (c0..c1).collect();
                cols.sort_by(|&a, &bc| {
                    let sa: f32 = (r0..r1).map(|r| w.get(r, a).abs()).sum();
                    let sb: f32 = (r0..r1).map(|r| w.get(r, bc).abs()).sum();
                    sb.partial_cmp(&sa).unwrap()
                });
                let sel: Vec<usize> = cols.into_iter().take(SELECTED_COLUMNS).collect();
                // Keep the n largest |w| of the selection per row.
                for r in r0..r1 {
                    let mut sc = sel.clone();
                    sc.sort_by(|&a, &bc| {
                        w.get(r, bc).abs().partial_cmp(&w.get(r, a).abs()).unwrap()
                    });
                    for &c in sc.iter().take(cfg.n) {
                        mask.set(r, c, true);
                    }
                }
            }
        }
        mask
    }

    fn make(rows: usize, cols: usize, cfg: VnmConfig, seed: u64) -> (Matrix<Half>, SparsityMask) {
        let w = random::normal_matrix(rows, cols, 0.0, 1.0, seed);
        let mask = vnm_mask(&w, cfg);
        (mask.apply_f32(&w).to_half(), mask)
    }

    #[test]
    fn roundtrip_4_2_8() {
        let cfg = VnmConfig::new(4, 2, 8);
        let (dense, mask) = make(16, 32, cfg, 1);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        assert_eq!(vnm.decompress(), dense);
    }

    #[test]
    fn roundtrip_large_v_and_m() {
        let cfg = VnmConfig::new(64, 2, 20);
        let (dense, mask) = make(128, 160, cfg, 2);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        assert_eq!(vnm.decompress(), dense);
        assert!((mask.sparsity() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn roundtrip_with_partial_tails() {
        // R=10 not divisible by V=4; K=26 not divisible by M=8.
        let cfg = VnmConfig::new(4, 2, 8);
        let (dense, mask) = make(10, 26, cfg, 3);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        assert_eq!(vnm.row_blocks(), 3);
        assert_eq!(vnm.k_groups(), 4);
        assert_eq!(vnm.decompress(), dense);
    }

    #[test]
    fn v1_degenerates_to_plain_nm() {
        // With V = 1 each row selects its own columns: any 2:8 row pattern
        // compresses losslessly.
        let cfg = VnmConfig::new(1, 2, 8);
        let w = random::normal_matrix(8, 64, 0.0, 1.0, 4);
        let mask = crate::nm::magnitude_nm_mask(&w, cfg.nm());
        assert!(mask.complies_vnm(cfg));
        let dense = mask.apply_f32(&w).to_half();
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        assert_eq!(vnm.decompress(), dense);
    }

    #[test]
    fn condensed_matrix_is_2_4() {
        let cfg = VnmConfig::new(8, 2, 16);
        let (dense, mask) = make(32, 64, cfg, 5);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        let cond = vnm.condensed();
        assert_eq!(cond.cols(), vnm.k_groups() * SELECTED_COLUMNS);
        // Every aligned group of 4 condensed columns has <= 2 nonzeros.
        let cmask =
            SparsityMask::from_fn(cond.rows(), cond.cols(), |r, c| !cond.get(r, c).is_zero());
        assert!(cmask.complies_nm(crate::NmConfig::new(2, 4)));
    }

    #[test]
    fn spmm_ref_matches_dense_gemm() {
        let cfg = VnmConfig::new(16, 2, 10);
        let (dense, mask) = make(32, 40, cfg, 6);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        let b = random::normal_matrix(40, 24, 0.0, 1.0, 7).to_half();
        let via_format = vnm.spmm_ref(&b);
        let via_dense = venom_tensor::gemm::gemm_ref(&dense, &b);
        let err = venom_tensor::norms::max_abs_diff(&via_format, &via_dense);
        assert!(err < 1e-3, "err={err}");
    }

    #[test]
    fn storage_sizes_match_figure3() {
        // Fig. 3: values and m-indices are R x K/M*2, column-loc is
        // R/V x K/M*4 (for N = 2).
        let cfg = VnmConfig::new(4, 2, 8);
        let (dense, mask) = make(8, 32, cfg, 8);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        assert_eq!(vnm.values().len(), 8 * (32 / 8) * 2);
        assert_eq!(vnm.m_indices().len(), 8 * (32 / 8) * 2);
        assert_eq!(vnm.column_loc().len(), (8 / 4) * (32 / 8) * 4);
        // Byte accounting: 2B per value, 2b per m-index, 1B per column-loc.
        assert_eq!(vnm.values_bytes(), 64 * 2);
        assert_eq!(vnm.m_indices_bytes(), 64 * 2 / 8);
        assert_eq!(vnm.column_loc_bytes(), 32);
    }

    #[test]
    fn compression_ratio_grows_with_m() {
        let mk = |m: usize| {
            let cfg = VnmConfig::new(16, 2, m);
            let (dense, mask) = make(64, 400, cfg, 9);
            VnmMatrix::compress(&dense, &mask, cfg).compression_ratio()
        };
        let r8 = mk(8);
        let r20 = mk(20);
        let r40 = mk(40);
        assert!(r8 < r20 && r20 < r40, "r8={r8} r20={r20} r40={r40}");
    }

    #[test]
    fn nnz_counts_stored_values() {
        let cfg = VnmConfig::new(4, 2, 8);
        let (dense, mask) = make(16, 32, cfg, 10);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        // Nonzero count equals the mask's nnz minus weights that happen to
        // round to zero in half precision (none for this distribution).
        assert_eq!(vnm.nnz(), mask.nnz());
    }

    #[test]
    fn for_each_nonzero_visits_exact_positions() {
        let cfg = VnmConfig::new(2, 2, 4);
        let (dense, mask) = make(4, 8, cfg, 11);
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        let mut seen = Matrix::<Half>::zeros(4, 8);
        vnm.for_each_nonzero(|r, c, v| seen.set(r, c, v));
        assert_eq!(seen, dense);
    }

    #[test]
    fn selected_b_rows_in_bounds() {
        let cfg = VnmConfig::new(4, 2, 10);
        let (dense, mask) = make(8, 26, cfg, 12); // partial tail group of 6
        let vnm = VnmMatrix::compress(&dense, &mask, cfg);
        for b in 0..vnm.row_blocks() {
            for g in 0..vnm.k_groups() {
                for r in vnm.selected_b_rows(b, g) {
                    assert!(r < 26);
                }
            }
        }
    }

    #[test]
    fn try_compress_names_the_violated_pattern_and_shape() {
        let cfg = VnmConfig::new(4, 2, 8);
        let dense = Matrix::<Half>::zeros(8, 16);
        let err = VnmMatrix::try_compress(&dense, &SparsityMask::dense(8, 16), cfg).unwrap_err();
        assert_eq!(err, CompressError::PatternViolation(cfg));
        assert_eq!(err.to_string(), "mask violates the 4:2:8 pattern");
        let err = VnmMatrix::try_compress(&dense, &SparsityMask::empty(8, 8), cfg).unwrap_err();
        assert_eq!(
            err,
            CompressError::ShapeMismatch {
                dense: (8, 16),
                mask: (8, 8)
            }
        );
        assert!(err.to_string().starts_with("shape mismatch"));
        // Shape first, then group width, then the pattern.
        let wide = VnmConfig::new(4, 2, u16::MAX as usize + 1);
        let err = VnmMatrix::try_compress(&dense, &SparsityMask::dense(8, 8), wide).unwrap_err();
        assert!(matches!(err, CompressError::ShapeMismatch { .. }));
        let err = VnmMatrix::try_compress(&dense, &SparsityMask::dense(8, 16), wide).unwrap_err();
        assert_eq!(err, CompressError::GroupTooWide(wide));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn compress_panics_on_shape_mismatch() {
        let cfg = VnmConfig::new(4, 2, 8);
        let dense = Matrix::<Half>::zeros(8, 16);
        let _ = VnmMatrix::compress(&dense, &SparsityMask::empty(8, 8), cfg);
    }

    #[test]
    #[should_panic(expected = "violates")]
    fn rejects_noncompliant_mask() {
        let cfg = VnmConfig::new(4, 2, 8);
        let dense = Matrix::<Half>::zeros(8, 16);
        let mask = SparsityMask::dense(8, 16);
        let _ = VnmMatrix::compress(&dense, &mask, cfg);
    }
}
