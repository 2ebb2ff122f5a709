//! Packed sparsity masks with pattern-compliance checks.

use crate::{NmConfig, VnmConfig, SELECTED_COLUMNS};
use std::ops::Range;
use venom_fp16::Half;
use venom_tensor::Matrix;

/// A `rows x cols` bitmask: bit set = weight kept, bit clear = pruned.
///
/// Backed by one `u64` word per 64 columns per row (row-padded so rows start
/// on word boundaries, which keeps per-row operations simple). Column `c`
/// of a row is bit `c % 64` of the row's word `c / 64`; the padding bits
/// past `cols` stay clear, so the checks below count whole words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparsityMask {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl SparsityMask {
    /// All-ones (fully dense) mask.
    pub fn dense(rows: usize, cols: usize) -> Self {
        let mut m = Self::empty(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, true);
            }
        }
        m
    }

    /// All-zeros (fully pruned) mask.
    pub fn empty(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "mask dimensions must be nonzero");
        let words_per_row = cols.div_ceil(64);
        SparsityMask {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
        }
    }

    /// Builds a mask from a predicate of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> bool) -> Self {
        let mut m = Self::empty(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if f(r, c) {
                    m.set(r, c, true);
                }
            }
        }
        m
    }

    /// Mask of the nonzero entries of a dense matrix.
    pub fn from_nonzeros(m: &Matrix<f32>) -> Self {
        Self::from_fn(m.rows(), m.cols(), |r, c| m.get(r, c) != 0.0)
    }

    /// Mask of the stored nonzeros of a half matrix: bit set where
    /// [`Half::is_zero`] is false, so both zeros are pruned and every
    /// subnormal, infinity and NaN is kept. Equal to
    /// `from_fn(rows, cols, |r, c| !m.get(r, c).is_zero())`, but packs each
    /// row slice 64 halves per word.
    ///
    /// Always inlined, so that a caller can compile the packing loop for a
    /// wider instruction set than the crate's baseline target.
    ///
    /// # Panics
    /// Panics if `m` has a zero dimension.
    #[inline(always)]
    pub fn from_nonzero_halves(m: &Matrix<Half>) -> Self {
        let mut mask = Self::empty(m.rows(), m.cols());
        for (r, words) in mask.bits.chunks_exact_mut(mask.words_per_row).enumerate() {
            for (word, halves) in words.iter_mut().zip(m.row(r).chunks(64)) {
                *word = halves
                    .iter()
                    .enumerate()
                    .fold(0, |acc, (i, h)| acc | u64::from(!h.is_zero()) << i);
            }
        }
        mask
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads one bit.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows && col < self.cols);
        let w = self.bits[row * self.words_per_row + col / 64];
        (w >> (col % 64)) & 1 == 1
    }

    /// Writes one bit.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, keep: bool) {
        debug_assert!(row < self.rows && col < self.cols);
        let w = &mut self.bits[row * self.words_per_row + col / 64];
        if keep {
            *w |= 1 << (col % 64);
        } else {
            *w &= !(1 << (col % 64));
        }
    }

    /// Number of kept (set) entries.
    pub fn nnz(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fraction of entries kept.
    pub fn density(&self) -> f64 {
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Fraction of entries pruned.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// Kept entries in one row.
    pub fn row_nnz(&self, row: usize) -> usize {
        let start = row * self.words_per_row;
        self.bits[start..start + self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Column indices of the kept entries in one row, ascending.
    pub fn row_indices(&self, row: usize) -> Vec<usize> {
        (0..self.cols).filter(|&c| self.get(row, c)).collect()
    }

    /// Checks row-wise N:M compliance: every aligned group of `m` columns in
    /// every row holds at most `n` kept entries. A final partial group is
    /// checked against the same bound. When `m` divides 64 the groups are
    /// lanes of the row's words, counted all at once with SWAR popcounts
    /// (see `Lanes`). Otherwise each group is one popcount of its columns
    /// of the row's words: funnelled into one word when `m <= 64`, or
    /// summed over the words it spans.
    pub fn complies_nm(&self, nm: NmConfig) -> bool {
        if 64 % nm.m == 0 {
            let lanes = Lanes::new(nm);
            return self.bits.iter().all(|&w| !lanes.exceed(w));
        }
        self.bits.chunks_exact(self.words_per_row).all(|row| {
            self.groups(nm.m)
                .all(|(c0, c1)| ones_in(row, c0, c1) <= nm.n)
        })
    }

    /// Checks V:N:M compliance: additionally to [`Self::complies_nm`], the
    /// union of kept columns across the `v` rows of every `V x M` block must
    /// not exceed [`SELECTED_COLUMNS`]. The union is the OR of the block's
    /// row words (a partial last row block ORs the rows it has), and each
    /// group is a popcount over its column range of that OR.
    pub fn complies_vnm(&self, cfg: VnmConfig) -> bool {
        if !self.complies_nm(cfg.nm()) {
            return false;
        }
        let mut union = Vec::new();
        (0..cfg.row_blocks(self.rows)).all(|b| {
            self.union_words(self.block_rows(cfg, b), &mut union);
            self.groups(cfg.m)
                .all(|(c0, c1)| ones_in(&union, c0, c1) <= SELECTED_COLUMNS)
        })
    }

    /// The columns (relative to the group) used by a `V x M` block,
    /// ascending: the set bits of the group's column range in the OR of the
    /// block's rows.
    pub fn block_used_columns(&self, cfg: VnmConfig, block: usize, group: usize) -> Vec<usize> {
        let mut union = Vec::new();
        self.union_words(self.block_rows(cfg, block), &mut union);
        let c0 = group * cfg.m;
        ones_at(&union, c0, (c0 + cfg.m).min(self.cols)).collect()
    }

    /// Distinct columns kept in any of `rows`: the popcount of the OR of
    /// their words (the kept column vectors of a CVSE band).
    ///
    /// # Panics
    /// Panics if `rows` reaches past the last row.
    pub fn union_nnz(&self, rows: Range<usize>) -> usize {
        let mut union = Vec::new();
        self.union_words(rows, &mut union);
        union.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Aligned `bs`-column blocks holding a kept entry in any of `rows`:
    /// the column blocks `bc*bs .. (bc+1)*bs` (the last one clipped to
    /// `cols`) with a set bit in the OR of the rows' words (the stored
    /// blocks of a Blocked-ELL block row).
    ///
    /// # Panics
    /// Panics if `bs` is zero or `rows` reaches past the last row.
    pub fn union_blocks(&self, rows: Range<usize>, bs: usize) -> usize {
        let mut union = Vec::new();
        self.union_words(rows, &mut union);
        self.groups(bs)
            .filter(|&(c0, c1)| ones_in(&union, c0, c1) > 0)
            .count()
    }

    /// The packed words of one row: column `c` is bit `c % 64` of word
    /// `c / 64`.
    pub(crate) fn row_words(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words_per_row..][..self.words_per_row]
    }

    /// Overwrites `out` with the OR of the words of `rows`.
    pub(crate) fn union_words(&self, rows: Range<usize>, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.words_per_row, 0);
        for row in self.bits[rows.start * self.words_per_row..rows.end * self.words_per_row]
            .chunks_exact(self.words_per_row)
        {
            for (o, w) in out.iter_mut().zip(row) {
                *o |= w;
            }
        }
    }

    /// The rows of row block `block` under `cfg`, clipped to the mask.
    pub(crate) fn block_rows(&self, cfg: VnmConfig, block: usize) -> Range<usize> {
        let r0 = block * cfg.v;
        r0..(r0 + cfg.v).min(self.rows)
    }

    /// The aligned column groups of width `m`, as `(start, end)` with the
    /// last one clipped to `cols`.
    fn groups(&self, m: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.cols)
            .step_by(m)
            .map(move |c0| (c0, (c0 + m).min(self.cols)))
    }

    /// Applies the mask to an `f32` matrix, zeroing pruned entries.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn apply_f32(&self, m: &Matrix<f32>) -> Matrix<f32> {
        assert_eq!(
            (m.rows(), m.cols()),
            (self.rows, self.cols),
            "shape mismatch"
        );
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            if self.get(r, c) {
                m.get(r, c)
            } else {
                0.0
            }
        })
    }

    /// Applies the mask to a half matrix, zeroing pruned entries.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn apply_half(&self, m: &Matrix<Half>) -> Matrix<Half> {
        assert_eq!(
            (m.rows(), m.cols()),
            (self.rows, self.cols),
            "shape mismatch"
        );
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            if self.get(r, c) {
                m.get(r, c)
            } else {
                Half::ZERO
            }
        })
    }

    /// Element-wise AND of two equal-shape masks.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn and(&self, other: &SparsityMask) -> SparsityMask {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
        out
    }
}

/// The `m`-bit lanes of a mask word (`m` dividing 64), tested at once
/// for more than `n` set bits. The word's bits are summed pairwise into
/// lanes of 2, 4, ... up to `m` bits, each holding its popcount (at most
/// `m`, which fits). Adding `2^(m-1) - 1 - n` to every lane sets a lane's
/// top bit exactly when its count exceeds `n`, and no lane carries into
/// the next: `m + 2^(m-1) - 1 - n < 2^m`.
struct Lanes {
    /// Per widening step, the low half of every doubled lane.
    halves: [u64; 6],
    /// Widening steps from 1-bit lanes to `m`-bit ones.
    steps: usize,
    /// `2^(m-1) - 1 - n` in every lane.
    bias: u64,
    /// The top bit of every lane.
    top: u64,
}

impl Lanes {
    fn new(nm: NmConfig) -> Self {
        let m = nm.m;
        debug_assert!(64 % m == 0 && nm.n < m);
        // A 1 at the lowest bit of every `w`-bit lane.
        let lows = |w: usize| {
            if w == 64 {
                1
            } else {
                u64::MAX / ((1u64 << w) - 1)
            }
        };
        let mut halves = [0u64; 6];
        let mut steps = 0;
        while (1 << steps) < m {
            let w = 1usize << steps;
            halves[steps] = lows(2 * w) * ((1u64 << w) - 1);
            steps += 1;
        }
        Lanes {
            halves,
            steps,
            bias: lows(m) * ((1u64 << (m - 1)) - 1 - nm.n as u64),
            top: lows(m) << (m - 1),
        }
    }

    /// Whether some lane of `word` holds more than `n` set bits.
    #[inline]
    fn exceed(&self, word: u64) -> bool {
        let mut x = word;
        for (i, &half) in self.halves[..self.steps].iter().enumerate() {
            x = (x & half) + ((x >> (1 << i)) & half);
        }
        (x + self.bias) & self.top != 0
    }
}

/// The bits of `words` in columns `c0..c1` (`0 < c1 - c0 <= 64`),
/// funnelled into one word from bit 0: the range spans at most two words.
#[inline]
pub(crate) fn group_bits(words: &[u64], c0: usize, c1: usize) -> u64 {
    let (w, shift, width) = (c0 / 64, c0 % 64, c1 - c0);
    debug_assert!(width > 0 && width <= 64);
    let mut bits = words[w] >> shift;
    if shift + width > 64 {
        bits |= words[w + 1] << (64 - shift);
    }
    if width < 64 {
        bits &= (1u64 << width) - 1;
    }
    bits
}

/// Set bits of `words` in columns `c0..c1` (`c0 < c1`), which may span
/// any number of words: one funnelled word when the range is at most 64
/// columns wide.
fn ones_in(words: &[u64], c0: usize, c1: usize) -> usize {
    if c1 - c0 <= 64 {
        return group_bits(words, c0, c1).count_ones() as usize;
    }
    let (w0, w1) = (c0 / 64, (c1 - 1) / 64);
    let (lo, hi) = (!0u64 << (c0 % 64), !0u64 >> (63 - (c1 - 1) % 64));
    let inner: u32 = words[w0 + 1..w1].iter().map(|w| w.count_ones()).sum();
    ((words[w0] & lo).count_ones() + inner + (words[w1] & hi).count_ones()) as usize
}

/// Positions of the set bits of `words` in columns `c0..c1` (`c0 < c1`),
/// relative to `c0`, ascending.
pub(crate) fn ones_at(words: &[u64], c0: usize, c1: usize) -> impl Iterator<Item = usize> + '_ {
    let (w0, w1) = (c0 / 64, (c1 - 1) / 64);
    (w0..=w1).flat_map(move |w| {
        let mut bits = words[w];
        if w == w0 {
            bits &= !0u64 << (c0 % 64);
        }
        if w == w1 {
            bits &= !0u64 >> (63 - (c1 - 1) % 64);
        }
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let at = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                w * 64 + at - c0
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-by-bit N:M check: the oracle [`SparsityMask::complies_nm`]
    /// must equal.
    fn complies_nm_ref(mask: &SparsityMask, nm: NmConfig) -> bool {
        for r in 0..mask.rows {
            for g in 0..mask.cols.div_ceil(nm.m) {
                let start = g * nm.m;
                let end = (start + nm.m).min(mask.cols);
                let kept = (start..end).filter(|&c| mask.get(r, c)).count();
                if kept > nm.n {
                    return false;
                }
            }
        }
        true
    }

    /// Bit-by-bit V:N:M check: the oracle [`SparsityMask::complies_vnm`]
    /// must equal.
    fn complies_vnm_ref(mask: &SparsityMask, cfg: VnmConfig) -> bool {
        if !complies_nm_ref(mask, cfg.nm()) {
            return false;
        }
        for b in 0..cfg.row_blocks(mask.rows) {
            let r0 = b * cfg.v;
            let r1 = (r0 + cfg.v).min(mask.rows);
            for g in 0..cfg.k_groups(mask.cols) {
                let c0 = g * cfg.m;
                let c1 = (c0 + cfg.m).min(mask.cols);
                let used = (c0..c1)
                    .filter(|&c| (r0..r1).any(|r| mask.get(r, c)))
                    .count();
                if used > SELECTED_COLUMNS {
                    return false;
                }
            }
        }
        true
    }

    /// Bit-by-bit used columns of a block: the oracle
    /// [`SparsityMask::block_used_columns`] must equal.
    fn block_used_columns_ref(
        mask: &SparsityMask,
        cfg: VnmConfig,
        block: usize,
        group: usize,
    ) -> Vec<usize> {
        let r0 = block * cfg.v;
        let r1 = (r0 + cfg.v).min(mask.rows);
        let c0 = group * cfg.m;
        let c1 = (c0 + cfg.m).min(mask.cols);
        (c0..c1)
            .filter(|&c| (r0..r1).any(|r| mask.get(r, c)))
            .map(|c| c - c0)
            .collect()
    }

    /// A `rows x cols` half matrix near the V:N:M pattern `v:2:m`: each
    /// `v x m` block draws up to four live columns and each row keeps up
    /// to two of them. Then, by the seed, five rows spread two entries
    /// each over one group (which breaks the four-column union of a block
    /// holding three of them) and one row crowds three entries into a
    /// group (which breaks N = 2).
    /// Kept entries draw from nonzero specials (subnormals, ±Inf, NaN),
    /// pruned ones from ±0.0.
    fn near_vnm_halves(rows: usize, cols: usize, v: usize, m: usize, seed: u64) -> Matrix<Half> {
        const KEPT: [u16; 9] = [
            0x0001, 0x8001, 0x03FF, 0x3C00, 0xC000, 0x7C00, 0xFC00, 0x7E00, 0xFE01,
        ];
        let mut state = seed;
        let mut next = move |below: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % below as u64) as usize
        };
        let mut out = Matrix::<Half>::zeros(rows, cols);
        let keep = |out: &mut Matrix<Half>, r: usize, c: usize, k: usize| {
            out.set(r, c, Half::from_bits(KEPT[k % KEPT.len()]));
        };
        for r in 0..rows {
            for c in 0..cols {
                out.set(r, c, Half::from_bits([0x0000, 0x8000][next(2)]));
            }
        }
        for r0 in (0..rows).step_by(v) {
            for c0 in (0..cols).step_by(m) {
                let width = m.min(cols - c0);
                let live: Vec<usize> = (0..1 + next(4)).map(|_| c0 + next(width)).collect();
                for r in r0..(r0 + v).min(rows) {
                    for _ in 0..next(3) {
                        keep(&mut out, r, live[next(live.len())], next(9));
                    }
                }
            }
        }
        let fault = next(4);
        let group = |g: usize| g * m..((g + 1) * m).min(cols);
        if fault % 2 == 1 {
            let (r0, cs) = (next(rows), group(next(cols.div_ceil(m))));
            for (i, r) in (r0..(r0 + 5).min(rows)).enumerate() {
                for c in cs.clone() {
                    out.set(r, c, Half::ZERO);
                }
                for j in [2 * i, 2 * i + 1] {
                    keep(&mut out, r, cs.start + j % cs.len(), next(9));
                }
            }
        }
        if fault >= 2 {
            let (r, cs) = (next(rows), group(next(cols.div_ceil(m))));
            for c in cs.take(3) {
                keep(&mut out, r, c, next(9));
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The word-parallel mask constructor and checks equal their
        /// bit-by-bit oracles: column counts on, across and past a word
        /// boundary, group widths below and above 64, partial tail groups
        /// and partial last row blocks.
        #[test]
        fn word_parallel_checks_equal_the_bitwise_oracles(
            cols in prop::sample::select(vec![1usize, 63, 64, 65, 130, 768]),
            m in prop::sample::select(vec![2usize, 4, 8, 10, 12, 16, 20, 32, 40, 64, 100]),
            v in prop::sample::select(vec![1usize, 2, 3, 4, 16]),
            rows in 1usize..40,
            seed in any::<u64>(),
        ) {
            let w = near_vnm_halves(rows, cols, v, m, seed);
            let mask = SparsityMask::from_nonzero_halves(&w);
            let want = SparsityMask::from_fn(rows, cols, |r, c| !w.get(r, c).is_zero());
            prop_assert_eq!(&mask, &want);
            // Every SWAR lane width (m dividing 64) and the funnelled and
            // multi-word group counts meet the oracle; V:N:M needs m >= 4.
            for n in (1..=3).filter(|&n| n < m) {
                let nm = NmConfig::new(n, m);
                prop_assert_eq!(mask.complies_nm(nm), complies_nm_ref(&mask, nm), "{}", nm);
                if m < SELECTED_COLUMNS {
                    continue;
                }
                for check_v in [v, 1, 2, 3, 16, 128] {
                    let cfg = VnmConfig::new(check_v, n, m);
                    prop_assert_eq!(
                        mask.complies_vnm(cfg),
                        complies_vnm_ref(&mask, cfg),
                        "{}",
                        cfg
                    );
                }
            }
            if m < SELECTED_COLUMNS {
                return Ok(());
            }
            let cfg = VnmConfig::new(v, 2, m);
            // Compression errs exactly on a violation, and derives
            // column-loc from each row block's OR: the used columns,
            // padded with the last one (0 when none).
            let compressed = crate::VnmMatrix::try_compress(&w, &mask, cfg).ok();
            prop_assert_eq!(compressed.is_some(), complies_vnm_ref(&mask, cfg), "{}", cfg);
            for b in 0..cfg.row_blocks(rows) {
                for g in 0..cfg.k_groups(cols) {
                    let mut used = block_used_columns_ref(&mask, cfg, b, g);
                    prop_assert_eq!(mask.block_used_columns(cfg, b, g), used.clone());
                    if let Some(a) = &compressed {
                        let pad = used.last().copied().unwrap_or(0);
                        used.resize(SELECTED_COLUMNS, pad);
                        let at = (b * cfg.k_groups(cols) + g) * SELECTED_COLUMNS;
                        let loc: Vec<usize> = a.column_loc()[at..at + SELECTED_COLUMNS]
                            .iter()
                            .map(|&c| usize::from(c))
                            .collect();
                        prop_assert_eq!(loc, used);
                    }
                }
            }
        }
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut m = SparsityMask::empty(2, 130);
        m.set(0, 63, true);
        m.set(0, 64, true);
        m.set(1, 129, true);
        assert!(m.get(0, 63) && m.get(0, 64) && m.get(1, 129));
        assert!(!m.get(0, 65) && !m.get(1, 128));
        assert_eq!(m.nnz(), 3);
        m.set(0, 64, false);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn density_and_sparsity() {
        let m = SparsityMask::from_fn(4, 8, |_, c| c % 2 == 0);
        assert_eq!(m.density(), 0.5);
        assert_eq!(m.sparsity(), 0.5);
        assert_eq!(m.row_nnz(0), 4);
        assert_eq!(m.row_indices(0), vec![0, 2, 4, 6]);
    }

    #[test]
    fn nm_compliance_detects_violations() {
        // 2:4-compliant: two nonzeros in each aligned group of four.
        let ok = SparsityMask::from_fn(2, 8, |_, c| c % 4 < 2);
        assert!(ok.complies_nm(NmConfig::new(2, 4)));
        // Three in one group: violation.
        let bad = SparsityMask::from_fn(2, 8, |r, c| r == 0 && c < 3);
        assert!(!bad.complies_nm(NmConfig::new(2, 4)));
    }

    #[test]
    fn nm_compliance_checks_partial_tail_group() {
        // 10 columns with m=8: tail group is cols 8..10.
        let mut m = SparsityMask::empty(1, 10);
        m.set(0, 8, true);
        m.set(0, 9, true);
        assert!(m.complies_nm(NmConfig::new(2, 8)));
        assert!(!m.complies_nm(NmConfig::new(1, 8)));
    }

    #[test]
    fn vnm_compliance_requires_shared_columns() {
        let cfg = VnmConfig::new(2, 2, 8);
        // Both rows use columns {0,1,2,3}: 4 distinct columns, compliant.
        let ok = SparsityMask::from_fn(
            2,
            8,
            |r, c| if r == 0 { c < 2 } else { (2..4).contains(&c) },
        );
        assert!(ok.complies_vnm(cfg));
        // Rows use {0,1} and {4,5}... plus row 0 also uses {6}: > 4 distinct.
        let mut bad = SparsityMask::empty(2, 8);
        bad.set(0, 0, true);
        bad.set(0, 1, true);
        bad.set(1, 4, true);
        bad.set(1, 5, true);
        assert!(bad.complies_vnm(cfg)); // exactly 4 distinct: fine
        bad.set(0, 6, false);
        assert!(bad.complies_vnm(cfg));
        let mut bad2 = bad.clone();
        bad2.set(0, 6, true);
        // now row0 has 3 nonzeros in group (0..8)? no: {0,1,6} = 3 > n=2 -> fails nm
        assert!(!bad2.complies_vnm(cfg));
    }

    #[test]
    fn block_used_columns_are_relative() {
        let cfg = VnmConfig::new(2, 2, 4);
        let m = SparsityMask::from_fn(2, 8, |_, c| c == 5 || c == 7);
        assert_eq!(m.block_used_columns(cfg, 0, 1), vec![1, 3]);
        assert!(m.block_used_columns(cfg, 0, 0).is_empty());
    }

    #[test]
    fn apply_zeroes_pruned_entries() {
        let w = Matrix::from_fn(2, 4, |r, c| (r * 4 + c) as f32 + 1.0);
        let m = SparsityMask::from_fn(2, 4, |_, c| c % 2 == 0);
        let p = m.apply_f32(&w);
        assert_eq!(p.as_slice(), &[1.0, 0.0, 3.0, 0.0, 5.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn and_intersects() {
        let a = SparsityMask::from_fn(2, 4, |_, c| c < 2);
        let b = SparsityMask::from_fn(2, 4, |_, c| c > 0);
        let c = a.and(&b);
        assert_eq!(c.nnz(), 2);
        assert!(c.get(0, 1) && c.get(1, 1));
    }
}
