//! The condensed operand container every plan replays.
//!
//! A weight in any format condenses to the same thing: for every output
//! row, the row's nonzero operands as `(value, source B row)` pairs in
//! the order its reference kernel accumulates them. [`Operands`] stores
//! that as row pointers, a value plane and [`Sources`]. Only the value
//! plane's element depends on the dtype, as in Magicube: f16 bit
//! patterns (`u16`) for the f16 formats, i8 codes for the quantized
//! V:N:M container. The sources are u16 where every B row fits
//! (K <= 65536) and u32 past that; [`Sources::width`] is the one place
//! that decides.
//!
//! [`OperandBuilder`] fills the container without a counting pass:
//! operands arrive in ascending row order, one at a time or a row at a
//! time, and a row's start is written when it, or a later row, arrives.
//! Every
//! [`SparseKernel`] emits rows in that order ([`Operands::condense`]), and
//! so do [`crate::VnmMatrix`]'s one-pass compressor and the slot walks of
//! both V:N:M containers ([`crate::VnmMatrix::operands`],
//! [`crate::QuantVnmMatrix::operands`]).

use crate::SparseKernel;
use std::ops::Range;

/// The source B rows of an [`Operands`] container.
#[derive(Clone, Debug, PartialEq)]
pub enum Sources {
    /// `K <= 65536`.
    Narrow(Vec<u16>),
    /// `K > 65536`.
    Wide(Vec<u32>),
}

/// `$body` over the sources' vector, whichever its width.
macro_rules! each_width {
    ($sources:expr, $v:ident => $body:expr) => {
        match $sources {
            Sources::Narrow($v) => $body,
            Sources::Wide($v) => $body,
        }
    };
}

impl Sources {
    /// Bytes per source of a `k`-deep operand: 2 where every B row fits
    /// 16 bits, 4 otherwise.
    pub fn width(k: usize) -> usize {
        if k <= u16::MAX as usize + 1 {
            2
        } else {
            4
        }
    }

    /// The B row of operand `i`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        each_width!(self, s => s[i] as usize)
    }
}

/// Shape, operand count and resident bytes of an [`Operands`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Output rows.
    pub rows: usize,
    /// Reduction depth K (B rows).
    pub k: usize,
    /// Stored operands.
    pub nnz: usize,
    /// Value plane, sources and row pointers, in bytes.
    pub bytes: u64,
}

/// A `rows x k` weight's operands in accumulation order: row `r`'s are
/// `values[row_ptr[r]..row_ptr[r + 1]]`, multiplying the B rows named by
/// the same range of the sources.
#[derive(Clone, Debug, PartialEq)]
pub struct Operands<T> {
    rows: usize,
    k: usize,
    row_ptr: Vec<u32>,
    values: Vec<T>,
    srcs: Sources,
}

impl<T> Operands<T> {
    /// The operand indices of row `r`.
    pub fn row(&self, r: usize) -> Range<usize> {
        self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize
    }

    /// The value plane.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// The source B rows, aligned with [`Self::values`].
    pub fn sources(&self) -> &Sources {
        &self.srcs
    }

    /// Shape, operand count and resident bytes.
    #[inline]
    pub fn extent(&self) -> Extent {
        let values = std::mem::size_of_val(self.values.as_slice());
        let srcs = each_width!(&self.srcs, s => std::mem::size_of_val(s.as_slice()));
        Extent {
            rows: self.rows,
            k: self.k,
            nnz: self.values.len(),
            bytes: (values + srcs + self.row_ptr.len() * 4) as u64,
        }
    }
}

impl Operands<u16> {
    /// The f16 operand stream of any kernel: the bit patterns and B rows
    /// [`SparseKernel::for_each_operand`] emits, rows ascending.
    pub fn condense(kernel: &dyn SparseKernel) -> Self {
        let (rows, k) = kernel.shape();
        let mut ops = OperandBuilder::new(rows, k, kernel.stored_values());
        kernel.for_each_operand(&mut |r, v, c| ops.push(r, v.to_bits(), c));
        ops.finish()
    }
}

/// Fills an [`Operands`] from operands pushed in ascending row order.
#[derive(Debug)]
pub struct OperandBuilder<T> {
    ops: Operands<T>,
    capacity: usize,
}

impl<T> OperandBuilder<T> {
    /// An empty `rows x k` container that holds up to `capacity`
    /// operands without growing. The room is reserved when the first row
    /// arrives, so a builder made before a pass allocates after the
    /// pass's own buffers.
    pub fn new(rows: usize, k: usize, capacity: usize) -> Self {
        OperandBuilder {
            ops: Operands {
                rows,
                k,
                // The starts of the rows pushed so far.
                row_ptr: Vec::with_capacity(rows + 1),
                values: Vec::new(),
                srcs: match Sources::width(k) {
                    2 => Sources::Narrow(Vec::new()),
                    _ => Sources::Wide(Vec::new()),
                },
            },
            capacity,
        }
    }

    /// Appends `value`, multiplying B row `src`, to row `row`'s operands.
    ///
    /// # Panics
    /// Panics if `row` is below the row of the previous push or is not a
    /// row of the container.
    #[inline]
    pub fn push(&mut self, row: usize, value: T, src: usize) {
        if row + 1 != self.ops.row_ptr.len() {
            self.start_row(row);
        }
        self.ops.values.push(value);
        each_width!(&mut self.ops.srcs, s => s.push(src as _));
    }

    /// Appends row `row`'s operands at once — `values`, multiplying the
    /// B rows `srcs` — as one [`Self::push`] each would.
    ///
    /// # Panics
    /// Panics unless `row` is above every row pushed so far and is a row
    /// of the container.
    pub fn extend_row(&mut self, row: usize, values: impl IntoIterator<Item = T>, srcs: &[usize]) {
        self.start_row(row);
        self.ops.values.extend(values);
        match &mut self.ops.srcs {
            Sources::Narrow(s) => s.extend(srcs.iter().map(|&c| c as u16)),
            Sources::Wide(s) => s.extend(srcs.iter().map(|&c| c as u32)),
        }
    }

    /// Starts row `row` (and any empty rows before it), reserving the
    /// room at the first row.
    fn start_row(&mut self, row: usize) {
        let ops = &mut self.ops;
        assert!(
            row + 1 > ops.row_ptr.len() && row < ops.rows,
            "operands must arrive in ascending row order"
        );
        if ops.values.capacity() == 0 {
            ops.values.reserve_exact(self.capacity);
            each_width!(&mut ops.srcs, s => s.reserve_exact(self.capacity));
        }
        ops.row_ptr.resize(row + 1, ops.values.len() as u32);
    }

    /// The container, with the rows after the last push empty and the
    /// unused room released.
    pub fn finish(self) -> Operands<T> {
        let mut ops = self.ops;
        ops.row_ptr.resize(ops.rows + 1, ops.values.len() as u32);
        ops.values.shrink_to_fit();
        each_width!(&mut ops.srcs, s => s.shrink_to_fit());
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_without_operands_get_empty_ranges() {
        let mut b = OperandBuilder::new(5, 70_000, 8);
        b.push(1, 7i8, 3);
        b.push(1, -2, 69_999);
        b.push(3, 1, 0);
        let ops = b.finish();
        let rows: Vec<_> = (0..5).map(|r| ops.row(r)).collect();
        assert_eq!(rows, [0..0, 0..2, 2..2, 2..3, 3..3]);
        assert_eq!(ops.values(), &[7, -2, 1]);
        assert_eq!(ops.sources(), &Sources::Wide(vec![3, 69_999, 0]));
        assert_eq!(ops.row(1), 0..2);
        let extent = ops.extent();
        assert_eq!((extent.nnz, extent.bytes), (3, 3 + 12 + 24));
    }

    #[test]
    fn source_width_follows_k() {
        assert_eq!(Sources::width(65_536), 2);
        assert_eq!(Sources::width(65_537), 4);
        let ops = OperandBuilder::<u16>::new(2, 65_536, 0).finish();
        assert_eq!(ops.sources(), &Sources::Narrow(Vec::new()));
        assert_eq!((ops.row(0), ops.row(1)), (0..0, 0..0));
    }

    #[test]
    #[should_panic(expected = "ascending row order")]
    fn a_row_going_back_is_refused() {
        let mut b = OperandBuilder::new(4, 8, 0);
        b.push(2, 1u16, 0);
        b.push(1, 1, 0);
    }
}
