//! Per-thread scratch arena for plan execution.
//!
//! `plan.run(..)` needs two transient f32 buffers per call — the staged
//! RHS and (on the fused layer paths) the pre-transpose product. Leasing
//! them from a thread-local pool instead of allocating makes steady-state
//! serving allocation-free apart from the returned output, mirroring how
//! the kernel layer reuses its per-thread [`Workspace`] across blocks.
//!
//! [`Workspace`]: venom_core::spmm

use std::cell::RefCell;

thread_local! {
    /// Returned buffers, ready for re-lease. Kept small: a plan run leases
    /// at most two buffers at a time.
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A leased scratch buffer; hand it back with [`release`] when done.
///
/// The buffer comes back zero-filled at exactly `len` elements (the run
/// paths accumulate in place, so a dirty buffer would corrupt results).
pub fn lease(len: usize) -> Vec<f32> {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Elements of one 64-byte cache line of f32.
const LINE: usize = 16;

/// [`lease`] of `len` elements that start on a 64-byte boundary: returns
/// the buffer and the offset `off` of that boundary, so that
/// `buf[off..off + len]` is the zero-filled window. Hand the whole buffer
/// back with [`release`].
///
/// A staged RHS read by vectorized loops runs measurably slower when its
/// rows straddle cache lines, and a pooled buffer keeps whatever
/// alignment the heap gave it for the life of the thread; aligning the
/// window makes that cost the same on every run.
pub fn lease_aligned(len: usize) -> (Vec<f32>, usize) {
    let buf = lease(len + LINE - 1);
    // An f32 pointer is 4-aligned, so the distance to the next line is a
    // whole number of elements.
    let off = (buf.as_ptr() as usize).wrapping_neg() % (LINE * 4) / 4;
    (buf, off)
}

/// Returns a buffer to the pool for the next lease on this thread.
#[inline]
pub fn release(buf: Vec<f32>) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 4 {
            pool.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_is_zeroed_after_release() {
        let mut a = lease(8);
        a.iter_mut().for_each(|x| *x = 7.0);
        release(a);
        let b = lease(16);
        assert_eq!(b.len(), 16);
        assert!(b.iter().all(|&x| x == 0.0));
        release(b);
    }

    #[test]
    fn aligned_lease_is_a_zeroed_line_aligned_window() {
        for len in [0, 1, 15, 16, 1000] {
            let (mut buf, off) = lease_aligned(len);
            let window = &mut buf[off..off + len];
            assert_eq!(window.as_ptr() as usize % 64, 0, "len {len}");
            assert!(window.iter().all(|&x| x == 0.0));
            window.iter_mut().for_each(|x| *x = 7.0);
            release(buf);
        }
    }

    #[test]
    fn pool_is_bounded() {
        let bufs: Vec<_> = (0..8).map(|_| lease(4)).collect();
        for b in bufs {
            release(b);
        }
        POOL.with(|p| assert!(p.borrow().len() <= 4));
    }
}
