//! Run-time instruction-set dispatch for the runtime's f32 and i32 hot
//! loops.
//!
//! The dispatched loops are the operand stream's two replays, the
//! K-chunked sweep and the register panels (`Stream::sweep_band` and
//! `Stream::panels_band`, one entry each, generic over the value plane
//! and the source width: f16 and int8 plans run the same entry), and, at
//! plan-build time, the packing of a weight's nonzero mask
//! (`SparsityMask::from_nonzero_halves`, exact bit tests).
//!
//! The workspace builds for the baseline target (SSE2 on x86-64): no
//! `target-cpu`, no `.cargo/config`. A hot loop is written once, as an
//! `#[inline(always)]` body. [`avx2_dispatch!`] wraps it in an entry
//! point that, on each call, runs a `#[target_feature(enable = "avx2")]`
//! instance of that body when the host has AVX2 and the baseline
//! instance otherwise. The baseline instance doubles as the test oracle:
//! the executors' tests call the body directly and compare it with the
//! entry point bit for bit.
//!
//! Why the AVX2 instance cannot move a bit: both instances compile the
//! same source, so every output element is the same chain of IEEE
//! single-precision multiplies and adds in the same order; wider lanes
//! only evaluate more elements at once. Rust never contracts `a * b + c`
//! into a fused multiply-add, and `fma` is deliberately left disabled —
//! an FMA rounds once where the chain rounds twice. Integer bodies are
//! exact, so lane width cannot matter there either.
//!
//! One thing the instances may differ in is the payload of a NaN where
//! two NaNs meet: an x86 add or multiply returns its first operand's
//! NaN, and the compiler may order the operands of the three-operand AVX
//! forms differently from the two-operand SSE ones. Rust leaves NaN
//! payloads unspecified, and a NaN result stays NaN. Loops whose tests
//! pin NaN bits against another code path (the attention pipeline's
//! non-finite suite) therefore stay on the baseline instance.

/// Defines `$name`, a safe entry point with `$body`'s signature that runs
/// `$body` compiled for AVX2 when the host supports it and compiled for
/// the baseline target otherwise. `$body` must be `#[inline(always)]`, so
/// that it is inlined, and vectorized, inside each instance. A generic
/// entry (`fn name<T: Bound, ..>`, one trait per parameter) gets both
/// instances per set of type arguments it is called with.
macro_rules! avx2_dispatch {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident $(<$($g:ident: $bound:path),+>)?
            ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;
    ) => {
        $(#[$meta])*
        #[inline]
        $vis fn $name $(<$($g: $bound),+>)? ($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn avx2 $(<$($g: $bound),+>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: the only precondition of calling a
                    // `target_feature(enable = "avx2")` function is that
                    // the CPU implements AVX2, which the detection on the
                    // line above has just confirmed.
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

pub(crate) use avx2_dispatch;
