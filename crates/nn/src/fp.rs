//! Flush-to-zero floating-point mode for the compute entry points.
//!
//! A subnormal `f32` (magnitude below 2⁻¹²⁶) costs a microcode assist on
//! every x86 operation that reads or produces one, roughly a hundred
//! cycles instead of one. Training produces them as it goes on: softmax
//! outputs underflow, the softmax backward carries them on, and the
//! ReLU backward hands them to the `dX` products, so an update slows
//! down within a few hundred updates (DESIGN.md §3e has the numbers).
//! Adam moments, parameters and replay rows hold none.
//!
//! [`flush_to_zero`] returns a guard that sets the calling thread's
//! MXCSR FTZ (results that would be subnormal become `+0.0`) and DAZ
//! (subnormal operands read as zero) bits and restores the saved MXCSR
//! when it drops, also while unwinding. Each public compute call opens
//! one guard around its whole body, never one per kernel call:
//! `Trainer::update_all_trainers` (and each of its update worker
//! threads), `Rollout::select_actions` / `select_greedy`, and the serve
//! engine's `infer`. So the numerics of a call depend neither on the
//! thread that makes it nor on the mode its caller set, and no mode
//! leaks back out.
//!
//! On targets other than x86_64 the guard does nothing and arithmetic
//! keeps IEEE gradual underflow.
//!
//! ```
//! use std::hint::black_box;
//!
//! let tiny = black_box(1e-20f32);
//! let product = {
//!     let _fp = marl_nn::fp::flush_to_zero();
//!     black_box(tiny * tiny) // 1e-40 is subnormal
//! };
//! if cfg!(target_arch = "x86_64") {
//!     assert_eq!(product.to_bits(), 0);
//! }
//! ```

use std::marker::PhantomData;

#[cfg(target_arch = "x86_64")]
mod mxcsr {
    use std::arch::asm;

    /// Flush-to-zero: results that would be subnormal are `+0.0`.
    pub(super) const FTZ: u32 = 1 << 15;
    /// Denormals-are-zero: subnormal operands are read as `+0.0`.
    pub(super) const DAZ: u32 = 1 << 6;

    #[inline]
    pub(super) fn read() -> u32 {
        let mut csr = 0u32;
        // SAFETY: stores the 32-bit MXCSR into `csr`, a live `u32`.
        unsafe { asm!("stmxcsr [{}]", in(reg) &mut csr, options(nostack, preserves_flags)) };
        csr
    }

    /// Loads `csr` into MXCSR. Callers pass a word [`read`] returned,
    /// possibly with FTZ/DAZ set, so no reserved bit is ever set and the
    /// load cannot fault.
    #[inline]
    pub(super) fn write(csr: u32) {
        // SAFETY: reads the 32-bit word `csr`; see the function docs for
        // why its value is a valid MXCSR.
        unsafe { asm!("ldmxcsr [{}]", in(reg) &csr, options(nostack, preserves_flags, readonly)) };
    }
}

/// Holds the calling thread in flush-to-zero mode until dropped; see the
/// [module docs](self). Not `Send`: the mode belongs to one thread.
#[must_use = "the previous mode is restored when the guard drops"]
#[derive(Debug)]
pub struct FtzGuard {
    #[cfg(target_arch = "x86_64")]
    saved: u32,
    _thread: PhantomData<*const ()>,
}

/// Sets FTZ|DAZ on the calling thread and returns the guard that
/// restores the previous mode. A no-op on targets other than x86_64.
#[inline]
pub fn flush_to_zero() -> FtzGuard {
    #[cfg(target_arch = "x86_64")]
    {
        let saved = mxcsr::read();
        mxcsr::write(saved | mxcsr::FTZ | mxcsr::DAZ);
        FtzGuard { saved, _thread: PhantomData }
    }
    #[cfg(not(target_arch = "x86_64"))]
    FtzGuard { _thread: PhantomData }
}

impl Drop for FtzGuard {
    #[inline]
    fn drop(&mut self) {
        #[cfg(target_arch = "x86_64")]
        mxcsr::write(self.saved);
    }
}

/// The calling thread's floating-point control/status word: MXCSR on
/// x86_64, `0` elsewhere. For checking that a call left the mode as it
/// found it.
pub fn control_word() -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        mxcsr::read()
    }
    #[cfg(not(target_arch = "x86_64"))]
    0
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::mxcsr::{DAZ, FTZ};
    use super::*;
    use std::hint::black_box;

    /// 1e-20², which is 1e-40: subnormal under IEEE arithmetic.
    fn tiny_product() -> f32 {
        black_box(black_box(1e-20f32) * black_box(1e-20f32))
    }

    /// The smallest subnormal times 2²⁴, which is 2⁻¹²⁵: a normal result,
    /// so only DAZ (not FTZ) can make it zero.
    fn scaled_subnormal() -> f32 {
        black_box(black_box(f32::from_bits(1)) * black_box(16_777_216.0f32))
    }

    #[test]
    fn without_a_guard_arithmetic_is_ieee() {
        assert_eq!(control_word() & (FTZ | DAZ), 0, "test threads start in IEEE mode");
        let p = tiny_product();
        assert!(p.is_subnormal(), "{p:e}");
        assert_eq!(scaled_subnormal(), 2f32.powi(-125));
    }

    #[test]
    fn a_subnormal_product_flushes_to_positive_zero() {
        let p = {
            let _fp = flush_to_zero();
            tiny_product()
        };
        assert_eq!(p.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn a_subnormal_operand_reads_as_zero() {
        let x = {
            let _fp = flush_to_zero();
            scaled_subnormal()
        };
        assert_eq!(x.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn dropping_the_guard_restores_the_saved_word() {
        let before = control_word();
        {
            let _fp = flush_to_zero();
            assert_eq!(control_word(), before | FTZ | DAZ);
        }
        assert_eq!(control_word(), before);
        assert!(tiny_product().is_subnormal());
    }

    #[test]
    fn nested_guards_restore_each_level() {
        let before = control_word();
        let outer = flush_to_zero();
        let in_outer = control_word();
        {
            let _inner = flush_to_zero();
            assert_eq!(control_word(), in_outer);
        }
        // A caller that already had FTZ|DAZ keeps it after the inner call.
        assert_eq!(control_word(), in_outer);
        assert_eq!(tiny_product().to_bits(), 0);
        drop(outer);
        assert_eq!(control_word(), before);
    }

    #[test]
    fn a_panic_inside_the_guard_still_restores_the_mode() {
        let before = control_word();
        let caught = std::panic::catch_unwind(|| {
            let _fp = flush_to_zero();
            assert_ne!(control_word(), before);
            panic!("unwinding through the guard");
        });
        assert!(caught.is_err());
        assert_eq!(control_word(), before);
        assert!(tiny_product().is_subnormal());
    }
}
