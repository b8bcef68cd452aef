//! The [`Key`] trait: unsigned integer code types that can act as sort keys.
//!
//! In a main-memory column-store all attribute values are dictionary- or
//! scale-encoded into fixed-width unsigned integer *codes* (see
//! `mcs-columnar`). A `w`-bit column is physically held in the smallest of
//! `u16`/`u32`/`u64` that fits, matching the AVX2 *bank* sizes the paper
//! uses (`b ∈ {16, 32, 64}`; 8-bit banks are excluded per the paper's
//! footnote 4).

/// An unsigned fixed-width sort-key code.
///
/// Implemented for `u16`, `u32` and `u64` only (sealed). The associated
/// constants describe the SIMD bank this key type maps to.
pub trait Key:
    Copy + Ord + Eq + Default + Send + Sync + core::fmt::Debug + sealed::Sealed + 'static
{
    /// Bank width in bits (16, 32 or 64).
    const BITS: u32;
    /// Number of SIMD lanes a 256-bit register holds for this bank.
    const LANES: usize;
    /// Maximum representable code; used as the padding sentinel.
    const MAX_KEY: Self;
    /// Widen to `u64` (codes are unsigned, zero-extended).
    fn to_u64(self) -> u64;
    /// Truncating narrow from `u64`.
    fn from_u64(v: u64) -> Self;
}

pub(crate) mod sealed {
    use crate::scratch::KeyBufs;

    /// Seals [`super::Key`] and hands each key type its own bank's
    /// ping-pong buffer pair out of a [`crate::SortScratch`].
    pub trait Sealed: Sized {
        fn bufs(b: &mut KeyBufs) -> &mut (Vec<Self>, Vec<Self>);
    }
    impl Sealed for u16 {
        fn bufs(b: &mut KeyBufs) -> &mut (Vec<u16>, Vec<u16>) {
            &mut b.k16
        }
    }
    impl Sealed for u32 {
        fn bufs(b: &mut KeyBufs) -> &mut (Vec<u32>, Vec<u32>) {
            &mut b.k32
        }
    }
    impl Sealed for u64 {
        fn bufs(b: &mut KeyBufs) -> &mut (Vec<u64>, Vec<u64>) {
            &mut b.k64
        }
    }
}

impl Key for u16 {
    const BITS: u32 = 16;
    const LANES: usize = 16;
    const MAX_KEY: Self = u16::MAX;
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_u64(v: u64) -> Self {
        v as u16
    }
}

impl Key for u32 {
    const BITS: u32 = 32;
    const LANES: usize = 8;
    const MAX_KEY: Self = u32::MAX;
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}

impl Key for u64 {
    const BITS: u32 = 64;
    const LANES: usize = 4;
    const MAX_KEY: Self = u64::MAX;
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_u64(v: u64) -> Self {
        v
    }
}

/// SIMD bank width, as in the paper's `R_i : w/[b]` notation.
///
/// A `b`-bit bank gives `S/b = 256/b` data-level parallelism on AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Bank {
    /// 16-bit banks: 16 lanes per 256-bit register.
    B16,
    /// 32-bit banks: 8 lanes per 256-bit register.
    B32,
    /// 64-bit banks: 4 lanes per 256-bit register.
    B64,
}

impl Bank {
    /// All banks, narrowest first.
    pub const ALL: [Bank; 3] = [Bank::B16, Bank::B32, Bank::B64];

    /// Bank width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            Bank::B16 => 16,
            Bank::B32 => 32,
            Bank::B64 => 64,
        }
    }

    /// SIMD lanes per 256-bit register: the degree of data parallelism `S/b`.
    #[inline]
    pub fn lanes(self) -> usize {
        (256 / self.bits()) as usize
    }

    /// Bytes occupied by one code in this bank (`b/8`).
    #[inline]
    pub fn bytes(self) -> usize {
        (self.bits() / 8) as usize
    }

    /// The narrowest bank that can hold a `width`-bit code, the paper's
    /// "minimum bank size that is enough to hold `C_i`".
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds 64.
    #[inline]
    pub fn min_for_width(width: u32) -> Bank {
        assert!(
            (1..=64).contains(&width),
            "code width must be in 1..=64, got {width}"
        );
        if width <= 16 {
            Bank::B16
        } else if width <= 32 {
            Bank::B32
        } else {
            Bank::B64
        }
    }

    /// Whether a `width`-bit code fits in this bank.
    #[inline]
    pub fn holds(self, width: u32) -> bool {
        width <= self.bits()
    }
}

impl core::fmt::Display for Bank {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}]", self.bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_geometry() {
        assert_eq!(Bank::B16.lanes(), 16);
        assert_eq!(Bank::B32.lanes(), 8);
        assert_eq!(Bank::B64.lanes(), 4);
        assert_eq!(Bank::B16.bytes(), 2);
        assert_eq!(Bank::B32.bytes(), 4);
        assert_eq!(Bank::B64.bytes(), 8);
    }

    #[test]
    fn min_bank_boundaries() {
        assert_eq!(Bank::min_for_width(1), Bank::B16);
        assert_eq!(Bank::min_for_width(16), Bank::B16);
        assert_eq!(Bank::min_for_width(17), Bank::B32);
        assert_eq!(Bank::min_for_width(32), Bank::B32);
        assert_eq!(Bank::min_for_width(33), Bank::B64);
        assert_eq!(Bank::min_for_width(64), Bank::B64);
    }

    #[test]
    #[should_panic]
    fn min_bank_rejects_zero() {
        Bank::min_for_width(0);
    }

    #[test]
    #[should_panic]
    fn min_bank_rejects_over_64() {
        Bank::min_for_width(65);
    }

    #[test]
    fn key_constants_match_banks() {
        assert_eq!(<u16 as Key>::LANES, Bank::B16.lanes());
        assert_eq!(<u32 as Key>::LANES, Bank::B32.lanes());
        assert_eq!(<u64 as Key>::LANES, Bank::B64.lanes());
    }

    #[test]
    fn holds() {
        assert!(Bank::B16.holds(16));
        assert!(!Bank::B16.holds(17));
        assert!(Bank::B64.holds(64));
    }

    #[test]
    fn display() {
        assert_eq!(Bank::B32.to_string(), "[32]");
    }
}
