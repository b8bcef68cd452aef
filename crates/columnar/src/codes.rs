//! Fixed-width unsigned code storage.
//!
//! Encoded columns hold `w`-bit codes in the smallest power-of-two byte
//! width that fits — the paper's `size(w) = 2^⌈log2⌈w/8⌉⌉` bytes (§4,
//! "Estimating T_lookup"). A [`CodeVec`] is that physical container.

/// `size(w)`: bytes of the smallest power-of-two-width integer type that
/// holds a `w`-bit code. `size(15) = 2`, `size(17) = 4`, `size(33) = 8`.
pub fn size_of_width(w: u32) -> usize {
    assert!(
        (1..=64).contains(&w),
        "code width must be in 1..=64, got {w}"
    );
    let bytes = w.div_ceil(8);
    (bytes.next_power_of_two()) as usize
}

/// A vector of fixed-width codes in their physical storage type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeVec {
    /// Codes of width 1–8 bits.
    U8(Vec<u8>),
    /// Codes of width 9–16 bits.
    U16(Vec<u16>),
    /// Codes of width 17–32 bits.
    U32(Vec<u32>),
    /// Codes of width 33–64 bits.
    U64(Vec<u64>),
}

impl CodeVec {
    /// Allocate a zeroed code vector of `n` codes for a `width`-bit column.
    pub fn zeroed(width: u32, n: usize) -> CodeVec {
        match size_of_width(width) {
            1 => CodeVec::U8(vec![0; n]),
            2 => CodeVec::U16(vec![0; n]),
            4 => CodeVec::U32(vec![0; n]),
            _ => CodeVec::U64(vec![0; n]),
        }
    }

    /// Build from `u64` values, storing them at the physical width for
    /// `width` bits. Values must fit in `width` bits. The vector is sized
    /// from the iterator's size hint, so an exact-size source fills one
    /// allocation.
    pub fn from_u64s(width: u32, vals: impl IntoIterator<Item = u64>) -> CodeVec {
        let vals = vals.into_iter().inspect(|&v| {
            debug_assert!(
                width == 64 || v < (1u64 << width),
                "value {v} does not fit in {width} bits"
            )
        });
        match size_of_width(width) {
            1 => CodeVec::U8(vals.map(|v| v as u8).collect()),
            2 => CodeVec::U16(vals.map(|v| v as u16).collect()),
            4 => CodeVec::U32(vals.map(|v| v as u32).collect()),
            _ => CodeVec::U64(vals.collect()),
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        match self {
            CodeVec::U8(x) => x.len(),
            CodeVec::U16(x) => x.len(),
            CodeVec::U32(x) => x.len(),
            CodeVec::U64(x) => x.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Read code `i`, widened to `u64`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            CodeVec::U8(x) => x[i] as u64,
            CodeVec::U16(x) => x[i] as u64,
            CodeVec::U32(x) => x[i] as u64,
            CodeVec::U64(x) => x[i],
        }
    }

    /// Write code `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: u64) {
        match self {
            CodeVec::U8(x) => x[i] = v as u8,
            CodeVec::U16(x) => x[i] = v as u16,
            CodeVec::U32(x) => x[i] = v as u32,
            CodeVec::U64(x) => x[i] = v,
        }
    }

    /// Physical bytes per code.
    pub fn code_bytes(&self) -> usize {
        match self {
            CodeVec::U8(_) => 1,
            CodeVec::U16(_) => 2,
            CodeVec::U32(_) => 4,
            CodeVec::U64(_) => 8,
        }
    }

    /// Iterate all codes widened to `u64`.
    pub fn iter_u64(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            CodeVec::U8(x) => Box::new(x.iter().map(|&v| v as u64)),
            CodeVec::U16(x) => Box::new(x.iter().map(|&v| v as u64)),
            CodeVec::U32(x) => Box::new(x.iter().map(|&v| v as u64)),
            CodeVec::U64(x) => Box::new(x.iter().copied()),
        }
    }

    /// Gather `codes[oids[i]]` into a new vector of the same physical type
    /// (the column-store *lookup* operator, cost `T_lookup`, Eq. 3).
    pub fn gather(&self, oids: &[u32]) -> CodeVec {
        match self {
            CodeVec::U8(x) => CodeVec::U8(oids.iter().map(|&o| x[o as usize]).collect()),
            CodeVec::U16(x) => CodeVec::U16(oids.iter().map(|&o| x[o as usize]).collect()),
            CodeVec::U32(x) => CodeVec::U32(oids.iter().map(|&o| x[o as usize]).collect()),
            CodeVec::U64(x) => CodeVec::U64(oids.iter().map(|&o| x[o as usize]).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_of_width_matches_paper() {
        assert_eq!(size_of_width(1), 1);
        assert_eq!(size_of_width(8), 1);
        assert_eq!(size_of_width(9), 2);
        assert_eq!(size_of_width(15), 2); // paper: int16
        assert_eq!(size_of_width(17), 4); // paper: int32
        assert_eq!(size_of_width(32), 4);
        assert_eq!(size_of_width(33), 8);
        assert_eq!(size_of_width(64), 8);
    }

    #[test]
    fn storage_type_selection() {
        assert!(matches!(CodeVec::zeroed(7, 3), CodeVec::U8(_)));
        assert!(matches!(CodeVec::zeroed(12, 3), CodeVec::U16(_)));
        assert!(matches!(CodeVec::zeroed(17, 3), CodeVec::U32(_)));
        assert!(matches!(CodeVec::zeroed(48, 3), CodeVec::U64(_)));
    }

    #[test]
    fn roundtrip() {
        let cv = CodeVec::from_u64s(12, [1u64, 4095, 0]);
        assert_eq!(cv.len(), 3);
        assert_eq!(cv.get(1), 4095);
        assert_eq!(cv.code_bytes(), 2);
        let collected: Vec<u64> = cv.iter_u64().collect();
        assert_eq!(collected, vec![1, 4095, 0]);
    }

    #[test]
    fn gather_reorders() {
        let cv = CodeVec::from_u64s(20, [10u64, 20, 30, 40]);
        let g = cv.gather(&[3, 0, 2]);
        assert_eq!(g.iter_u64().collect::<Vec<_>>(), vec![40, 10, 30]);
    }

    #[test]
    #[should_panic]
    fn size_of_width_rejects_zero() {
        size_of_width(0);
    }

    #[test]
    fn set_get() {
        let mut cv = CodeVec::zeroed(33, 4);
        cv.set(2, 1 << 32);
        assert_eq!(cv.get(2), 1 << 32);
    }
}
