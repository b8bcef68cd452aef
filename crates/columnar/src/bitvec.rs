//! Result bit vectors produced by scans.

/// A fixed-length bit vector; bit `i` set ⇔ row `i` satisfies the filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zeros vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        v.mask_tail();
        v
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Write 8 result bits for rows `[i, i+8)` (LSB = row `i`); used by the
    /// block-wise ByteSlice scan. Bits beyond `len` are dropped.
    #[inline]
    pub fn set_byte(&mut self, i: usize, bits: u8) {
        debug_assert_eq!(i % 8, 0);
        let w = i / 64;
        let shift = i % 64;
        self.words[w] |= (bits as u64) << shift;
        if i + 8 > self.len {
            self.mask_tail();
        }
    }

    /// Write 32 result bits for rows `[i, i+32)` (LSB = row `i`); used by
    /// the AVX2 block scan. Bits beyond `len` are dropped.
    #[inline]
    pub fn set_word32(&mut self, i: usize, bits: u32) {
        debug_assert_eq!(i % 32, 0);
        let w = i / 64;
        let shift = i % 64;
        self.words[w] |= (bits as u64) << shift;
        if i + 32 > self.len {
            self.mask_tail();
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place intersection.
    pub fn and_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Materialize the set bits as an oid list — the step between a scan's
    /// result bit vector and the lookups it drives.
    pub fn to_oids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push((wi * 64 + b) as u32);
                bits &= bits - 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_get_count() {
        let mut v = BitVec::zeros(100);
        v.set(0);
        v.set(63);
        v.set(64);
        v.set(99);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(99));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 4);
        assert_eq!(v.to_oids(), vec![0, 63, 64, 99]);
    }

    #[test]
    fn ones_masks_tail() {
        let v = BitVec::ones(70);
        assert_eq!(v.count_ones(), 70);
    }

    #[test]
    fn boolean_ops() {
        let mut a = BitVec::zeros(10);
        let mut b = BitVec::zeros(10);
        a.set(1);
        a.set(2);
        b.set(2);
        b.set(3);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c.to_oids(), vec![2]);
    }

    #[test]
    fn set_byte_block() {
        let mut v = BitVec::zeros(20);
        v.set_byte(8, 0b1010_0001);
        assert_eq!(v.to_oids(), vec![8, 13, 15]);
        // Tail truncation: writing at 16 with len 20 keeps only 4 bits.
        let mut w = BitVec::zeros(20);
        w.set_byte(16, 0xFF);
        assert_eq!(w.count_ones(), 4);
    }

    #[test]
    fn empty() {
        let v = BitVec::zeros(0);
        assert_eq!(v.count_ones(), 0);
        assert!(v.to_oids().is_empty());
        assert!(v.is_empty());
    }
}
