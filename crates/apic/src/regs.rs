//! 256-bit interrupt register file (IRR/ISR/PIR layout).
//!
//! The Local-APIC's Interrupt Request Register, In-Service Register and the
//! posted-interrupt descriptor's PIR are all 256-bit bitmaps indexed by
//! vector number, stored as four 64-bit words exactly as in hardware.

/// A 256-bit, vector-indexed bitmap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct IrrIsr256 {
    words: [u64; 4],
}

impl IrrIsr256 {
    /// Set the bit for `vector`. Returns `true` if it was newly set.
    #[inline]
    pub(crate) fn set(&mut self, vector: u8) -> bool {
        let (w, b) = (vector as usize / 64, vector as usize % 64);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] |= mask;
        !was
    }

    /// Clear the bit for `vector`. Returns `true` if it was set.
    #[inline]
    pub(crate) fn clear(&mut self, vector: u8) -> bool {
        let (w, b) = (vector as usize / 64, vector as usize % 64);
        let mask = 1u64 << b;
        let was = self.words[w] & mask != 0;
        self.words[w] &= !mask;
        was
    }

    /// Test the bit for `vector`.
    #[inline]
    pub(crate) fn get(&self, vector: u8) -> bool {
        let (w, b) = (vector as usize / 64, vector as usize % 64);
        self.words[w] & (1u64 << b) != 0
    }

    /// The highest-numbered set vector, if any.
    ///
    /// APIC arbitration services the highest vector first (higher vector =
    /// higher priority class).
    #[inline]
    pub(crate) fn highest(&self) -> Option<u8> {
        for w in (0..4).rev() {
            if self.words[w] != 0 {
                let b = 63 - self.words[w].leading_zeros() as usize;
                return Some((w * 64 + b) as u8);
            }
        }
        None
    }

    /// True if no bit is set.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// OR another register into this one, clearing the source — the
    /// hardware PIR→vIRR synchronization step of posted-interrupt
    /// processing (atomically drains PIR into the virtual IRR).
    #[inline]
    pub(crate) fn drain_into(&mut self, dst: &mut IrrIsr256) -> u32 {
        let mut moved = 0;
        for w in 0..4 {
            moved += self.words[w].count_ones();
            dst.words[w] |= self.words[w];
            self.words[w] = 0;
        }
        moved
    }

    /// Clear everything.
    pub(crate) fn clear_all(&mut self) {
        self.words = [0; 4];
    }

    /// Iterate set vectors in ascending order.
    pub(crate) fn iter_set(&self) -> impl Iterator<Item = u8> + '_ {
        (0u16..256).filter(|&v| self.get(v as u8)).map(|v| v as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_clear() {
        let mut r = IrrIsr256::default();
        assert!(r.set(0x41));
        assert!(!r.set(0x41), "second set reports already-set");
        assert!(r.get(0x41));
        assert!(r.clear(0x41));
        assert!(!r.clear(0x41), "second clear reports already-clear");
        assert!(!r.get(0x41));
    }

    #[test]
    fn highest_prefers_high_vectors() {
        let mut r = IrrIsr256::default();
        assert_eq!(r.highest(), None);
        r.set(0x21);
        r.set(0xef);
        r.set(0x80);
        assert_eq!(r.highest(), Some(0xef));
        r.clear(0xef);
        assert_eq!(r.highest(), Some(0x80));
    }

    #[test]
    fn boundary_vectors() {
        let mut r = IrrIsr256::default();
        r.set(0);
        r.set(63);
        r.set(64);
        r.set(255);
        assert_eq!(r.iter_set().count(), 4);
        assert_eq!(r.highest(), Some(255));
        assert!(r.get(63) && r.get(64));
    }

    #[test]
    fn drain_moves_and_clears() {
        let mut pir = IrrIsr256::default();
        let mut virr = IrrIsr256::default();
        pir.set(0x30);
        pir.set(0xa0);
        virr.set(0x30); // overlap: OR semantics
        let moved = pir.drain_into(&mut virr);
        assert_eq!(moved, 2);
        assert!(pir.is_empty());
        assert!(virr.get(0x30) && virr.get(0xa0));
        assert_eq!(virr.iter_set().count(), 2);
    }

    #[test]
    fn iter_set_ascending() {
        let mut r = IrrIsr256::default();
        for v in [5u8, 200, 64, 63] {
            r.set(v);
        }
        let got: Vec<u8> = r.iter_set().collect();
        assert_eq!(got, vec![5, 63, 64, 200]);
    }

    proptest! {
        /// highest/is_empty/iter_set agree with a model set.
        #[test]
        fn prop_matches_set_model(ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 0..200)) {
            let mut r = IrrIsr256::default();
            let mut model = std::collections::BTreeSet::new();
            for (v, set) in ops {
                if set {
                    r.set(v);
                    model.insert(v);
                } else {
                    r.clear(v);
                    model.remove(&v);
                }
            }
            prop_assert_eq!(r.iter_set().count(), model.len());
            prop_assert_eq!(r.highest(), model.iter().next_back().copied());
            prop_assert_eq!(r.is_empty(), model.is_empty());
            let got: Vec<u8> = r.iter_set().collect();
            let want: Vec<u8> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }
    }
}
