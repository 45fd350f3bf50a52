//! Generation tokens for cancellable scheduled events.
//!
//! A discrete-event simulation frequently needs to "cancel" an event that is
//! already in the queue (e.g. a thread's segment-completion event when the
//! thread is preempted). Removing from a binary heap is O(n); the standard
//! trick is *lazy invalidation*: the owner keeps a [`GenToken`], every
//! scheduled event captures the token's current generation, and bumping the
//! token invalidates all outstanding events at once. Handlers check
//! [`GenToken::is_current`] and drop stale events.

/// A monotonically increasing generation counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GenToken(u64);

impl GenToken {
    /// A fresh token at generation zero.
    pub const fn new() -> Self {
        GenToken(0)
    }

    /// Invalidate all events that captured earlier generations and return
    /// the new generation.
    #[inline]
    pub fn bump(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }

    /// True if `gen` was captured from the token's present generation.
    #[inline]
    pub fn is_current(&self, gen: u64) -> bool {
        self.0 == gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_validates_its_own_generation() {
        let t = GenToken::new();
        assert!(t.is_current(t.0));
    }

    #[test]
    fn bump_invalidates_prior_generations() {
        let mut t = GenToken::new();
        let g0 = t.0;
        let g1 = t.bump();
        assert!(!t.is_current(g0));
        assert!(t.is_current(g1));
        assert_eq!(g1, g0 + 1);
    }

    #[test]
    fn repeated_bumps_stay_monotone() {
        let mut t = GenToken::new();
        let mut prev = t.0;
        for _ in 0..100 {
            let g = t.bump();
            assert!(g > prev);
            prev = g;
        }
    }
}
