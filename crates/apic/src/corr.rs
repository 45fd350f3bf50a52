//! Correlation-ID sidecar for in-flight interrupt vectors.
//!
//! The flight recorder (`es2_metrics::span`) follows each virtual
//! interrupt from MSI raise to EOI by a correlation ID. Between raise and
//! injection the interrupt lives as a pending bit in the target vCPU's
//! IRR/PIR — state too compact to carry an ID — so this map rides
//! alongside the interrupt controller and pairs each pending vector with
//! the span that raised it.
//!
//! The map is strictly observational: the delivery path never reads it,
//! so populating it (tracing on) cannot perturb simulation results. With
//! tracing off it stays empty and every operation is a scan of an empty
//! vector.

use crate::vectors::Vector;

/// Vector → correlation-ID map for one vCPU. A correlation ID of 0 means
/// "none"; at most one ID is held per vector, matching the IRR's
/// coalescing of repeated raises.
#[derive(Clone, Debug, Default)]
pub struct VectorCorrMap {
    entries: Vec<(Vector, u64)>,
}

impl VectorCorrMap {
    /// An empty map.
    pub fn new() -> Self {
        VectorCorrMap::default()
    }

    /// Associate `corr` with `vector`. Returns the previously held ID
    /// (0 if none); an existing ID is *kept* — the first raise owns the
    /// span, later raises coalesce exactly as they do in the IRR.
    pub fn set(&mut self, vector: Vector, corr: u64) -> u64 {
        if let Some(&(_, existing)) = self.entries.iter().find(|&&(v, _)| v == vector) {
            return existing;
        }
        self.entries.push((vector, corr));
        0
    }

    /// Remove and return the ID for `vector` (0 if none) — called at
    /// injection, when the pending bit turns into a handler activation.
    pub fn take(&mut self, vector: Vector) -> u64 {
        if let Some(i) = self.entries.iter().position(|&(v, _)| v == vector) {
            self.entries.swap_remove(i).1
        } else {
            0
        }
    }

    /// The ID for `vector` without removing it (0 if none).
    pub fn peek(&self, vector: Vector) -> u64 {
        self.entries
            .iter()
            .find(|&&(v, _)| v == vector)
            .map_or(0, |&(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_take_roundtrip() {
        let mut m = VectorCorrMap::new();
        assert_eq!(m.set(0x42, 7), 0);
        assert_eq!(m.peek(0x42), 7);
        assert_eq!(m.take(0x42), 7);
        assert_eq!(m.take(0x42), 0);
        assert!(m.entries.is_empty());
    }

    #[test]
    fn second_set_coalesces_and_keeps_first() {
        let mut m = VectorCorrMap::new();
        assert_eq!(m.set(0x41, 1), 0);
        assert_eq!(m.set(0x41, 2), 1, "existing span is reported back");
        assert_eq!(m.take(0x41), 1, "first raise owns the span");
    }

    #[test]
    fn vectors_are_independent() {
        let mut m = VectorCorrMap::new();
        m.set(0x41, 1);
        m.set(0x42, 2);
        assert_eq!(m.take(0x42), 2);
        assert_eq!(m.peek(0x41), 1);
    }
}
