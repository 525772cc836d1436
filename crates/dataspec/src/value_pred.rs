//! Last-value-plus-stride prediction.

use std::hash::Hash;

use loopspec_core::hash::FastMap;

/// Outcome of presenting an observed value to a [`StridePredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOutcome {
    /// Fewer than two prior observations existed — no prediction could be
    /// made ("the difference between the last two consecutive iterations"
    /// needs two of them).
    Cold,
    /// The prediction `last + stride` matched the observation.
    Correct,
    /// The prediction missed.
    Incorrect,
}

impl PredOutcome {
    /// `true` only for [`PredOutcome::Correct`].
    pub fn is_correct(self) -> bool {
        matches!(self, PredOutcome::Correct)
    }
}

/// One last-value + stride predictor: the (last value, stride) pair the
/// LIT keeps per live-in location.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Stride {
    last: u64,
    stride: i64,
    observations: u32,
}

impl Stride {
    /// Checks the prediction against `value`, then trains on it.
    #[inline]
    pub(crate) fn observe(&mut self, value: u64) -> PredOutcome {
        let outcome = if self.observations < 2 {
            PredOutcome::Cold
        } else if self.predict() == value {
            PredOutcome::Correct
        } else {
            PredOutcome::Incorrect
        };
        if self.observations > 0 {
            self.stride = value.wrapping_sub(self.last) as i64;
        }
        self.last = value;
        self.observations = self.observations.saturating_add(1);
        outcome
    }

    #[inline]
    fn predict(&self) -> u64 {
        self.last.wrapping_add(self.stride as u64)
    }
}

/// A map of last-value + stride predictors keyed by `K` (the paper keys
/// by loop × live-in location). Keys are hashed with a fast
/// non-cryptographic hasher: they are meant to be simulator-generated.
///
/// [`StridePredictor::observe`] both *checks* the prediction for the new
/// observation and *trains* on it, in that order — exactly the roll the
/// LIT performs when a new iteration of a loop begins.
///
/// ```
/// use loopspec_dataspec::{StridePredictor, PredOutcome};
/// let mut p: StridePredictor<&str> = StridePredictor::new();
/// assert_eq!(p.observe("x", 10), PredOutcome::Cold);      // first sight
/// assert_eq!(p.observe("x", 13), PredOutcome::Cold);      // stride trains (3)
/// assert_eq!(p.observe("x", 16), PredOutcome::Correct);   // 13 + 3
/// assert_eq!(p.observe("x", 20), PredOutcome::Incorrect); // 16 + 3 != 20
/// ```
#[derive(Debug, Clone)]
pub struct StridePredictor<K> {
    states: FastMap<K, Stride>,
}

impl<K: Eq + Hash> Default for StridePredictor<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash> StridePredictor<K> {
    /// Creates an empty (unbounded) predictor map.
    pub fn new() -> Self {
        StridePredictor {
            states: FastMap::default(),
        }
    }

    /// Checks the prediction for `key` against `value`, then trains on
    /// `value`.
    pub fn observe(&mut self, key: K, value: u64) -> PredOutcome {
        self.states.entry(key).or_default().observe(value)
    }

    /// Peeks at the current prediction for `key` without training.
    pub fn predict(&self, key: &K) -> Option<u64> {
        self.states
            .get(key)
            .filter(|st| st.observations >= 2)
            .map(Stride::predict)
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_values_predict_after_two_sightings() {
        let mut p: StridePredictor<u32> = StridePredictor::new();
        assert_eq!(p.observe(1, 42), PredOutcome::Cold);
        assert_eq!(p.observe(1, 42), PredOutcome::Cold);
        for _ in 0..5 {
            assert_eq!(p.observe(1, 42), PredOutcome::Correct);
        }
    }

    #[test]
    fn strided_sequence_tracks() {
        let mut p: StridePredictor<u32> = StridePredictor::new();
        p.observe(7, 100);
        p.observe(7, 110);
        for v in (120..200).step_by(10) {
            assert_eq!(p.observe(7, v), PredOutcome::Correct);
        }
    }

    #[test]
    fn stride_change_misses_once_then_recovers() {
        let mut p: StridePredictor<u32> = StridePredictor::new();
        p.observe(1, 0);
        p.observe(1, 1);
        assert_eq!(p.observe(1, 2), PredOutcome::Correct);
        assert_eq!(p.observe(1, 10), PredOutcome::Incorrect); // stride breaks
        assert_eq!(p.observe(1, 18), PredOutcome::Correct); // new stride 8
    }

    #[test]
    fn negative_strides_and_wrapping() {
        let mut p: StridePredictor<u32> = StridePredictor::new();
        p.observe(1, 10);
        p.observe(1, 7);
        assert_eq!(p.observe(1, 4), PredOutcome::Correct);
        assert_eq!(p.observe(1, 1), PredOutcome::Correct);
        // 1 - 3 wraps below zero in u64 space.
        assert_eq!(p.observe(1, 1u64.wrapping_sub(3)), PredOutcome::Correct);
    }

    #[test]
    fn keys_are_independent() {
        let mut p: StridePredictor<(u32, u32)> = StridePredictor::new();
        p.observe((1, 1), 5);
        p.observe((1, 2), 1000);
        p.observe((1, 1), 6);
        p.observe((1, 2), 2000);
        assert_eq!(p.observe((1, 1), 7), PredOutcome::Correct);
        assert_eq!(p.observe((1, 2), 3000), PredOutcome::Correct);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn predict_peek_matches_observe() {
        let mut p: StridePredictor<u32> = StridePredictor::new();
        assert_eq!(p.predict(&1), None);
        p.observe(1, 4);
        assert_eq!(p.predict(&1), None); // still cold
        p.observe(1, 6);
        assert_eq!(p.predict(&1), Some(8));
    }
}
