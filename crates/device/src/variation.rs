//! Process-variation modelling for the FeFET CMA.
//!
//! The paper points out that the dummy-cell reference current of the CAM sense amplifier
//! "can be adjusted to compensate for process variations or to change the sensitivity of
//! the Hamming distance in the NNS operation". This module quantifies that statement: it
//! Monte-Carlo samples per-cell on-current variation and evaluates how often a
//! threshold-match decision flips, as a function of the Hamming-distance threshold and the
//! variation strength.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

use crate::error::DeviceError;
use crate::technology::TechnologyParams;

/// Result of a Monte-Carlo evaluation of threshold-match robustness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchErrorRate {
    /// Probability that a row whose true mismatch count is exactly at the threshold is
    /// incorrectly rejected (false negative).
    pub false_negative_rate: f64,
    /// Probability that a row whose true mismatch count is one above the threshold is
    /// incorrectly accepted (false positive).
    pub false_positive_rate: f64,
    /// Number of Monte-Carlo samples evaluated per rate.
    pub samples: usize,
}

/// Monte-Carlo model of per-cell current variation in the TCAM search path.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    tech: TechnologyParams,
    /// Relative (1-sigma) variation of the per-cell mismatch current.
    sigma_relative: f64,
    /// RNG seed so experiments are reproducible.
    seed: u64,
}

impl VariationModel {
    /// Create a variation model.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if `sigma_relative` is negative or not
    /// finite.
    pub fn new(
        tech: TechnologyParams,
        sigma_relative: f64,
        seed: u64,
    ) -> Result<Self, DeviceError> {
        if !sigma_relative.is_finite() || sigma_relative < 0.0 {
            return Err(DeviceError::InvalidParameter {
                name: "sigma_relative",
                reason: format!("must be a non-negative finite number, got {sigma_relative}"),
            });
        }
        Ok(Self {
            tech,
            sigma_relative,
            seed,
        })
    }

    /// Relative 1-sigma current variation.
    pub fn sigma_relative(&self) -> f64 {
        self.sigma_relative
    }

    /// Monte-Carlo estimate of the false-negative / false-positive rates of a threshold
    /// match at `threshold` mismatches out of `word_bits` searched bits.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidParameter`] if `samples` is zero or `threshold`
    /// exceeds `word_bits`.
    pub fn search_error_rate(
        &self,
        word_bits: usize,
        threshold: usize,
        samples: usize,
    ) -> Result<SearchErrorRate, DeviceError> {
        if samples == 0 {
            return Err(DeviceError::InvalidParameter {
                name: "samples",
                reason: "need at least one Monte-Carlo sample".to_string(),
            });
        }
        if threshold >= word_bits {
            return Err(DeviceError::InvalidParameter {
                name: "threshold",
                reason: format!("threshold {threshold} must be below the word width {word_bits}"),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let i_on = self.tech.fefet_on_current_ua;
        let i_off = self.tech.fefet_off_current_ua;
        let reference_ua = (threshold as f64 + 0.5) * i_on;
        let noise = Normal::new(0.0, (self.sigma_relative * i_on).max(f64::MIN_POSITIVE))
            .expect("sigma is finite and non-negative");

        let row_current = |mismatches: usize, rng: &mut StdRng| -> f64 {
            let mut total = 0.0;
            for _ in 0..mismatches {
                total += (i_on + noise.sample(rng)).max(0.0);
            }
            let matching = word_bits - mismatches;
            total += matching as f64 * 2.0 * i_off;
            total
        };

        let mut false_negatives = 0usize;
        let mut false_positives = 0usize;
        for _ in 0..samples {
            // A row exactly at the threshold should match (current below reference).
            if row_current(threshold, &mut rng) >= reference_ua {
                false_negatives += 1;
            }
            // A row one above the threshold should not match.
            if row_current(threshold + 1, &mut rng) < reference_ua {
                false_positives += 1;
            }
        }
        Ok(SearchErrorRate {
            false_negative_rate: false_negatives as f64 / samples as f64,
            false_positive_rate: false_positives as f64 / samples as f64,
            samples,
        })
    }

    /// The additional reference-current guard margin (in µA) needed to keep the
    /// false-negative rate of an at-threshold row below roughly 0.1 % under this model,
    /// assuming Gaussian accumulation of the per-cell variation (3-sigma rule).
    pub fn reference_margin_ua(&self, threshold: usize) -> f64 {
        let per_cell_sigma = self.sigma_relative * self.tech.fefet_on_current_ua;
        3.0 * per_cell_sigma * (threshold.max(1) as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(sigma: f64) -> VariationModel {
        VariationModel::new(TechnologyParams::predictive_45nm(), sigma, 42).unwrap()
    }

    #[test]
    fn zero_variation_makes_no_errors() {
        let rates = model(0.0).search_error_rate(256, 16, 200).unwrap();
        assert_eq!(rates.false_negative_rate, 0.0);
        assert_eq!(rates.false_positive_rate, 0.0);
    }

    #[test]
    fn large_variation_causes_errors() {
        let rates = model(0.5).search_error_rate(256, 32, 500).unwrap();
        assert!(rates.false_negative_rate + rates.false_positive_rate > 0.0);
    }

    #[test]
    fn error_rate_increases_with_variation() {
        let low = model(0.02).search_error_rate(256, 32, 500).unwrap();
        let high = model(0.4).search_error_rate(256, 32, 500).unwrap();
        let low_total = low.false_negative_rate + low.false_positive_rate;
        let high_total = high.false_negative_rate + high.false_positive_rate;
        assert!(high_total >= low_total);
    }

    #[test]
    fn reference_margin_grows_with_threshold_and_sigma() {
        let m = model(0.1);
        assert!(m.reference_margin_ua(64) > m.reference_margin_ua(4));
        assert!(model(0.2).reference_margin_ua(16) > model(0.1).reference_margin_ua(16));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(VariationModel::new(TechnologyParams::predictive_45nm(), -0.1, 1).is_err());
        assert!(VariationModel::new(TechnologyParams::predictive_45nm(), f64::NAN, 1).is_err());
        let m = model(0.1);
        assert!(m.search_error_rate(256, 16, 0).is_err());
        assert!(m.search_error_rate(16, 16, 10).is_err());
    }

    #[test]
    fn results_are_reproducible_for_a_seed() {
        let a = model(0.3).search_error_rate(128, 16, 300).unwrap();
        let b = model(0.3).search_error_rate(128, 16, 300).unwrap();
        assert_eq!(a, b);
    }
}
