//! Random-hyperplane locality-sensitive hashing (LSH).
//!
//! To make the filtering-stage nearest-neighbour search IMC-friendly, the paper replaces
//! the cosine-distance search with a Hamming-distance search over LSH signatures stored
//! alongside each item-embedding row (Sec. III-B, 256-bit signatures). Random-hyperplane
//! LSH has exactly the property that makes this work: the probability that two vectors
//! agree on one signature bit is `1 − θ/π`, where `θ` is the angle between them, so
//! Hamming distance over signatures is a monotone estimator of cosine distance.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, StandardNormal};

use crate::error::RecsysError;
use crate::nns::dot;
use crate::topk::top_k_by_score;

/// A random-hyperplane LSH hasher producing fixed-length bit signatures.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomHyperplaneLsh {
    dim: usize,
    bits: usize,
    /// `bits` hyperplane normal vectors of length `dim`.
    hyperplanes: Vec<Vec<f32>>,
}

impl RandomHyperplaneLsh {
    /// Create a hasher for `dim`-dimensional vectors producing `bits`-bit signatures.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `dim` or `bits` is zero.
    pub fn new(dim: usize, bits: usize, seed: u64) -> Result<Self, RecsysError> {
        if dim == 0 || bits == 0 {
            return Err(RecsysError::InvalidConfig {
                reason: format!("LSH needs nonzero dim and bits, got dim={dim} bits={bits}"),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let hyperplanes = (0..bits)
            .map(|_| (0..dim).map(|_| StandardNormal.sample(&mut rng)).collect())
            .collect();
        Ok(Self {
            dim,
            bits,
            hyperplanes,
        })
    }

    /// The paper's configuration: 256-bit signatures.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::InvalidConfig`] if `dim` is zero.
    pub fn paper_signature(dim: usize, seed: u64) -> Result<Self, RecsysError> {
        Self::new(dim, 256, seed)
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Signature length in bits.
    pub fn signature_bits(&self) -> usize {
        self.bits
    }

    /// Number of 64-bit words of one packed signature.
    pub fn signature_words(&self) -> usize {
        self.bits.div_ceil(64)
    }

    /// Hash a vector into a packed bit signature (bit `i` = sign of the projection onto
    /// hyperplane `i`).
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if the vector has the wrong width.
    pub fn signature(&self, vector: &[f32]) -> Result<Vec<u64>, RecsysError> {
        if vector.len() != self.dim {
            return Err(RecsysError::ShapeMismatch {
                what: "lsh input vector",
                expected: self.dim,
                actual: vector.len(),
            });
        }
        let mut words = vec![0u64; self.signature_words()];
        for (bit, hyperplane) in self.hyperplanes.iter().enumerate() {
            if dot(vector, hyperplane) >= 0.0 {
                words[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        Ok(words)
    }

    /// Hamming distance between two packed signatures.
    pub fn hamming(a: &[u64], b: &[u64]) -> u32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x ^ y).count_ones())
            .sum()
    }

    /// Exact top-k by Hamming distance (smallest distance first) — the GPU-side LSH
    /// search baseline of Sec. IV-C2.
    pub fn top_k_by_hamming(query: &[u64], signatures: &[Vec<u64>], k: usize) -> Vec<usize> {
        let scored: Vec<(usize, f32)> = signatures
            .iter()
            .enumerate()
            .map(|(index, sig)| (index, -(Self::hamming(query, sig) as f32)))
            .collect();
        top_k_by_score(&scored, k)
    }

    /// Fixed-radius search: every signature whose Hamming distance to the query is at most
    /// `radius` — the software reference for the TCAM threshold match.
    pub fn within_radius(query: &[u64], signatures: &[Vec<u64>], radius: u32) -> Vec<usize> {
        signatures
            .iter()
            .enumerate()
            .filter(|(_, sig)| Self::hamming(query, sig) <= radius)
            .map(|(index, _)| index)
            .collect()
    }

    /// Expected Hamming distance between the signatures of two vectors at angle `theta`
    /// radians: `bits * theta / pi`. Useful for choosing the fixed radius.
    pub fn expected_hamming_at_angle(&self, theta: f64) -> f64 {
        self.bits as f64 * theta / std::f64::consts::PI
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn construction_validates_parameters() {
        assert!(RandomHyperplaneLsh::new(0, 256, 0).is_err());
        assert!(RandomHyperplaneLsh::new(32, 0, 0).is_err());
        let lsh = RandomHyperplaneLsh::paper_signature(32, 0).unwrap();
        assert_eq!(lsh.dim(), 32);
        assert_eq!(lsh.signature_bits(), 256);
        assert_eq!(lsh.signature_words(), 4);
    }

    #[test]
    fn signature_is_deterministic_and_shape_checked() {
        let lsh = RandomHyperplaneLsh::new(8, 64, 42).unwrap();
        let v: Vec<f32> = (0..8).map(|i| i as f32 - 4.0).collect();
        assert_eq!(lsh.signature(&v).unwrap(), lsh.signature(&v).unwrap());
        assert!(lsh.signature(&v[..4]).is_err());
    }

    #[test]
    fn identical_vectors_have_zero_distance() {
        let lsh = RandomHyperplaneLsh::new(16, 128, 1).unwrap();
        let v: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        let a = lsh.signature(&v).unwrap();
        let b = lsh.signature(&v).unwrap();
        assert_eq!(RandomHyperplaneLsh::hamming(&a, &b), 0);
    }

    #[test]
    fn opposite_vectors_have_maximal_distance() {
        let lsh = RandomHyperplaneLsh::new(16, 128, 2).unwrap();
        let v: Vec<f32> = (0..16).map(|i| (i as f32) + 1.0).collect();
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let a = lsh.signature(&v).unwrap();
        let b = lsh.signature(&neg).unwrap();
        // Sign flips on every hyperplane except the measure-zero case of exact zeros.
        assert!(RandomHyperplaneLsh::hamming(&a, &b) as usize >= 120);
    }

    #[test]
    fn hamming_tracks_angle() {
        // Nearby vectors must have smaller signature distance than near-orthogonal ones.
        let lsh = RandomHyperplaneLsh::new(32, 256, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let base: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let nearby: Vec<f32> = base
            .iter()
            .map(|x| x + rng.gen_range(-0.05..0.05f32))
            .collect();
        let orthogonalish: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
        let s_base = lsh.signature(&base).unwrap();
        let s_near = lsh.signature(&nearby).unwrap();
        let s_far = lsh.signature(&orthogonalish).unwrap();
        assert!(
            RandomHyperplaneLsh::hamming(&s_base, &s_near)
                < RandomHyperplaneLsh::hamming(&s_base, &s_far)
        );
    }

    #[test]
    fn expected_hamming_formula() {
        let lsh = RandomHyperplaneLsh::new(32, 256, 0).unwrap();
        assert!((lsh.expected_hamming_at_angle(std::f64::consts::PI) - 256.0).abs() < 1e-9);
        assert!((lsh.expected_hamming_at_angle(std::f64::consts::PI / 2.0) - 128.0).abs() < 1e-9);
        assert_eq!(lsh.expected_hamming_at_angle(0.0), 0.0);
    }

    #[test]
    fn top_k_and_radius_search_agree_with_brute_force() {
        let lsh = RandomHyperplaneLsh::new(16, 128, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let vectors: Vec<Vec<f32>> = (0..40)
            .map(|_| (0..16).map(|_| rng.gen_range(-1.0..1.0f32)).collect())
            .collect();
        let signatures: Vec<Vec<u64>> = vectors.iter().map(|v| lsh.signature(v).unwrap()).collect();
        let query = lsh.signature(&vectors[0]).unwrap();

        let top = RandomHyperplaneLsh::top_k_by_hamming(&query, &signatures, 5);
        assert_eq!(top[0], 0, "an item is nearest to itself");
        assert_eq!(top.len(), 5);

        let radius = 20;
        let within = RandomHyperplaneLsh::within_radius(&query, &signatures, radius);
        for &index in &within {
            assert!(RandomHyperplaneLsh::hamming(&query, &signatures[index]) <= radius);
        }
        for (index, signature) in signatures.iter().enumerate() {
            if !within.contains(&index) {
                assert!(RandomHyperplaneLsh::hamming(&query, signature) > radius);
            }
        }
    }

    use rand::rngs::StdRng;
    use rand::SeedableRng;
}
