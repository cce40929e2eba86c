//! Feature representations: dense (continuous) and sparse (categorical) features, and the
//! per-field specification the hardware mapper consumes.
//!
//! Following the paper's terminology (Fig. 1(c)): dense features go straight into the DNN
//! stack; sparse features index embedding tables (one table per field) and may be
//! single-valued (e.g. user occupation) or multi-hot (e.g. watch history, movie genres).

use crate::error::RecsysError;

/// Description of one sparse feature field: its name, vocabulary size and whether it is
/// multi-hot.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SparseFieldSpec {
    /// Human-readable field name (e.g. `"movie_id"`).
    pub name: String,
    /// Number of distinct values (rows of the corresponding embedding table).
    pub cardinality: usize,
    /// Whether a sample may carry multiple values for this field.
    pub multi_hot: bool,
}

impl SparseFieldSpec {
    /// Create a single-valued (one-hot) field.
    pub fn one_hot(name: impl Into<String>, cardinality: usize) -> Self {
        Self {
            name: name.into(),
            cardinality,
            multi_hot: false,
        }
    }

    /// Create a multi-hot field.
    pub fn multi_hot(name: impl Into<String>, cardinality: usize) -> Self {
        Self {
            name: name.into(),
            cardinality,
            multi_hot: true,
        }
    }
}

/// Dense (continuous) features of one sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseFeatures {
    /// Feature values, already normalized to a comparable range.
    pub values: Vec<f32>,
}

impl DenseFeatures {
    /// Wrap a vector of continuous feature values.
    pub fn new(values: Vec<f32>) -> Self {
        Self { values }
    }

    /// Number of dense features.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether there are no dense features.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Sparse (categorical) features of one sample: per field, the list of active indices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseFeatures {
    /// `fields[f]` holds the active value indices of sparse field `f`.
    pub fields: Vec<Vec<usize>>,
}

impl SparseFeatures {
    /// Wrap per-field index lists.
    pub fn new(fields: Vec<Vec<usize>>) -> Self {
        Self { fields }
    }

    /// Number of sparse fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Active indices of a field.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::IndexOutOfRange`] if the field does not exist.
    pub fn field(&self, field: usize) -> Result<&[usize], RecsysError> {
        self.fields
            .get(field)
            .map(Vec::as_slice)
            .ok_or(RecsysError::IndexOutOfRange {
                what: "sparse field",
                index: field,
                len: self.fields.len(),
            })
    }

    /// Total number of active indices across every field (the number of embedding-table
    /// lookups this sample triggers — the quantity the worst-case ET-lookup analysis of
    /// the paper depends on).
    pub fn total_lookups(&self) -> usize {
        self.fields.iter().map(Vec::len).sum()
    }

    /// Validate every index against the field specifications.
    ///
    /// # Errors
    ///
    /// Returns [`RecsysError::ShapeMismatch`] if the number of fields differs from the
    /// specification, or [`RecsysError::IndexOutOfRange`] if any index exceeds its field's
    /// cardinality or a one-hot field carries more than one value.
    pub fn validate(&self, specs: &[SparseFieldSpec]) -> Result<(), RecsysError> {
        if specs.len() != self.fields.len() {
            return Err(RecsysError::ShapeMismatch {
                what: "sparse field count",
                expected: specs.len(),
                actual: self.fields.len(),
            });
        }
        for (spec, indices) in specs.iter().zip(self.fields.iter()) {
            if !spec.multi_hot && indices.len() > 1 {
                return Err(RecsysError::InvalidConfig {
                    reason: format!(
                        "field `{}` is one-hot but carries {} values",
                        spec.name,
                        indices.len()
                    ),
                });
            }
            for &index in indices {
                if index >= spec.cardinality {
                    return Err(RecsysError::IndexOutOfRange {
                        what: "sparse feature value",
                        index,
                        len: spec.cardinality,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors() {
        let one = SparseFieldSpec::one_hot("occupation", 21);
        assert!(!one.multi_hot);
        assert_eq!(one.cardinality, 21);
        let multi = SparseFieldSpec::multi_hot("history", 3706);
        assert!(multi.multi_hot);
        assert_eq!(multi.name, "history");
    }

    #[test]
    fn dense_features_basics() {
        let d = DenseFeatures::new(vec![0.1, 0.2]);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert!(DenseFeatures::default().is_empty());
    }

    #[test]
    fn sparse_field_access_and_lookup_count() {
        let s = SparseFeatures::new(vec![vec![1, 2, 3], vec![7], vec![]]);
        assert_eq!(s.field_count(), 3);
        assert_eq!(s.field(0).unwrap(), &[1, 2, 3]);
        assert_eq!(s.field(2).unwrap(), &[] as &[usize]);
        assert!(s.field(3).is_err());
        assert_eq!(s.total_lookups(), 4);
    }

    #[test]
    fn validation_checks_cardinality_and_arity() {
        let specs = vec![
            SparseFieldSpec::multi_hot("history", 10),
            SparseFieldSpec::one_hot("gender", 2),
        ];
        let ok = SparseFeatures::new(vec![vec![0, 9], vec![1]]);
        assert!(ok.validate(&specs).is_ok());

        let bad_cardinality = SparseFeatures::new(vec![vec![10], vec![0]]);
        assert!(bad_cardinality.validate(&specs).is_err());

        let bad_arity = SparseFeatures::new(vec![vec![0], vec![0, 1]]);
        assert!(bad_arity.validate(&specs).is_err());

        let bad_field_count = SparseFeatures::new(vec![vec![0]]);
        assert!(bad_field_count.validate(&specs).is_err());
    }
}
