//! Shared decoder infrastructure: the sparse detector-by-error matrix view
//! of a DEM and common error types.

use std::error::Error;
use std::fmt;

use asynd_circuit::DetectorErrorModel;
use asynd_pauli::BitVec;

/// Errors raised while constructing decoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecoderError {
    /// The DEM has more observables than the decoder's compact
    /// representation supports (64).
    TooManyObservables {
        /// Number of observables in the DEM.
        found: usize,
    },
}

impl fmt::Display for DecoderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecoderError::TooManyObservables { found } => {
                write!(
                    f,
                    "detector error model has {found} observables, more than the supported 64"
                )
            }
        }
    }
}

impl Error for DecoderError {}

/// A sparse column view of a DEM: for every error mechanism, its detectors,
/// prior probability and packed observable mask; and for every detector, the
/// list of mechanisms touching it.
///
/// This is the common substrate of the BP-OSD and union-find decoders.
#[derive(Debug, Clone)]
pub struct DecodeMatrix {
    num_detectors: usize,
    num_observables: usize,
    /// Per-error detector lists (columns).
    columns: Vec<Vec<usize>>,
    /// Per-error prior probabilities.
    priors: Vec<f64>,
    /// Per-error observable masks, bit i set when the error flips observable i.
    observable_masks: Vec<u64>,
    /// Per-detector list of incident errors (rows).
    rows: Vec<Vec<usize>>,
}

impl DecodeMatrix {
    /// Builds the matrix view of a DEM.
    ///
    /// # Errors
    ///
    /// Returns [`DecoderError::TooManyObservables`] when the DEM has more
    /// than 64 observables.
    pub fn new(dem: &DetectorErrorModel) -> Result<Self, DecoderError> {
        if dem.num_observables() > 64 {
            return Err(DecoderError::TooManyObservables { found: dem.num_observables() });
        }
        let mut columns = Vec::with_capacity(dem.errors().len());
        let mut priors = Vec::with_capacity(dem.errors().len());
        let mut observable_masks = Vec::with_capacity(dem.errors().len());
        let mut rows = vec![Vec::new(); dem.num_detectors()];
        for (j, error) in dem.errors().iter().enumerate() {
            for &d in &error.detectors {
                rows[d].push(j);
            }
            columns.push(error.detectors.clone());
            priors.push(error.probability.clamp(1e-12, 1.0 - 1e-12));
            let mut mask = 0u64;
            for &o in &error.observables {
                mask |= 1 << o;
            }
            observable_masks.push(mask);
        }
        Ok(DecodeMatrix {
            num_detectors: dem.num_detectors(),
            num_observables: dem.num_observables(),
            columns,
            priors,
            observable_masks,
            rows,
        })
    }

    /// Number of detectors (matrix rows).
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of observables.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Number of error mechanisms (matrix columns).
    pub fn num_errors(&self) -> usize {
        self.columns.len()
    }

    /// The detectors flipped by error `j`.
    pub fn column(&self, j: usize) -> &[usize] {
        &self.columns[j]
    }

    /// The errors incident on detector `d`.
    pub fn row(&self, d: usize) -> &[usize] {
        &self.rows[d]
    }

    /// Prior log-likelihood ratio `ln((1-p)/p)` of error `j`.
    pub fn prior_llr(&self, j: usize) -> f64 {
        ((1.0 - self.priors[j]) / self.priors[j]).ln()
    }

    /// Packed observable mask of error `j`.
    pub fn observable_mask(&self, j: usize) -> u64 {
        self.observable_masks[j]
    }

    /// Expands a packed observable mask into a [`BitVec`] prediction.
    pub fn mask_to_bitvec(&self, mask: u64) -> BitVec {
        BitVec::from_bools((0..self.num_observables).map(|i| (mask >> i) & 1 == 1))
    }

    /// The syndrome produced by a set of errors (XOR of their columns).
    pub fn syndrome_of(&self, errors: &[usize]) -> BitVec {
        let mut syndrome = BitVec::zeros(self.num_detectors);
        for &j in errors {
            for &d in &self.columns[j] {
                syndrome.flip(d);
            }
        }
        syndrome
    }

    /// The combined observable mask of a set of errors.
    pub fn observables_of(&self, errors: &[usize]) -> u64 {
        errors.iter().fold(0u64, |acc, &j| acc ^ self.observable_masks[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asynd_circuit::DemError;

    fn toy_dem() -> DetectorErrorModel {
        DetectorErrorModel::from_parts(
            3,
            2,
            vec![
                DemError { probability: 0.1, detectors: vec![0], observables: vec![0] },
                DemError { probability: 0.2, detectors: vec![0, 1], observables: vec![] },
                DemError { probability: 0.3, detectors: vec![1, 2], observables: vec![1] },
            ],
        )
    }

    #[test]
    fn matrix_view_shapes() {
        let m = DecodeMatrix::new(&toy_dem()).unwrap();
        assert_eq!(m.num_detectors(), 3);
        assert_eq!(m.num_errors(), 3);
        assert_eq!(m.row(0), &[0, 1]);
        assert_eq!(m.row(2), &[2]);
        assert_eq!(m.column(1), &[0, 1]);
        assert_eq!(m.observable_mask(0), 0b01);
        assert_eq!(m.observable_mask(2), 0b10);
        assert!(m.prior_llr(0) > m.prior_llr(2));
    }

    #[test]
    fn syndrome_and_observables_of_sets() {
        let m = DecodeMatrix::new(&toy_dem()).unwrap();
        let syndrome = m.syndrome_of(&[0, 2]);
        assert_eq!(syndrome.ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(m.observables_of(&[0, 2]), 0b11);
        let pred = m.mask_to_bitvec(0b10);
        assert!(!pred.get(0));
        assert!(pred.get(1));
    }

    #[test]
    fn too_many_observables_rejected() {
        let dem = DetectorErrorModel::from_parts(1, 100, vec![]);
        assert!(matches!(
            DecodeMatrix::new(&dem),
            Err(DecoderError::TooManyObservables { found: 100 })
        ));
    }
}
