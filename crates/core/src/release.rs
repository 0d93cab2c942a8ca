//! The publishable release artifact.
//!
//! Figure 1 of the paper: the trusted curator sanitizes the frequency
//! matrix and *publishes* it; untrusted analysts query the published
//! object. [`PublishedRelease`] is that object — the partition boundaries
//! with their noisy counts (§2.2), serializable with serde so curators can
//! ship it as JSON/CBOR/… and analysts can rebuild a queryable
//! [`SanitizedMatrix`] on their side.
//!
//! Releasing this artifact is safe by DP post-processing: it contains only
//! the sanitized outputs, never the raw counts.

use crate::{MechanismError, PartitionSummary, SanitizedMatrix};
use dpod_fmatrix::codec::{FrameReader, FrameWriter, RELEASE_MAGIC, RELEASE_VERSION};
use dpod_fmatrix::{AxisBox, DenseMatrix, FmError, Shape};
use dpod_partition::{Partitioning, ValidationError};
use serde::{Deserialize, Serialize};

/// Body discriminant in the `DPRL` binary frame.
const BODY_PER_ENTRY: u8 = 0;
/// Body discriminant in the `DPRL` binary frame.
const BODY_PARTITIONS: u8 = 1;

/// A self-contained, serializable DP release of a frequency matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PublishedRelease {
    /// Name of the producing mechanism.
    pub mechanism: String,
    /// Total privacy budget consumed.
    pub epsilon: f64,
    /// Domain cardinalities `F₁ … F_d`.
    pub domain: Vec<usize>,
    /// The released content.
    pub body: ReleaseBody,
}

/// The two publication shapes (mirrors [`PartitionSummary`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReleaseBody {
    /// One value per matrix entry, row-major (IDENTITY, Privelet).
    PerEntry {
        /// The noisy per-entry values.
        values: Vec<f64>,
    },
    /// Disjoint partitions with one noisy total each.
    Partitions {
        /// `(lo, hi)` corner pairs, half-open.
        boxes: Vec<(Vec<usize>, Vec<usize>)>,
        /// The noisy totals (same order as `boxes`).
        counts: Vec<f64>,
    },
}

impl PublishedRelease {
    /// Extracts the publishable artifact from a sanitization result.
    pub fn from_sanitized(s: &SanitizedMatrix) -> Self {
        let body = match s.summary() {
            PartitionSummary::PerEntry => ReleaseBody::PerEntry {
                values: s.matrix().as_slice().to_vec(),
            },
            PartitionSummary::Boxes {
                partitioning,
                noisy_counts,
            } => ReleaseBody::Partitions {
                boxes: partitioning
                    .boxes()
                    .iter()
                    .map(|b| (b.lo().to_vec(), b.hi().to_vec()))
                    .collect(),
                counts: noisy_counts.clone(),
            },
        };
        PublishedRelease {
            mechanism: s.mechanism().to_string(),
            epsilon: s.epsilon(),
            domain: s.domain().dims().to_vec(),
            body,
        }
    }

    /// Rebuilds a queryable [`SanitizedMatrix`] on the analyst side, with
    /// its estimate and prefix table already built: the serve side calls
    /// this at publish, so the first query does not build them.
    ///
    /// For the partition form, the estimate is filled by the validation
    /// walk itself ([`Partitioning::validate_with`]): each run a box
    /// claims gets the box's `count / volume`, so the boxes are walked
    /// once. The estimate is allocated before that walk; a domain too
    /// large for it is refused as
    /// [`ValidationError::DomainTooLarge`].
    ///
    /// # Errors
    /// [`MechanismError::Invalid`] when the artifact is internally
    /// inconsistent (wrong value count, malformed boxes, or — for the
    /// partition form — boxes that are not a disjoint cover of the
    /// domain). Validation runs on every load because the artifact may
    /// come from an untrusted channel.
    pub fn into_sanitized(self) -> Result<SanitizedMatrix, MechanismError> {
        let shape = Shape::new(self.domain.clone()).map_err(MechanismError::Fm)?;
        match self.body {
            ReleaseBody::PerEntry { values } => {
                check_entries(&shape, &values)?;
                let matrix = DenseMatrix::from_vec(shape, values).map_err(MechanismError::Fm)?;
                Ok(SanitizedMatrix::from_entries(&self.mechanism, self.epsilon, matrix).built())
            }
            ReleaseBody::Partitions { boxes, counts } => {
                let partitioning = checked_boxes(shape.clone(), &boxes, &counts)?;
                let cells = shape.size();
                let mut estimate = Vec::new();
                estimate
                    .try_reserve_exact(cells)
                    .map_err(|_| invalid_partitioning(ValidationError::DomainTooLarge { cells }))?;
                estimate.resize(cells, 0.0);
                // Runs arrive box by box, so the density is computed
                // once per box.
                let mut density = (usize::MAX, 0.0);
                partitioning
                    .validate_with(|i, start, run| {
                        if density.0 != i {
                            density = (i, counts[i] / partitioning.boxes()[i].volume() as f64);
                        }
                        estimate[start..start + run].fill(density.1);
                    })
                    .map_err(invalid_partitioning)?;
                let estimate =
                    DenseMatrix::from_vec(shape.clone(), estimate).map_err(MechanismError::Fm)?;
                Ok(SanitizedMatrix::from_partitions(
                    &self.mechanism,
                    self.epsilon,
                    shape,
                    partitioning,
                    counts,
                )
                .with_estimate(estimate)
                .built())
            }
        }
    }

    /// Runs every check [`Self::into_sanitized`] runs, with the same
    /// errors, without building the matrix: for the partition form that
    /// is one walk over a bit-per-cell coverage map
    /// ([`Partitioning::validate`]). A domain whose map fits but whose
    /// estimate would not passes here and is refused by
    /// [`Self::into_sanitized`].
    ///
    /// # Errors
    /// As for [`Self::into_sanitized`].
    pub fn validate(&self) -> Result<(), MechanismError> {
        let shape = Shape::new(self.domain.clone()).map_err(MechanismError::Fm)?;
        match &self.body {
            ReleaseBody::PerEntry { values } => check_entries(&shape, values),
            ReleaseBody::Partitions { boxes, counts } => checked_boxes(shape, boxes, counts)?
                .validate()
                .map_err(invalid_partitioning),
        }
    }

    /// Serializes to the compact `DPRL` binary frame.
    ///
    /// JSON inflates a large release roughly 3×; serving catalogs store
    /// and ship this frame instead. Layout (all little-endian, after the
    /// `"DPRL"` magic and version byte):
    ///
    /// ```text
    /// mechanism  u16 len + UTF-8 bytes
    /// epsilon    f64 bits
    /// domain     u64 count + count × u64
    /// body_kind  u8 (0 = per-entry, 1 = partitions)
    /// PerEntry:   values  u64 count + count × f64 bits
    /// Partitions: nboxes  u64
    ///             boxes   nboxes × (u64 count + count × u64) twice (lo, hi)
    ///             counts  u64 count + count × f64 bits
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload_guess = 32 + self.domain.len() * 8 + self.len() * 8;
        let mut w = FrameWriter::with_capacity(RELEASE_MAGIC, RELEASE_VERSION, payload_guess);
        w.put_str(&self.mechanism);
        w.put_f64(self.epsilon);
        w.put_usize_slice(&self.domain);
        match &self.body {
            ReleaseBody::PerEntry { values } => {
                w.put_u8(BODY_PER_ENTRY);
                w.put_f64_slice(values);
            }
            ReleaseBody::Partitions { boxes, counts } => {
                w.put_u8(BODY_PARTITIONS);
                w.put_u64(boxes.len() as u64);
                for (lo, hi) in boxes {
                    w.put_usize_slice(lo);
                    w.put_usize_slice(hi);
                }
                w.put_f64_slice(counts);
            }
        }
        w.finish().to_vec()
    }

    /// Parses a `DPRL` binary frame.
    ///
    /// Framing errors are caught here; semantic validation (disjoint
    /// cover, finite counts, …) still happens in [`Self::into_sanitized`],
    /// exactly as for a release parsed from JSON.
    ///
    /// # Errors
    /// [`MechanismError::Invalid`] describing the first framing violation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, MechanismError> {
        let frame =
            |e: dpod_fmatrix::FmError| MechanismError::Invalid(format!("bad DPRL frame: {e}"));
        let mut r = FrameReader::new(bytes, RELEASE_MAGIC, RELEASE_VERSION).map_err(frame)?;
        let mechanism = r.get_str("mechanism").map_err(frame)?;
        let epsilon = r.get_f64("epsilon").map_err(frame)?;
        let domain = r.get_usize_vec("domain").map_err(frame)?;
        let body = match r.get_u8("body kind").map_err(frame)? {
            BODY_PER_ENTRY => ReleaseBody::PerEntry {
                values: r.get_f64_vec("values").map_err(frame)?,
            },
            BODY_PARTITIONS => {
                let nboxes = r.get_u64("box count").map_err(frame)? as usize;
                // Guard against adversarial counts before allocating.
                if nboxes.saturating_mul(2 * 8) > bytes.len() {
                    return Err(MechanismError::Invalid(format!(
                        "DPRL frame claims {nboxes} boxes but holds only {} bytes",
                        bytes.len()
                    )));
                }
                let mut boxes = Vec::with_capacity(nboxes);
                for i in 0..nboxes {
                    let lo = r.get_usize_vec("box lo").map_err(frame)?;
                    let hi = r.get_usize_vec("box hi").map_err(frame)?;
                    if lo.len() != domain.len() || hi.len() != domain.len() {
                        return Err(MechanismError::Invalid(format!(
                            "box {i} has {}–{} coords for a {}-d domain",
                            lo.len(),
                            hi.len(),
                            domain.len()
                        )));
                    }
                    boxes.push((lo, hi));
                }
                ReleaseBody::Partitions {
                    boxes,
                    counts: r.get_f64_vec("counts").map_err(frame)?,
                }
            }
            other => {
                return Err(MechanismError::Invalid(format!(
                    "unknown DPRL body kind {other}"
                )))
            }
        };
        r.finish().map_err(frame)?;
        Ok(PublishedRelease {
            mechanism,
            epsilon,
            domain,
            body,
        })
    }

    /// Number of released values.
    pub fn len(&self) -> usize {
        match &self.body {
            ReleaseBody::PerEntry { values } => values.len(),
            ReleaseBody::Partitions { counts, .. } => counts.len(),
        }
    }

    /// `true` when nothing was released (malformed artifact).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-entry form's checks: one finite value per domain cell.
fn check_entries(shape: &Shape, values: &[f64]) -> Result<(), MechanismError> {
    if values.len() != shape.size() {
        return Err(MechanismError::Fm(FmError::LengthMismatch {
            expected: shape.size(),
            got: values.len(),
        }));
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(MechanismError::Invalid(
            "per-entry release contains non-finite values".into(),
        ));
    }
    Ok(())
}

/// The partition form's checks before the cover walk: one finite count
/// per box, and boxes with well-formed corners.
fn checked_boxes(
    shape: Shape,
    boxes: &[(Vec<usize>, Vec<usize>)],
    counts: &[f64],
) -> Result<Partitioning, MechanismError> {
    if boxes.len() != counts.len() {
        return Err(MechanismError::Invalid(format!(
            "{} boxes but {} counts",
            boxes.len(),
            counts.len()
        )));
    }
    if counts.iter().any(|v| !v.is_finite()) {
        return Err(MechanismError::Invalid(
            "release contains non-finite counts".into(),
        ));
    }
    let boxes: Vec<AxisBox> = boxes
        .iter()
        .map(|(lo, hi)| AxisBox::new(lo.clone(), hi.clone()).map_err(MechanismError::Fm))
        .collect::<Result<_, _>>()?;
    Ok(Partitioning::new_unchecked(shape, boxes))
}

/// A failed cover walk as a [`MechanismError`].
fn invalid_partitioning(e: ValidationError) -> MechanismError {
    MechanismError::Invalid(format!("invalid partitioning: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{baselines::Identity, grid::Ebp, Mechanism};
    use dpod_dp::Epsilon;

    fn skewed_input() -> DenseMatrix<u64> {
        let s = Shape::new(vec![12, 12]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[2, 3], 5_000).unwrap();
        m
    }

    #[test]
    fn partition_release_round_trips() {
        let input = skewed_input();
        let eps = Epsilon::new(0.5).unwrap();
        let out = Ebp::default()
            .sanitize(&input, eps, &mut dpod_dp::seeded_rng(1))
            .unwrap();
        let artifact = PublishedRelease::from_sanitized(&out);
        let rebuilt = artifact.clone().into_sanitized().unwrap();
        assert_eq!(rebuilt.mechanism(), out.mechanism());
        assert_eq!(rebuilt.matrix().as_slice(), out.matrix().as_slice());
        // Queries answer identically after the round trip.
        let q = AxisBox::new(vec![0, 0], vec![6, 6]).unwrap();
        assert_eq!(rebuilt.range_sum(&q), out.range_sum(&q));
    }

    #[test]
    fn publishing_builds_no_estimate_and_rebuilding_builds_it() {
        let input = skewed_input();
        let eps = Epsilon::new(0.5).unwrap();
        for mech in crate::all_mechanisms() {
            let out = mech
                .sanitize(&input, eps, &mut dpod_dp::seeded_rng(5))
                .unwrap();
            let artifact = PublishedRelease::from_sanitized(&out);
            assert!(!artifact.to_bytes().is_empty());
            // A per-entry release is its matrix; a partition release has
            // none until a read needs it. Neither has a prefix table.
            let per_entry = matches!(out.summary(), PartitionSummary::PerEntry);
            assert_eq!(out.built_parts(), (per_entry, false), "{}", mech.name());
            let rebuilt = artifact.into_sanitized().unwrap();
            assert_eq!(rebuilt.built_parts(), (true, true), "{}", mech.name());
        }
    }

    #[test]
    fn per_entry_release_round_trips() {
        let input = skewed_input();
        let eps = Epsilon::new(0.5).unwrap();
        let out = Identity
            .sanitize(&input, eps, &mut dpod_dp::seeded_rng(2))
            .unwrap();
        let artifact = PublishedRelease::from_sanitized(&out);
        assert_eq!(artifact.len(), 144);
        let rebuilt = artifact.into_sanitized().unwrap();
        assert_eq!(rebuilt.matrix().as_slice(), out.matrix().as_slice());
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        let input = skewed_input();
        let eps = Epsilon::new(0.5).unwrap();
        let out = Ebp::default()
            .sanitize(&input, eps, &mut dpod_dp::seeded_rng(3))
            .unwrap();
        let good = PublishedRelease::from_sanitized(&out);
        assert!(good.validate().is_ok());
        // `validate` refuses exactly what `into_sanitized` refuses, with
        // the same error.
        let rejected = |bad: PublishedRelease| {
            let checked = bad.validate().unwrap_err().to_string();
            let rebuilt = bad.into_sanitized().unwrap_err().to_string();
            assert_eq!(checked, rebuilt);
            rebuilt
        };

        // Count/box mismatch.
        let mut bad = good.clone();
        if let ReleaseBody::Partitions { counts, .. } = &mut bad.body {
            counts.pop();
        }
        rejected(bad);

        // Overlapping boxes (tampered channel).
        let mut bad = good.clone();
        if let ReleaseBody::Partitions { boxes, .. } = &mut bad.body {
            boxes[0] = boxes[1].clone();
        }
        rejected(bad);

        // An extra empty box with its own count (tampered channel): it
        // claims no cell, so its count would vanish from every answer.
        let mut bad = good.clone();
        if let ReleaseBody::Partitions { boxes, counts } = &mut bad.body {
            boxes.push((vec![1, 1], vec![1, 3]));
            counts.push(42.0);
        }
        let err = rejected(bad);
        assert!(
            err.contains("box") && err.contains("covers no cell"),
            "{err}"
        );

        // Non-finite counts.
        let mut bad = good.clone();
        if let ReleaseBody::Partitions { counts, .. } = &mut bad.body {
            counts[0] = f64::NAN;
        }
        rejected(bad);

        // Wrong domain.
        let mut bad = good;
        bad.domain = vec![5, 5];
        rejected(bad);

        // The per-entry form: wrong value count, non-finite value.
        let good = PublishedRelease::from_sanitized(
            &Identity
                .sanitize(&input, eps, &mut dpod_dp::seeded_rng(4))
                .unwrap(),
        );
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        if let ReleaseBody::PerEntry { values } = &mut bad.body {
            values.pop();
        }
        rejected(bad);
        let mut bad = good;
        if let ReleaseBody::PerEntry { values } = &mut bad.body {
            values[7] = f64::INFINITY;
        }
        rejected(bad);
    }

    #[test]
    fn binary_frame_round_trips_both_bodies() {
        let input = skewed_input();
        let eps = Epsilon::new(0.5).unwrap();
        for artifact in [
            PublishedRelease::from_sanitized(
                &Ebp::default()
                    .sanitize(&input, eps, &mut dpod_dp::seeded_rng(11))
                    .unwrap(),
            ),
            PublishedRelease::from_sanitized(
                &Identity
                    .sanitize(&input, eps, &mut dpod_dp::seeded_rng(12))
                    .unwrap(),
            ),
        ] {
            let bytes = artifact.to_bytes();
            let back = PublishedRelease::from_bytes(&bytes).unwrap();
            assert_eq!(back, artifact);
        }
    }

    #[test]
    fn binary_frame_rejects_corruption() {
        let input = skewed_input();
        let eps = Epsilon::new(0.5).unwrap();
        let out = Ebp::default()
            .sanitize(&input, eps, &mut dpod_dp::seeded_rng(13))
            .unwrap();
        let bytes = PublishedRelease::from_sanitized(&out).to_bytes();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(PublishedRelease::from_bytes(&bad).is_err());

        let mut bad = bytes.clone();
        bad[4] = RELEASE_VERSION + 1;
        assert!(PublishedRelease::from_bytes(&bad).is_err());

        assert!(PublishedRelease::from_bytes(&bytes[..bytes.len() - 4]).is_err());

        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0u8; 3]);
        assert!(PublishedRelease::from_bytes(&extended).is_err());
    }

    #[test]
    fn binary_frame_is_denser_than_json() {
        let input = skewed_input();
        let eps = Epsilon::new(0.5).unwrap();
        let out = Identity
            .sanitize(&input, eps, &mut dpod_dp::seeded_rng(14))
            .unwrap();
        let artifact = PublishedRelease::from_sanitized(&out);
        let json = serde_json::to_string(&artifact).unwrap();
        assert!(
            artifact.to_bytes().len() * 2 < json.len(),
            "binary {} vs json {}",
            artifact.to_bytes().len(),
            json.len()
        );
    }

    #[test]
    fn artifact_never_contains_raw_counts() {
        // The artifact of a partition mechanism holds exactly the noisy
        // values already exposed by the sanitized matrix — nothing else.
        let input = skewed_input();
        let eps = Epsilon::new(0.1).unwrap();
        let out = Ebp::default()
            .sanitize(&input, eps, &mut dpod_dp::seeded_rng(4))
            .unwrap();
        let artifact = PublishedRelease::from_sanitized(&out);
        if let ReleaseBody::Partitions { counts, .. } = &artifact.body {
            // No released count equals the (integral) true totals exactly —
            // Laplace noise is continuous.
            assert!(counts.iter().all(|c| c.fract() != 0.0));
        } else {
            panic!("expected partition release");
        }
    }
}
