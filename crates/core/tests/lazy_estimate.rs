//! The lazily built estimate is the eager one, bit for bit.
//!
//! A `SanitizedMatrix` builds its per-cell estimate and the prefix table
//! over it on first read. For every mechanism in `all_mechanisms()`, on a
//! small 4-D input, every read — `matrix()`, `entry`, `range_sum` on
//! random boxes, `total` and `non_negative` — must return the bits an
//! eager reference gives: the partitions' counts spread uniformly
//! (`count / volume` per cell), then one `f64` prefix table. That holds
//! whichever read comes first, on a clone taken before the first read, and
//! when two threads race the first read.

use dpod_core::{all_mechanisms, DynMechanism, PublishedRelease, ReleaseBody, SanitizedMatrix};
use dpod_dp::Epsilon;
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum, Shape};
use rand::Rng;
use std::sync::Barrier;

/// A skewed seeded 4-D input: hot spots over a sparse background.
fn input() -> DenseMatrix<u64> {
    let shape = Shape::new(vec![5, 4, 6, 3]).unwrap();
    let mut rng = dpod_dp::seeded_rng(17);
    let data = (0..shape.size())
        .map(|_| {
            let r: f64 = rng.gen();
            if r < 0.05 {
                rng.gen_range(100..1_000u64)
            } else if r < 0.4 {
                rng.gen_range(0..20u64)
            } else {
                0
            }
        })
        .collect();
    DenseMatrix::from_vec(shape, data).unwrap()
}

fn sanitize(mech: &DynMechanism, input: &DenseMatrix<u64>, seed: u64) -> SanitizedMatrix {
    mech.sanitize(
        input,
        Epsilon::new(0.5).unwrap(),
        &mut dpod_dp::seeded_rng(seed),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", mech.name()))
}

/// The eager reference: the estimate filled from the artifact with the
/// uniformity formula, and its prefix table.
struct Eager {
    matrix: DenseMatrix<f64>,
    prefix: PrefixSum<f64>,
}

impl Eager {
    fn of(release: &PublishedRelease) -> Self {
        let shape = Shape::new(release.domain.clone()).unwrap();
        let matrix = match &release.body {
            ReleaseBody::PerEntry { values } => {
                DenseMatrix::from_vec(shape, values.clone()).unwrap()
            }
            ReleaseBody::Partitions { boxes, counts } => {
                let mut matrix = DenseMatrix::<f64>::zeros(shape);
                for ((lo, hi), &count) in boxes.iter().zip(counts) {
                    let b = AxisBox::new(lo.clone(), hi.clone()).unwrap();
                    matrix.fill_box(&b, count / b.volume() as f64);
                }
                matrix
            }
        };
        let prefix = PrefixSum::from_f64(&matrix);
        Eager { matrix, prefix }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Seeded random boxes (some empty) inside `shape`.
fn boxes(shape: &Shape, seed: u64) -> Vec<AxisBox> {
    let mut rng = dpod_dp::seeded_rng(seed);
    (0..64)
        .map(|_| {
            let (lo, hi) = shape
                .dims()
                .iter()
                .map(|&d| {
                    let (a, b) = (rng.gen_range(0..=d), rng.gen_range(0..=d));
                    (a.min(b), a.max(b))
                })
                .unzip();
            AxisBox::new(lo, hi).unwrap()
        })
        .collect()
}

/// One kind of read, each compared with the reference bit for bit.
#[derive(Debug, Clone, Copy)]
enum Read {
    Matrix,
    Entry,
    RangeSum,
    Total,
    NonNegative,
}

const READS: [Read; 5] = [
    Read::Matrix,
    Read::Entry,
    Read::RangeSum,
    Read::Total,
    Read::NonNegative,
];

fn check(read: Read, out: &SanitizedMatrix, eager: &Eager, what: &str) {
    let shape = eager.matrix.shape();
    match read {
        Read::Matrix => assert_eq!(
            bits(out.matrix().as_slice()),
            bits(eager.matrix.as_slice()),
            "{what}: matrix"
        ),
        Read::Entry => {
            for c in shape.iter_coords() {
                assert_eq!(
                    out.entry(&c).unwrap().to_bits(),
                    eager.matrix.get(&c).unwrap().to_bits(),
                    "{what}: entry {c:?}"
                );
            }
        }
        Read::RangeSum => {
            for b in boxes(shape, 5) {
                assert_eq!(
                    out.range_sum(&b).to_bits(),
                    eager.prefix.box_sum(&b).to_bits(),
                    "{what}: range_sum {b:?}"
                );
            }
        }
        Read::Total => assert_eq!(
            out.total().to_bits(),
            eager.prefix.box_sum(&AxisBox::full(shape)).to_bits(),
            "{what}: total"
        ),
        Read::NonNegative => {
            let nn = out.non_negative();
            let clamped = eager.matrix.map(|v| v.max(0.0));
            let prefix = PrefixSum::from_f64(&clamped);
            assert_eq!(
                bits(nn.matrix().as_slice()),
                bits(clamped.as_slice()),
                "{what}: non_negative matrix"
            );
            for b in boxes(shape, 6) {
                assert_eq!(
                    nn.range_sum(&b).to_bits(),
                    prefix.box_sum(&b).to_bits(),
                    "{what}: non_negative range_sum {b:?}"
                );
            }
        }
    }
}

fn check_all(out: &SanitizedMatrix, eager: &Eager, what: &str) {
    for read in READS {
        check(read, out, eager, what);
    }
}

/// The reference comes from a second, identically seeded run, so that
/// the release under test is read first by the read under test.
fn reference(mech: &DynMechanism, input: &DenseMatrix<u64>, seed: u64) -> Eager {
    Eager::of(&PublishedRelease::from_sanitized(&sanitize(
        mech, input, seed,
    )))
}

#[test]
fn every_read_matches_the_eager_estimate_whichever_comes_first() {
    let input = input();
    for mech in all_mechanisms() {
        for (seed, first) in (1..).zip(READS) {
            let eager = reference(&mech, &input, seed);
            let out = sanitize(&mech, &input, seed);
            let what = format!("{} first read {first:?}", mech.name());
            check(first, &out, &eager, &what);
            check_all(&out, &eager, &what);
        }
    }
}

#[test]
fn a_clone_taken_before_the_first_read_matches() {
    let input = input();
    for mech in all_mechanisms() {
        let eager = reference(&mech, &input, 11);
        let out = sanitize(&mech, &input, 11);
        let copy = out.clone();
        check_all(&copy, &eager, &format!("{} clone", mech.name()));
        check_all(&out, &eager, &format!("{} original", mech.name()));
    }
}

#[test]
fn racing_first_reads_agree() {
    let input = input();
    for mech in all_mechanisms() {
        let eager = reference(&mech, &input, 21);
        let out = sanitize(&mech, &input, 21);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            for first in [Read::RangeSum, Read::Matrix] {
                let (out, eager, start) = (&out, &eager, &start);
                let what = format!("{} raced {first:?}", mech.name());
                s.spawn(move || {
                    start.wait();
                    check(first, out, eager, &what);
                    check_all(out, eager, &what);
                });
            }
        });
    }
}
