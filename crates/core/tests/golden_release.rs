//! Golden digests: every mechanism's release is pinned bit-for-bit.
//!
//! For each mechanism in `all_mechanisms()`, on a seeded 2-D 32×32 and a
//! seeded 4-D 8⁴ input, at seeds 1–3 and ε ∈ {0.1, 1.0}, the test hashes
//! the release's partition boxes and the bits of every released value
//! (the per-partition noisy counts and the dense estimate). A refactor of
//! the noise path that reorders draws or rewrites a scale expression
//! changes a digest; a change that keeps every release identical does not.

use dpod_core::{all_mechanisms, PartitionSummary, SanitizedMatrix};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use rand::Rng;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A skewed seeded input: a few dense hot spots over a sparse background.
fn input(dims: &[usize], seed: u64) -> DenseMatrix<u64> {
    let shape = Shape::new(dims.to_vec()).unwrap();
    let mut rng = dpod_dp::seeded_rng(seed);
    let data = (0..shape.size())
        .map(|_| {
            let r: f64 = rng.gen();
            if r < 0.05 {
                rng.gen_range(200..2_000u64)
            } else if r < 0.4 {
                rng.gen_range(0..20u64)
            } else {
                0
            }
        })
        .collect();
    DenseMatrix::from_vec(shape, data).unwrap()
}

fn digest_release(h: &mut Fnv, out: &SanitizedMatrix) {
    h.bytes(out.mechanism().as_bytes());
    h.u64(out.epsilon().to_bits());
    if let PartitionSummary::Boxes {
        partitioning,
        noisy_counts,
    } = out.summary()
    {
        h.u64(partitioning.len() as u64);
        for b in partitioning.boxes() {
            for (&lo, &hi) in b.lo().iter().zip(b.hi()) {
                h.u64(lo as u64);
                h.u64(hi as u64);
            }
        }
        for &c in noisy_counts {
            h.u64(c.to_bits());
        }
    }
    for &v in out.matrix().as_slice() {
        h.u64(v.to_bits());
    }
}

/// `(mechanism, input label, digest over seeds 1–3 × ε ∈ {0.1, 1.0})`.
const EXPECTED: &[(&str, &str, u64)] = &[
    ("IDENTITY", "2d", 0x5bbc77afbb896ae4),
    ("IDENTITY", "4d", 0x5cea51a2c7062759),
    ("EUG", "2d", 0x30efe628c11ccb00),
    ("EUG", "4d", 0x0442810282c98fc7),
    ("EBP", "2d", 0x5fb1208eb0adea1b),
    ("EBP", "4d", 0x5838d318cbedb681),
    ("MKM", "2d", 0x3738483a3480539e),
    ("MKM", "4d", 0x04ec3ef7501cfb61),
    ("DAF-Entropy", "2d", 0x9efea80d73f51cc3),
    ("DAF-Entropy", "4d", 0x63706314cff0a368),
    ("DAF-Homogeneity", "2d", 0x486a1f4bca888c3b),
    ("DAF-Homogeneity", "4d", 0x8c94c9469d9933ad),
    ("UNIFORM", "2d", 0x0c397623d9042de8),
    ("UNIFORM", "4d", 0xbdee107b7c4994c8),
    ("Privelet", "2d", 0x3ba55ead10243a30),
    ("Privelet", "4d", 0xf74dd3c683a11648),
    ("QuadTree", "2d", 0xf0fb2fb7ad696c61),
    ("QuadTree", "4d", 0xc5189274cee0bd69),
    ("AG", "2d", 0x4c6858b428ced1ce),
    ("AG", "4d", 0x73e7dc9fe048d083),
];

#[test]
fn releases_match_golden_digests() {
    let inputs = [
        ("2d", input(&[32, 32], 11)),
        ("4d", input(&[8, 8, 8, 8], 12)),
    ];
    let mut got = Vec::new();
    for mech in all_mechanisms() {
        for (label, m) in &inputs {
            let mut h = Fnv::new();
            for seed in 1..=3u64 {
                for eps in [0.1, 1.0] {
                    let out = mech
                        .sanitize(
                            m,
                            Epsilon::new(eps).unwrap(),
                            &mut dpod_dp::seeded_rng(seed),
                        )
                        .unwrap_or_else(|e| panic!("{} on {label}: {e}", mech.name()));
                    digest_release(&mut h, &out);
                }
            }
            got.push((mech.name(), *label, h.0));
        }
    }
    let listing: String = got
        .iter()
        .map(|(n, l, d)| format!("    (\"{n}\", \"{l}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        EXPECTED.len(),
        "digest table out of date; current digests:\n{listing}"
    );
    for ((name, label, digest), &(en, el, ed)) in got.iter().zip(EXPECTED) {
        assert_eq!((*name, *label), (en, el), "mechanism order changed");
        assert_eq!(
            *digest, ed,
            "{name} on {label}: release bits changed; current digests:\n{listing}"
        );
    }
}
