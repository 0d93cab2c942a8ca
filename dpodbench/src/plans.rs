//! Seeded request streams: the analyst plan pool and its Zipf draw, the
//! never-repeating cold stream, the warm-up set, and the curator's fixed
//! per-epoch plan batch.

use crate::inputs::{self, GRID, GRID_SIDE, OD4, OD4_CELLS, OD6, OD6_CELLS, SERIES};
use dpod_data::dist::Zipf;
use dpod_fmatrix::Shape;
use dpod_query::{EpochSelector, QueryPlan, QueryWorkload, Region, WindowMerge};
use dpod_serve::protocol::Request;
use dpod_serve::{series, ResponseEncoding};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashSet;

/// Distinct plans in the analyst pool.
pub const POOL: usize = 1_000;
/// Zipf exponent of the analyst draw.
pub const ZIPF_S: f64 = 1.1;
/// Ranges per `Many` batch.
pub const MANY: usize = 16;
/// Plans per curator batch (one publish, then this many plans).
pub const CURATOR_BATCH: usize = 50;

/// How a connection encodes requests and responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enc {
    /// Newline-delimited JSON.
    Json,
    /// `DPRB` frames, legacy opcodes.
    Binary,
    /// `DPRB` frames with the packed feature bit.
    Packed,
}

impl Enc {
    pub fn response(self) -> ResponseEncoding {
        match self {
            Enc::Json => ResponseEncoding::Json,
            Enc::Binary => ResponseEncoding::Binary,
            Enc::Packed => ResponseEncoding::BinaryPacked,
        }
    }
}

pub const ALL_ENCODINGS: [Enc; 3] = [Enc::Json, Enc::Binary, Enc::Packed];

fn plan(release: &str, plan: QueryPlan) -> Request {
    Request::Plan {
        release: release.to_string(),
        plan,
    }
}

fn shape_of(release: &str) -> Shape {
    let dims = match release {
        OD4 => vec![OD4_CELLS; 4],
        OD6 => vec![OD6_CELLS; 6],
        _ => vec![GRID_SIDE; 2],
    };
    Shape::new(dims).expect("benchmark shapes are valid")
}

const COVERAGES: [QueryWorkload; 4] = [
    QueryWorkload::Random,
    QueryWorkload::FixedCoverage { coverage: 0.01 },
    QueryWorkload::FixedCoverage { coverage: 0.05 },
    QueryWorkload::FixedCoverage { coverage: 0.10 },
];

fn range(release: &str, workload: QueryWorkload, rng: &mut StdRng) -> Request {
    let q = workload.draw(&shape_of(release), rng);
    plan(
        release,
        QueryPlan::Range {
            lo: q.lo().to_vec(),
            hi: q.hi().to_vec(),
        },
    )
}

fn region(side: usize, rng: &mut StdRng) -> Region {
    let (x0, x1) = span(side, rng);
    let (y0, y1) = span(side, rng);
    Region::new((x0, y0), (x1, y1))
}

fn span(side: usize, rng: &mut StdRng) -> (usize, usize) {
    let a = rng.gen_range(0..side);
    let b = rng.gen_range(0..side);
    (a.min(b), a.max(b) + 1)
}

/// An OD query on `od6` with origin, stop and destination regions.
fn od(rng: &mut StdRng) -> Request {
    plan(
        OD6,
        QueryPlan::od()
            .with_origin(region(OD6_CELLS, rng))
            .with_stop(0, region(OD6_CELLS, rng))
            .with_destination(region(OD6_CELLS, rng)),
    )
}

fn many(release: &str, rng: &mut StdRng) -> Request {
    let shape = shape_of(release);
    let plans = (0..MANY)
        .map(|_| {
            let q = QueryWorkload::Random.draw(&shape, rng);
            QueryPlan::Range {
                lo: q.lo().to_vec(),
                hi: q.hi().to_vec(),
            }
        })
        .collect();
    plan(release, QueryPlan::Many { plans })
}

fn drill(level: u32, inner: QueryPlan) -> Request {
    plan(
        GRID,
        QueryPlan::DrillDown {
            level,
            plan: Box::new(inner),
        },
    )
}

fn drill_range(level: u32, rng: &mut StdRng) -> Request {
    let side = ((GRID_SIDE - 1) >> level) + 1;
    let shape = Shape::new(vec![side, side]).expect("coarse shape");
    let q = QueryWorkload::Random.draw(&shape, rng);
    drill(
        level,
        QueryPlan::Range {
            lo: q.lo().to_vec(),
            hi: q.hi().to_vec(),
        },
    )
}

fn marginal(release: &str, keep: &[usize]) -> Request {
    plan(
        release,
        QueryPlan::Marginal {
            keep: keep.to_vec(),
        },
    )
}

fn drill_marginal(level: u32, keep: &[usize]) -> Request {
    drill(
        level,
        QueryPlan::Marginal {
            keep: keep.to_vec(),
        },
    )
}

/// The finite plans of the pool (totals, top-k, each 2-D leg's
/// marginal, drill-down marginals). Their pool ranks are fixed so the
/// traffic share of each answer size is the same under every seed.
fn fixed_plans() -> Vec<Request> {
    vec![
        plan(OD4, QueryPlan::Total),
        plan(OD6, QueryPlan::Total),
        plan(GRID, QueryPlan::Total),
        plan(OD4, QueryPlan::TopK { k: 10 }),
        plan(OD6, QueryPlan::TopK { k: 10 }),
        plan(GRID, QueryPlan::TopK { k: 10 }),
        marginal(OD4, &[0, 1]),
        marginal(OD6, &[0, 1]),
        drill_marginal(4, &[0]),
        drill_marginal(4, &[1]),
        marginal(OD4, &[2, 3]),
        marginal(OD6, &[2, 3]),
        marginal(OD6, &[4, 5]),
        drill_marginal(3, &[0]),
        drill_marginal(3, &[1]),
        plan(OD4, QueryPlan::TopK { k: 100 }),
        plan(OD6, QueryPlan::TopK { k: 100 }),
        plan(GRID, QueryPlan::TopK { k: 100 }),
        drill_marginal(2, &[0]),
        drill_marginal(2, &[1]),
        drill_marginal(4, &[0, 1]),
        drill_marginal(3, &[0, 1]),
    ]
}

/// The analyst pool, indexed by Zipf rank − 1. Fixed plans sit at ranks
/// 5, 50, 95, …; every other rank holds a seeded range, OD query or
/// `Many` batch whose kind and release are fixed by its rank.
pub fn hot_pool(seed: u64) -> Vec<Request> {
    let mut rng = dpod_dp::seeded_rng(inputs::derive(seed, 10));
    let mut fixed = fixed_plans().into_iter();
    let mut free = 0usize;
    (0..POOL)
        .map(|rank| {
            if rank >= 4 && (rank - 4) % 45 == 0 {
                if let Some(p) = fixed.next() {
                    return p;
                }
            }
            let slot = free;
            free += 1;
            let coverage = COVERAGES[(slot / 10) % COVERAGES.len()];
            match slot % 10 {
                0 | 5 => range(OD4, coverage, &mut rng),
                1 | 6 => range(OD6, coverage, &mut rng),
                2 | 7 => range(GRID, coverage, &mut rng),
                3 | 8 => od(&mut rng),
                4 => many(OD4, &mut rng),
                _ => many(GRID, &mut rng),
            }
        })
        .collect()
}

/// Zipf draw over the pool.
pub struct HotStream {
    zipf: Zipf,
    rng: StdRng,
}

impl HotStream {
    pub fn new(seed: u64) -> Self {
        HotStream {
            zipf: Zipf::new(POOL, ZIPF_S).expect("valid Zipf parameters"),
            rng: dpod_dp::seeded_rng(inputs::derive(seed, 11)),
        }
    }

    /// The pool index of the next request.
    pub fn next_index(&mut self) -> usize {
        self.zipf.sample(&mut self.rng) - 1
    }
}

/// A stream of analyst plans in which no plan repeats: fresh coverage
/// ranges, OD regions, `k` values, coarse ranges and batches. Finite
/// kinds (totals, marginals) appear at most once each and then give way
/// to ranges.
pub struct ColdStream {
    rng: StdRng,
    seen: HashSet<u64>,
    finite: Vec<Request>,
}

impl ColdStream {
    pub fn new(seed: u64) -> Self {
        ColdStream {
            rng: dpod_dp::seeded_rng(inputs::derive(seed, 12)),
            seen: HashSet::new(),
            finite: fixed_plans(),
        }
    }

    fn draw(&mut self) -> Request {
        let rng = &mut self.rng;
        let u: f64 = rng.gen();
        let release = [OD4, OD6, GRID][rng.gen_range(0..3usize)];
        if u < 0.45 {
            let coverage = COVERAGES[rng.gen_range(0..COVERAGES.len())];
            range(release, coverage, rng)
        } else if u < 0.65 {
            od(rng)
        } else if u < 0.80 {
            many(release, rng)
        } else if u < 0.95 {
            let level = rng.gen_range(2..=4u32);
            drill_range(level, rng)
        } else if u < 0.99 {
            let k = rng.gen_range(1..=256usize);
            plan(release, QueryPlan::TopK { k })
        } else {
            let i = rng.gen_range(0..self.finite.len());
            self.finite[i].clone()
        }
    }

    pub fn next_request(&mut self) -> Request {
        loop {
            let req = self.draw();
            let key = plan_hash(&req);
            if self.seen.insert(key) {
                return req;
            }
        }
    }
}

fn plan_hash(req: &Request) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    serde_json::to_string(req)
        .expect("plans serialize")
        .hash(&mut h);
    h.finish()
}

/// Plans that touch every release and structure the run uses: each
/// release's total, top-k and a range, every 2-D leg's marginal, and a
/// coarse range and marginal on every drill-down level. Set-up sends the
/// set twice on each encoding, so both the miss and the hit path run.
pub fn warm_set() -> Vec<Request> {
    let mut out = fixed_plans();
    for release in [OD4, OD6, GRID] {
        let dims = shape_of(release).dims().to_vec();
        out.push(plan(
            release,
            QueryPlan::Range {
                lo: vec![0; dims.len()],
                hi: dims,
            },
        ));
    }
    for level in 2..=4u32 {
        let side = ((GRID_SIDE - 1) >> level) + 1;
        out.push(drill(
            level,
            QueryPlan::Range {
                lo: vec![0, 0],
                hi: vec![side, side],
            },
        ));
    }
    out
}

/// The region of the curator's OD plan.
fn curator_od() -> QueryPlan {
    QueryPlan::od()
        .with_origin(Region::new((8, 8), (16, 16)))
        .with_destination(Region::new((12, 4), (24, 20)))
}

/// The window plans of a curator batch: the origin density summed over
/// the last 3 epochs, and the per-epoch totals of the 3 epochs before the
/// newest.
pub fn window_lastk() -> QueryPlan {
    QueryPlan::Window {
        select: EpochSelector::LastK { k: 3 },
        merge: WindowMerge::Sum,
        plan: Box::new(QueryPlan::Marginal {
            keep: crate::curator::WINDOW_KEEP.to_vec(),
        }),
    }
}

pub fn window_range(newest: u64) -> QueryPlan {
    QueryPlan::Window {
        select: EpochSelector::Range {
            from: newest.saturating_sub(3).max(1),
            to: newest.saturating_sub(1).max(1),
        },
        merge: WindowMerge::PerEpoch,
        plan: Box::new(QueryPlan::Total),
    }
}

/// The three distinct plans of the batch after epoch `newest`.
pub fn curator_plans(newest: u64) -> [Request; 3] {
    [
        plan(SERIES, window_lastk()),
        plan(SERIES, window_range(newest)),
        plan(&series::epoch_entry_name(SERIES, newest), curator_od()),
    ]
}

/// Which of [`curator_plans`] the `j`-th plan of a batch sends.
pub fn curator_slot(j: usize) -> usize {
    match j % 5 {
        0 | 1 => 0,
        2 | 3 => 2,
        _ => 1,
    }
}
