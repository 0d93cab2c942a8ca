//! `QueryPlan::write_key` is an injective, prefix-free encoding: two
//! plans write the same key exactly when they are equal, and no key is
//! a proper prefix of another. Plans are drawn from tiny value ranges so
//! that equal and nearly-equal pairs are common.

use dpod_query::{EpochSelector, QueryPlan, Region, WindowMerge};
use proptest::prelude::*;

fn key(plan: &QueryPlan) -> Vec<u8> {
    let mut out = Vec::new();
    plan.write_key(&mut out);
    out
}

fn arb_list() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..3, 0..3)
}

fn arb_region() -> impl Strategy<Value = Region> {
    (0usize..2, 0usize..2, 0usize..2, 0usize..2)
        .prop_map(|(a, b, c, d)| Region::new((a, b), (c, d)))
}

/// Small counts, plus values whose varints span several bytes.
fn arb_count() -> impl Strategy<Value = usize> {
    (0usize..7).prop_map(|i| [0, 1, 2, 127, 128, 300, usize::MAX][i])
}

fn arb_leaf() -> impl Strategy<Value = QueryPlan> {
    let od = (
        any::<bool>(),
        arb_region(),
        any::<bool>(),
        arb_region(),
        prop::collection::vec((0usize..2, arb_region()), 0..2),
    )
        .prop_map(|(has_o, o, has_d, d, stops)| QueryPlan::Od {
            origin: has_o.then_some(o),
            stops,
            destination: has_d.then_some(d),
        });
    (0usize..5, arb_list(), arb_list(), od, arb_count()).prop_map(
        |(kind, a, b, od, k)| match kind {
            0 => QueryPlan::Range { lo: a, hi: b },
            1 => od,
            2 => QueryPlan::Marginal { keep: a },
            3 => QueryPlan::TopK { k },
            _ => QueryPlan::Total,
        },
    )
}

fn arb_inner() -> impl Strategy<Value = QueryPlan> {
    (
        0usize..3,
        arb_leaf(),
        prop::collection::vec(arb_leaf(), 0..3),
    )
        .prop_map(|(kind, leaf, plans)| match kind {
            0 => QueryPlan::Many { plans },
            _ => leaf,
        })
}

fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    (
        0usize..5,
        arb_inner(),
        0u64..3,
        0u64..2,
        any::<bool>(),
        0u32..3,
    )
        .prop_map(|(kind, inner, sel, epoch, per_epoch, level)| match kind {
            0 => QueryPlan::Window {
                select: match sel {
                    0 => EpochSelector::At { epoch },
                    1 => EpochSelector::LastK { k: epoch },
                    _ => EpochSelector::Range { from: epoch, to: 1 },
                },
                merge: if per_epoch {
                    WindowMerge::PerEpoch
                } else {
                    WindowMerge::Sum
                },
                plan: Box::new(inner),
            },
            1 => QueryPlan::DrillDown {
                level,
                plan: Box::new(inner),
            },
            _ => inner,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn keys_are_equal_exactly_when_plans_are(a in arb_plan(), b in arb_plan()) {
        let (ka, kb) = (key(&a), key(&b));
        prop_assert_eq!(ka == kb, a == b, "{:?} vs {:?}", a, b);
        prop_assert_eq!(key(&a.clone()), ka.clone());
        if a != b {
            prop_assert!(!ka.starts_with(&kb) && !kb.starts_with(&ka), "{:?} vs {:?}", a, b);
        }
    }
}

/// Hand-picked neighbours a sloppy encoding would conflate.
#[test]
fn near_miss_plans_key_apart() {
    let region = Region::new((0, 0), (0, 0));
    let plans = [
        QueryPlan::Total,
        QueryPlan::Many { plans: vec![] },
        QueryPlan::Many {
            plans: vec![QueryPlan::Total],
        },
        QueryPlan::Range {
            lo: vec![1],
            hi: vec![],
        },
        QueryPlan::Range {
            lo: vec![],
            hi: vec![1],
        },
        QueryPlan::Marginal { keep: vec![] },
        QueryPlan::Marginal { keep: vec![0] },
        QueryPlan::TopK { k: 0 },
        QueryPlan::TopK { k: 128 },
        QueryPlan::od(),
        QueryPlan::Od {
            origin: Some(region),
            stops: vec![],
            destination: None,
        },
        QueryPlan::Od {
            origin: None,
            stops: vec![],
            destination: Some(region),
        },
        QueryPlan::Od {
            origin: None,
            stops: vec![(0, region)],
            destination: None,
        },
        QueryPlan::DrillDown {
            level: 0,
            plan: Box::new(QueryPlan::Total),
        },
        QueryPlan::Window {
            select: EpochSelector::At { epoch: 0 },
            merge: WindowMerge::Sum,
            plan: Box::new(QueryPlan::Total),
        },
        QueryPlan::Window {
            select: EpochSelector::LastK { k: 0 },
            merge: WindowMerge::Sum,
            plan: Box::new(QueryPlan::Total),
        },
        QueryPlan::Window {
            select: EpochSelector::At { epoch: 0 },
            merge: WindowMerge::PerEpoch,
            plan: Box::new(QueryPlan::Total),
        },
    ];
    for (i, a) in plans.iter().enumerate() {
        for b in &plans[i + 1..] {
            assert_ne!(key(a), key(b), "{a:?} vs {b:?}");
        }
    }
}
