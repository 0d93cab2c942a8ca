//! A warm plan-memo hit allocates nothing: once a plan's response bytes
//! are memoized, `Server::handle_encoded` keys the plan into a reused
//! per-thread buffer, looks the bytes up and hands back a shared
//! reference to them.
//!
//! A counting global allocator tallies allocations per thread, so this
//! file is its own test binary and counts only the serving call.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_query::{QueryPlan, Region};
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{Catalog, ResponseEncoding, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Forwards to the system allocator, counting allocations per thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A server over one 4-D (origin × destination) release.
fn server() -> Server {
    let mut m = DenseMatrix::<u64>::zeros(Shape::cube(4, 8).unwrap());
    m.add_at(&[1, 2, 5, 6], 900).unwrap();
    m.add_at(&[3, 3, 0, 7], 400).unwrap();
    let out = Ebp::default()
        .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(11))
        .unwrap();
    let catalog = Catalog::new();
    catalog.publish("od", PublishedRelease::from_sanitized(&out));
    Server::new(Arc::new(catalog), 1 << 24)
}

fn plans() -> Vec<QueryPlan> {
    let range = |i: usize| QueryPlan::Range {
        lo: vec![i % 4, 0, i / 4, 1],
        hi: vec![8, 5, 8, 8],
    };
    vec![
        QueryPlan::Total,
        QueryPlan::TopK { k: 3 },
        QueryPlan::Marginal { keep: vec![0] },
        range(0),
        QueryPlan::Od {
            origin: Some(Region::new((0, 0), (4, 4))),
            stops: Vec::new(),
            destination: None,
        },
        QueryPlan::DrillDown {
            level: 1,
            plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
        },
        QueryPlan::Many {
            plans: (0..16).map(range).collect(),
        },
    ]
}

#[test]
fn warm_encoded_hits_allocate_nothing() {
    let server = server();
    for enc in [
        ResponseEncoding::Json,
        ResponseEncoding::Binary,
        ResponseEncoding::BinaryPacked,
    ] {
        for plan in plans() {
            let request = Request::Plan {
                release: "od".into(),
                plan,
            };
            assert!(
                matches!(server.handle(&request), Response::Answer { .. }),
                "{request:?} must answer"
            );
            let first = server.handle_encoded(&request, enc);
            server.handle_encoded(&request, enc);
            let hits = server.engine_stats().encoded_hits;
            let (third, n) = allocations(|| server.handle_encoded(&request, enc));
            assert!(Arc::ptr_eq(&first, &third), "{request:?} must hit the memo");
            assert_eq!(server.engine_stats().encoded_hits, hits + 1);
            assert_eq!(n, 0, "{enc:?} warm hit of {request:?} allocated");
        }
    }
}
