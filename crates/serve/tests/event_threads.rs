//! The event core's thread budget: its loop shards are its only
//! threads. `SpawnOptions::workers` sizes the pool fallback alone, so
//! an event server asked for 2 shards and 8 workers runs exactly 2
//! serving threads — and a host-shape check that adds workers and
//! shards overstates, never understates, what the core spawns.
//!
//! Threads are counted from `/proc/self/task`, so this file holds a
//! single test (its own process: no sibling test's threads in the
//! count) and runs on Linux only.
#![cfg(target_os = "linux")]

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_query::QueryPlan;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{spawn_with, Catalog, Client, FrontEnd, ResponseEncoding, Server, SpawnOptions};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn event_core_runs_only_its_loop_shards() {
    let catalog = Arc::new(Catalog::new());
    let mut m = DenseMatrix::<u64>::zeros(Shape::new(vec![16, 16]).unwrap());
    m.add_at(&[3, 9], 700).unwrap();
    let out = Ebp::default()
        .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(7))
        .unwrap();
    catalog.publish("city", PublishedRelease::from_sanitized(&out));
    let server = Arc::new(Server::new(catalog, 1 << 22));

    let baseline = threads();
    let handle = spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        SpawnOptions {
            workers: 8,
            front_end: Some(FrontEnd::Event),
            event_loops: 2,
            ..SpawnOptions::default()
        },
    )
    .expect("bind");
    assert_eq!(handle.front_end(), FrontEnd::Event);
    assert_eq!(handle.event_loops(), 2);
    assert_eq!(threads(), baseline + 2, "event core spawned extra threads");

    // The shards answer on their own: one plan, checked against the
    // cold scan of a fresh rebuild.
    let plan = QueryPlan::TopK { k: 3 };
    let mut client = Client::connect(handle.addr(), ResponseEncoding::Binary).unwrap();
    let served = client
        .request(&Request::Plan {
            release: "city".into(),
            plan: plan.clone(),
        })
        .unwrap();
    let entry = server.catalog().get("city").unwrap();
    let matrix = entry.release.as_ref().clone().into_sanitized().unwrap();
    let expected = dpod_query::plan::execute(&matrix, &plan).unwrap();
    assert_eq!(served, Response::Answer { answer: expected });
    assert_eq!(threads(), baseline + 2, "serving spawned threads");
    drop(client);

    // Stopping joins every shard; the kernel may list an exiting task
    // for a moment after its join, so poll briefly.
    handle.stop();
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != baseline {
        assert!(
            Instant::now() < deadline,
            "{} threads left after stop, baseline {baseline}",
            threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}
