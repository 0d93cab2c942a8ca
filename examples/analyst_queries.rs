//! The typed query algebra end to end: a curator publishes a 1-stop OD
//! release into a serving catalog, and an analyst drives every
//! `QueryPlan` variant — total, OD query, axis marginal, top-k — over a
//! real TCP connection speaking the `DPRB` binary protocol (with one
//! NDJSON line for contrast). Local (`dpod_query::plan::execute`) and
//! served answers are bit-identical, which this example asserts.
//!
//! ```sh
//! cargo run --release -p dpod-examples --example analyst_queries
//! ```

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_data::{City, OdMatrixBuilder, TrajectoryConfig};
use dpod_dp::Epsilon;
use dpod_query::{plan, Answer, QueryPlan, Region};
use dpod_serve::protocol::Request;
use dpod_serve::{spawn, Catalog, Client, ResponseEncoding, Server};
use std::sync::Arc;

fn main() {
    // ---- Curator: sanitize a 1-stop OD matrix and publish it. ----
    // 1 intermediate stop → a 6-D domain (x_o, y_o, x_s, y_s, x_d, y_d).
    let mut rng = dpod_dp::seeded_rng(7);
    let trips = TrajectoryConfig::with_stops(1).generate(&City::Denver.model(), 30_000, &mut rng);
    let od = OdMatrixBuilder::new(8)
        .build_dense(&trips, 1)
        .expect("8^6 cells fit in memory");
    let sanitized = Ebp::default()
        .sanitize(&od, Epsilon::new(1.0).expect("valid ε"), &mut rng)
        .expect("sanitization succeeds");
    let catalog = Arc::new(Catalog::new());
    catalog.publish("denver", PublishedRelease::from_sanitized(&sanitized));
    let server = Arc::new(Server::new(Arc::clone(&catalog), 64 << 20));
    let handle = spawn(Arc::clone(&server), "127.0.0.1:0", 2).expect("bind a local port");
    println!("serving 'denver' (6-D, 1 stop) on {}", handle.addr());

    // ---- Analyst: the typed algebra over the DPRB binary wire. ----
    let mut client = Client::connect(handle.addr(), ResponseEncoding::Binary).expect("connect");

    let total = client
        .plan("denver", QueryPlan::Total)
        .expect("total answers");
    let Answer::Value { value: total } = total else {
        panic!("total answers with a Value");
    };
    println!("total trips (estimate)          : {total:.1}");

    // Trips from the north-west quadrant to the south-east quadrant
    // whose intermediate stop passes through the city centre.
    let od_plan = QueryPlan::od()
        .with_origin(Region::new((0, 0), (4, 4)))
        .with_stop(0, Region::new((2, 2), (6, 6)))
        .with_destination(Region::new((4, 4), (8, 8)));
    let Answer::Value { value: corridor } =
        client.plan("denver", od_plan.clone()).expect("od answers")
    else {
        panic!("od answers with a Value");
    };
    println!("NW → centre-stop → SE corridor  : {corridor:.1}");

    // The destination density: marginalize everything but (x_d, y_d).
    let Answer::Marginal { dims, values } = client
        .plan("denver", QueryPlan::Marginal { keep: vec![4, 5] })
        .expect("marginal answers")
    else {
        panic!("marginal answers with a Marginal");
    };
    let peak = values.iter().cloned().fold(f64::MIN, f64::max);
    println!("destination density             : {dims:?} grid, peak cell ≈ {peak:.1}");

    // The five heaviest released cells (full 6-D coordinates).
    let Answer::TopK { cells, .. } = client
        .plan("denver", QueryPlan::TopK { k: 5 })
        .expect("top-k answers")
    else {
        panic!("top-k answers with a TopK");
    };
    println!("top-5 cells:");
    for cell in &cells {
        println!("  {:?} => {:.1}", cell.coords, cell.value);
    }

    // ---- The same vocabulary, one JSON line (any shell can do this). --
    let mut json = Client::connect(handle.addr(), ResponseEncoding::Json).expect("connect");
    let req = Request::Plan {
        release: "denver".into(),
        plan: QueryPlan::Many {
            plans: vec![QueryPlan::Total, QueryPlan::TopK { k: 1 }],
        },
    };
    let line = serde_json::to_string(&req).expect("serializable");
    println!("NDJSON request                  : {line}");
    let answer = json.request(&req).expect("round trip");
    let answer = serde_json::to_string(&answer).expect("serializable");
    println!("NDJSON response                 : {answer}");

    // ---- Served answers are post-processing: identical to local. ----
    let local = plan::execute(&sanitized, &od_plan).expect("local execute");
    let Answer::Value { value: local_value } = local else {
        panic!("local od answers with a Value");
    };
    assert_eq!(
        local_value.to_bits(),
        corridor.to_bits(),
        "served answers must be bit-identical to local execution"
    );
    println!("local == served (bit-identical) : ok");

    handle.stop();
}
