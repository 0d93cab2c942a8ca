//! End-to-end serving tests: curator publishes a catalog, the serving
//! layer answers analyst query batches — and every answer must equal the
//! direct `SanitizedMatrix::range_sum` computed against the same release,
//! through both the in-process and the TCP front end.

use dpod_core::{daf::DafEntropy, grid::Ebp, grid::Eug, Mechanism, PublishedRelease};
use dpod_data::City;
use dpod_dp::Epsilon;
use dpod_fmatrix::{AxisBox, Shape};
use dpod_query::workload::QueryWorkload;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{Catalog, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::Arc;

const SIDE: usize = 64;

/// Three releases from distinct mechanisms over distinct city inputs,
/// plus the reference sanitized matrices the serving layer must agree
/// with.
fn reference_catalog() -> (Arc<Catalog>, HashMap<String, dpod_core::SanitizedMatrix>) {
    let eps = Epsilon::new(0.5).unwrap();
    let specs: [(&str, City, Box<dyn Mechanism>); 3] = [
        ("ny-ebp", City::NewYork, Box::new(Ebp::default())),
        ("denver-eug", City::Denver, Box::new(Eug::default())),
        (
            "detroit-daf",
            City::Detroit,
            Box::new(DafEntropy::default()),
        ),
    ];
    let catalog = Catalog::new();
    let mut reference = HashMap::new();
    for (i, (name, city, mech)) in specs.into_iter().enumerate() {
        let input =
            city.model()
                .population_matrix(SIDE, 30_000, &mut dpod_dp::seeded_rng(50 + i as u64));
        let out = mech
            .sanitize(&input, eps, &mut dpod_dp::seeded_rng(60 + i as u64))
            .unwrap();
        catalog.publish(name, PublishedRelease::from_sanitized(&out));
        reference.insert(name.to_string(), out);
    }
    (Arc::new(catalog), reference)
}

fn workload(n: usize, seed: u64) -> Vec<AxisBox> {
    let shape = Shape::new(vec![SIDE, SIDE]).unwrap();
    QueryWorkload::Random.draw_many(&shape, n, &mut dpod_dp::seeded_rng(seed))
}

/// The tentpole acceptance property: a 10k-query batch over a 3-release
/// catalog, every answer bit-identical to the direct range sum.
#[test]
fn ten_thousand_query_batch_matches_direct_range_sums() {
    let (catalog, reference) = reference_catalog();
    let server = Server::new(Arc::clone(&catalog), 64 << 20);
    let names: Vec<&str> = {
        let mut n: Vec<&str> = reference.keys().map(|s| s.as_str()).collect();
        n.sort();
        n
    };
    let queries = workload(10_000, 99);
    for (i, q) in queries.iter().enumerate() {
        let name = names[i % names.len()];
        let resp = server.handle(&Request::Query {
            release: name.into(),
            lo: q.lo().to_vec(),
            hi: q.hi().to_vec(),
        });
        let Response::Value { value } = resp else {
            panic!("query {i} failed: {resp:?}");
        };
        let expected = reference[name].range_sum(q);
        assert_eq!(value, expected, "query {i} on {name} diverged");
    }
    assert_eq!(
        server.snapshot().get("dpod_server_queries_total", &[]),
        Some(10_000.0)
    );
    // Ranges are plan leaves answered from each release's index: one
    // build (and one rebuild beneath it) per release, warm hits after.
    let stats = server.engine_stats();
    assert_eq!(stats.misses, 3, "each release rebuilt exactly once");
    assert_eq!(stats.index_misses, 3, "each release indexed exactly once");
    assert_eq!(stats.index_hits, 10_000 - 3);
}

/// The same agreement holds across the TCP front end with concurrent
/// analysts (each pipelining batches against a different release).
#[test]
fn tcp_clients_agree_with_direct_range_sums() {
    let (catalog, reference) = reference_catalog();
    let server = Arc::new(Server::new(Arc::clone(&catalog), 64 << 20));
    let handle = dpod_serve::spawn(Arc::clone(&server), "127.0.0.1:0", 4).unwrap();
    let addr = handle.addr();
    let reference = Arc::new(reference);

    let mut joins = Vec::new();
    for (t, name) in ["ny-ebp", "denver-eug", "detroit-daf"]
        .into_iter()
        .enumerate()
    {
        let reference = Arc::clone(&reference);
        joins.push(std::thread::spawn(move || {
            let queries = workload(500, 200 + t as u64);
            let ranges: Vec<(Vec<usize>, Vec<usize>)> = queries
                .iter()
                .map(|q| (q.lo().to_vec(), q.hi().to_vec()))
                .collect();
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let req = Request::Batch {
                release: name.into(),
                ranges,
            };
            writer
                .write_all(serde_json::to_string(&req).unwrap().as_bytes())
                .unwrap();
            writer.write_all(b"\n").unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let Response::Values { values } = serde_json::from_str(line.trim()).unwrap() else {
                panic!("batch on {name} failed");
            };
            assert_eq!(values.len(), queries.len());
            for (q, got) in queries.iter().zip(&values) {
                let expected = reference[name].range_sum(q);
                // JSON carries shortest-round-trip decimals: exact.
                assert_eq!(*got, expected, "{name} diverged on {q:?}");
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    handle.stop();
}

/// The same agreement holds over the `DPRB` binary protocol: answers are
/// bit-identical to the direct range sums (binary carries raw f64 bit
/// patterns, so not even JSON's shortest-round-trip decimals intervene).
#[test]
fn binary_tcp_clients_agree_with_direct_range_sums() {
    let (catalog, reference) = reference_catalog();
    let server = Arc::new(Server::new(Arc::clone(&catalog), 64 << 20));
    let handle = dpod_serve::spawn(Arc::clone(&server), "127.0.0.1:0", 4).unwrap();
    let addr = handle.addr();
    let reference = Arc::new(reference);

    let mut joins = Vec::new();
    for (t, name) in ["ny-ebp", "denver-eug", "detroit-daf"]
        .into_iter()
        .enumerate()
    {
        let reference = Arc::clone(&reference);
        joins.push(std::thread::spawn(move || {
            let queries = workload(500, 300 + t as u64);
            let ranges: Vec<(Vec<usize>, Vec<usize>)> = queries
                .iter()
                .map(|q| (q.lo().to_vec(), q.hi().to_vec()))
                .collect();
            let mut client = dpod_serve::wire::Client::connect(addr).unwrap();
            let values = client.batch(name, ranges).unwrap();
            assert_eq!(values.len(), queries.len());
            for (q, got) in queries.iter().zip(&values) {
                let expected = reference[name].range_sum(q);
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{name} diverged on {q:?}"
                );
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // Per-release hit telemetry saw all three analysts.
    let hits = server.release_hits();
    assert_eq!(hits.len(), 3);
    assert!(hits.iter().all(|(_, n)| *n == 500), "{hits:?}");
    handle.stop();
}

/// Publishes (and removes) racing incremental `save_dir` calls from many
/// threads must leave a directory that `load_dir` reconstructs to the
/// exact final catalog state: same names, same monotonic versions, same
/// release bytes, no orphaned frames, no leftover temp files.
#[test]
fn racing_publishes_and_incremental_saves_reconstruct_exact_state() {
    use dpod_core::grid::Ebp;
    use dpod_fmatrix::DenseMatrix;

    fn small_release(seed: u64) -> PublishedRelease {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(shape);
        m.add_at(&[(seed % 8) as usize, 2], 100 + seed).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(seed),
            )
            .unwrap();
        PublishedRelease::from_sanitized(&out)
    }

    let dir = std::env::temp_dir().join(format!("dpod_race_save_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let catalog = Arc::new(dpod_serve::Catalog::new());

    let mut joins = Vec::new();
    // Eight writers, two per name, each publishing then saving — every
    // save races publishes and other saves.
    for t in 0..8u64 {
        let catalog = Arc::clone(&catalog);
        let dir = dir.clone();
        joins.push(std::thread::spawn(move || {
            let name = format!("r{}", t % 4);
            for i in 0..6 {
                catalog.publish(&name, small_release(t * 100 + i));
                catalog.save_dir(&dir).unwrap();
            }
        }));
    }
    // One churner exercising tombstones mid-race, ending removed.
    {
        let catalog = Arc::clone(&catalog);
        let dir = dir.clone();
        joins.push(std::thread::spawn(move || {
            for i in 0..4 {
                catalog.publish("flaky", small_release(900 + i));
                catalog.save_dir(&dir).unwrap();
                catalog.remove("flaky");
                catalog.save_dir(&dir).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }

    // One quiescent save, then reload and compare exactly.
    catalog.save_dir(&dir).unwrap();
    let loaded = dpod_serve::Catalog::load_dir(&dir).unwrap();
    assert_eq!(loaded.names(), catalog.names());
    assert_eq!(loaded.len(), 4);
    for name in catalog.names() {
        let live = catalog.get(&name).unwrap();
        let from_disk = loaded.get(&name).unwrap();
        assert_eq!(from_disk.version, live.version, "{name} version drifted");
        assert_eq!(live.version, 12, "{name}: 2 writers × 6 publishes");
        assert_eq!(*from_disk.release, *live.release, "{name} bytes drifted");
    }
    // Tombstoned name stays gone but keeps its version floor.
    assert!(loaded.get("flaky").is_none());
    assert_eq!(loaded.publish("flaky", small_release(999)), 5);

    // No orphaned frames (exactly one per live release), no temp files.
    let files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|d| d.ok())
        .map(|d| d.file_name().to_string_lossy().into_owned())
        .collect();
    let frames = files.iter().filter(|f| f.ends_with(".dprl")).count();
    let tmps = files.iter().filter(|f| f.ends_with(".tmp")).count();
    assert_eq!(frames, 4, "{files:?}");
    assert_eq!(tmps, 0, "{files:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Catalog persistence composes with serving: save, reload, same answers.
#[test]
fn reloaded_catalog_serves_identical_answers() {
    let (catalog, reference) = reference_catalog();
    let dir = std::env::temp_dir().join(format!("dpod_serve_reload_{}", std::process::id()));
    catalog.save_dir(&dir).unwrap();
    let reloaded = Catalog::load_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let server = Server::new(Arc::new(reloaded), 64 << 20);
    for (name, sanitized) in reference.iter() {
        for q in workload(200, 77) {
            let resp = server.handle(&Request::Query {
                release: name.clone(),
                lo: q.lo().to_vec(),
                hi: q.hi().to_vec(),
            });
            let Response::Value { value } = resp else {
                panic!("{name}: {resp:?}");
            };
            assert_eq!(value, sanitized.range_sum(&q));
        }
    }
}
