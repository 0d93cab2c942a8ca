//! The curator's publish path for one epoch of the `ny` series, as
//! `dpod publish --epoch T --retain 4` runs it, followed by the
//! post-publish work the benchmark does off the publish timing: the
//! frame round-trip check, the analyst-side rebuild and index, and the
//! per-epoch reference answers the window checks merge.

use crate::inputs::{self, Inputs, SERIES, SERIES_CELLS};
use crate::trace::{Tracer, ROOT};
use dpod_core::PublishedRelease;
use dpod_query::{Answer, QueryPlan, ReleaseIndex};
use dpod_serve::{series, Catalog, Server};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Epochs each series keeps live.
pub const RETAIN: usize = 4;
/// Mechanisms the series rotates through, epoch `T` using
/// `MECHANISMS[(T - 1) % 3]`.
pub const MECHANISMS: [&str; 3] = ["ebp", "daf-entropy", "daf-homogeneity"];
/// The marginal the window plans sum (origin density).
pub const WINDOW_KEEP: [usize; 2] = [0, 1];

fn sanitize_span(mechanism: &str) -> &'static str {
    match mechanism {
        "ebp" => "core.sanitize.ebp",
        "daf-entropy" => "core.sanitize.daf-entropy",
        _ => "core.sanitize.daf-homogeneity",
    }
}

/// Request id of epoch `T`'s publish spans (disjoint from plan ids).
pub fn publish_req(epoch: u64) -> u64 {
    (1 << 56) | epoch
}

/// What the benchmark keeps per live epoch to check window answers.
pub struct EpochRef {
    pub index: Arc<ReleaseIndex>,
    /// `plan::execute` answers of the window plans' inner plans.
    pub marginal: Answer,
    pub total: Answer,
}

/// One publish's outcome.
pub struct Published {
    pub epoch: u64,
    pub publish_ms: f64,
    pub partitions: usize,
    pub frame_bytes: usize,
    /// Whether `from_bytes(to_bytes(r)) == r` held.
    pub round_trip_ok: bool,
}

/// The curator: its own series catalog, persisted to a directory, and
/// the trip batches it publishes from.
pub struct Curator {
    catalog: Catalog,
    dir: PathBuf,
    csv: Vec<String>,
    seed: u64,
    pub refs: BTreeMap<u64, EpochRef>,
}

impl Curator {
    pub fn new(inputs: &Inputs, dir: PathBuf) -> Self {
        Curator {
            catalog: Catalog::new(),
            dir,
            csv: inputs.epoch_csv.clone(),
            seed: inputs.seed,
            refs: BTreeMap::new(),
        }
    }

    /// Publishes epoch `epoch` into the curator catalog and the server.
    pub fn publish(
        &mut self,
        server: &Server,
        epoch: u64,
        tracer: &mut Tracer,
    ) -> Result<Published, String> {
        let req = publish_req(epoch);
        let mechanism = MECHANISMS[((epoch - 1) % 3) as usize];
        let csv = &self.csv[(epoch as usize) % self.csv.len()];
        let mech = dpod_cli::registry::mechanism_by_name(mechanism).map_err(|e| e.0)?;
        let noise_seed = inputs::derive(self.seed, 1_000 + epoch);
        let entry = series::epoch_entry_name(SERIES, epoch);

        let start = Instant::now();
        let root = tracer.open("curator.publish", ROOT, req);
        let trips = tracer
            .time("cli.csv_parse", root, req, || dpod_cli::csv::from_csv(csv))
            .map_err(|e| e.0)?;
        let matrix = tracer.time("data.od_build", root, req, || {
            dpod_data::OdMatrixBuilder::new(SERIES_CELLS).build_dense(&trips, 0)
        })?;
        let sanitized = tracer
            .time(sanitize_span(mechanism), root, req, || {
                mech.sanitize(
                    &matrix,
                    inputs::epsilon(),
                    &mut dpod_dp::seeded_rng(noise_seed),
                )
            })
            .map_err(|e| format!("{mechanism}: {e}"))?;
        let release = tracer.time("core.release", root, req, || {
            PublishedRelease::from_sanitized(&sanitized)
        });
        let for_server = release.clone();
        self.catalog.publish(&entry, release.clone());
        let live = series::series_epochs(&self.catalog, SERIES);
        for info in series::expired_epochs(&live, RETAIN).map_err(|e| e.0)? {
            self.catalog.remove(&info.entry.name);
        }
        tracer
            .time("serve.catalog_save", root, req, || {
                self.catalog.save_dir(&self.dir)
            })
            .map_err(|e| e.0)?;
        let retired = tracer.time("serve.publish_epoch", root, req, || {
            server
                .publish_epoch(SERIES, epoch, for_server)
                .and_then(|_| server.apply_retention(SERIES, RETAIN))
                .map_err(|e| e.0)
        })?;
        tracer.close(root);
        let publish_ms = start.elapsed().as_secs_f64() * 1e3;

        // Off the publish timing: frame round trip, rebuild, index and
        // the reference answers of this epoch.
        let frame = tracer.time("fmatrix.frame_encode", ROOT, req, || release.to_bytes());
        let round_trip_ok = PublishedRelease::from_bytes(&frame).is_ok_and(|back| back == release);
        let owned = release.clone();
        let rebuilt = tracer
            .time("core.rebuild", ROOT, req, move || owned.into_sanitized())
            .map_err(|e| format!("rebuild of epoch {epoch}: {e}"))?;
        let rebuilt = Arc::new(rebuilt);
        let index = tracer.time("query.index_build", ROOT, req, || {
            let index = ReleaseIndex::new(Arc::clone(&rebuilt));
            index.marginal_table(&WINDOW_KEEP).map(|_| index)
        });
        let index = Arc::new(index.map_err(|e| e.0)?);
        let marginal = dpod_query::plan::execute(
            &rebuilt,
            &QueryPlan::Marginal {
                keep: WINDOW_KEEP.to_vec(),
            },
        )
        .map_err(|e| e.0)?;
        let total = dpod_query::plan::execute(&rebuilt, &QueryPlan::Total).map_err(|e| e.0)?;
        for old in retired {
            self.refs.remove(&old);
        }
        self.refs.insert(
            epoch,
            EpochRef {
                index,
                marginal,
                total,
            },
        );
        Ok(Published {
            epoch,
            publish_ms,
            partitions: sanitized.num_partitions(),
            frame_bytes: frame.len(),
            round_trip_ok,
        })
    }

    /// Removes the series from the server (analyst workloads serve only
    /// the analyst catalog once set-up has exercised the curator path).
    pub fn retire_all(&mut self, server: &Server) {
        for epoch in std::mem::take(&mut self.refs).into_keys() {
            server.remove_release(&series::epoch_entry_name(SERIES, epoch));
        }
    }
}

impl Drop for Curator {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
