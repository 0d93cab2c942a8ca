//! Epoch catalogs: continual publication as release *series*.
//!
//! The EDBT'22 model publishes one sanitized OD matrix per time slice —
//! a city republishes every week under a fresh ε grant. This module
//! layers that *series* view over the flat [`Catalog`] without changing
//! its storage: an epoch is an ordinary catalog entry named
//! `"{series}@{epoch}"` (e.g. `city@3`), and a legacy plain-named entry
//! reads as epoch `0` of its own series. Because the encoding is pure
//! naming, a pre-epoch save-dir loads unchanged as a set of
//! single-epoch series and round-trips byte-identically — manifest
//! back-compat comes for free (pinned by test below).
//!
//! Two concerns live here:
//!
//! * **Naming** — [`epoch_entry_name`]/[`split_epoch_name`] map between
//!   series coordinates and catalog names; [`series_epochs`] lists a
//!   series' live epochs in ascending order.
//! * **Publication discipline** — [`validate_publish_epoch`] enforces
//!   the monotonic rule (republish a live epoch, or append past the
//!   frontier; never resurrect a retired id), and [`expired_epochs`]
//!   computes what a `--retain k` policy tombstones.
//!
//! A series' active ε is not stored anywhere: it is the sum of its live
//! epochs' ε, read off the catalog (`dpod_series_epsilon_active` and
//! `dpod publish --series-budget` both derive it that way), so retiring
//! an epoch refunds its ε simply by removing the entry.
//!
//! Window query *execution* (fanning one plan across selected epochs
//! and merging) lives in [`crate::Server`]; the pure selection step,
//! [`select_epochs`], lives here so the CLI and tests share it.

use crate::{Catalog, CatalogEntry, ServeError};
use dpod_query::EpochSelector;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The character separating a series name from its epoch id in a
/// catalog entry name. Series names must not contain it.
pub const EPOCH_SEP: char = '@';

/// The catalog entry name for epoch `epoch` of `series`.
pub fn epoch_entry_name(series: &str, epoch: u64) -> String {
    format!("{series}{EPOCH_SEP}{epoch}")
}

/// Splits a catalog entry name into `(series, Some(epoch))` when it
/// carries an epoch suffix, or `(name, None)` for a legacy plain name
/// (which [`series_epochs`] reads as epoch `0`). A suffix that is not a
/// decimal integer is not an epoch — the whole name is the series.
pub fn split_epoch_name(name: &str) -> (&str, Option<u64>) {
    match name.rsplit_once(EPOCH_SEP) {
        Some((series, suffix)) if !series.is_empty() => match suffix.parse::<u64>() {
            Ok(epoch) => (series, Some(epoch)),
            Err(_) => (name, None),
        },
        _ => (name, None),
    }
}

/// One live epoch of a series: its id and the catalog entry behind it.
#[derive(Debug, Clone)]
pub struct EpochInfo {
    /// The epoch id (the `T` of `series@T`; `0` for a legacy plain
    /// entry).
    pub epoch: u64,
    /// The catalog entry holding this epoch's release.
    pub entry: Arc<CatalogEntry>,
}

/// The live epochs of `series`, ascending by epoch id.
///
/// A legacy plain entry named exactly `series` participates as epoch
/// `0` — unless an explicit `series@0` also exists, in which case the
/// explicit entry wins (publishing `series@0` over a legacy catalog is
/// a deliberate upgrade, not a collision).
pub fn series_epochs(catalog: &Catalog, series: &str) -> Vec<EpochInfo> {
    let mut by_epoch: BTreeMap<u64, Arc<CatalogEntry>> = BTreeMap::new();
    if let Some(entry) = catalog.get(series) {
        by_epoch.insert(0, entry);
    }
    // Only names under `series@` can hold its epochs; `city@x@3` shares
    // the prefix of `city` but is epoch 3 of series `city@x`.
    for entry in catalog.entries_with_prefix(&format!("{series}{EPOCH_SEP}")) {
        if let (s, Some(epoch)) = split_epoch_name(&entry.name) {
            if s == series {
                by_epoch.insert(epoch, entry);
            }
        }
    }
    by_epoch
        .into_iter()
        .map(|(epoch, entry)| EpochInfo { epoch, entry })
        .collect()
}

/// The series names present in `catalog`, sorted, each with its live
/// epoch count (a plain entry counts as a one-epoch series).
pub fn series_names(catalog: &Catalog) -> Vec<(String, usize)> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for entry in catalog.entries() {
        let (series, _) = split_epoch_name(&entry.name);
        *counts.entry(series.to_string()).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Validates that publishing `epoch` into `series` respects the
/// monotonic rule: the id must either already be live (a republish —
/// the entry's version bumps) or exceed every live epoch (an append).
/// Ids at or below the frontier that are *not* live were retired, and a
/// retired epoch's ε was refunded — resurrecting it would double-spend.
/// Returns the series' live epochs it checked against (as
/// [`series_epochs`]), so a publisher reads the catalog once.
///
/// # Errors
/// [`ServeError`] when the series name contains [`EPOCH_SEP`] or the
/// epoch id is non-monotonic.
pub fn validate_publish_epoch(
    catalog: &Catalog,
    series: &str,
    epoch: u64,
) -> Result<Vec<EpochInfo>, ServeError> {
    if series.contains(EPOCH_SEP) {
        return Err(ServeError(format!(
            "series name '{series}' must not contain '{EPOCH_SEP}' (it separates the epoch id)"
        )));
    }
    let live = series_epochs(catalog, series);
    let Some(frontier) = live.last().map(|e| e.epoch) else {
        return Ok(live); // first epoch of a fresh series: any id
    };
    if live.iter().any(|e| e.epoch == epoch) || epoch > frontier {
        Ok(live)
    } else {
        Err(ServeError(format!(
            "epoch {epoch} of series '{series}' is behind the frontier {frontier} and not live; \
             epoch ids are monotonic (republish a live epoch or append past {frontier})"
        )))
    }
}

/// The epochs a `retain k` policy expires: everything except the `k`
/// newest. `k = 0` is rejected rather than silently emptying a series.
///
/// # Errors
/// [`ServeError`] when `retain` is zero.
pub fn expired_epochs(epochs: &[EpochInfo], retain: usize) -> Result<Vec<EpochInfo>, ServeError> {
    if retain == 0 {
        return Err(ServeError(
            "retention must keep at least one epoch (retain >= 1)".into(),
        ));
    }
    let expired = epochs.len().saturating_sub(retain);
    Ok(epochs[..expired].to_vec())
}

/// Resolves an [`EpochSelector`] against a series' live epochs,
/// returning the selected subset in ascending order.
///
/// * `At{epoch}` — exactly that epoch, which must be live;
/// * `LastK{k}` — the `k` newest live epochs (`k >= 1`; clamped to the
///   series length, matching a sliding window at the series' start);
/// * `Range{from, to}` — the live epochs in `from..=to`, of which there
///   must be at least one.
///
/// # Errors
/// [`ServeError`] when the series is empty, `At` names a dead epoch,
/// `LastK` asks for zero, or `Range` is inverted or selects nothing.
pub fn select_epochs(
    selector: &EpochSelector,
    epochs: &[EpochInfo],
) -> Result<Vec<EpochInfo>, ServeError> {
    if epochs.is_empty() {
        return Err(ServeError("series has no live epochs".into()));
    }
    match selector {
        EpochSelector::At { epoch } => epochs
            .iter()
            .find(|e| e.epoch == *epoch)
            .map(|e| vec![e.clone()])
            .ok_or_else(|| {
                ServeError(format!(
                    "epoch {epoch} is not live (live epochs: {:?})",
                    epochs.iter().map(|e| e.epoch).collect::<Vec<_>>()
                ))
            }),
        EpochSelector::LastK { k } => {
            if *k == 0 {
                return Err(ServeError("window last_k must be >= 1".into()));
            }
            let k = usize::try_from(*k).unwrap_or(usize::MAX).min(epochs.len());
            Ok(epochs[epochs.len() - k..].to_vec())
        }
        EpochSelector::Range { from, to } => {
            if from > to {
                return Err(ServeError(format!(
                    "window range {from}..={to} is inverted"
                )));
            }
            let selected: Vec<EpochInfo> = epochs
                .iter()
                .filter(|e| e.epoch >= *from && e.epoch <= *to)
                .cloned()
                .collect();
            if selected.is_empty() {
                return Err(ServeError(format!(
                    "window range {from}..={to} selects no live epoch (live epochs: {:?})",
                    epochs.iter().map(|e| e.epoch).collect::<Vec<_>>()
                )));
            }
            Ok(selected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_core::release::PublishedRelease;
    use dpod_core::{grid::Ebp, Mechanism};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{DenseMatrix, Shape};
    use std::sync::Arc;

    fn release(seed: u64) -> PublishedRelease {
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[1, 2], 300).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(seed),
            )
            .unwrap();
        PublishedRelease::from_sanitized(&out)
    }

    fn catalog_with(names: &[&str]) -> Catalog {
        let catalog = Catalog::new();
        for (i, name) in names.iter().enumerate() {
            catalog.publish(name, release(i as u64 + 1));
        }
        catalog
    }

    /// Reading only the `series@` range finds exactly what a scan of
    /// every entry finds, past decoys that share a prefix or a suffix.
    #[test]
    fn series_epochs_matches_a_full_scan() {
        let catalog = catalog_with(&[
            "city2@1",
            "cit@1",
            "city@x",
            "city@x@3",
            "city",
            "city@0",
            "city@2",
            "city@10",
            "city@best",
            "citz@4",
        ]);
        let full_scan = |series: &str| -> Vec<(u64, String)> {
            let mut by_epoch = BTreeMap::new();
            if let Some(entry) = catalog.get(series) {
                by_epoch.insert(0, entry.name.clone());
            }
            for entry in catalog.entries() {
                if let (s, Some(epoch)) = split_epoch_name(&entry.name) {
                    if s == series {
                        by_epoch.insert(epoch, entry.name.clone());
                    }
                }
            }
            by_epoch.into_iter().collect()
        };
        for series in [
            "city",
            "city@x",
            "city2",
            "cit",
            "citz",
            "city@best",
            "ci",
            "nope",
        ] {
            let got: Vec<(u64, String)> = series_epochs(&catalog, series)
                .into_iter()
                .map(|e| (e.epoch, e.entry.name.clone()))
                .collect();
            assert_eq!(got, full_scan(series), "series {series}");
        }
        // The explicit `city@0` wins over the plain `city`.
        let city: Vec<u64> = series_epochs(&catalog, "city")
            .iter()
            .map(|e| e.epoch)
            .collect();
        assert_eq!(city, [0, 2, 10]);
        assert_eq!(series_epochs(&catalog, "city")[0].entry.name, "city@0");
        let names = |series| -> Vec<String> {
            series_epochs(&catalog, series)
                .into_iter()
                .map(|e| e.entry.name.clone())
                .collect()
        };
        assert_eq!(names("city@x"), ["city@x", "city@x@3"]);
        assert_eq!(names("city2"), ["city2@1"]);
    }

    #[test]
    fn epoch_names_round_trip() {
        assert_eq!(epoch_entry_name("city", 7), "city@7");
        assert_eq!(split_epoch_name("city@7"), ("city", Some(7)));
        assert_eq!(split_epoch_name("city"), ("city", None));
        // A non-numeric suffix is part of the series name, not an epoch.
        assert_eq!(split_epoch_name("city@best"), ("city@best", None));
        // A leading separator has no series to attach to.
        assert_eq!(split_epoch_name("@3"), ("@3", None));
    }

    #[test]
    fn legacy_plain_entry_reads_as_epoch_zero() {
        let catalog = catalog_with(&["city", "city@2", "other"]);
        let epochs = series_epochs(&catalog, "city");
        assert_eq!(
            epochs.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(epochs[0].entry.name, "city");
        assert_eq!(epochs[1].entry.name, "city@2");
        // An explicit `city@0` wins over the legacy plain entry.
        let catalog = catalog_with(&["city", "city@0"]);
        let epochs = series_epochs(&catalog, "city");
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].entry.name, "city@0");
    }

    #[test]
    fn series_names_group_epochs() {
        let catalog = catalog_with(&["a@1", "a@2", "b", "c@5"]);
        assert_eq!(
            series_names(&catalog),
            vec![
                ("a".to_string(), 2),
                ("b".to_string(), 1),
                ("c".to_string(), 1)
            ]
        );
    }

    #[test]
    fn publish_validation_enforces_monotonic_epochs() {
        let catalog = catalog_with(&["city@3", "city@5"]);
        // Fresh series: any id.
        assert!(validate_publish_epoch(&catalog, "fresh", 42).is_ok());
        // Republish of a live epoch.
        assert!(validate_publish_epoch(&catalog, "city", 3).is_ok());
        // Append past the frontier.
        assert!(validate_publish_epoch(&catalog, "city", 6).is_ok());
        // A retired/never-live id behind the frontier is refused.
        let err = validate_publish_epoch(&catalog, "city", 4).expect_err("behind frontier");
        assert!(err.0.contains("frontier 5"), "{err}");
        // Series names must not carry the separator.
        assert!(validate_publish_epoch(&catalog, "ci@ty", 1).is_err());
    }

    #[test]
    fn retention_expires_all_but_the_newest() {
        let catalog = catalog_with(&["s@1", "s@2", "s@3", "s@4"]);
        let epochs = series_epochs(&catalog, "s");
        let expired = expired_epochs(&epochs, 2).expect("retain 2");
        assert_eq!(
            expired.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(expired_epochs(&epochs, 10).expect("retain 10").is_empty());
        assert!(expired_epochs(&epochs, 0).is_err());
    }

    #[test]
    fn selectors_resolve_against_live_epochs() {
        let catalog = catalog_with(&["s@2", "s@4", "s@7"]);
        let epochs = series_epochs(&catalog, "s");
        let ids = |infos: &[EpochInfo]| infos.iter().map(|e| e.epoch).collect::<Vec<_>>();

        let at = select_epochs(&EpochSelector::At { epoch: 4 }, &epochs).expect("at");
        assert_eq!(ids(&at), vec![4]);
        assert!(select_epochs(&EpochSelector::At { epoch: 3 }, &epochs).is_err());

        let last = select_epochs(&EpochSelector::LastK { k: 2 }, &epochs).expect("last 2");
        assert_eq!(ids(&last), vec![4, 7]);
        // k beyond the series clamps to the whole series.
        let all = select_epochs(&EpochSelector::LastK { k: 99 }, &epochs).expect("last 99");
        assert_eq!(ids(&all), vec![2, 4, 7]);
        assert!(select_epochs(&EpochSelector::LastK { k: 0 }, &epochs).is_err());

        let range = select_epochs(&EpochSelector::Range { from: 3, to: 7 }, &epochs).expect("rng");
        assert_eq!(ids(&range), vec![4, 7]);
        assert!(select_epochs(&EpochSelector::Range { from: 7, to: 3 }, &epochs).is_err());
        assert!(select_epochs(&EpochSelector::Range { from: 8, to: 9 }, &epochs).is_err());
        assert!(select_epochs(&EpochSelector::LastK { k: 1 }, &[]).is_err());
    }

    /// Satellite: a pre-epoch save-dir — plain names, no `@` anywhere —
    /// loads as a set of single-epoch series and a save over the loaded
    /// catalog rewrites nothing: the manifest and every frame file stay
    /// byte-identical.
    #[test]
    fn pre_epoch_save_dir_loads_as_single_epoch_series_and_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "dpod-series-compat-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let catalog = catalog_with(&["denver", "boulder"]);
        catalog.save_dir(&dir).expect("save");
        let bytes_of = |dir: &std::path::Path| {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
                .expect("read dir")
                .map(|e| {
                    let e = e.expect("entry");
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read(e.path()).expect("read file"),
                    )
                })
                .collect();
            files.sort_by(|a, b| a.0.cmp(&b.0));
            files
        };
        let before = bytes_of(&dir);

        let loaded = Catalog::load_dir(&dir).expect("load");
        // Each plain name is a one-epoch series at epoch 0.
        for name in ["denver", "boulder"] {
            let epochs = series_epochs(&loaded, name);
            assert_eq!(epochs.len(), 1, "{name}");
            assert_eq!(epochs[0].epoch, 0);
            assert_eq!(epochs[0].entry.name, name);
        }
        // Round trip: saving the loaded catalog changes no byte.
        loaded.save_dir(&dir).expect("re-save");
        let after = bytes_of(&dir);
        assert_eq!(
            before, after,
            "pre-epoch save-dir must round-trip byte-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_entries_persist_through_a_save_dir() {
        let dir = std::env::temp_dir().join(format!(
            "dpod-series-save-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .expect("clock")
                .as_nanos()
        ));
        let catalog = catalog_with(&["city@1", "city@2"]);
        catalog.save_dir(&dir).expect("save");
        let loaded = Catalog::load_dir(&dir).expect("load");
        let epochs = series_epochs(&loaded, "city");
        assert_eq!(
            epochs.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // Retiring an epoch and saving tombstones it: a reload does not
        // resurrect it, so the monotonic rule keeps refusing its id.
        assert!(Arc::strong_count(&epochs[0].entry.release) >= 1);
        loaded.remove("city@1");
        loaded.save_dir(&dir).expect("save after retire");
        let reloaded = Catalog::load_dir(&dir).expect("reload");
        let epochs = series_epochs(&reloaded, "city");
        assert_eq!(epochs.iter().map(|e| e.epoch).collect::<Vec<_>>(), vec![2]);
        assert!(validate_publish_epoch(&reloaded, "city", 1).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
