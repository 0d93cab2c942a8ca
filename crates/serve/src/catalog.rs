//! The release catalog: one `RwLock`-guarded store of named, versioned
//! releases with directory persistence.
//!
//! A [`CatalogEntry`] is the one home of a release's serving state: its
//! version, its artifact (and so its ε), and its answered-query count.
//! Requests resolve an entry once and count their hits on it, so a
//! removed release takes its count with it.

use crate::ServeError;
use dpod_core::PublishedRelease;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Name of the JSON manifest written next to the `.dprl` frames.
const MANIFEST: &str = "catalog.json";

/// One catalogued release.
#[derive(Debug)]
pub struct CatalogEntry {
    /// Catalog name (analyst-visible identifier).
    pub name: String,
    /// Monotonic per-name version, bumped on every publish.
    pub version: u64,
    /// The published artifact (shared, immutable).
    pub release: Arc<PublishedRelease>,
    /// Queries answered against this name since it was last published
    /// fresh; shared with the entry a republish replaces.
    hits: Arc<AtomicU64>,
}

impl CatalogEntry {
    /// Queries answered against this release name.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Counts `n` answered queries against this release name.
    pub(crate) fn note_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }
}

/// Manifest row persisted alongside the binary frames.
///
/// A row with `deleted: true` is a *tombstone*: the release was removed,
/// its frame file is gone, but its last version is retained so that a
/// reload followed by a republish keeps the per-name version sequence
/// monotonic (the `QueryEngine` cache tells a name's entries apart by
/// version and must never see one reused for different data, even
/// across a restart).
/// `checksum` is an FNV-1a digest of the frame bytes: versions alone
/// cannot prove a frame is current (a fresh catalog that never loaded
/// this directory can re-assign an existing `(name, version)` pair to
/// different data), so the incremental skip requires the content digest
/// to match too.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    name: String,
    version: u64,
    file: String,
    checksum: u64,
    deleted: bool,
}

/// FNV-1a over frame bytes: stable across processes and toolchains
/// (unlike `DefaultHasher`, which carries no cross-version guarantee),
/// which is what a persisted digest needs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one [`Catalog::save_dir`] call actually did on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Frames written because the release was new or republished.
    pub written: usize,
    /// Frames left untouched (same name, version and file already on
    /// disk) — the incremental fast path.
    pub skipped: usize,
    /// Stale files removed (frames of removed releases, orphans from an
    /// interrupted save, leftover temp files).
    pub pruned: usize,
    /// Tombstone rows recorded for removed releases.
    pub tombstones: usize,
}

impl SaveReport {
    /// Number of live releases the saved directory holds.
    pub fn live(&self) -> usize {
        self.written + self.skipped
    }
}

/// The catalog's state under its one lock: the live entries plus the
/// last version ever assigned per name. `last_versions` outlives removal
/// so that a remove-then-republish still advances the version — the
/// `QueryEngine` cache tells a name's entries apart by version and must
/// never see one reused for different data.
#[derive(Debug, Default)]
struct Inner {
    /// Name-ordered, so listings need no sort and a series' epochs
    /// (`series@…`) are one contiguous range.
    entries: BTreeMap<String, Arc<CatalogEntry>>,
    last_versions: HashMap<String, u64>,
}

/// Serializes every [`Catalog::save_dir`] in this process — across
/// catalog instances, not just per instance. Concurrent savers would
/// otherwise interleave manifest writes, and the prune step's "this
/// process's temp files are sweepable" rule is only sound if no other
/// save in the process can be mid-`write_atomically` (two instances
/// share one pid, so a per-instance lock would not protect them from
/// each other). Publishes never take this lock — saving runs against a
/// point-in-time snapshot.
static SAVE_LOCK: Mutex<()> = Mutex::new(());

/// An `RwLock`-guarded in-memory release store.
#[derive(Debug, Default)]
pub struct Catalog {
    inner: RwLock<Inner>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes `release` under `name`, returning the new version
    /// (1 for a never-before-seen name, previous + 1 otherwise — versions
    /// keep advancing across [`Self::remove`], never repeating). A
    /// republish of a live name keeps its hit count; a name published
    /// fresh or after a removal starts at zero.
    pub fn publish(&self, name: &str, release: PublishedRelease) -> u64 {
        let mut inner = self.write();
        let version = inner.last_versions.get(name).copied().unwrap_or(0) + 1;
        inner.last_versions.insert(name.to_string(), version);
        let hits = inner
            .entries
            .get(name)
            .map(|old| Arc::clone(&old.hits))
            .unwrap_or_default();
        inner.entries.insert(
            name.to_string(),
            Arc::new(CatalogEntry {
                name: name.to_string(),
                version,
                release: Arc::new(release),
                hits,
            }),
        );
        version
    }

    /// Resolves `name` to its current entry.
    pub fn get(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.read().entries.get(name).cloned()
    }

    /// Removes `name`, returning whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        self.write().entries.remove(name).is_some()
    }

    /// All current entries, sorted by name.
    pub fn entries(&self) -> Vec<Arc<CatalogEntry>> {
        self.read().entries.values().cloned().collect()
    }

    /// The current entries whose names start with `prefix`, sorted by
    /// name.
    pub(crate) fn entries_with_prefix(&self, prefix: &str) -> Vec<Arc<CatalogEntry>> {
        self.read()
            .entries
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(_, entry)| Arc::clone(entry))
            .collect()
    }

    /// All current names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries().iter().map(|e| e.name.clone()).collect()
    }

    /// Number of catalogued releases.
    pub fn len(&self) -> usize {
        self.read().entries.len()
    }

    /// `true` when no releases are catalogued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persists the catalog to `dir` *incrementally*: one `DPRL` frame
    /// per release plus a `catalog.json` manifest, writing only frames
    /// whose release is new or republished since the directory's last
    /// save. An unchanged release's frame file is not touched at all —
    /// same bytes, same mtime. Removed releases leave a tombstone row
    /// in the manifest (preserving version monotonicity across a
    /// reload) and their frames are pruned.
    ///
    /// Frame files are keyed by release *name* (sanitized, hash-suffixed
    /// for uniqueness) and every write goes through a uniquely-named
    /// temp file + rename, so a crash mid-save can never leave one
    /// name's manifest row pointing at another name's data — the worst
    /// case is a frame one publish newer than the manifest row
    /// describing it, which the next save repairs. Concurrent
    /// `save_dir` calls anywhere in the process serialize on one
    /// internal lock; publishes never wait on a save.
    ///
    /// # Errors
    /// [`ServeError`] wrapping the first IO or serialization failure.
    pub fn save_dir(&self, dir: &Path) -> Result<SaveReport, ServeError> {
        let _guard = SAVE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::fs::create_dir_all(dir)
            .map_err(|e| ServeError(format!("cannot create {}: {e}", dir.display())))?;
        // Best-effort read of the previous manifest: a missing or
        // corrupt one simply downgrades this save to a full rewrite.
        let previous: HashMap<String, ManifestEntry> = std::fs::read_to_string(dir.join(MANIFEST))
            .ok()
            .and_then(|text| serde_json::from_str::<Vec<ManifestEntry>>(&text).ok())
            .map(|rows| rows.into_iter().map(|r| (r.name.clone(), r)).collect())
            .unwrap_or_default();

        // One read lock covers both views, so a concurrent publish is
        // either wholly visible or wholly absent — never in
        // `last_versions` but not the entries (misread as a removal).
        let (entries, last_versions) = {
            let inner = self.read();
            let entries: Vec<Arc<CatalogEntry>> = inner.entries.values().cloned().collect();
            let versions: Vec<(String, u64)> = inner
                .last_versions
                .iter()
                .map(|(n, v)| (n.clone(), *v))
                .collect();
            (entries, versions)
        };
        let live: HashSet<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        let mut report = SaveReport::default();
        let mut manifest = Vec::with_capacity(entries.len());
        for entry in &entries {
            let file = frame_file_name(&entry.name);
            let bytes = entry.release.to_bytes();
            let checksum = fnv1a(&bytes);
            // Skipping requires the on-disk content to provably match:
            // name, version, file AND content digest. Version equality
            // alone is not proof — this catalog may never have loaded
            // the directory it is saving into.
            let unchanged = previous.get(&entry.name).is_some_and(|old| {
                !old.deleted
                    && old.version == entry.version
                    && old.file == file
                    && old.checksum == checksum
                    && dir.join(&file).is_file()
            });
            if unchanged {
                report.skipped += 1;
            } else {
                write_atomically(&dir.join(&file), &bytes)?;
                report.written += 1;
            }
            manifest.push(ManifestEntry {
                name: entry.name.clone(),
                version: entry.version,
                file,
                checksum,
                deleted: false,
            });
        }

        // Tombstones: every name this catalog has ever versioned, or the
        // previous manifest recorded, that is no longer live. Keep the
        // highest version seen from either source.
        let mut tombstones: BTreeMap<String, u64> = BTreeMap::new();
        for (name, version) in last_versions {
            if !live.contains(name.as_str()) {
                let slot = tombstones.entry(name).or_insert(0);
                *slot = (*slot).max(version);
            }
        }
        for (name, old) in &previous {
            if !live.contains(name.as_str()) {
                let slot = tombstones.entry(name.clone()).or_insert(0);
                *slot = (*slot).max(old.version);
            }
        }
        for (name, version) in tombstones {
            manifest.push(ManifestEntry {
                name,
                version,
                file: String::new(),
                checksum: 0,
                deleted: true,
            });
            report.tombstones += 1;
        }

        let manifest_json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| ServeError(format!("cannot serialize manifest: {e}")))?;
        write_atomically(&dir.join(MANIFEST), manifest_json.as_bytes())?;

        // Prune everything the new manifest does not reference: frames
        // of removed releases (the manifest-less scan fallback in
        // `load_dir` must not resurrect them), orphans from interrupted
        // saves, and sweepable temp files. This process's temp files are
        // safe to sweep (the save lock means no sibling save is
        // mid-write); another live process may be mid-`write_atomically`
        // right now, so foreign temp files are only swept once old
        // enough to be a crashed writer's leftover.
        let referenced: HashSet<&str> = manifest
            .iter()
            .filter(|m| !m.deleted)
            .map(|m| m.file.as_str())
            .collect();
        if let Ok(listing) = std::fs::read_dir(dir) {
            for dirent in listing.flatten() {
                let path = dirent.path();
                let stale_frame = path.extension().is_some_and(|e| e == "dprl")
                    && path
                        .file_name()
                        .and_then(|f| f.to_str())
                        .is_some_and(|f| !referenced.contains(f));
                let sweepable_tmp =
                    path.extension().is_some_and(|e| e == "tmp") && tmp_is_sweepable(&path);
                if (stale_frame || sweepable_tmp) && std::fs::remove_file(&path).is_ok() {
                    report.pruned += 1;
                }
            }
        }
        Ok(report)
    }

    /// Loads a catalog persisted by [`Self::save_dir`]. Tombstone rows
    /// restore only the per-name version floor, so a republish after
    /// reload continues the version sequence instead of restarting it.
    /// Without a manifest, every `*.dprl` file in `dir` is loaded under
    /// its file stem at version 1 (so hand-assembled directories also
    /// serve).
    ///
    /// # Errors
    /// [`ServeError`] when the directory is unreadable, a frame fails to
    /// parse, or a manifest entry points at a missing file.
    pub fn load_dir(dir: &Path) -> Result<Self, ServeError> {
        let catalog = Catalog::new();
        let manifest_path = dir.join(MANIFEST);
        if manifest_path.is_file() {
            let text = std::fs::read_to_string(&manifest_path)
                .map_err(|e| ServeError(format!("cannot read {}: {e}", manifest_path.display())))?;
            let manifest: Vec<ManifestEntry> = serde_json::from_str(&text)
                .map_err(|e| ServeError(format!("bad manifest: {e}")))?;
            let mut inner = catalog.write();
            for row in manifest {
                if row.deleted {
                    let floor = inner.last_versions.entry(row.name).or_insert(0);
                    *floor = (*floor).max(row.version);
                    continue;
                }
                let release = read_release(&dir.join(&row.file))?;
                inner.last_versions.insert(row.name.clone(), row.version);
                inner.entries.insert(
                    row.name.clone(),
                    Arc::new(CatalogEntry {
                        name: row.name,
                        version: row.version,
                        release: Arc::new(release),
                        hits: Arc::default(),
                    }),
                );
            }
        } else {
            let listing = std::fs::read_dir(dir)
                .map_err(|e| ServeError(format!("cannot read {}: {e}", dir.display())))?;
            for dirent in listing {
                let path = dirent
                    .map_err(|e| ServeError(format!("cannot list {}: {e}", dir.display())))?
                    .path();
                if path.extension().is_some_and(|e| e == "dprl") {
                    let name = path
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .ok_or_else(|| ServeError(format!("bad file name {}", path.display())))?;
                    let release = read_release(&path)?;
                    catalog.publish(&name, release);
                }
            }
        }
        Ok(catalog)
    }
}

/// Stable, filesystem-safe frame name for a release: a sanitized prefix
/// of the name plus a hash suffix disambiguating collisions ("a/b" vs
/// "a_b"). Keying by name keeps a file's content bound to one release
/// across saves.
fn frame_file_name(name: &str) -> String {
    let safe: String = name
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    format!("{safe}-{:016x}.dprl", h.finish())
}

/// Whether a temp file may be deleted during prune: ours (the save lock
/// guarantees this process has no write in flight by prune time), or so
/// old it can only be a crashed writer's leftover — never another live
/// process's in-flight rename.
fn tmp_is_sweepable(path: &Path) -> bool {
    let marker = format!(".{}-", std::process::id());
    let ours = path
        .file_name()
        .and_then(|f| f.to_str())
        .is_some_and(|f| f.contains(&marker));
    if ours {
        return true;
    }
    const STALE: std::time::Duration = std::time::Duration::from_secs(15 * 60);
    std::fs::metadata(path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_some_and(|age| age > STALE)
}

/// Writes via a uniquely-named sibling temp file + rename (atomic on one
/// filesystem). The temp name carries the process id and a global
/// sequence number so writers racing on the same target — two catalogs
/// saving into one directory, or two processes — never interleave bytes
/// in a shared temp file; last rename wins cleanly.
fn write_atomically(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp_name = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "frame".to_string());
    tmp_name.push_str(&format!(".{}-{seq}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, bytes)
        .map_err(|e| ServeError(format!("cannot write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| ServeError(format!("cannot rename into {}: {e}", path.display())))
}

fn read_release(path: &Path) -> Result<PublishedRelease, ServeError> {
    let bytes = std::fs::read(path)
        .map_err(|e| ServeError(format!("cannot read {}: {e}", path.display())))?;
    PublishedRelease::from_bytes(&bytes).map_err(|e| ServeError(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_core::{baselines::Identity, grid::Ebp, Mechanism};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{DenseMatrix, Shape};

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

    #[test]
    fn publish_bumps_versions_per_name() {
        let c = Catalog::new();
        assert_eq!(c.publish("a", release(1)), 1);
        assert_eq!(c.publish("a", release(2)), 2);
        assert_eq!(c.publish("b", release(3)), 1);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a").unwrap().version, 2);
        assert_eq!(c.names(), vec!["a".to_string(), "b".to_string()]);
        assert!(c.remove("a"));
        assert!(!c.remove("a"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn versions_advance_across_remove() {
        // (name, version) is the QueryEngine cache key; reusing a version
        // after remove would serve the deleted release's answers.
        let c = Catalog::new();
        assert_eq!(c.publish("a", release(1)), 1);
        assert_eq!(c.publish("a", release(2)), 2);
        assert!(c.remove("a"));
        assert_eq!(c.publish("a", release(3)), 3);
    }

    #[test]
    fn save_and_load_round_trip() {
        let c = Catalog::new();
        c.publish("ebp-city", release(7));
        c.publish("ebp-city", release(8)); // v2
        c.publish("other", release(9));
        let dir = std::env::temp_dir().join(format!("dpod_catalog_{}", std::process::id()));
        let report = c.save_dir(&dir).unwrap();
        assert_eq!(report.written, 2);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.live(), 2);

        let loaded = Catalog::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        let entry = loaded.get("ebp-city").unwrap();
        assert_eq!(entry.version, 2);
        assert_eq!(*entry.release, *c.get("ebp-city").unwrap().release);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_dir_deletes_frames_of_removed_releases() {
        let c = Catalog::new();
        c.publish("keep", release(1));
        c.publish("drop", release(2));
        let dir = std::env::temp_dir().join(format!("dpod_prune_{}", std::process::id()));
        c.save_dir(&dir).unwrap();
        c.remove("drop");
        c.save_dir(&dir).unwrap();
        let frames: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|d| d.ok())
            .map(|d| d.file_name().to_string_lossy().into_owned())
            .filter(|f| f.ends_with(".dprl"))
            .collect();
        assert_eq!(frames.len(), 1, "{frames:?}");
        assert!(frames[0].starts_with("keep-"));
        // Even the manifest-less scan fallback cannot resurrect "drop".
        std::fs::remove_file(dir.join(MANIFEST)).unwrap();
        let scanned = Catalog::load_dir(&dir).unwrap();
        assert_eq!(scanned.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_without_manifest_scans_frames() {
        let dir = std::env::temp_dir().join(format!("dpod_scan_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("city.dprl"), release(4).to_bytes()).unwrap();
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let loaded = Catalog::load_dir(&dir).unwrap();
        assert_eq!(loaded.names(), vec!["city".to_string()]);
        assert_eq!(loaded.get("city").unwrap().version, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_corrupt_frames() {
        let dir = std::env::temp_dir().join(format!("dpod_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("bad.dprl"), b"not a frame").unwrap();
        assert!(Catalog::load_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_publish_and_get() {
        let c = Arc::new(Catalog::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let name = format!("r{}", t % 4);
                for _ in 0..50 {
                    c.publish(&name, release(t));
                    let entry = c.get(&name).expect("entry visible after publish");
                    assert_eq!(entry.name, name);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 4);
        // Each name saw 2 writers × 50 publishes.
        for i in 0..4 {
            assert_eq!(c.get(&format!("r{i}")).unwrap().version, 100);
        }
    }

    /// Regression for the rewrite-everything behavior: a second save
    /// with nothing republished must not touch an existing frame file —
    /// identical bytes AND identical mtime (i.e. no write happened).
    #[test]
    fn second_save_leaves_unchanged_frames_untouched() {
        let c = Catalog::new();
        c.publish("stable", release(11));
        c.publish("churning", release(12));
        let dir = std::env::temp_dir().join(format!("dpod_incr_{}", std::process::id()));
        let first = c.save_dir(&dir).unwrap();
        assert_eq!((first.written, first.skipped), (2, 0));

        let stable_path = dir.join(frame_file_name("stable"));
        let bytes_before = std::fs::read(&stable_path).unwrap();
        let mtime_before = std::fs::metadata(&stable_path).unwrap().modified().unwrap();
        // Give the clock room so a rewrite would be observable even on
        // coarse-mtime filesystems.
        std::thread::sleep(std::time::Duration::from_millis(20));

        c.publish("churning", release(13)); // v2: only this frame changes
        let second = c.save_dir(&dir).unwrap();
        assert_eq!((second.written, second.skipped), (1, 1));
        assert_eq!(std::fs::read(&stable_path).unwrap(), bytes_before);
        assert_eq!(
            std::fs::metadata(&stable_path).unwrap().modified().unwrap(),
            mtime_before,
            "unchanged frame was rewritten"
        );

        // A third save with no publishes at all writes nothing.
        let third = c.save_dir(&dir).unwrap();
        assert_eq!((third.written, third.skipped), (0, 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A frame that vanished out from under the manifest (operator
    /// deleted it, partial copy) is re-written, not skipped.
    #[test]
    fn save_repairs_a_missing_frame() {
        let c = Catalog::new();
        c.publish("a", release(21));
        let dir = std::env::temp_dir().join(format!("dpod_repair_{}", std::process::id()));
        c.save_dir(&dir).unwrap();
        let frame = dir.join(frame_file_name("a"));
        std::fs::remove_file(&frame).unwrap();
        let report = c.save_dir(&dir).unwrap();
        assert_eq!((report.written, report.skipped), (1, 0));
        assert!(frame.is_file());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Tombstones carry the version floor across save → load → republish:
    /// the reloaded catalog must not restart a removed name at version 1.
    #[test]
    fn tombstones_keep_versions_monotonic_across_reload() {
        let c = Catalog::new();
        c.publish("a", release(31));
        c.publish("a", release(32)); // v2
        c.publish("b", release(33));
        let dir = std::env::temp_dir().join(format!("dpod_tomb_{}", std::process::id()));
        c.save_dir(&dir).unwrap();
        c.remove("a");
        let report = c.save_dir(&dir).unwrap();
        assert_eq!(report.tombstones, 1);
        assert_eq!(report.live(), 1);

        let reloaded = Catalog::load_dir(&dir).unwrap();
        assert_eq!(reloaded.len(), 1, "tombstone must not resurrect 'a'");
        assert!(reloaded.get("a").is_none());
        // The republished version continues past the tombstoned v2.
        assert_eq!(reloaded.publish("a", release(34)), 3);
        // And the tombstone clears once the name is live again.
        let after = reloaded.save_dir(&dir).unwrap();
        assert_eq!(after.tombstones, 0);
        assert_eq!(
            Catalog::load_dir(&dir).unwrap().get("a").unwrap().version,
            3
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The incremental skip must be content-aware: a catalog that never
    /// loaded the directory can reuse an existing `(name, version)` pair
    /// for different data, and that save must write, not skip.
    #[test]
    fn save_rewrites_when_same_version_holds_different_bytes() {
        let dir = std::env::temp_dir().join(format!("dpod_cksum_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let first = Catalog::new();
        first.publish("x", release(51));
        first.save_dir(&dir).unwrap();

        // A fresh catalog (same name, same version 1, different data)
        // saving into the same directory.
        let second = Catalog::new();
        second.publish("x", release(52));
        let report = second.save_dir(&dir).unwrap();
        assert_eq!((report.written, report.skipped), (1, 0));
        let loaded = Catalog::load_dir(&dir).unwrap();
        assert_eq!(
            *loaded.get("x").unwrap().release,
            *second.get("x").unwrap().release,
            "directory must hold the saving catalog's bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Prune sweeps this process's leftover temp files but must not
    /// delete a fresh foreign one — another process could be mid-way
    /// through its atomic rename.
    #[test]
    fn prune_spares_fresh_foreign_temp_files() {
        let c = Catalog::new();
        c.publish("a", release(41));
        let dir = std::env::temp_dir().join(format!("dpod_tmp_sweep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ours = dir.join(format!("x.dprl.{}-999.tmp", std::process::id()));
        let foreign = dir.join("x.dprl.1-0.tmp");
        std::fs::write(&ours, b"ours").unwrap();
        std::fs::write(&foreign, b"foreign").unwrap();
        c.save_dir(&dir).unwrap();
        assert!(!ours.exists(), "own temp file must be swept");
        assert!(foreign.exists(), "fresh foreign temp file must survive");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_entry_releases_catalog_too() {
        let s = Shape::new(vec![4, 4]).unwrap();
        let m = DenseMatrix::<u64>::zeros(s);
        let out = Identity
            .sanitize(&m, Epsilon::new(1.0).unwrap(), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        let c = Catalog::new();
        c.publish("id", PublishedRelease::from_sanitized(&out));
        assert_eq!(c.get("id").unwrap().release.len(), 16);
    }
}
