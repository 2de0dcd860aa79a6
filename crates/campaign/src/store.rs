//! The on-disk content-addressed store.
//!
//! Layout under the root (`$WP_STORE_DIR` for the campaign binary):
//!
//! ```text
//! <root>/objects/<first-2-hex>/<32-hex-key>   one file per entry
//! <root>/tmp/                                 in-flight writes
//! ```
//!
//! An entry file is a single header line followed by the raw payload:
//!
//! ```text
//! wp-campaign-store/v1 <key> <payload-digest> <payload-len> <label>\n
//! <payload bytes>
//! ```
//!
//! Publishing is atomic: the entry is written to `tmp/` and
//! `rename(2)`d into place, so readers never observe a partial file
//! and concurrent writers racing on one key leave exactly one valid
//! entry (the last rename wins; both wrote the same content, because
//! the key is content-addressed over every input that could change
//! it). Reads re-verify everything — header shape, embedded key,
//! payload length and payload digest — and treat any mismatch as a
//! miss, deleting the corpse so the next publish starts clean. A
//! truncated, torn or hand-tampered entry therefore costs one
//! recompute, never a wrong result.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use crate::hash::{digest, to_hex};
use crate::key::TaskKey;

/// The entry header tag; bump on any layout change so old stores read
/// as misses instead of parse errors.
const ENTRY_TAG: &str = "wp-campaign-store/v1";

/// A content-addressed store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    /// Distinguishes concurrent in-process writers' temp files.
    seq: AtomicU64,
}

/// What [`Store::gc`] did.
#[derive(Clone, Copy, Debug, Default)]
pub struct GcReport {
    /// Entries still in the store.
    pub kept: usize,
    /// Entries deleted.
    pub deleted: usize,
    /// Bytes reclaimed.
    pub bytes_freed: u64,
}

/// One entry as listed by [`Store::entries`].
#[derive(Clone, Debug)]
pub struct EntryInfo {
    /// The entry's key (from its filename).
    pub key: TaskKey,
    /// File size, bytes (header + payload).
    pub bytes: u64,
    /// Last use: publish time, refreshed by every verified read.
    pub modified: SystemTime,
}

impl Store {
    /// Opens (without touching the filesystem) a store rooted at
    /// `root`; directories are created on first publish.
    #[must_use]
    pub fn new(root: impl Into<PathBuf>) -> Store {
        Store { root: root.into(), seq: AtomicU64::new(0) }
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the entry for `key` lives (whether or not it exists).
    #[must_use]
    pub fn entry_path(&self, key: &TaskKey) -> PathBuf {
        let hex = key.hex();
        self.root.join("objects").join(&hex[..2]).join(hex)
    }

    /// Fetches and verifies an entry. Any defect — missing file,
    /// malformed header, foreign key, short payload, digest mismatch —
    /// is a miss; defective files are deleted so they cannot shadow a
    /// future publish. A verified read refreshes the entry's mtime,
    /// which is the recency [`Store::gc`] ranks by.
    #[must_use]
    pub fn get(&self, key: &TaskKey) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let bytes = std::fs::read(&path).ok()?;
        match parse_entry(&bytes, key) {
            Some(payload) => {
                // Best-effort recency bump; a read-only store still hits.
                if let Ok(file) = std::fs::OpenOptions::new().append(true).open(&path) {
                    let _ = file.set_modified(SystemTime::now());
                }
                Some(payload)
            }
            None => {
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Whether a verified entry exists for `key` (without reading the
    /// payload out or bumping recency).
    #[must_use]
    pub fn contains(&self, key: &TaskKey) -> bool {
        let path = self.entry_path(key);
        std::fs::read(&path)
            .ok()
            .is_some_and(|bytes| parse_entry(&bytes, key).is_some())
    }

    /// Publishes `payload` under `key`. The write lands in `tmp/` and
    /// is renamed into place, so it is atomic with respect to readers
    /// and to concurrent writers of the same key.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating, writing or renaming the entry.
    pub fn put(&self, key: &TaskKey, label: &str, payload: &[u8]) -> io::Result<()> {
        let path = self.entry_path(key);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let tmp_dir = self.root.join("tmp");
        std::fs::create_dir_all(&tmp_dir)?;
        let tmp = tmp_dir.join(format!(
            "{}.{}.{}",
            key.hex(),
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        let header = format!(
            "{ENTRY_TAG} {} {} {} {}\n",
            key.hex(),
            to_hex(&digest(payload)),
            payload.len(),
            label.replace('\n', " ")
        );
        let mut bytes = Vec::with_capacity(header.len() + payload.len());
        bytes.extend_from_slice(header.as_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&tmp, &bytes)?;
        match std::fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(error) => {
                let _ = std::fs::remove_file(&tmp);
                Err(error)
            }
        }
    }

    /// Lists every entry (valid or not — validity is a read-time
    /// property) with its size and recency.
    ///
    /// # Errors
    ///
    /// Filesystem errors walking the store. A missing `objects/`
    /// directory is an empty store, not an error.
    pub fn entries(&self) -> io::Result<Vec<EntryInfo>> {
        let objects = self.root.join("objects");
        let mut out = Vec::new();
        let shards = match std::fs::read_dir(&objects) {
            Ok(iter) => iter,
            Err(error) if error.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(error) => return Err(error),
        };
        for shard in shards {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let entry = entry?;
                let name = entry.file_name();
                let Some(key) = name.to_str().and_then(TaskKey::from_hex) else {
                    continue;
                };
                let meta = entry.metadata()?;
                out.push(EntryInfo {
                    key,
                    bytes: meta.len(),
                    modified: meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                });
            }
        }
        Ok(out)
    }

    /// Deletes all but the `keep_last` most-recently-used entries.
    /// Entries whose key is in `pinned` are never deleted — the
    /// campaign binary pins every key of the plan it is about to run,
    /// so `gc` cannot evict an entry a pending node still needs.
    ///
    /// # Errors
    ///
    /// Filesystem errors walking or deleting entries.
    pub fn gc(&self, keep_last: usize, pinned: &[TaskKey]) -> io::Result<GcReport> {
        let mut entries = self.entries()?;
        // Most recent first; key hex breaks mtime ties deterministically.
        entries.sort_by(|a, b| b.modified.cmp(&a.modified).then_with(|| a.key.cmp(&b.key)));
        let mut report = GcReport::default();
        let mut recent = 0usize;
        for entry in entries {
            let keep = pinned.contains(&entry.key) || {
                recent += 1;
                recent <= keep_last
            };
            if keep {
                report.kept += 1;
            } else {
                std::fs::remove_file(self.entry_path(&entry.key))?;
                report.deleted += 1;
                report.bytes_freed += entry.bytes;
            }
        }
        Ok(report)
    }
}

/// Verifies one entry file against the key it was fetched under.
fn parse_entry(bytes: &[u8], key: &TaskKey) -> Option<Vec<u8>> {
    let newline = bytes.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&bytes[..newline]).ok()?;
    let payload = &bytes[newline + 1..];
    let mut fields = header.splitn(5, ' ');
    if fields.next()? != ENTRY_TAG {
        return None;
    }
    if fields.next()? != key.hex() {
        return None;
    }
    let stored_digest = fields.next()?;
    let stored_len: usize = fields.next()?.parse().ok()?;
    if payload.len() != stored_len {
        return None;
    }
    if to_hex(&digest(payload)) != stored_digest {
        return None;
    }
    Some(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let root = std::env::temp_dir().join(format!("wp-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        Store::new(root)
    }

    #[test]
    fn round_trip_and_miss() {
        let store = temp_store("roundtrip");
        let key = TaskKey::derive(&["unit", "roundtrip"], &[]);
        assert!(store.get(&key).is_none());
        store.put(&key, "unit roundtrip", b"payload bytes").unwrap();
        assert_eq!(store.get(&key).as_deref(), Some(&b"payload bytes"[..]));
        assert!(store.contains(&key));
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn foreign_key_in_header_is_a_miss() {
        let store = temp_store("foreign");
        let key_a = TaskKey::derive(&["unit", "a"], &[]);
        let key_b = TaskKey::derive(&["unit", "b"], &[]);
        store.put(&key_a, "a", b"aa").unwrap();
        // Copy a's entry file under b's name: the embedded key no
        // longer matches the fetch key.
        std::fs::create_dir_all(store.entry_path(&key_b).parent().unwrap()).unwrap();
        std::fs::copy(store.entry_path(&key_a), store.entry_path(&key_b)).unwrap();
        assert!(store.get(&key_b).is_none());
        assert!(!store.entry_path(&key_b).exists(), "corpse must be swept");
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_keeps_pinned_and_recent() {
        let store = temp_store("gc");
        let keys: Vec<TaskKey> =
            (0..4).map(|i| TaskKey::derive(&["unit", "gc", &i.to_string()], &[])).collect();
        for (i, key) in keys.iter().enumerate() {
            store.put(key, "gc", format!("payload {i}").as_bytes()).unwrap();
        }
        let report = store.gc(0, &keys[..1]).unwrap();
        assert_eq!((report.kept, report.deleted), (1, 3));
        assert!(store.contains(&keys[0]));
        for key in &keys[1..] {
            assert!(!store.contains(key));
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
