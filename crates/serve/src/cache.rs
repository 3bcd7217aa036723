//! The two-tier content-addressed report cache.
//!
//! Keys come from [`densemem::experiments::registry::cache_key`]: the
//! experiment id, scale, master seed, the model-calibration fingerprint,
//! and the crate version — everything a report's bytes depend on, and
//! nothing they don't (thread policy and trace directory deliberately
//! excluded; the determinism contract makes them invisible).
//!
//! Tier 1 is [`MemLru`], a bounded in-memory map of reports rendered as
//! result-frame tails ([`crate::proto::result_tail`]): the payload's
//! hash and escaped bytes are computed once, when the report enters the
//! tier, and the tail is shared by `Arc` with every job it answers, so
//! a warm hit copies and re-renders nothing. Tier 2 is [`DiskStore`],
//! one `<key>.entry` file per report:
//! a single JSON header line (`{"v":1,"key":…,"fnv":…,"len":…}`) followed
//! by the raw payload bytes. Reads re-hash the payload and compare
//! against the header; any mismatch — truncation, bit rot, a partial
//! write that survived a crash — classifies the entry as corrupt, deletes
//! it, and reports a miss so the engine recomputes. Writes go through a
//! temp file and an atomic rename so a crashed server never leaves a
//! half-entry under the final name.

use densemem_stats::hash::fnv1a64;
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Header-line format version for on-disk entries.
const DISK_FORMAT_V: u64 = 1;

/// Outcome of a disk-cache read.
#[derive(Debug, PartialEq, Eq)]
pub enum DiskRead {
    /// Entry present and hash-verified.
    Hit(String),
    /// No entry under this key.
    Miss,
    /// Entry present but failed verification; it has been deleted.
    Corrupt(String),
}

/// A bounded in-memory LRU of reports, each held as its rendered
/// result-frame tail.
///
/// Recency is a monotone tick per access; eviction removes the smallest
/// tick. With the small capacities a server uses (default 64) the O(n)
/// eviction scan is noise next to the payloads themselves.
#[derive(Debug)]
pub struct MemLru {
    entries: HashMap<String, (Arc<str>, u64)>,
    capacity: usize,
    tick: u64,
}

impl MemLru {
    /// Creates a cache holding at most `capacity` payloads (min 1).
    pub fn new(capacity: usize) -> Self {
        Self { entries: HashMap::new(), capacity: capacity.max(1), tick: 0 }
    }

    /// Looks up `key`, refreshing its recency on a hit. A hit is the
    /// report's shared result-frame tail.
    pub fn get(&mut self, key: &str) -> Option<Arc<str>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|(tail, t)| {
            *t = tick;
            Arc::clone(tail)
        })
    }

    /// Renders `payload`'s result-frame tail and inserts (or refreshes)
    /// it under `key`, evicting the least-recently-used entry if the
    /// cache is over capacity. Returns the tail the cache now shares.
    pub fn put(&mut self, key: &str, payload: String) -> Arc<str> {
        self.tick += 1;
        let tick = self.tick;
        let tail = crate::proto::result_tail(&payload);
        self.entries.insert(key.to_owned(), (Arc::clone(&tail), tick));
        while self.entries.len() > self.capacity {
            let Some(oldest) =
                self.entries.iter().min_by_key(|(_, (_, t))| *t).map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&oldest);
        }
        tail
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is resident (without refreshing recency).
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }
}

/// The on-disk tier: one verified entry file per cache key.
#[derive(Debug, Clone)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The path an entry for `key` lives at.
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.entry"))
    }

    /// Reads and verifies the entry for `key`.
    ///
    /// A present-but-unverifiable entry (bad header, wrong key, length or
    /// hash mismatch) is deleted and reported as [`DiskRead::Corrupt`] so
    /// callers fall through to recompute; I/O problems other than
    /// not-found are treated the same way (minus the delete).
    pub fn get(&self, key: &str) -> DiskRead {
        let path = self.entry_path(key);
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskRead::Miss,
            Err(e) => return DiskRead::Corrupt(format!("open {}: {e}", path.display())),
        };
        match Self::read_verified(file, key) {
            Ok(payload) => DiskRead::Hit(payload),
            Err(why) => {
                let _ = std::fs::remove_file(&path);
                DiskRead::Corrupt(why)
            }
        }
    }

    fn read_verified(file: std::fs::File, key: &str) -> Result<String, String> {
        let mut reader = std::io::BufReader::new(file);
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| format!("header read: {e}"))?;
        let doc = crate::proto::parse(header.trim_end())
            .map_err(|e| format!("header not JSON: {e}"))?;
        let v = doc.get("v").and_then(crate::proto::Value::as_num);
        if v != Some(DISK_FORMAT_V as f64) {
            return Err(format!("unknown entry format {v:?}"));
        }
        let header_key = doc.get("key").and_then(crate::proto::Value::as_str);
        if header_key != Some(key) {
            return Err(format!("entry claims key {header_key:?}, expected {key:?}"));
        }
        let want_fnv = doc
            .get("fnv")
            .and_then(crate::proto::Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or("header missing fnv")?;
        let want_len = doc
            .get("len")
            .and_then(crate::proto::Value::as_num)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .ok_or("header missing len")? as usize;
        let mut payload = Vec::with_capacity(want_len.min(1 << 26));
        reader.read_to_end(&mut payload).map_err(|e| format!("payload read: {e}"))?;
        if payload.len() != want_len {
            return Err(format!("length {} != recorded {want_len}", payload.len()));
        }
        let got_fnv = fnv1a64(&payload);
        if got_fnv != want_fnv {
            return Err(format!("hash {got_fnv:016x} != recorded {want_fnv:016x}"));
        }
        String::from_utf8(payload).map_err(|e| format!("payload not UTF-8: {e}"))
    }

    /// Writes the entry for `key` atomically (temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the final entry name never holds a
    /// partial write.
    pub fn put(&self, key: &str, payload: &str) -> std::io::Result<()> {
        let bytes = payload.as_bytes();
        let header = format!(
            "{{\"v\":{DISK_FORMAT_V},\"key\":\"{}\",\"fnv\":\"{:016x}\",\"len\":{}}}\n",
            crate::proto::escape(key),
            fnv1a64(bytes),
            bytes.len()
        );
        let tmp = self.dir.join(format!("{key}.tmp"));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(header.as_bytes())?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.entry_path(key))
    }

    /// Number of `.entry` files currently in the store.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(Result::ok)
                    .filter(|e| {
                        e.path().extension().and_then(|x| x.to_str()) == Some("entry")
                    })
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "densemem-serve-cache-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru = MemLru::new(2);
        lru.put("a", "A".into());
        lru.put("b", "B".into());
        let tail = lru.get("a").expect("a is resident"); // refresh a
        assert_eq!(&*tail, &*crate::proto::result_tail("A"));
        lru.put("c", "C".into()); // evicts b, the stalest
        assert_eq!(lru.len(), 2);
        assert!(lru.contains("a"));
        assert!(!lru.contains("b"));
        assert!(lru.contains("c"));
    }

    #[test]
    fn disk_round_trip_verifies() {
        let store = DiskStore::open(tmp_dir("roundtrip")).unwrap();
        assert!(store.is_empty());
        store.put("E1-quick-s5eed-0123456789abcdef", "payload {with} bytes\n").unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.get("E1-quick-s5eed-0123456789abcdef"),
            DiskRead::Hit("payload {with} bytes\n".to_owned())
        );
        assert_eq!(store.get("nope"), DiskRead::Miss);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entry_is_detected_and_deleted() {
        let store = DiskStore::open(tmp_dir("corrupt")).unwrap();
        store.put("k1", "the true payload").unwrap();
        // Flip payload bytes behind the store's back.
        let path = store.entry_path("k1");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(store.get("k1"), DiskRead::Corrupt(_)));
        // The corrupt file is gone, so the next read is a clean miss.
        assert_eq!(store.get("k1"), DiskRead::Miss);
        // Truncation is also caught.
        store.put("k2", "another payload of some length").unwrap();
        let path2 = store.entry_path("k2");
        let bytes2 = std::fs::read(&path2).unwrap();
        std::fs::write(&path2, &bytes2[..bytes2.len() - 5]).unwrap();
        assert!(matches!(store.get("k2"), DiskRead::Corrupt(_)));
        // Garbage header too.
        std::fs::write(store.entry_path("k3"), b"not a header\npayload").unwrap();
        assert!(matches!(store.get("k3"), DiskRead::Corrupt(_)));
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
