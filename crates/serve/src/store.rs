//! The content-addressed report store: an in-memory LRU cache of
//! response bodies keyed by request fingerprint, with an optional
//! on-disk second tier.
//!
//! Memory is bounded (LRU eviction at `capacity` entries); the disk
//! tier, when enabled, is append-only — evicted entries stay on disk
//! and are re-admitted to memory on the next request, so a restarted
//! daemon warms up from its persist directory instead of re-simulating.
//!
//! The store knows nothing of the cluster: computed bodies, replicas
//! received from a peer and bodies warmed from one all go in through
//! [`ReportStore::insert`]. The daemon replicates a body when it
//! computes one, not when the store admits it.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// FNV-1a 64-bit over the canonical request key: the content address.
pub fn fingerprint(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct Entry {
    last_used: u64,
    /// The full canonical key, kept (in memory and on disk) so a
    /// fingerprint collision reads as a miss instead of silently
    /// serving another request's report.
    key: String,
    body: Arc<str>,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// A snapshot of the store's counters (for `status` responses and
/// tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreStats {
    /// Entries currently in memory.
    pub entries: usize,
    /// Memory capacity (entries).
    pub capacity: usize,
    /// Requests answered from the store (memory or disk).
    pub hits: u64,
    /// Of those, answered from the disk tier.
    pub disk_hits: u64,
    /// Requests that had to be computed.
    pub misses: u64,
    /// Entries evicted from memory under LRU pressure.
    pub evictions: u64,
    /// Failed best-effort disk writes.
    pub persist_errors: u64,
}

/// The store itself. All methods take `&self`; share it behind an
/// [`Arc`] (the daemon does).
pub struct ReportStore {
    inner: Mutex<Inner>,
    capacity: usize,
    persist_dir: Option<PathBuf>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    persist_errors: AtomicU64,
}

impl ReportStore {
    /// A store holding up to `capacity` bodies in memory (minimum 1),
    /// persisting to `persist_dir` when given.
    ///
    /// # Errors
    ///
    /// When the persist directory cannot be created.
    pub fn new(capacity: usize, persist_dir: Option<PathBuf>) -> io::Result<Self> {
        if let Some(dir) = &persist_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(ReportStore {
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            capacity: capacity.max(1),
            persist_dir,
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_errors: AtomicU64::new(0),
        })
    }

    fn disk_path(&self, hash: u64) -> Option<PathBuf> {
        self.persist_dir.as_ref().map(|d| d.join(format!("{hash:016x}.json")))
    }

    /// Looks up a body by canonical key, checking memory first and then
    /// the disk tier. A disk hit is re-admitted to memory. An entry
    /// whose stored key differs (64-bit fingerprint collision) is a
    /// miss, never a wrong answer.
    pub fn get(&self, key: &str) -> Option<Arc<str>> {
        self.get_at(fingerprint(key), key)
    }

    /// [`get`](Self::get) of a key whose [`fingerprint`] is `hash`.
    pub fn get_at(&self, hash: u64, key: &str) -> Option<Arc<str>> {
        let mut inner = self.inner.lock().expect("store lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&hash) {
            if entry.key == key {
                entry.last_used = tick;
                let body = Arc::clone(&entry.body);
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(body);
            }
        }
        drop(inner);
        if let Some(path) = self.disk_path(hash) {
            if let Ok(text) = std::fs::read_to_string(&path) {
                // Files hold `key\n body`; trust but verify — a corrupt
                // file or a colliding key is a miss, not a garbage
                // response. (Keys never contain a raw newline: they are
                // built from op names, registry names and compact JSON.)
                if let Some((stored_key, body)) = text.split_once('\n') {
                    if stored_key == key && gpa_json::Json::parse(body).is_ok() {
                        let body = self.admit(hash, key, body);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(body);
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a body, persisting it when the disk tier is enabled.
    /// Returns the stored (shared) body.
    pub fn insert(&self, key: &str, body: &str) -> Arc<str> {
        self.insert_at(fingerprint(key), key, body)
    }

    /// [`insert`](Self::insert) of a key whose [`fingerprint`] is `hash`.
    pub fn insert_at(&self, hash: u64, key: &str, body: &str) -> Arc<str> {
        if let Some(path) = self.disk_path(hash) {
            if std::fs::write(&path, format!("{key}\n{body}")).is_err() {
                self.persist_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.admit(hash, key, body)
    }

    /// Puts a body into memory, evicting the least-recently-used
    /// entries beyond capacity.
    fn admit(&self, hash: u64, key: &str, body: &str) -> Arc<str> {
        let shared: Arc<str> = Arc::from(body);
        let mut inner = self.inner.lock().expect("store lock");
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            hash,
            Entry { last_used: tick, key: key.to_string(), body: Arc::clone(&shared) },
        );
        while inner.map.len() > self.capacity {
            let oldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h)
                .expect("non-empty map");
            inner.map.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shared
    }

    /// Entries currently held in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock").map.len()
    }

    /// Whether the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A counters snapshot.
    pub(crate) fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.len(),
            capacity: self.capacity,
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            persist_errors: self.persist_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_counters() {
        let s = ReportStore::new(8, None).unwrap();
        assert!(s.get("a").is_none());
        s.insert("a", "{\"v\":1}");
        assert_eq!(s.get("a").unwrap().as_ref(), "{\"v\":1}");
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let s = ReportStore::new(2, None).unwrap();
        s.insert("a", "1");
        s.insert("b", "2");
        assert!(s.get("a").is_some(), "touch `a` so `b` is coldest");
        s.insert("c", "3");
        assert_eq!(s.len(), 2);
        assert!(s.get("b").is_none(), "`b` was least recently used");
        assert!(s.get("a").is_some());
        assert!(s.get("c").is_some());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn capacity_has_a_floor_of_one() {
        let s = ReportStore::new(0, None).unwrap();
        s.insert("a", "1");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn disk_tier_survives_a_new_store() {
        let dir = std::env::temp_dir().join(format!(
            "gpa-store-test-{}-{:x}",
            std::process::id(),
            fingerprint("disk")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = ReportStore::new(4, Some(dir.clone())).unwrap();
            s.insert("k", "{\"v\":42}");
        }
        let s2 = ReportStore::new(4, Some(dir.clone())).unwrap();
        assert!(s2.is_empty(), "memory tier starts cold");
        assert_eq!(s2.get("k").unwrap().as_ref(), "{\"v\":42}", "warmed from disk");
        let st = s2.stats();
        assert_eq!((st.hits, st.disk_hits, st.entries), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!(
            "gpa-store-test-{}-{:x}",
            std::process::id(),
            fingerprint("corrupt")
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let s = ReportStore::new(4, Some(dir.clone())).unwrap();
        std::fs::write(dir.join(format!("{:016x}.json", fingerprint("bad"))), "not json").unwrap();
        assert!(s.get("bad").is_none());
        // A file whose stored key differs (fingerprint collision, or a
        // tampered store) must read as a miss too.
        std::fs::write(
            dir.join(format!("{:016x}.json", fingerprint("mine"))),
            "someone-elses-key\n{\"v\":1}",
        )
        .unwrap();
        assert!(s.get("mine").is_none(), "colliding disk key is not served");
        assert_eq!(s.stats().misses, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A two-PC profile document, in its compact rendering.
    const PROFILE: &str = r#"{"kernel":"k","module_name":"m","arch":"volta","period":509,"launch":{"grid_blocks":1,"block_threads":32,"regs_per_thread":32,"smem_per_block":0},"occupancy":{"blocks_per_sm":1,"warps_per_sm":1,"warps_per_scheduler":0.25,"limiter":"GridSize","ratio":0.015625},"cycles":1000,"issued":100,"pcs":{"16":{"total":1,"by_reason":[0,0,0,1,0,0,0,0,0,0,0,0,0],"latency_by_reason":[0,0,0,1,0,0,0,0,0,0,0,0,0]},"32":{"total":1,"by_reason":[1,0,0,0,0,0,0,0,0,0,0,0,0],"latency_by_reason":[0,0,0,0,0,0,0,0,0,0,0,0,0]}},"total_samples":2,"active_samples":1,"latency_samples":1,"mem_transactions":5,"l2_hits":3,"l2_misses":2,"icache_misses":1}"#;

    /// The content address names disk files and places keys on the ring:
    /// one `analyze` and one `analyze_profile` key's fingerprints, three
    /// placements on a 3-member ring and a persisted file name, as
    /// literals that a change to how the address is built or carried
    /// must leave as they are.
    #[test]
    fn content_addresses_names_and_placement_are_pinned() {
        use crate::protocol::{analyze_profile_frame, Request, WireOptions};
        let key = |frame: &str| Request::parse(frame).unwrap().cache_key().unwrap();
        let analyze = key(r#"{"op":"analyze","app":"rodinia/hotspot","variant":1,"schema":2}"#);
        let upload = key(&analyze_profile_frame("rodinia/bfs", 0, PROFILE, &WireOptions::v2()));
        assert_eq!(
            [fingerprint(&analyze), fingerprint(&upload)],
            [0x0401_c83d_88c8_406b, 0x7e10_6540_587d_7f5c]
        );
        let ring = crate::ring::Ring::new(
            ["10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"].map(String::from),
        );
        let placed: Vec<(&str, Option<&str>)> = [analyze.as_str(), upload.as_str(), "b"]
            .into_iter()
            .map(|key| (ring.owner(key), ring.replica(key)))
            .collect();
        let (a, b, c) = ("10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070");
        assert_eq!(placed, [(a, Some(b)), (a, Some(c)), (c, Some(a))]);
        let dir =
            std::env::temp_dir().join(format!("gpa-store-test-{}-pinned", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ReportStore::new(1, Some(dir.clone())).unwrap().insert(&upload, "{}");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(names, ["7e106540587d7f5c.json"]);
    }

    /// The calls that take a carried fingerprint are the `&str` calls
    /// with the hash done by the caller: two persisting stores driven
    /// through the same steps, one each way, hit, miss, evict, answer and
    /// persist alike, and a cold store over each disk tier reads back
    /// alike.
    #[test]
    fn carried_fingerprints_hit_miss_evict_and_persist_like_keys() {
        let dirs = ["by-key", "by-hash"].map(|side| {
            std::env::temp_dir().join(format!("gpa-store-test-{}-{side}", std::process::id()))
        });
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        let stores = || dirs.clone().map(|dir| ReportStore::new(2, Some(dir)).unwrap());
        let [by_key, by_hash] = stores();
        // (key, insert after the lookup): hits, misses, an eviction and a
        // disk hit that re-admits an evicted entry.
        let steps =
            [("a", true), ("b", true), ("a", false), ("c", true), ("b", false), ("d", false)];
        for (i, (key, insert)) in steps.into_iter().enumerate() {
            let hash = fingerprint(key);
            assert_eq!(by_key.get(key), by_hash.get_at(hash, key), "step {i}: get {key}");
            if insert {
                let body = format!("{{\"v\":{i}}}");
                assert_eq!(by_key.insert(key, &body), by_hash.insert_at(hash, key, &body));
            }
            assert_eq!(by_key.stats(), by_hash.stats(), "step {i}");
        }
        let st = by_hash.stats();
        assert_eq!((st.hits, st.disk_hits, st.misses, st.evictions), (2, 1, 4, 2));
        let [cold_key, cold_hash] = stores();
        for key in ["a", "b", "c", "d"] {
            assert_eq!(cold_key.get(key), cold_hash.get_at(fingerprint(key), key), "cold {key}");
        }
        assert_eq!(cold_key.stats(), cold_hash.stats());
        let files = |dir: &PathBuf| {
            let mut files: Vec<(std::ffi::OsString, String)> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap())
                .map(|e| (e.file_name(), std::fs::read_to_string(e.path()).unwrap()))
                .collect();
            files.sort();
            files
        };
        let [key_files, hash_files] = dirs.each_ref().map(files);
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
        assert_eq!(key_files.len(), 3);
        assert_eq!(key_files, hash_files);
    }
}
