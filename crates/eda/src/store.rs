//! Content-addressed on-disk evaluation store.
//!
//! Every real tool run is the scarce resource in Dovado's cost model; this
//! module makes paid-for runs durable. An [`EvalStore`] is a directory of
//! entry files keyed by a 128-bit [`EvalKey`] derived from everything that
//! determines a run's answer (HDL sources, top module, flow configuration,
//! and the concrete design point). Entries carry a format-version header and
//! an FNV-1a checksum; any mismatch — truncation, bit-flip, stale format —
//! is treated as a cache *miss*, never as a wrong answer.
//!
//! Writes are atomic: payloads land in a unique temporary file first and are
//! published with `rename`, so a crash mid-write can leave stray `.tmp`
//! debris but never a half-written entry under a valid key.
//!
//! # Sharding, capacity, and compaction
//!
//! Entries are sharded into [`SHARD_COUNT`] subdirectories by the leading
//! hex digits of their key, so a store serving millions of cached
//! evaluations never funnels every lookup through one giant directory.
//! A store may be opened with a **capacity bound**
//! ([`EvalStore::open_bounded`]): once the bound is exceeded, the
//! least-recently-touched entries are evicted (ties broken by key hex, so
//! eviction order is deterministic). [`EvalStore::compact`] walks every
//! shard in one pass — deleting `.tmp` debris and corrupt entries and
//! re-enforcing the capacity bound.
//!
//! The governing invariant for every one of those operations: **removing an
//! entry can only ever produce a future miss, never a wrong answer.**
//! Content addressing means a key is never reused for different data, and
//! the checksum envelope means damaged data never decodes; eviction and
//! compaction therefore only delete whole entries, which re-run the tool on
//! the next request.

use crate::hash::{fnv1a, fnv1a_with};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Version of the on-disk entry encoding. Bump whenever the serialized
/// entry schema changes shape; old entries then read as misses instead of
/// being misinterpreted.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Number of leading hex digits of the key used as the shard directory
/// name (2 digits = 256 shards).
pub const SHARD_PREFIX_LEN: usize = 2;

/// Number of shard subdirectories a fully-populated store uses.
pub const SHARD_COUNT: usize = 1 << (4 * SHARD_PREFIX_LEN);

/// Independent second FNV basis (decimal digits of e, as FNV uses digits of
/// a prime offset); running a second stream over the same bytes gives the
/// key its upper 64 bits.
const FNV_BASIS_HI: u64 = 0x2718_2818_2845_9045;

/// Byte inserted between key parts so `("ab", "c")` and `("a", "bc")` hash
/// differently.
const PART_SEPARATOR: u8 = 0x1F;

static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A 128-bit content hash identifying one evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EvalKey {
    /// Upper 64 bits (seeded-basis FNV-1a stream).
    pub hi: u64,
    /// Lower 64 bits (standard FNV-1a stream).
    pub lo: u64,
}

impl EvalKey {
    /// Hashes an ordered sequence of string parts into a key.
    ///
    /// Parts are separated by an out-of-band byte, so the key depends on
    /// the part boundaries as well as their contents.
    pub fn from_parts<S: AsRef<str>>(parts: &[S]) -> EvalKey {
        let mut bytes = Vec::new();
        for p in parts {
            bytes.extend_from_slice(p.as_ref().as_bytes());
            bytes.push(PART_SEPARATOR);
        }
        EvalKey {
            hi: fnv1a_with(FNV_BASIS_HI, &bytes),
            lo: fnv1a(&bytes),
        }
    }

    /// Extends this key with further parts, returning the combined key.
    pub fn extend<S: AsRef<str>>(&self, parts: &[S]) -> EvalKey {
        let mut bytes = Vec::with_capacity(16);
        bytes.extend_from_slice(&self.hi.to_be_bytes());
        bytes.extend_from_slice(&self.lo.to_be_bytes());
        bytes.push(PART_SEPARATOR);
        for p in parts {
            bytes.extend_from_slice(p.as_ref().as_bytes());
            bytes.push(PART_SEPARATOR);
        }
        EvalKey {
            hi: fnv1a_with(FNV_BASIS_HI, &bytes),
            lo: fnv1a(&bytes),
        }
    }

    /// 32-hex-digit rendering, used as the entry file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Wraps `payload` in a version header + checksum envelope.
///
/// Layout (text, line-oriented):
///
/// ```text
/// <tag> <version>
/// fnv1a <16 hex digits over the payload bytes>
/// <payload...>
/// ```
pub fn encode_checked(tag: &str, version: u32, payload: &str) -> String {
    format!(
        "{tag} {version}\nfnv1a {:016x}\n{payload}",
        fnv1a(payload.as_bytes())
    )
}

/// Validates an envelope produced by [`encode_checked`] and returns the
/// payload, or `None` on any header, version, or checksum mismatch.
pub fn decode_checked<'a>(tag: &str, version: u32, text: &'a str) -> Option<&'a str> {
    let rest = text.strip_prefix(tag)?.strip_prefix(' ')?;
    let (ver_line, rest) = rest.split_once('\n')?;
    if ver_line.parse::<u32>().ok()? != version {
        return None;
    }
    let (sum_line, payload) = rest.split_once('\n')?;
    let sum = u64::from_str_radix(sum_line.strip_prefix("fnv1a ")?, 16).ok()?;
    if fnv1a(payload.as_bytes()) != sum {
        return None;
    }
    Some(payload)
}

/// Writes `bytes` to `path` atomically: a unique sibling temp file is
/// written, flushed, and published via `rename`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{pid}.{nonce}.tmp"));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Observer of store evictions: called with the evicted key's hex once per
/// entry removed by the capacity bound (on `put` or `compact`), after the
/// entry file is gone. The core wires this to the observability spine.
pub type EvictionHook = Arc<dyn Fn(&str) + Send + Sync>;

/// What one [`EvalStore::compact`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// Valid entries still present after the pass.
    pub retained: usize,
    /// Entries deleted because they failed envelope validation.
    pub removed_corrupt: usize,
    /// Stray `.tmp` files (crash debris) deleted.
    pub removed_debris: usize,
    /// Valid entries evicted to re-enforce the capacity bound.
    pub evicted: usize,
}

/// Recency bookkeeping for the capacity bound: a per-handle view of which
/// entries exist and when each was last touched. Ticks are unique, so the
/// eviction order `(tick, hex)` is total and deterministic.
#[derive(Default)]
struct StoreIndex {
    /// Key hex → last-touch tick.
    ticks: HashMap<String, u64>,
    /// `(tick, hex)` mirror of `ticks`: the first element is always the
    /// coldest entry.
    order: BTreeSet<(u64, String)>,
    clock: u64,
}

impl StoreIndex {
    fn touch(&mut self, hex: &str) {
        let tick = self.clock;
        self.clock += 1;
        if let Some(old) = self.ticks.insert(hex.to_string(), tick) {
            self.order.remove(&(old, hex.to_string()));
        }
        self.order.insert((tick, hex.to_string()));
    }

    fn forget(&mut self, hex: &str) {
        if let Some(old) = self.ticks.remove(hex) {
            self.order.remove(&(old, hex.to_string()));
        }
    }

    fn len(&self) -> usize {
        self.ticks.len()
    }

    fn coldest(&self) -> Option<String> {
        self.order.iter().next().map(|(_, hex)| hex.clone())
    }

    /// The index over exactly the `valid` entries (sorted, deduplicated):
    /// entries this index knew keep their recency, and discovered ones
    /// queue in sorted-hex order behind a fresh tick, so the rebuilt
    /// order is deterministic.
    fn rebuilt(&self, valid: &[String]) -> StoreIndex {
        let mut rebuilt = StoreIndex {
            clock: self.clock,
            ..StoreIndex::default()
        };
        let mut known: Vec<(u64, String)> = Vec::new();
        let mut discovered: Vec<String> = Vec::new();
        for hex in valid {
            match self.ticks.get(hex) {
                Some(&tick) => known.push((tick, hex.clone())),
                None => discovered.push(hex.clone()),
            }
        }
        known.sort();
        for (_, hex) in known {
            rebuilt.touch(&hex);
        }
        for hex in discovered {
            rebuilt.touch(&hex);
        }
        rebuilt
    }
}

/// A sharded directory of checksummed evaluation entries, optionally
/// bounded in entry count.
///
/// Clones share the recency index, the capacity bound, and the eviction
/// hook, so concurrent readers and writers cooperate on one bookkeeping
/// view. Independently-opened handles over the same directory each keep
/// their own view; [`EvalStore::compact`] resynchronizes a handle with the
/// disk. Only a bounded store keeps the recency index: an unbounded one
/// never evicts, so opening it scans no shard and `get`/`put` do no
/// bookkeeping.
#[derive(Clone)]
pub struct EvalStore {
    dir: PathBuf,
    /// Maximum entries to retain; `None` (the explicit default of
    /// [`EvalStore::open`]) means unbounded.
    capacity: Option<usize>,
    index: Arc<Mutex<StoreIndex>>,
    hook: Arc<Mutex<Option<EvictionHook>>>,
}

impl fmt::Debug for EvalStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalStore")
            .field("dir", &self.dir)
            .field("capacity", &self.capacity)
            .finish()
    }
}

const ENTRY_TAG: &str = "dovado-store";

impl EvalStore {
    /// Opens (creating if needed) an **unbounded** store rooted at `dir` —
    /// unbounded is the explicit default; use [`EvalStore::open_bounded`]
    /// to cap the on-disk entry count.
    pub fn open(dir: &Path) -> io::Result<EvalStore> {
        Self::open_bounded(dir, None)
    }

    /// Opens (creating if needed) a store rooted at `dir` holding at most
    /// `capacity` entries (`None` = unbounded). Once full, a `put` evicts
    /// the least-recently-touched entries first, deterministic tie-break
    /// by key hex. A zero capacity can cache nothing and is rejected.
    pub fn open_bounded(dir: &Path, capacity: Option<usize>) -> io::Result<EvalStore> {
        if capacity == Some(0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store capacity must be at least 1 entry (use None for unbounded)",
            ));
        }
        fs::create_dir_all(dir)?;
        let store = EvalStore {
            dir: dir.to_path_buf(),
            capacity,
            index: Arc::new(Mutex::new(StoreIndex::default())),
            hook: Arc::new(Mutex::new(None)),
        };
        // Seed the recency index from disk in sorted-hex order, so a
        // freshly-opened bounded store evicts deterministically even
        // before any entry has been touched.
        if let Some(mut index) = store.recency() {
            let mut hexes: Vec<String> = store
                .scan_entries()
                .into_iter()
                .map(|(hex, _)| hex)
                .collect();
            hexes.sort();
            for hex in hexes {
                index.touch(&hex);
            }
        }
        Ok(store)
    }

    /// The recency index, which only a bounded store keeps.
    fn recency(&self) -> Option<MutexGuard<'_, StoreIndex>> {
        self.capacity
            .map(|_| self.index.lock().expect("store index poisoned"))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Installs the eviction observer (replacing any prior one). Shared
    /// across clones of this handle.
    pub fn set_eviction_hook(&self, hook: EvictionHook) {
        *self.hook.lock().expect("store hook poisoned") = Some(hook);
    }

    /// The shard directory for a key hex.
    fn shard_dir(&self, hex: &str) -> PathBuf {
        self.dir.join(&hex[..SHARD_PREFIX_LEN])
    }

    /// The on-disk path an entry for `key` would occupy (inside its
    /// shard).
    pub fn entry_path(&self, key: &EvalKey) -> PathBuf {
        let hex = key.hex();
        self.shard_dir(&hex).join(format!("{hex}.entry"))
    }

    /// Looks up `key`, returning the stored payload on a clean hit.
    ///
    /// A missing file is a miss. A file that fails version or checksum
    /// validation is *also* a miss — and is deleted so the slot heals on
    /// the next `put` instead of failing validation forever.
    pub fn get(&self, key: &EvalKey) -> Option<String> {
        let hex = key.hex();
        let path = self.entry_path(key);
        let found = match read_valid_entry(&path) {
            ReadOutcome::Valid(payload) => Some(payload),
            ReadOutcome::Corrupt => {
                let _ = fs::remove_file(&path);
                None
            }
            ReadOutcome::Absent => None,
        };
        if let Some(mut index) = self.recency() {
            match found {
                Some(_) => index.touch(&hex),
                None => index.forget(&hex),
            }
        }
        found
    }

    /// Stores `payload` under `key` (atomic replace of any prior entry),
    /// then evicts the coldest entries if the capacity bound is exceeded.
    pub fn put(&self, key: &EvalKey, payload: &str) -> io::Result<()> {
        let hex = key.hex();
        let text = encode_checked(ENTRY_TAG, STORE_FORMAT_VERSION, payload);
        fs::create_dir_all(self.shard_dir(&hex))?;
        atomic_write(&self.entry_path(key), text.as_bytes())?;
        if let Some(mut index) = self.recency() {
            index.touch(&hex);
            let evicted = self.evict_over_capacity(&mut index);
            drop(index);
            self.notify_evictions(&evicted);
        }
        Ok(())
    }

    /// Removes coldest entries until the index fits the capacity bound.
    /// Must run under the index lock; returns the evicted hexes (files
    /// already deleted) for hook notification outside the lock.
    fn evict_over_capacity(&self, index: &mut StoreIndex) -> Vec<String> {
        let Some(cap) = self.capacity else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while index.len() > cap {
            let Some(hex) = index.coldest() else { break };
            let _ = fs::remove_file(self.shard_dir(&hex).join(format!("{hex}.entry")));
            index.forget(&hex);
            evicted.push(hex);
        }
        evicted
    }

    /// Calls the eviction hook once per evicted key (outside any lock the
    /// hook could re-enter).
    fn notify_evictions(&self, evicted: &[String]) {
        if evicted.is_empty() {
            return;
        }
        let hook = self.hook.lock().expect("store hook poisoned").clone();
        if let Some(hook) = hook {
            for hex in evicted {
                hook(hex);
            }
        }
    }

    /// One full maintenance pass over the store directory:
    ///
    /// * deletes stray `.tmp` files (crash debris from interrupted atomic
    ///   writes),
    /// * deletes entries that fail envelope validation (they could only
    ///   ever read as misses),
    /// * for a bounded store, rebuilds this handle's recency index from
    ///   the surviving entries (preserving known recency, discovering
    ///   foreign writes) and re-enforces the capacity bound, evicting
    ///   coldest-first.
    ///
    /// Like eviction, compaction can only produce future misses, never
    /// wrong answers: it removes whole entries and never rewrites one.
    pub fn compact(&self) -> io::Result<CompactStats> {
        let mut stats = CompactStats::default();
        let mut valid: Vec<String> = Vec::new();

        for (hex, path) in self.scan_files()? {
            match hex {
                ScannedFile::Debris => {
                    let _ = fs::remove_file(&path);
                    stats.removed_debris += 1;
                }
                ScannedFile::Entry(hex) => match read_valid_entry(&path) {
                    ReadOutcome::Valid(_) => valid.push(hex),
                    ReadOutcome::Corrupt => {
                        let _ = fs::remove_file(&path);
                        stats.removed_corrupt += 1;
                    }
                    // Deleted concurrently between scan and read.
                    ReadOutcome::Absent => {}
                },
            }
        }

        valid.sort();
        valid.dedup();
        let evicted = match self.recency() {
            Some(mut index) => {
                *index = index.rebuilt(&valid);
                self.evict_over_capacity(&mut index)
            }
            None => Vec::new(),
        };
        stats.evicted = evicted.len();
        stats.retained = valid.len() - stats.evicted;
        self.notify_evictions(&evicted);
        Ok(stats)
    }

    /// Number of valid-looking entry files currently on disk (all
    /// shards).
    pub fn len(&self) -> usize {
        self.scan_entries().len()
    }

    /// Whether the store currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All `.entry` files on disk as `(hex, path)`.
    fn scan_entries(&self) -> Vec<(String, PathBuf)> {
        self.scan_files()
            .unwrap_or_default()
            .into_iter()
            .filter_map(|(f, path)| match f {
                ScannedFile::Entry(hex) => Some((hex, path)),
                ScannedFile::Debris => None,
            })
            .collect()
    }

    /// Walks every shard directory, classifying each file as an entry or
    /// `.tmp` debris.
    fn scan_files(&self) -> io::Result<Vec<(ScannedFile, PathBuf)>> {
        let mut out = Vec::new();
        for shard in fs::read_dir(&self.dir)?.filter_map(Result::ok) {
            let shard = shard.path();
            if !(shard.is_dir() && is_shard_dir_name(&shard)) {
                continue;
            }
            let Ok(rd) = fs::read_dir(&shard) else {
                continue;
            };
            for entry in rd.filter_map(Result::ok) {
                let path = entry.path();
                if path.is_dir() {
                    continue;
                }
                if let Some(f) = classify_file(&path) {
                    out.push((f, path));
                }
            }
        }
        Ok(out)
    }
}

/// One file found by the store walk.
enum ScannedFile {
    /// A `<hex>.entry` file (hex stem attached).
    Entry(String),
    /// A stray `.tmp` file from an interrupted atomic write.
    Debris,
}

fn classify_file(path: &Path) -> Option<ScannedFile> {
    let name = path.file_name()?.to_str()?;
    if name.ends_with(".tmp") {
        return Some(ScannedFile::Debris);
    }
    let stem = name.strip_suffix(".entry")?;
    Some(ScannedFile::Entry(stem.to_string()))
}

fn is_shard_dir_name(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.len() == SHARD_PREFIX_LEN && n.chars().all(|c| c.is_ascii_hexdigit()))
}

/// What reading one entry file yielded.
enum ReadOutcome {
    /// Decoded cleanly; payload attached.
    Valid(String),
    /// Present but failed UTF-8 or envelope validation.
    Corrupt,
    /// No file (or unreadable at the I/O level): a plain miss.
    Absent,
}

fn read_valid_entry(path: &Path) -> ReadOutcome {
    let Ok(bytes) = fs::read(path) else {
        return ReadOutcome::Absent;
    };
    match String::from_utf8(bytes)
        .ok()
        .and_then(|text| decode_checked(ENTRY_TAG, STORE_FORMAT_VERSION, &text).map(str::to_string))
    {
        Some(payload) => ReadOutcome::Valid(payload),
        None => ReadOutcome::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("dovado-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn key_is_stable_and_part_sensitive() {
        let a = EvalKey::from_parts(&["fifo", "DEPTH=8"]);
        let b = EvalKey::from_parts(&["fifo", "DEPTH=8"]);
        assert_eq!(a, b);
        assert_ne!(a, EvalKey::from_parts(&["fifo", "DEPTH=9"]));
        // Part boundaries matter: "ab"+"c" != "a"+"bc".
        assert_ne!(
            EvalKey::from_parts(&["ab", "c"]),
            EvalKey::from_parts(&["a", "bc"])
        );
        assert_eq!(a.hex().len(), 32);
        assert_ne!(a.extend(&["DATA_WIDTH=32"]), a);
    }

    #[test]
    fn roundtrip_hit() {
        let store = EvalStore::open(&tmpdir("roundtrip")).unwrap();
        let key = EvalKey::from_parts(&["design", "point"]);
        assert!(store.get(&key).is_none());
        store.put(&key, "objectives 1.0 2.0\n").unwrap();
        assert_eq!(store.get(&key).unwrap(), "objectives 1.0 2.0\n");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn entries_land_in_their_shard() {
        let store = EvalStore::open(&tmpdir("shard")).unwrap();
        let key = EvalKey::from_parts(&["sharded"]);
        store.put(&key, "payload").unwrap();
        let path = store.entry_path(&key);
        assert!(path.exists());
        let shard = path
            .parent()
            .unwrap()
            .file_name()
            .unwrap()
            .to_str()
            .unwrap();
        assert_eq!(shard, &key.hex()[..SHARD_PREFIX_LEN]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn truncation_is_a_miss() {
        let store = EvalStore::open(&tmpdir("trunc")).unwrap();
        let key = EvalKey::from_parts(&["x"]);
        store
            .put(&key, "a long payload that will be cut short")
            .unwrap();
        let path = store.entry_path(&key);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 5]).unwrap();
        assert!(store.get(&key).is_none());
        // The corrupt file was removed, so a fresh put heals the slot.
        assert!(!path.exists());
        store.put(&key, "fresh").unwrap();
        assert_eq!(store.get(&key).unwrap(), "fresh");
    }

    #[test]
    fn bitflip_is_a_miss() {
        let store = EvalStore::open(&tmpdir("flip")).unwrap();
        let key = EvalKey::from_parts(&["y"]);
        store.put(&key, "value 3.25").unwrap();
        let path = store.entry_path(&key);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get(&key).is_none());
    }

    #[test]
    fn version_mismatch_is_a_miss() {
        let store = EvalStore::open(&tmpdir("ver")).unwrap();
        let key = EvalKey::from_parts(&["z"]);
        let stale = encode_checked(ENTRY_TAG, STORE_FORMAT_VERSION + 1, "payload");
        fs::create_dir_all(store.entry_path(&key).parent().unwrap()).unwrap();
        fs::write(store.entry_path(&key), stale).unwrap();
        assert!(store.get(&key).is_none());
    }

    #[test]
    fn envelope_roundtrip_and_rejection() {
        let enc = encode_checked("tag", 3, "hello\nworld");
        assert_eq!(decode_checked("tag", 3, &enc), Some("hello\nworld"));
        assert_eq!(decode_checked("tag", 4, &enc), None);
        assert_eq!(decode_checked("gat", 3, &enc), None);
        assert_eq!(decode_checked("tag", 3, &enc.replace('o', "0")), None);
        assert_eq!(decode_checked("tag", 3, "garbage"), None);
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let err = EvalStore::open_bounded(&tmpdir("zero"), Some(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("at least 1"), "{err}");
    }

    #[test]
    fn bounded_store_evicts_least_recently_touched_first() {
        let store = EvalStore::open_bounded(&tmpdir("lru"), Some(2)).unwrap();
        let evicted: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let log = evicted.clone();
        store.set_eviction_hook(Arc::new(move |hex| {
            log.lock().unwrap().push(hex.to_string())
        }));

        let a = EvalKey::from_parts(&["a"]);
        let b = EvalKey::from_parts(&["b"]);
        let c = EvalKey::from_parts(&["c"]);
        store.put(&a, "A").unwrap();
        store.put(&b, "B").unwrap();
        // Touch `a` so `b` is now the coldest entry.
        assert_eq!(store.get(&a).unwrap(), "A");
        store.put(&c, "C").unwrap();

        assert_eq!(store.len(), 2);
        assert_eq!(evicted.lock().unwrap().as_slice(), &[b.hex()]);
        assert!(store.get(&b).is_none(), "evicted entry is a miss");
        assert_eq!(store.get(&a).unwrap(), "A", "touched entry survives");
        assert_eq!(store.get(&c).unwrap(), "C");
    }

    #[test]
    fn eviction_is_only_ever_a_miss() {
        let store = EvalStore::open_bounded(&tmpdir("missonly"), Some(3)).unwrap();
        let keys: Vec<EvalKey> = (0..10)
            .map(|i| EvalKey::from_parts(&["k", &i.to_string()]))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            store.put(key, &format!("payload-{i}")).unwrap();
        }
        assert_eq!(store.len(), 3);
        for (i, key) in keys.iter().enumerate() {
            match store.get(key) {
                None => {}
                Some(p) => assert_eq!(p, format!("payload-{i}"), "never a wrong answer"),
            }
        }
    }

    #[test]
    fn compact_removes_debris_and_corruption() {
        let dir = tmpdir("compact");
        let store = EvalStore::open(&dir).unwrap();
        let good = EvalKey::from_parts(&["good"]);
        let bad = EvalKey::from_parts(&["bad"]);
        store.put(&good, "kept").unwrap();
        store.put(&bad, "doomed").unwrap();
        // Corrupt one entry in place.
        let bad_path = store.entry_path(&bad);
        fs::write(&bad_path, "garbage").unwrap();
        // Crash debris in two shards.
        fs::write(bad_path.with_file_name("stale.0.0.tmp"), "half-written").unwrap();
        fs::write(
            store.entry_path(&good).parent().unwrap().join("x.1.2.tmp"),
            "more",
        )
        .unwrap();

        let stats = store.compact().unwrap();
        assert_eq!(stats.removed_corrupt, 1);
        assert_eq!(stats.removed_debris, 2);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.retained, 1);
        assert!(!bad_path.exists());
        assert_eq!(store.get(&good).unwrap(), "kept");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn compact_enforces_capacity_and_reports_evictions() {
        let dir = tmpdir("compact-cap");
        // Fill beyond the bound through an unbounded handle, then compact
        // through a bounded one (a handle that never saw the puts).
        let unbounded = EvalStore::open(&dir).unwrap();
        for i in 0..6 {
            unbounded
                .put(&EvalKey::from_parts(&["n", &i.to_string()]), "v")
                .unwrap();
        }
        let bounded = EvalStore::open_bounded(&dir, Some(2)).unwrap();
        let stats = bounded.compact().unwrap();
        assert_eq!(stats.evicted, 4);
        assert_eq!(stats.retained, 2);
        assert_eq!(bounded.len(), 2);
    }

    #[test]
    fn unbounded_stores_keep_no_recency_index() {
        let dir = tmpdir("no-index");
        let first = EvalStore::open(&dir).unwrap();
        let a = EvalKey::from_parts(&["a"]);
        first.put(&a, "A").unwrap();
        // Reopening scans no shard; gets, puts and compaction do no
        // bookkeeping, since an unbounded store never evicts.
        let store = EvalStore::open(&dir).unwrap();
        assert_eq!(store.get(&a).unwrap(), "A");
        store.put(&EvalKey::from_parts(&["b"]), "B").unwrap();
        assert_eq!(store.compact().unwrap().retained, 2);
        for handle in [&first, &store] {
            assert_eq!(handle.index.lock().unwrap().len(), 0);
        }
    }

    #[test]
    fn clones_share_the_recency_view() {
        let store = EvalStore::open_bounded(&tmpdir("clone"), Some(1)).unwrap();
        let twin = store.clone();
        let a = EvalKey::from_parts(&["a"]);
        let b = EvalKey::from_parts(&["b"]);
        store.put(&a, "A").unwrap();
        twin.put(&b, "B").unwrap();
        assert_eq!(
            store.len(),
            1,
            "the clone's put evicted through the shared index"
        );
        assert!(store.get(&a).is_none());
        assert_eq!(store.get(&b).unwrap(), "B");
    }
}
