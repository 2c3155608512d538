//! Content-addressed on-disk evaluation store.
//!
//! Every real tool run is the scarce resource in Dovado's cost model; this
//! module makes paid-for runs durable. An [`EvalStore`] keys each
//! evaluation by a 128-bit [`EvalKey`] derived from everything that
//! determines a run's answer (HDL sources, top module, flow configuration,
//! and the concrete design point), and keeps it in one append-only log per
//! store directory, [`LOG_FILE`].
//!
//! # The log
//!
//! The log is a sequence of records in the journal's framing
//! ([`crate::frame`]: `record <len> <payload fnv1a> <header fnv1a>` and
//! `len` payload bytes). A record's payload is one line
//! `dovado-store <version> <key hex>` followed by the evaluation payload,
//! so every record names its own format and key and the file needs no
//! header: concurrent creators cannot disagree about one. A `put` appends
//! one record with a single `O_APPEND` write; the first put creates the
//! file. A later record for a key supersedes an earlier one.
//!
//! A handle reads the log once when it opens and keeps every live entry
//! in memory, so a hit makes no system call. A miss first indexes what
//! other handles or processes appended since, and re-reads the log from
//! the start if another handle replaced it. A torn or damaged record —
//! truncation, bit flip, another format version — costs only itself: the
//! reader skips to the next valid record header. A torn record at the end
//! of the log may still be being written, so the reader stops before it
//! and tries again at the next miss.
//!
//! # Capacity and compaction
//!
//! A store may be opened with a **capacity bound**
//! ([`EvalStore::open_bounded`]): once the bound is exceeded, the
//! least-recently-touched entries are evicted (ties broken by key, in the
//! order of their hex, so eviction order is deterministic). Eviction only
//! drops entries from the in-memory index; their records become dead
//! bytes. Once a handle's dead bytes — superseded, evicted, stale or
//! damaged records — outgrow its live ones, its next put rewrites the log
//! as the live records alone (temp file + rename). [`EvalStore::compact`]
//! makes the same rewrite on demand.
//!
//! The governing invariant for every one of those operations: **dropping
//! an entry can only ever produce a future miss, never a wrong answer.**
//! Content addressing means a key is never reused for different data, and
//! the checksums mean damaged data never decodes; eviction, rewrites and
//! a lost race between two handles therefore only lose whole entries,
//! which re-run the tool on the next request.

use crate::frame::{frame_record, next_frame, resync, Frame};
use crate::hash::{fnv1a, fnv1a_with};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Version of the record payload encoding. Bump whenever the stored
/// schema changes shape; records of another version then read as misses
/// instead of being misinterpreted. (v2 moved from one file per entry to
/// one log per store.)
pub const STORE_FORMAT_VERSION: u32 = 2;

/// Name of the log file inside a store directory.
pub const LOG_FILE: &str = "evaluations.log";

/// Tag opening the first line of every record payload.
const ENTRY_TAG: &str = "dovado-store";

/// Independent second FNV basis (decimal digits of e, as FNV uses digits of
/// a prime offset); running a second stream over the same bytes gives the
/// key its upper 64 bits.
const FNV_BASIS_HI: u64 = 0x2718_2818_2845_9045;

/// Byte inserted between key parts so `("ab", "c")` and `("a", "bc")` hash
/// differently.
const PART_SEPARATOR: u8 = 0x1F;

static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// A 128-bit content hash identifying one evaluation.
///
/// Keys order as their [`hex`](EvalKey::hex) renderings do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

    /// 32-hex-digit rendering, as each log record names its key.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// The key a [`hex`](EvalKey::hex) rendering names.
    fn from_hex(hex: &str) -> Option<EvalKey> {
        if hex.len() != 32 || !hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return None;
        }
        Some(EvalKey {
            hi: u64::from_str_radix(&hex[..16], 16).ok()?,
            lo: u64::from_str_radix(&hex[16..], 16).ok()?,
        })
    }
}

/// The framed log record storing `payload` under `key`.
fn encode_record(key: &EvalKey, payload: &str) -> String {
    frame_record(&format!(
        "{ENTRY_TAG} {STORE_FORMAT_VERSION} {}\n{payload}",
        key.hex()
    ))
}

/// The key and evaluation payload of a record payload, or `None` for
/// another format version or an unreadable first line.
fn decode_record(record: &str) -> Option<(EvalKey, &str)> {
    let (head, payload) = record.split_once('\n')?;
    let (version, hex) = head
        .strip_prefix(ENTRY_TAG)?
        .strip_prefix(' ')?
        .split_once(' ')?;
    if version.parse::<u32>().ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    Some((EvalKey::from_hex(hex)?, payload))
}

/// Replaces `path` atomically with `bytes`: a unique sibling temp file is
/// written and published via `rename`. Returns the new file, open for
/// reading and appending.
fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<File> {
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{pid}.{nonce}.tmp"));
    let tmp = PathBuf::from(tmp);
    // A file by this name is debris of a crashed process that had this
    // pid; `create_new` would refuse it.
    let _ = fs::remove_file(&tmp);
    let published = OpenOptions::new()
        .read(true)
        .append(true)
        .create_new(true)
        .open(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            fs::rename(&tmp, path)?;
            Ok(file)
        });
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published
}

/// Writes `bytes` to `path` atomically: a unique sibling temp file is
/// written and published via `rename`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace_file(path, bytes).map(drop)
}

/// Identity of the file a path names, to notice a log another handle
/// replaced. A handle keeps its log open, so the identity cannot be
/// reused while the handle compares against it.
#[cfg(unix)]
fn file_id(meta: &fs::Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::ino(meta)
}

/// Identity of the file a path names (its creation time where inode
/// numbers are not available).
#[cfg(not(unix))]
fn file_id(meta: &fs::Metadata) -> u64 {
    meta.created()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Observer of store evictions: called with the evicted key's hex once per
/// entry dropped by the capacity bound (on `put`, `compact`, or when a
/// handle indexes other handles' records), after the entry is gone. The
/// core wires this to the observability spine.
pub type EvictionHook = Arc<dyn Fn(&str) + Send + Sync>;

/// What one [`EvalStore::compact`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// Entries in the rewritten log.
    pub retained: usize,
    /// Damaged or stale records (or runs of unreadable bytes) the rewrite
    /// dropped.
    pub removed_corrupt: usize,
    /// Stray `.tmp` files (debris of interrupted rewrites) deleted.
    pub removed_debris: usize,
    /// Valid entries evicted to re-enforce the capacity bound.
    pub evicted: usize,
}

/// Recency bookkeeping for the capacity bound: when each live entry was
/// last touched. Ticks are unique, so the eviction order `(tick, key)` is
/// total and deterministic.
struct Recency {
    capacity: usize,
    /// Key → last-touch tick.
    ticks: HashMap<EvalKey, u64>,
    /// `(tick, key)` mirror of `ticks`: the first element is always the
    /// coldest entry.
    order: BTreeSet<(u64, EvalKey)>,
    clock: u64,
}

impl Recency {
    fn new(capacity: usize) -> Recency {
        Recency {
            capacity,
            ticks: HashMap::new(),
            order: BTreeSet::new(),
            clock: 0,
        }
    }

    fn touch(&mut self, key: EvalKey) {
        let tick = self.clock;
        self.clock += 1;
        if let Some(old) = self.ticks.insert(key, tick) {
            self.order.remove(&(old, key));
        }
        self.order.insert((tick, key));
    }

    fn forget(&mut self, key: &EvalKey) {
        if let Some(old) = self.ticks.remove(key) {
            self.order.remove(&(old, *key));
        }
    }

    fn coldest(&self) -> Option<EvalKey> {
        self.order.first().map(|&(_, key)| key)
    }
}

/// One live entry of a handle's view.
struct Entry {
    payload: String,
    /// Offset of its record in the log.
    at: u64,
    /// Length of its framed record.
    len: u64,
}

/// A handle's view of its store's log: the live entries and how much of
/// the file they account for.
struct Log {
    path: PathBuf,
    /// The log, open for reading and appending, with its identity; `None`
    /// until the file exists.
    file: Option<(File, u64)>,
    /// Bytes of the file indexed so far.
    indexed: u64,
    entries: HashMap<EvalKey, Entry>,
    /// Bytes of the log held by live entries' records.
    live_bytes: u64,
    /// Bytes of the log held by anything else: superseded, evicted,
    /// stale and damaged records.
    dead_bytes: u64,
    /// Damaged or stale records skipped since the log was last read from
    /// its start.
    skipped: usize,
    /// Only a bounded store keeps recency: an unbounded one never evicts.
    recency: Option<Recency>,
}

impl Log {
    fn new(path: PathBuf, capacity: Option<usize>) -> Log {
        Log {
            path,
            file: None,
            indexed: 0,
            entries: HashMap::new(),
            live_bytes: 0,
            dead_bytes: 0,
            skipped: 0,
            recency: capacity.map(Recency::new),
        }
    }

    /// The payload stored under `key`, touching it.
    fn hit(&mut self, key: &EvalKey) -> Option<String> {
        let payload = self.entries.get(key)?.payload.clone();
        if let Some(recency) = &mut self.recency {
            recency.touch(*key);
        }
        Some(payload)
    }

    /// Indexes what was appended to the log since the last call — all of
    /// it when the file is new to this handle or was replaced — then
    /// re-enforces the capacity bound; returns the evicted keys.
    fn refresh(&mut self) -> io::Result<Vec<EvalKey>> {
        let meta = match fs::metadata(&self.path) {
            Ok(meta) => meta,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let held = self.file.as_ref().map(|&(_, id)| id);
        let reread = held != Some(file_id(&meta)) || meta.len() < self.indexed;
        if reread {
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .open(&self.path)
                .or_else(|_| File::open(&self.path))?;
            let id = file_id(&file.metadata()?);
            self.file = Some((file, id));
            self.indexed = 0;
            self.entries.clear();
            (self.live_bytes, self.dead_bytes, self.skipped) = (0, 0, 0);
        } else if meta.len() == self.indexed {
            return Ok(Vec::new());
        }
        let (file, _) = self.file.as_mut().expect("the log is open");
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(self.indexed))?;
        file.read_to_end(&mut bytes)?;
        let mut discovered = self.index(&bytes);
        if let Some(recency) = &mut self.recency {
            if reread {
                let gone: Vec<EvalKey> = recency
                    .ticks
                    .keys()
                    .filter(|key| !self.entries.contains_key(key))
                    .copied()
                    .collect();
                for key in &gone {
                    recency.forget(key);
                }
            }
            // Keys this handle has not seen queue behind every known one,
            // in key order, so the rebuilt order is deterministic.
            discovered.retain(|key| !recency.ticks.contains_key(key));
            discovered.sort();
            for key in discovered {
                recency.touch(key);
            }
        }
        Ok(self.evict_over_capacity())
    }

    /// Indexes `bytes`, read from the log at offset `indexed`; returns
    /// the keys that were not live before (every key, after a re-read).
    fn index(&mut self, bytes: &[u8]) -> Vec<EvalKey> {
        let mut discovered = Vec::new();
        let mut pos = 0;
        while pos < bytes.len() {
            let rest = &bytes[pos..];
            match next_frame(rest) {
                Frame::Whole(record, after) => {
                    let len = rest.len() - after.len();
                    let at = self.indexed + pos as u64;
                    if let Some(key) = self.admit(record, at, len as u64) {
                        discovered.push(key);
                    }
                    pos += len;
                }
                Frame::Torn | Frame::Damaged => {
                    // With no record header after it, the bytes may be a
                    // record still being written: read them again at the
                    // next refresh.
                    let Some(skip) = resync(rest) else { break };
                    self.dead_bytes += skip as u64;
                    self.skipped += 1;
                    pos += skip;
                }
            }
        }
        self.indexed += pos as u64;
        discovered
    }

    /// Admits one whole record found at offset `at`; returns its key when
    /// it was not live before.
    fn admit(&mut self, record: &str, at: u64, len: u64) -> Option<EvalKey> {
        let Some((key, payload)) = decode_record(record) else {
            self.dead_bytes += len;
            self.skipped += 1;
            return None;
        };
        if self.entries.get(&key).is_some_and(|e| e.at == at) {
            // This handle's own put, appended after bytes it had not
            // indexed yet.
            return None;
        }
        let fresh = !self.store(key, payload.to_string(), at, len);
        fresh.then_some(key)
    }

    /// Makes `payload` the live entry for `key`, its record `len` bytes at
    /// offset `at`; returns whether it supersedes a live entry.
    fn store(&mut self, key: EvalKey, payload: String, at: u64, len: u64) -> bool {
        self.live_bytes += len;
        match self.entries.insert(key, Entry { payload, at, len }) {
            Some(old) => {
                self.live_bytes -= old.len;
                self.dead_bytes += old.len;
                true
            }
            None => false,
        }
    }

    /// Appends one framed record with a single write, creating the log on
    /// the first append; returns the offsets it starts and ends at.
    fn append(&mut self, record: &[u8]) -> io::Result<(u64, u64)> {
        if self.file.is_none() {
            let file = OpenOptions::new()
                .read(true)
                .append(true)
                .create(true)
                .open(&self.path)?;
            let id = file_id(&file.metadata()?);
            self.file = Some((file, id));
        }
        let (file, _) = self.file.as_mut().expect("the log is open");
        file.write_all(record)?;
        let end = file.stream_position()?;
        Ok((end - record.len() as u64, end))
    }

    /// Drops the coldest entries until the bound holds; returns them.
    fn evict_over_capacity(&mut self) -> Vec<EvalKey> {
        let Some(recency) = &mut self.recency else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        while self.entries.len() > recency.capacity {
            let Some(key) = recency.coldest() else { break };
            recency.forget(&key);
            if let Some(entry) = self.entries.remove(&key) {
                self.live_bytes -= entry.len;
                self.dead_bytes += entry.len;
            }
            evicted.push(key);
        }
        evicted
    }

    /// Rewrites the log as the live records alone, in log order (temp
    /// file + rename).
    fn rewrite(&mut self) -> io::Result<()> {
        let mut live: Vec<(&EvalKey, &mut Entry)> = self.entries.iter_mut().collect();
        live.sort_by_key(|(_, entry)| entry.at);
        let mut text = String::with_capacity(self.live_bytes as usize);
        for (key, entry) in live {
            entry.at = text.len() as u64;
            text.push_str(&encode_record(key, &entry.payload));
        }
        let file = replace_file(&self.path, text.as_bytes())?;
        let id = file_id(&file.metadata()?);
        self.file = Some((file, id));
        self.indexed = text.len() as u64;
        (self.live_bytes, self.dead_bytes, self.skipped) = (self.indexed, 0, 0);
        Ok(())
    }
}

/// A directory holding one append-only log of checksummed evaluation
/// records, optionally bounded in entry count.
///
/// Clones share one view of the log — the live entries, the recency
/// index, the capacity bound, and the eviction hook — so concurrent
/// readers and writers in one process cooperate on one index.
/// Independently-opened handles over the same directory, in this process
/// or another, each keep their own view and see each other's records at
/// their next miss.
#[derive(Clone)]
pub struct EvalStore {
    dir: PathBuf,
    /// Maximum entries to retain; `None` (the explicit default of
    /// [`EvalStore::open`]) means unbounded.
    capacity: Option<usize>,
    log: Arc<Mutex<Log>>,
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

impl EvalStore {
    /// Opens (creating the directory if needed) an **unbounded** store
    /// rooted at `dir` — unbounded is the explicit default; use
    /// [`EvalStore::open_bounded`] to cap the entry count.
    pub fn open(dir: &Path) -> io::Result<EvalStore> {
        Self::open_bounded(dir, None)
    }

    /// Opens (creating the directory if needed) a store rooted at `dir`
    /// holding at most `capacity` entries (`None` = unbounded), and reads
    /// its log. Once full, a `put` evicts the least-recently-touched
    /// entries first, deterministic tie-break by key. A zero capacity can
    /// cache nothing and is rejected. Opening creates no file: the first
    /// put creates the log.
    pub fn open_bounded(dir: &Path, capacity: Option<usize>) -> io::Result<EvalStore> {
        if capacity == Some(0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "store capacity must be at least 1 entry (use None for unbounded)",
            ));
        }
        fs::create_dir_all(dir)?;
        let mut log = Log::new(dir.join(LOG_FILE), capacity);
        log.refresh()?;
        Ok(EvalStore {
            dir: dir.to_path_buf(),
            capacity,
            log: Arc::new(Mutex::new(log)),
            hook: Arc::new(Mutex::new(None)),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("store log poisoned")
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The log file holding this store's records.
    pub fn log_path(&self) -> PathBuf {
        self.dir.join(LOG_FILE)
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

    /// Looks up `key`, returning the stored payload on a hit.
    ///
    /// A hit is answered from memory. A miss first indexes what other
    /// handles appended to the log since this handle last looked.
    pub fn get(&self, key: &EvalKey) -> Option<String> {
        let mut log = self.lock();
        if let Some(payload) = log.hit(key) {
            return Some(payload);
        }
        // An unreadable log only costs this lookup its hit.
        let evicted = log.refresh().unwrap_or_default();
        let found = log.hit(key);
        drop(log);
        self.notify_evictions(&evicted);
        found
    }

    /// Stores `payload` under `key` by appending one record to the log,
    /// then evicts the coldest entries if the capacity bound is exceeded,
    /// and rewrites the log once its dead bytes outgrow its live ones.
    pub fn put(&self, key: &EvalKey, payload: &str) -> io::Result<()> {
        let record = encode_record(key, payload);
        let mut log = self.lock();
        let (at, end) = log.append(record.as_bytes())?;
        log.store(*key, payload.to_string(), at, record.len() as u64);
        if at == log.indexed {
            // Nothing unindexed precedes the record: skip re-reading it.
            log.indexed = end;
        }
        if let Some(recency) = &mut log.recency {
            recency.touch(*key);
        }
        let evicted = log.evict_over_capacity();
        if log.dead_bytes > log.live_bytes {
            // The record is stored either way; a failed rewrite leaves the
            // log longer until the next one.
            let _ = log.rewrite();
        }
        drop(log);
        self.notify_evictions(&evicted);
        Ok(())
    }

    /// Calls the eviction hook once per evicted key (outside any lock the
    /// hook could re-enter).
    fn notify_evictions(&self, evicted: &[EvalKey]) {
        if evicted.is_empty() {
            return;
        }
        let hook = self.hook.lock().expect("store hook poisoned").clone();
        if let Some(hook) = hook {
            for key in evicted {
                hook(&key.hex());
            }
        }
    }

    /// One full maintenance pass over the store directory:
    ///
    /// * deletes stray `.tmp` files (debris of interrupted rewrites),
    /// * re-reads the log from its start, counting the damaged and stale
    ///   records it skips, and discovering every other handle's records,
    /// * for a bounded store, keeps the recency of entries this handle
    ///   knew, queues discovered ones behind them in key order, and
    ///   re-enforces the capacity bound, evicting coldest-first,
    /// * rewrites the log as the live records alone (temp file + rename).
    ///
    /// Like eviction, compaction can only produce future misses, never
    /// wrong answers: it drops whole records and never changes one.
    pub fn compact(&self) -> io::Result<CompactStats> {
        let mut stats = CompactStats::default();
        let mut log = self.lock();
        for entry in fs::read_dir(&self.dir)?.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_some_and(|ext| ext == "tmp") && path.is_file() {
                let _ = fs::remove_file(&path);
                stats.removed_debris += 1;
            }
        }
        // Forgetting the file makes the refresh read the log from its start.
        log.file = None;
        let mut evicted = log.refresh()?;
        if let Some((file, _)) = &log.file {
            let unread = file.metadata()?.len() > log.indexed;
            stats.removed_corrupt = log.skipped + usize::from(unread);
            evicted.extend(log.evict_over_capacity());
            log.rewrite()?;
        }
        stats.evicted = evicted.len();
        stats.retained = log.entries.len();
        drop(log);
        self.notify_evictions(&evicted);
        Ok(stats)
    }

    /// Number of entries the store holds, counting other handles' records
    /// appended since this handle last looked.
    pub fn len(&self) -> usize {
        let mut log = self.lock();
        let evicted = log.refresh().unwrap_or_default();
        let len = log.entries.len();
        drop(log);
        self.notify_evictions(&evicted);
        len
    }

    /// Whether the store currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
    fn keys_order_as_their_hex_and_parse_back() {
        let mut keys: Vec<EvalKey> = (0..64)
            .map(|i| EvalKey::from_parts(&["k", &i.to_string()]))
            .chain([
                EvalKey {
                    hi: 1,
                    lo: u64::MAX,
                },
                EvalKey { hi: 2, lo: 0 },
            ])
            .collect();
        keys.sort();
        let hexes: Vec<String> = keys.iter().map(EvalKey::hex).collect();
        let mut sorted = hexes.clone();
        sorted.sort();
        assert_eq!(hexes, sorted);
        for (key, hex) in keys.iter().zip(&hexes) {
            assert_eq!(EvalKey::from_hex(hex), Some(*key));
        }
        assert_eq!(EvalKey::from_hex(&hexes[0].to_uppercase()), None);
        assert_eq!(EvalKey::from_hex(&hexes[0][1..]), None);
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
    fn the_store_is_one_log_created_by_the_first_put() {
        let dir = tmpdir("one-log");
        let store = EvalStore::open(&dir).unwrap();
        let key = EvalKey::from_parts(&["logged"]);
        assert!(store.get(&key).is_none());
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "open creates no file"
        );
        store.put(&key, "payload").unwrap();
        store
            .put(&EvalKey::from_parts(&["second"]), "more")
            .unwrap();
        let files: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files, vec![store.log_path()]);
        let text = fs::read_to_string(store.log_path()).unwrap();
        assert!(
            text.starts_with("record ")
                && text.contains(&format!("\ndovado-store 2 {}\npayload", key.hex())),
            "{text}"
        );
        assert_eq!(EvalStore::open(&dir).unwrap().len(), 2);
    }

    #[test]
    fn a_truncated_tail_is_a_miss_and_a_put_heals_it() {
        let dir = tmpdir("trunc");
        let store = EvalStore::open(&dir).unwrap();
        let kept = EvalKey::from_parts(&["kept"]);
        let key = EvalKey::from_parts(&["x"]);
        store.put(&kept, "intact").unwrap();
        store
            .put(&key, "a long payload that will be cut short")
            .unwrap();
        let path = store.log_path();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 5]).unwrap();
        let reopened = EvalStore::open(&dir).unwrap();
        assert!(reopened.get(&key).is_none());
        assert_eq!(reopened.get(&kept).unwrap(), "intact");
        // A put appended after the torn bytes is read past them.
        reopened.put(&key, "fresh").unwrap();
        let again = EvalStore::open(&dir).unwrap();
        assert_eq!(again.get(&key).unwrap(), "fresh");
        assert_eq!(again.get(&kept).unwrap(), "intact");
    }

    #[test]
    fn a_damaged_record_costs_only_itself() {
        let dir = tmpdir("flip");
        let store = EvalStore::open(&dir).unwrap();
        let keys: Vec<EvalKey> = (0..3)
            .map(|i| EvalKey::from_parts(&["y", &i.to_string()]))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            store.put(key, &format!("value {i}")).unwrap();
        }
        let path = store.log_path();
        let mut bytes = fs::read(&path).unwrap();
        let second = fs::read_to_string(&path).unwrap().find("value 1").unwrap();
        bytes[second] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let reopened = EvalStore::open(&dir).unwrap();
        assert!(reopened.get(&keys[1]).is_none());
        assert_eq!(reopened.get(&keys[0]).unwrap(), "value 0");
        assert_eq!(reopened.get(&keys[2]).unwrap(), "value 2");
    }

    #[test]
    fn another_format_version_is_a_miss() {
        let dir = tmpdir("ver");
        fs::create_dir_all(&dir).unwrap();
        let key = EvalKey::from_parts(&["z"]);
        let stale = frame_record(&format!(
            "{ENTRY_TAG} {} {}\npayload",
            STORE_FORMAT_VERSION + 1,
            key.hex()
        ));
        fs::write(dir.join(LOG_FILE), stale).unwrap();
        let store = EvalStore::open(&dir).unwrap();
        assert!(store.get(&key).is_none());
        assert_eq!(store.compact().unwrap().removed_corrupt, 1);
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
    fn dead_bytes_outgrowing_live_ones_rewrite_the_log() {
        let dir = tmpdir("rewrite");
        let store = EvalStore::open_bounded(&dir, Some(2)).unwrap();
        let key = |i: usize| EvalKey::from_parts(&["r", &i.to_string()]);
        let record = encode_record(&key(0), "v").len() as u64;
        for i in 0..50 {
            store.put(&key(i), "v").unwrap();
            let len = fs::metadata(store.log_path()).unwrap().len();
            assert!(len <= 5 * record, "log of {len} bytes after put {i}");
        }
        let reopened = EvalStore::open(&dir).unwrap();
        assert_eq!(reopened.get(&key(49)).unwrap(), "v");
        assert!(reopened.len() <= 3);
    }

    #[test]
    fn compact_removes_debris_and_corruption() {
        let dir = tmpdir("compact");
        let store = EvalStore::open(&dir).unwrap();
        let good = EvalKey::from_parts(&["good"]);
        let bad = EvalKey::from_parts(&["bad"]);
        store.put(&good, "kept").unwrap();
        store.put(&bad, "doomed").unwrap();
        // Damage the second record in place, and leave the debris of two
        // interrupted rewrites.
        let path = store.log_path();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("doomed", "DOOMED")).unwrap();
        fs::write(dir.join("evaluations.log.1.0.tmp"), "half-written").unwrap();
        fs::write(dir.join("evaluations.log.1.1.tmp"), "more").unwrap();

        let reopened = EvalStore::open(&dir).unwrap();
        let stats = reopened.compact().unwrap();
        assert_eq!(stats.removed_corrupt, 1);
        assert_eq!(stats.removed_debris, 2);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.retained, 1);
        assert_eq!(reopened.get(&good).unwrap(), "kept");
        assert!(reopened.get(&bad).is_none());
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            encode_record(&good, "kept")
        );
    }

    #[test]
    fn compact_enforces_capacity_and_reports_evictions() {
        let dir = tmpdir("compact-cap");
        // Fill beyond the bound through an unbounded handle, then compact
        // through a bounded one opened before the puts.
        let bounded = EvalStore::open_bounded(&dir, Some(2)).unwrap();
        let unbounded = EvalStore::open(&dir).unwrap();
        for i in 0..6 {
            unbounded
                .put(&EvalKey::from_parts(&["n", &i.to_string()]), "v")
                .unwrap();
        }
        let stats = bounded.compact().unwrap();
        assert_eq!(stats.evicted, 4);
        assert_eq!(stats.retained, 2);
        assert_eq!(bounded.len(), 2);
        assert_eq!(EvalStore::open(&dir).unwrap().len(), 2);
    }

    #[test]
    fn compaction_keeps_the_recency_of_known_entries() {
        let store = EvalStore::open_bounded(&tmpdir("compact-lru"), Some(2)).unwrap();
        let mut pair = [EvalKey::from_parts(&["p"]), EvalKey::from_parts(&["q"])];
        pair.sort();
        let [low, high] = pair;
        // Put in the reverse of key order, so recency and key order
        // disagree about which entry is coldest.
        store.put(&high, "H").unwrap();
        store.put(&low, "L").unwrap();
        store.compact().unwrap();
        store.put(&EvalKey::from_parts(&["r"]), "R").unwrap();
        assert!(
            store.get(&high).is_none(),
            "the least recently put entry goes"
        );
        assert_eq!(store.get(&low).unwrap(), "L");
    }

    #[test]
    fn unbounded_stores_keep_no_recency_index() {
        let dir = tmpdir("no-index");
        let first = EvalStore::open(&dir).unwrap();
        let a = EvalKey::from_parts(&["a"]);
        first.put(&a, "A").unwrap();
        let store = EvalStore::open(&dir).unwrap();
        assert_eq!(store.get(&a).unwrap(), "A");
        store.put(&EvalKey::from_parts(&["b"]), "B").unwrap();
        assert_eq!(store.compact().unwrap().retained, 2);
        for handle in [&first, &store] {
            assert!(handle.lock().recency.is_none());
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

    #[test]
    fn a_miss_sees_what_another_handle_appended_or_rewrote() {
        let dir = tmpdir("two-handles");
        let first = EvalStore::open(&dir).unwrap();
        let second = EvalStore::open(&dir).unwrap();
        let a = EvalKey::from_parts(&["a"]);
        let b = EvalKey::from_parts(&["b"]);
        first.put(&a, "A").unwrap();
        assert_eq!(second.get(&a).unwrap(), "A");
        second.put(&b, "B").unwrap();
        assert_eq!(first.get(&b).unwrap(), "B");
        // A rewrite by one handle replaces the file under the other.
        second.compact().unwrap();
        let c = EvalKey::from_parts(&["c"]);
        second.put(&c, "C").unwrap();
        assert_eq!(first.get(&c).unwrap(), "C");
        assert_eq!(first.get(&a).unwrap(), "A");
    }
}
