//! Durable checkpoint journal: crash-recoverable storage for resumable
//! verdicts.
//!
//! A [`crate::ServeCore`] cuts a [`Checkpoint`] whenever a limit stops a
//! per-disjunct containment run. This module makes that progress survive
//! the process: every `Unknown`-with-checkpoint is appended to a
//! [`CheckpointStore`] at response time, and a restarted core replays the
//! store into its checkpoint cache, so a retried request resumes from its
//! pre-crash proven-disjunct set.
//!
//! ## Record format
//!
//! The file journal is append-only, one record per line:
//!
//! ```text
//! <len> <crc32-hex8> <json>\n
//! ```
//!
//! where `len` is the decimal byte length of `<json>` and `crc32` is the
//! IEEE CRC-32 of the JSON bytes. Record kinds (the `kind` field of the
//! JSON object):
//!
//! * `gen` — generation header `{kind, version, generation}`. One is
//!   appended every time the journal is opened; the process generation is
//!   `max(replayed generations) + 1` and is folded into
//!   [`crate::TraceId`] minting so trace IDs stay unique across restarts.
//! * `cp` — a live checkpoint `{kind, cp: {...}}`, keyed by its
//!   fingerprint (later records for the same fingerprint supersede
//!   earlier ones).
//! * `rm` — a tombstone `{kind, fp}`: a definite verdict retired the
//!   fingerprint, so replay must not resurrect it.
//! * `ep` — the catalog-epoch state `{kind, ep: {...}}` ([`EpochRecord`]):
//!   latest wins, compaction rewrites it. Rides on the skip-unknown-kinds
//!   rule, so pre-epoch readers ignore it rather than failing.
//!
//! ## Replay tolerance
//!
//! Replay is prefix-tolerant, never fail-stop:
//!
//! * a **torn tail** (final bytes with no newline — a crash mid-append)
//!   is truncated and reported, keeping every complete record;
//! * a **corrupt record** (bad framing, CRC mismatch, unparsable JSON, or
//!   an out-of-order generation) stops replay at the last good record;
//!   the corrupt suffix is truncated with a logged reason;
//! * an **unsupported format version** in a `gen` header abandons the
//!   journal wholesale (reset to empty) rather than guessing;
//! * an unknown record `kind` is skipped (forward compatibility).
//!
//! The result is always a consistent empty-or-prefix state: recovered
//! checkpoints are exactly those durable at some prefix of the history,
//! and losing a suffix only costs recomputation (resume indices are an
//! under-approximation), never soundness.
//!
//! ## Syncing and compaction
//!
//! Every append is `fsync`ed before the call returns, so a checkpoint
//! handed to a client survives an immediate power cut. When the file
//! grows past 1 MiB and holds more records than live fingerprints, the
//! journal is rewritten as a fresh generation header plus one `cp` record
//! per live fingerprint (dead versions and tombstones drop out),
//! atomically via rename-over.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use crate::checkpoint::Checkpoint;

/// The durable catalog-epoch state: which epoch the journal's checkpoints
/// were last valid for, a content hash of the catalog at that epoch, and
/// the per-view versions request fingerprints fold in.
///
/// Journaled as an `ep` record (latest wins; compaction keeps it). On
/// replay the serve core compares `cat` against its own catalog: a match
/// restores `epoch` and the per-view versions (so pre-restart
/// fingerprints keep matching and journaled progress resumes); a mismatch
/// means the catalog changed while the process was down, so the core
/// bumps past `epoch` and sweeps every journaled checkpoint as stale.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// The catalog epoch (monotone across deltas and restarts).
    pub epoch: u64,
    /// Content hash of the catalog at that epoch (names + rendered
    /// definitions, order-sensitive; versions excluded).
    pub cat: u64,
    /// View names, parallel to `versions`.
    pub names: Vec<String>,
    /// Epoch at which each view was last added/replaced.
    pub versions: Vec<u64>,
}

/// Journal format version written in every `gen` header. Replay abandons
/// journals from a different (e.g. future) version instead of guessing
/// at their framing.
///
/// Version 2: a checkpoint's `proven` indices name positions in a plan
/// built only from the views the request's fingerprint covers. Version-1
/// plans drew on every view, so their indices can name different
/// disjuncts; a version-1 journal is reset and its in-progress requests
/// recompute once.
///
/// Version 3: Theorem 5.1 plans are completed from inverse-rule
/// skeletons instead of MiniCon's, and list their disjuncts in another
/// order (the dealer question's `qv` plan was `PreWar, AnyCar` and is
/// `AnyCar, PreWar`). A checkpoint's shape check compares only the
/// disjunct count, so it cannot catch the reordering: a version-2
/// journal is reset instead.
pub const JOURNAL_VERSION: u32 = 3;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven — vendored, the workspace has no crc crate.
// ---------------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the checksum in every journal record).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Store trait
// ---------------------------------------------------------------------------

/// What a [`CheckpointStore::save`] did, so the caller can account for it
/// (journal counters live in the serve core, not the store).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveReceipt {
    /// A record was appended (always true today; kept explicit so a
    /// deduplicating store could decline).
    pub appended: bool,
    /// The append triggered a size-based compaction.
    pub compacted: bool,
}

/// What replay found when the store was opened. In-memory stores report
/// the default (empty) value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Valid checkpoint records replayed (including superseded ones).
    pub records_replayed: u64,
    /// Distinct live fingerprints after replay.
    pub live: usize,
    /// A torn tail (partial final record) was truncated.
    pub torn_truncated: bool,
    /// Corrupt records discarded (replay stopped at the first).
    pub corrupt_records: u64,
    /// The journal was abandoned wholesale; the reason why.
    pub reset: Option<String>,
    /// Bytes dropped by tail truncation or reset.
    pub truncated_bytes: u64,
    /// Wall-clock nanoseconds the replay took.
    pub replay_ns: u64,
}

impl ReplayReport {
    /// Whether replay had to repair anything (torn tail, corruption, or
    /// a wholesale reset).
    pub fn repaired(&self) -> bool {
        self.torn_truncated || self.corrupt_records > 0 || self.reset.is_some()
    }
}

/// Storage for resumable checkpoints, keyed by request fingerprint.
///
/// [`crate::ServeCore`] saves every `Unknown`-with-checkpoint at response
/// time, loads by fingerprint when a request arrives without an explicit
/// checkpoint, and retires fingerprints on definite verdicts. The
/// in-memory impl ([`MemoryStore`]) gives a warm-process cache; the
/// file-backed impl ([`FileJournal`]) survives the process.
pub trait CheckpointStore: Send + Sync {
    /// The store's process generation: 0 for purely in-memory stores,
    /// `max(replayed) + 1` for a replayed journal. Folded into trace-ID
    /// minting so traces stay unique across restarts.
    fn generation(&self) -> u64;

    /// Records (or supersedes) the checkpoint under its fingerprint.
    fn save(&self, cp: &Checkpoint) -> SaveReceipt;

    /// The live checkpoint for `fingerprint`, if any.
    fn load(&self, fingerprint: u64) -> Option<Checkpoint>;

    /// Drops `fingerprint` (a definite verdict made its progress moot).
    /// Returns whether the fingerprint was live.
    fn retire(&self, fingerprint: u64) -> bool;

    /// Number of live fingerprints.
    fn live(&self) -> usize;

    /// What replay found at open time (default: nothing to report).
    fn replay_report(&self) -> ReplayReport {
        ReplayReport::default()
    }

    /// Records the current catalog-epoch state (durable stores journal an
    /// `ep` record; the default discards it).
    fn set_epoch(&self, _rec: &EpochRecord) {}

    /// The last recorded epoch state, if any (replayed from the journal
    /// for durable stores).
    fn epoch_state(&self) -> Option<EpochRecord> {
        None
    }

    /// Every live fingerprint, so the serve core can sweep or re-tag
    /// checkpoints on catalog deltas and epoch mismatches.
    fn live_fingerprints(&self) -> Vec<u64> {
        Vec::new()
    }
}

// ---------------------------------------------------------------------------
// In-memory store
// ---------------------------------------------------------------------------

/// A volatile [`CheckpointStore`]: the warm-process checkpoint cache with
/// no durability. This is what [`crate::ServeCore::new`] installs.
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: Mutex<BTreeMap<u64, Checkpoint>>,
    epoch: Mutex<Option<EpochRecord>>,
    generation: u64,
}

impl MemoryStore {
    /// An empty store with generation 0 (bare-core trace IDs unchanged).
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// An empty store minting traces under an explicit generation (used
    /// by tests simulating restarts without a filesystem).
    pub fn with_generation(generation: u64) -> MemoryStore {
        MemoryStore {
            map: Mutex::new(BTreeMap::new()),
            epoch: Mutex::new(None),
            generation,
        }
    }

    fn map(&self) -> MutexGuard<'_, BTreeMap<u64, Checkpoint>> {
        self.map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Progress under one fingerprint is monotone: when a new checkpoint for
/// an already-live fingerprint shares the plan shape, its proven set is
/// unioned with the live one instead of replacing it — a client
/// restarting from scratch (or resubmitting a stale checkpoint) can
/// never erase durable progress. A shape change (different
/// `disjuncts_total`) means a different plan, so the new checkpoint
/// replaces outright.
fn merge_live(existing: Option<&Checkpoint>, cp: &Checkpoint) -> Checkpoint {
    match existing {
        Some(old) if old.disjuncts_total == cp.disjuncts_total => {
            let mut proven = old.proven.clone();
            proven.extend(cp.proven.iter().copied());
            proven.sort_unstable();
            proven.dedup();
            Checkpoint {
                proven,
                ..cp.clone()
            }
        }
        _ => cp.clone(),
    }
}

impl CheckpointStore for MemoryStore {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn save(&self, cp: &Checkpoint) -> SaveReceipt {
        // Same kill point as the durable path, so chaos harnesses can
        // fault "mid-append" regardless of the backing store.
        let _ = qc_guard::tick(qc_guard::stage::JOURNAL, 1);
        let mut map = self.map();
        let cp = merge_live(map.get(&cp.fingerprint), cp);
        map.insert(cp.fingerprint, cp);
        SaveReceipt {
            appended: true,
            compacted: false,
        }
    }

    fn load(&self, fingerprint: u64) -> Option<Checkpoint> {
        self.map().get(&fingerprint).cloned()
    }

    fn retire(&self, fingerprint: u64) -> bool {
        self.map().remove(&fingerprint).is_some()
    }

    fn live(&self) -> usize {
        self.map().len()
    }

    fn set_epoch(&self, rec: &EpochRecord) {
        *self
            .epoch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(rec.clone());
    }

    fn epoch_state(&self) -> Option<EpochRecord> {
        self.epoch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    fn live_fingerprints(&self) -> Vec<u64> {
        self.map().keys().copied().collect()
    }
}

// ---------------------------------------------------------------------------
// File-backed journal
// ---------------------------------------------------------------------------

/// Compact once the file exceeds this many bytes (and holds more records
/// than live fingerprints).
const COMPACT_BYTES: u64 = 1 << 20;

#[derive(Serialize, Deserialize)]
struct GenRecord {
    kind: String,
    version: u32,
    generation: u64,
}

#[derive(Serialize, Deserialize)]
struct CpRecord {
    kind: String,
    cp: Checkpoint,
}

#[derive(Serialize, Deserialize)]
struct RmRecord {
    kind: String,
    fp: u64,
}

#[derive(Serialize, Deserialize)]
struct EpRecord {
    kind: String,
    ep: EpochRecord,
}

/// How the journal syncs a *directory* to durable storage. A rename-over
/// (compaction) is only durable once the parent directory's entry for the
/// new file is — `fsync` on the file alone does not cover the rename, so
/// a power cut can resurrect the pre-compaction journal or leave nothing.
/// The seam exists so tests can count/fail the call; production uses
/// [`RealDirSync`].
pub trait DirSync: Send + Sync {
    /// Forces `dir`'s entries to durable storage.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
}

/// The production [`DirSync`]: opens the directory and `fsync`s it.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealDirSync;

impl DirSync for RealDirSync {
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// Serializes one journal record (infallible for the record structs).
fn record_json<T: Serialize>(rec: &T) -> String {
    serde_json::to_string(rec).expect("journal record serializes")
}

/// Frames `json` as one journal line: `<len> <crc32-hex8> <json>\n`.
fn frame(json: &str) -> Vec<u8> {
    let mut line = format!("{} {:08x} ", json.len(), crc32(json.as_bytes())).into_bytes();
    line.extend_from_slice(json.as_bytes());
    line.push(b'\n');
    line
}

/// Parses one complete line (without its newline) back to its JSON
/// payload, checking framing and CRC. `None` means the record is corrupt.
fn unframe(line: &[u8]) -> Option<serde::Value> {
    let text = std::str::from_utf8(line).ok()?;
    let (len_s, rest) = text.split_once(' ')?;
    let (crc_s, json) = rest.split_once(' ')?;
    let len: usize = len_s.parse().ok()?;
    if crc_s.len() != 8 || json.len() != len {
        return None;
    }
    let crc = u32::from_str_radix(crc_s, 16).ok()?;
    if crc32(json.as_bytes()) != crc {
        return None;
    }
    serde_json::from_str::<serde::Value>(json).ok()
}

struct JournalInner {
    file: File,
    bytes: u64,
    live: BTreeMap<u64, Checkpoint>,
    epoch: Option<EpochRecord>,
    records_since_compact: u64,
}

/// The durable [`CheckpointStore`]: an append-only, CRC-framed,
/// generation-stamped record log with tolerant replay and size-triggered
/// compaction. See the module docs for the format and tolerance rules.
pub struct FileJournal {
    path: PathBuf,
    compact_bytes: u64,
    generation: u64,
    report: ReplayReport,
    dir_sync: Arc<dyn DirSync>,
    inner: Mutex<JournalInner>,
}

impl FileJournal {
    /// Opens (creating if absent) the journal at `path`: replays every
    /// recoverable record, truncates any torn or corrupt suffix, bumps
    /// the generation, and appends the new generation header.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<FileJournal> {
        FileJournal::open_inner(path, COMPACT_BYTES, Arc::new(RealDirSync))
    }

    /// [`FileJournal::open`] with an explicit compaction threshold and
    /// the seam through which compaction makes its rename-over durable,
    /// so the journal's own tests can compact a small file and count the
    /// directory syncs.
    fn open_inner(
        path: impl Into<PathBuf>,
        compact_bytes: u64,
        dir_sync: Arc<dyn DirSync>,
    ) -> std::io::Result<FileJournal> {
        let path = path.into();
        let started = std::time::Instant::now();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut report = ReplayReport::default();
        let mut live: BTreeMap<u64, Checkpoint> = BTreeMap::new();
        let mut epoch: Option<EpochRecord> = None;
        let mut max_gen = 0u64;
        let mut good_end = 0usize;
        let mut offset = 0usize;
        let mut stop: Option<&'static str> = None;
        while offset < bytes.len() {
            let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
                // Unterminated final bytes: a crash landed mid-append.
                report.torn_truncated = true;
                stop = Some("torn tail");
                break;
            };
            let line = &bytes[offset..offset + nl];
            let Some(value) = unframe(line) else {
                // A *complete* line that fails framing/CRC/parse is
                // corruption, not a torn write; everything after it is
                // untrusted.
                report.corrupt_records += 1;
                stop = Some("corrupt record");
                break;
            };
            match value.get_field("kind").as_str() {
                Some("gen") => {
                    let Ok(gen) = <GenRecord as Deserialize>::from_value(&value) else {
                        report.corrupt_records += 1;
                        stop = Some("malformed generation header");
                        break;
                    };
                    if gen.version != JOURNAL_VERSION {
                        report.reset = Some(format!(
                            "unsupported journal version {} (expected {JOURNAL_VERSION})",
                            gen.version
                        ));
                        break;
                    }
                    if gen.generation < max_gen {
                        report.corrupt_records += 1;
                        stop = Some("generation went backwards");
                        break;
                    }
                    max_gen = gen.generation;
                }
                Some("cp") => match <CpRecord as Deserialize>::from_value(&value) {
                    Ok(rec) => {
                        report.records_replayed += 1;
                        live.insert(rec.cp.fingerprint, rec.cp);
                    }
                    Err(_) => {
                        report.corrupt_records += 1;
                        stop = Some("malformed checkpoint record");
                        break;
                    }
                },
                Some("rm") => match <RmRecord as Deserialize>::from_value(&value) {
                    Ok(rec) => {
                        live.remove(&rec.fp);
                    }
                    Err(_) => {
                        report.corrupt_records += 1;
                        stop = Some("malformed tombstone");
                        break;
                    }
                },
                Some("ep") => match <EpRecord as Deserialize>::from_value(&value) {
                    Ok(rec) => {
                        epoch = Some(rec.ep);
                    }
                    Err(_) => {
                        report.corrupt_records += 1;
                        stop = Some("malformed epoch record");
                        break;
                    }
                },
                // Unknown kinds are skipped: a newer writer's extra
                // record types must not brick an older reader.
                _ => {}
            }
            offset += nl + 1;
            good_end = offset;
        }

        let generation = if report.reset.is_some() {
            // Untrusted content: restart the journal from scratch.
            live.clear();
            epoch = None;
            report.records_replayed = 0;
            report.truncated_bytes = bytes.len() as u64;
            good_end = 0;
            1
        } else {
            if stop.is_some() {
                report.truncated_bytes = (bytes.len() - good_end) as u64;
            }
            max_gen + 1
        };
        if good_end < bytes.len() {
            // Truncate the unrecoverable suffix so the next append starts
            // at a clean record boundary.
            file.set_len(good_end as u64)?;
        }
        file.seek(SeekFrom::End(0))?;
        report.live = live.len();

        let mut journal = FileJournal {
            path,
            compact_bytes,
            generation,
            report,
            dir_sync,
            inner: Mutex::new(JournalInner {
                file,
                bytes: good_end as u64,
                live,
                epoch,
                records_since_compact: 0,
            }),
        };
        {
            let mut inner = journal.inner_lock();
            let json = record_json(&GenRecord {
                kind: "gen".into(),
                version: JOURNAL_VERSION,
                generation,
            });
            journal.write_record(&mut inner, &json, false)?;
            inner.file.sync_data()?;
        }
        journal.report.replay_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(journal)
    }

    /// Current on-disk size in bytes.
    pub fn bytes(&self) -> u64 {
        self.inner_lock().bytes
    }

    fn inner_lock(&self) -> MutexGuard<'_, JournalInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Appends one framed record. When `kill_point` is set, a
    /// [`qc_guard::stage::JOURNAL`] tick fires *between* the two halves of
    /// the write, so an injected fault leaves a genuinely torn tail.
    fn write_record(
        &self,
        inner: &mut JournalInner,
        json: &str,
        kill_point: bool,
    ) -> std::io::Result<()> {
        let line = frame(json);
        let mid = line.len() / 2;
        inner.file.write_all(&line[..mid])?;
        if kill_point {
            // Ignore budget/cancel trips here — journaling happens after
            // the verdict and must not be starved by a spent budget; the
            // Panic kind still unwinds (that is the kill).
            let _ = qc_guard::tick(qc_guard::stage::JOURNAL, 1);
        }
        inner.file.write_all(&line[mid..])?;
        inner.bytes += line.len() as u64;
        Ok(())
    }

    /// Rewrites the journal as generation header + live checkpoints,
    /// atomically (write sidecar, fsync, rename over).
    fn compact(&self, inner: &mut JournalInner) -> std::io::Result<()> {
        let tmp = self.path.with_extension("compact");
        let mut out = File::create(&tmp)?;
        let mut bytes = 0u64;
        let gen_json = record_json(&GenRecord {
            kind: "gen".into(),
            version: JOURNAL_VERSION,
            generation: self.generation,
        });
        let line = frame(&gen_json);
        out.write_all(&line)?;
        bytes += line.len() as u64;
        if let Some(ep) = &inner.epoch {
            // The epoch record is live state, not history: dropping it in
            // compaction would make the next restart treat every surviving
            // checkpoint as pre-epoch.
            let json = record_json(&EpRecord {
                kind: "ep".into(),
                ep: ep.clone(),
            });
            let line = frame(&json);
            out.write_all(&line)?;
            bytes += line.len() as u64;
        }
        for cp in inner.live.values() {
            let json = record_json(&CpRecord {
                kind: "cp".into(),
                cp: cp.clone(),
            });
            let line = frame(&json);
            out.write_all(&line)?;
            bytes += line.len() as u64;
        }
        out.sync_data()?;
        drop(out);
        std::fs::rename(&tmp, &self.path)?;
        // The rename itself is only durable once the parent directory's
        // entry is; an empty parent means a bare relative filename (CWD),
        // which `File::open("")` cannot express — skip rather than error.
        match self.path.parent() {
            Some(p) if !p.as_os_str().is_empty() => self.dir_sync.sync_dir(p)?,
            _ => {}
        }
        inner.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        let _ = inner.file.sync_data();
        inner.bytes = bytes;
        inner.records_since_compact = 0;
        Ok(())
    }
}

impl CheckpointStore for FileJournal {
    fn generation(&self) -> u64 {
        self.generation
    }

    fn save(&self, cp: &Checkpoint) -> SaveReceipt {
        let mut inner = self.inner_lock();
        // Merge before framing: the appended record carries the merged
        // state, so replay reconstructs it without re-merging.
        let cp = merge_live(inner.live.get(&cp.fingerprint), cp);
        let json = record_json(&CpRecord {
            kind: "cp".into(),
            cp: cp.clone(),
        });
        if self.write_record(&mut inner, &json, true).is_err() {
            // An I/O error loses durability, not correctness: keep the
            // in-memory copy so the running process still resumes.
            inner.live.insert(cp.fingerprint, cp.clone());
            return SaveReceipt::default();
        }
        inner.live.insert(cp.fingerprint, cp.clone());
        inner.records_since_compact += 1;
        let _ = inner.file.sync_data();
        let mut compacted = false;
        if inner.bytes > self.compact_bytes && inner.records_since_compact > inner.live.len() as u64
        {
            compacted = self.compact(&mut inner).is_ok();
        }
        SaveReceipt {
            appended: true,
            compacted,
        }
    }

    fn load(&self, fingerprint: u64) -> Option<Checkpoint> {
        self.inner_lock().live.get(&fingerprint).cloned()
    }

    fn retire(&self, fingerprint: u64) -> bool {
        let mut inner = self.inner_lock();
        if inner.live.remove(&fingerprint).is_none() {
            return false;
        }
        let json = record_json(&RmRecord {
            kind: "rm".into(),
            fp: fingerprint,
        });
        if self.write_record(&mut inner, &json, false).is_ok() {
            inner.records_since_compact += 1;
            let _ = inner.file.sync_data();
        }
        true
    }

    fn live(&self) -> usize {
        self.inner_lock().live.len()
    }

    fn replay_report(&self) -> ReplayReport {
        self.report.clone()
    }

    fn set_epoch(&self, rec: &EpochRecord) {
        let mut inner = self.inner_lock();
        let json = record_json(&EpRecord {
            kind: "ep".into(),
            ep: rec.clone(),
        });
        // kill_point: an epoch bump races crashes exactly like a
        // checkpoint append; a torn ep record replays as the *previous*
        // epoch state, which the serve core detects as a catalog mismatch
        // and sweeps — stale, never unsound.
        if self.write_record(&mut inner, &json, true).is_ok() {
            inner.records_since_compact += 1;
            let _ = inner.file.sync_data();
        }
        inner.epoch = Some(rec.clone());
    }

    fn epoch_state(&self) -> Option<EpochRecord> {
        self.inner_lock().epoch.clone()
    }

    fn live_fingerprints(&self) -> Vec<u64> {
        self.inner_lock().live.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(fp: u64, proven: Vec<usize>) -> Checkpoint {
        Checkpoint {
            fingerprint: fp,
            disjuncts_total: 8,
            proven,
            epoch: 0,
            preds: vec!["e".into()],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("relcont-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn memory_store_round_trip() {
        let s = MemoryStore::new();
        assert_eq!(s.generation(), 0);
        assert_eq!(s.live(), 0);
        let receipt = s.save(&cp(7, vec![0, 1]));
        assert!(receipt.appended);
        assert_eq!(s.load(7).unwrap().proven, vec![0, 1]);
        s.save(&cp(7, vec![0, 1, 2]));
        assert_eq!(s.load(7).unwrap().proven, vec![0, 1, 2], "superseded");
        s.retire(7);
        assert!(s.load(7).is_none());
    }

    #[test]
    fn save_unions_proven_when_the_plan_shape_matches() {
        let s = MemoryStore::new();
        s.save(&cp(7, vec![0, 1]));
        // A fresh-start client (empty proven) must not erase progress…
        s.save(&cp(7, vec![]));
        assert_eq!(s.load(7).unwrap().proven, vec![0, 1], "monotone");
        // …and disjoint progress merges.
        s.save(&cp(7, vec![3]));
        assert_eq!(s.load(7).unwrap().proven, vec![0, 1, 3]);
        // A different plan shape replaces outright.
        let mut reshaped = cp(7, vec![5]);
        reshaped.disjuncts_total = 16;
        s.save(&reshaped);
        assert_eq!(s.load(7).unwrap().proven, vec![5], "shape change resets");
    }

    #[test]
    fn file_journal_records_carry_the_merged_state() {
        let path = tmp("merge");
        {
            let j = FileJournal::open(&path).unwrap();
            j.save(&cp(1, vec![0, 2]));
            j.save(&cp(1, vec![1]));
            assert_eq!(j.load(1).unwrap().proven, vec![0, 1, 2]);
        }
        // Replay rebuilds the merged set from the last record alone.
        let j = FileJournal::open(&path).unwrap();
        assert_eq!(j.load(1).unwrap().proven, vec![0, 1, 2]);
    }

    #[test]
    fn file_journal_replays_across_generations() {
        let path = tmp("replay");
        {
            let j = FileJournal::open(&path).unwrap();
            assert_eq!(j.generation(), 1);
            j.save(&cp(1, vec![0]));
            j.save(&cp(2, vec![1]));
            j.save(&cp(1, vec![0, 3]));
            j.retire(2);
        }
        let j = FileJournal::open(&path).unwrap();
        assert_eq!(j.generation(), 2, "generation bumps per open");
        let report = j.replay_report();
        assert!(!report.repaired(), "clean shutdown replays clean");
        assert_eq!(report.records_replayed, 3);
        assert_eq!(j.live(), 1, "tombstone removed fp 2");
        assert_eq!(j.load(1).unwrap().proven, vec![0, 3], "latest wins");
        assert!(j.load(2).is_none());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        {
            let j = FileJournal::open(&path).unwrap();
            j.save(&cp(1, vec![0]));
            j.save(&cp(2, vec![1]));
        }
        // Simulate a crash mid-append: a record prefix with no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"57 0abc12").unwrap();
        drop(f);
        let j = FileJournal::open(&path).unwrap();
        let report = j.replay_report();
        assert!(report.torn_truncated);
        assert!(report.truncated_bytes > 0);
        assert_eq!(report.corrupt_records, 0, "torn is not corrupt");
        assert_eq!(j.live(), 2, "every complete record survives");
        // The truncation healed the file: a third open is clean.
        drop(j);
        let j = FileJournal::open(&path).unwrap();
        assert!(!j.replay_report().repaired());
        assert_eq!(j.live(), 2);
    }

    #[test]
    fn corrupt_record_keeps_prefix_only() {
        let path = tmp("corrupt");
        {
            let j = FileJournal::open(&path).unwrap();
            j.save(&cp(1, vec![0]));
            j.save(&cp(2, vec![1]));
            j.save(&cp(3, vec![2]));
        }
        // Flip one byte inside the *second* checkpoint record.
        let mut bytes = std::fs::read(&path).unwrap();
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i))
            .collect();
        // Line 0 is the gen header; corrupt mid-line-2 (fp 2's record).
        let target = (lines[1] + lines[2]) / 2;
        bytes[target] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();

        let j = FileJournal::open(&path).unwrap();
        let report = j.replay_report();
        assert_eq!(report.corrupt_records, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(j.live(), 1, "only the prefix before the corruption");
        assert!(j.load(1).is_some());
        assert!(j.load(2).is_none() && j.load(3).is_none());
    }

    #[test]
    fn unsupported_version_resets_to_empty() {
        let path = tmp("version");
        let gen = record_json(&GenRecord {
            kind: "gen".into(),
            version: JOURNAL_VERSION + 1,
            generation: 9,
        });
        std::fs::write(&path, frame(&gen)).unwrap();
        let j = FileJournal::open(&path).unwrap();
        let report = j.replay_report();
        let reason = report.reset.as_ref().expect("reset reported");
        assert!(reason.contains("version"), "{reason}");
        assert_eq!(j.live(), 0);
        assert_eq!(j.generation(), 1, "fresh journal, fresh generations");
    }

    #[test]
    fn version_1_checkpoints_are_not_resumed() {
        // Version-1 indices were cut against plans over every view; they
        // must be recomputed, not resumed, after the upgrade.
        let path = tmp("v1");
        let mut bytes = frame(&record_json(&GenRecord {
            kind: "gen".into(),
            version: 1,
            generation: 4,
        }));
        bytes.extend(frame(&record_json(&CpRecord {
            kind: "cp".into(),
            cp: cp(1, vec![0]),
        })));
        std::fs::write(&path, bytes).unwrap();
        let j = FileJournal::open(&path).unwrap();
        assert!(j.replay_report().reset.is_some());
        assert_eq!(j.live(), 0);
        assert!(j.load(1).is_none());
    }

    #[test]
    fn backwards_generation_is_corruption() {
        let path = tmp("stalegen");
        let g2 = frame(&record_json(&GenRecord {
            kind: "gen".into(),
            version: JOURNAL_VERSION,
            generation: 5,
        }));
        let record = frame(&record_json(&CpRecord {
            kind: "cp".into(),
            cp: cp(1, vec![0]),
        }));
        let g1 = frame(&record_json(&GenRecord {
            kind: "gen".into(),
            version: JOURNAL_VERSION,
            generation: 3,
        }));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&g2);
        bytes.extend_from_slice(&record);
        bytes.extend_from_slice(&g1);
        std::fs::write(&path, bytes).unwrap();
        let j = FileJournal::open(&path).unwrap();
        let report = j.replay_report();
        assert_eq!(report.corrupt_records, 1, "stale generation detected");
        assert_eq!(j.live(), 1, "records before the stale header survive");
        assert_eq!(j.generation(), 6, "past the highest trusted generation");
    }

    #[test]
    fn unknown_record_kinds_are_skipped() {
        let path = tmp("unknown");
        {
            let j = FileJournal::open(&path).unwrap();
            j.save(&cp(1, vec![0]));
        }
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame(r#"{"kind":"future-extension","x":1}"#))
            .unwrap();
        drop(f);
        let j = FileJournal::open(&path).unwrap();
        assert!(!j.replay_report().repaired());
        assert_eq!(j.live(), 1);
    }

    #[test]
    fn compaction_rewrites_only_live_fingerprints() {
        let path = tmp("compact");
        let j = FileJournal::open_inner(&path, 512, Arc::new(RealDirSync)).unwrap();
        let mut compacted = false;
        for round in 0..64 {
            let receipt = j.save(&cp(1, vec![round % 8]));
            compacted |= receipt.compacted;
        }
        assert!(compacted, "size trigger fired");
        assert!(
            j.bytes() < 512,
            "one live fingerprint compacts small, got {}",
            j.bytes()
        );
        drop(j);
        let j = FileJournal::open(&path).unwrap();
        assert_eq!(j.live(), 1);
        assert!(j.load(1).is_some());
        assert!(
            !j.replay_report().repaired(),
            "compacted file replays clean"
        );
    }

    fn ep(epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            cat: 0x0CA7_A106 ^ epoch,
            names: vec!["V1".into(), "V2".into()],
            versions: vec![0, epoch],
        }
    }

    #[test]
    fn memory_store_epoch_state_round_trip() {
        let s = MemoryStore::new();
        assert_eq!(s.epoch_state(), None);
        s.save(&cp(1, vec![0]));
        s.save(&cp(9, vec![1]));
        s.set_epoch(&ep(3));
        assert_eq!(s.epoch_state(), Some(ep(3)));
        assert_eq!(s.live_fingerprints(), vec![1, 9]);
    }

    #[test]
    fn epoch_record_replays_latest_wins() {
        let path = tmp("epoch");
        {
            let j = FileJournal::open(&path).unwrap();
            j.set_epoch(&ep(1));
            j.save(&cp(1, vec![0]));
            j.set_epoch(&ep(2));
        }
        let j = FileJournal::open(&path).unwrap();
        assert!(!j.replay_report().repaired());
        assert_eq!(j.epoch_state(), Some(ep(2)), "latest ep record wins");
        assert_eq!(j.live_fingerprints(), vec![1]);
    }

    #[test]
    fn compaction_preserves_the_epoch_record() {
        let path = tmp("epcompact");
        let j = FileJournal::open_inner(&path, 512, Arc::new(RealDirSync)).unwrap();
        j.set_epoch(&ep(7));
        let mut compacted = false;
        for round in 0..64 {
            compacted |= j.save(&cp(1, vec![round % 8])).compacted;
        }
        assert!(compacted, "size trigger fired");
        drop(j);
        let j = FileJournal::open(&path).unwrap();
        assert_eq!(j.epoch_state(), Some(ep(7)), "ep survives the rewrite");
        assert!(j.load(1).is_some());
    }

    /// A [`DirSync`] that counts calls instead of touching the kernel, so
    /// the test below can prove compaction's rename-over is followed by a
    /// parent-directory fsync (the rename alone is not durable).
    struct CountingDirSync {
        calls: Mutex<Vec<PathBuf>>,
    }

    impl DirSync for CountingDirSync {
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.calls
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(dir.to_path_buf());
            Ok(())
        }
    }

    #[test]
    fn compaction_fsyncs_the_parent_directory_after_rename() {
        let path = tmp("dirsync");
        let counter = Arc::new(CountingDirSync {
            calls: Mutex::new(Vec::new()),
        });
        let j = FileJournal::open_inner(&path, 512, counter.clone()).unwrap();
        assert!(
            counter.calls.lock().unwrap().is_empty(),
            "plain appends never dir-sync"
        );
        let mut compactions = 0u32;
        for round in 0..64 {
            if j.save(&cp(1, vec![round % 8])).compacted {
                compactions += 1;
            }
        }
        assert!(compactions > 0, "size trigger fired");
        let calls = counter.calls.lock().unwrap().clone();
        assert_eq!(
            calls.len() as u32,
            compactions,
            "exactly one parent fsync per compaction"
        );
        let parent = path.parent().unwrap().to_path_buf();
        assert!(
            calls.iter().all(|c| *c == parent),
            "synced the journal's parent, got {calls:?}"
        );
    }
}
