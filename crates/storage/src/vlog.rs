//! The append-only, checksummed value log backing the persistent tier.
//!
//! ## On-disk format
//!
//! The log is a sequence of **segment** files (`vlog-<id>.log`, ids
//! monotonically increasing) in the store directory. Each segment starts
//! with an 8-byte magic (`SANDVLG1`) and then holds back-to-back
//! records:
//!
//! ```text
//! +------+---------+---------+----------+-------------+-----+-----+-------+
//! | kind | key_len | val_len | deadline | future_uses | key | val | crc32 |
//! |  u8  |   u32   |   u32   |   u64    |     u32     | ... | ... |  u32  |
//! +------+---------+---------+----------+-------------+-----+-----+-------+
//! ```
//!
//! All integers are little-endian. `kind` is 0 for a put and 1 for a
//! tombstone (a persisted removal; `val_len` is then 0). The CRC32
//! (IEEE) covers every preceding byte of the record and is **written
//! last**, so a record only becomes adoptable once its checksum hit the
//! file: a crash mid-append leaves a torn tail that replay detects and
//! truncates instead of resurrecting.
//!
//! ## Replay
//!
//! [`ValueLog::open`] scans every segment in id order, validating each
//! record's length envelope and checksum. The scan stops a segment at
//! the first invalid record — a short tail is a torn append
//! (truncated in place so the segment is clean for future appends), a
//! full-length record with a bad checksum is bit rot (also truncated;
//! everything after an unreadable record is unreachable anyway because
//! record boundaries can no longer be trusted). Survivors fold into a
//! last-writer-wins map with tombstones deleting, which is exactly the
//! state a clean shutdown would have left.
//!
//! ## Garbage and compaction
//!
//! Superseded records, tombstones, and removed objects stay in the log
//! as dead bytes. The log tracks `total_bytes` (every record appended)
//! vs `live_bytes` (records still referenced) so the store can trigger a
//! compaction — rotate to a fresh active segment, copy live records out
//! of the sealed ones, delete the sealed files — when the dead-byte
//! ratio crosses `StoreConfig::compact_threshold`.
//!
//! ## Durability ([`SyncPolicy`])
//!
//! The checksum-last format makes a crash *safe* (no torn record is ever
//! adopted) but not *durable*: with [`SyncPolicy::Never`] (the default,
//! and the pre-policy behaviour) an OS crash can lose recently-appended
//! records still sitting in the page cache. With [`SyncPolicy::Always`]
//! an append returns only once an fsync covers it. Concurrent appenders
//! share fsyncs: the first uncovered one becomes the leader, snapshots
//! the active segment's length and flushes outside every lock; the
//! others wait and re-check, so N threads appending at once cost
//! between 1 and N fsyncs, never more (pinned by the
//! `always_covers_every_append_before_it_returns` unit test). Sealing a
//! segment under `Always` fsyncs it on the way out, so "sealed" also
//! means "stable".

use crate::manifest::Manifest;
use crate::{Result, StorageError};
use sand_sanitizer::{TrackedCondvar, TrackedMutex};
use sand_telemetry::Counter;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync from the append path; the OS flushes at its leisure.
    /// Crash-*safe* (checksums reject torn records) but an OS crash can
    /// lose the newest appends. The historical behaviour.
    #[default]
    Never,
    /// Every append is covered by an fsync before it returns. Maximum
    /// durability; concurrent appenders share fsyncs.
    Always,
}

/// Sync bookkeeping: how far into the log stable storage is known to
/// reach, and whether some appender is currently the leader.
#[derive(Debug)]
struct SyncState {
    /// Fsync covers everything up to (and in segments before)
    /// `synced_segment`/`synced_offset`.
    synced_segment: u64,
    synced_offset: u64,
    /// An appender is currently running the fsync on everyone's behalf.
    leader: bool,
}

impl SyncState {
    fn covers(&self, segment: u64, offset: u64) -> bool {
        self.synced_segment > segment
            || (self.synced_segment == segment && self.synced_offset >= offset)
    }
}

/// Segment-file magic + format version.
pub const SEGMENT_MAGIC: [u8; 8] = *b"SANDVLG1";

/// Fixed-size record header: kind(1) + key_len(4) + val_len(4) +
/// deadline(8) + future_uses(4).
const HEADER_LEN: usize = 21;

/// Trailing checksum bytes.
const CRC_LEN: usize = 4;

/// A put record.
const KIND_PUT: u8 = 0;
/// A persisted removal.
const KIND_TOMBSTONE: u8 = 1;

/// The reflected IEEE polynomial (zlib's).
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-16 tables (16 KiB), built at compile time: `CRC_TABLES[0]`
/// is the classic byte-at-a-time table, and `CRC_TABLES[k][b]` is
/// `CRC_TABLES[0][b]` carried through `k` further zero bytes, so sixteen
/// independent lookups fold sixteen input bytes at once.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, reflected) over `bytes`: zlib's checksum, so the
/// format is externally checkable. Slicing-by-16: each step folds sixteen
/// input bytes through the sixteen tables, then the tail goes byte by
/// byte. It measured faster than slicing-by-8 end to end (EXPERIMENTS.md,
/// "One CRC-32").
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut blocks = bytes.chunks_exact(16);
    for w in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[15][(lo & 0xff) as usize]
            ^ t[14][((lo >> 8) & 0xff) as usize]
            ^ t[13][((lo >> 16) & 0xff) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][usize::from(w[4])]
            ^ t[10][usize::from(w[5])]
            ^ t[9][usize::from(w[6])]
            ^ t[8][usize::from(w[7])]
            ^ t[7][usize::from(w[8])]
            ^ t[6][usize::from(w[9])]
            ^ t[5][usize::from(w[10])]
            ^ t[4][usize::from(w[11])]
            ^ t[3][usize::from(w[12])]
            ^ t[2][usize::from(w[13])]
            ^ t[1][usize::from(w[14])]
            ^ t[0][usize::from(w[15])];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Scheduling metadata persisted alongside each record, so recovery
/// restores the pruning inputs (deadline, remaining uses) rather than
/// resetting them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Deadline clock tick (`u64::MAX` encodes "unknown").
    pub deadline: Option<u64>,
    /// Remaining expected reads.
    pub future_uses: u32,
}

/// Location of one live record in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ptr {
    /// Owning segment id.
    pub segment: u64,
    /// Byte offset of the record header within the segment.
    pub offset: u64,
    /// Whole-record length (header + key + value + crc).
    pub total_len: u32,
    /// Value length alone (the store's `disk_bytes` unit).
    pub val_len: u32,
}

impl Ptr {
    /// The record's place in log order: segment ids only grow and a
    /// segment only grows at its end, so of two records of one key replay
    /// keeps the one with the larger position.
    #[must_use]
    pub(crate) const fn log_pos(self) -> (u64, u64) {
        (self.segment, self.offset)
    }
}

/// One decoded record surfaced by replay.
#[derive(Debug, Clone)]
pub struct ReplayRecord {
    /// The object key.
    pub key: String,
    /// `None` for a tombstone.
    pub put: Option<(Ptr, RecordMeta)>,
}

/// What replay found, summed over all segments.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayStats {
    /// Valid records decoded (puts + tombstones).
    pub records: u64,
    /// Segments whose tail was truncated because of a torn append
    /// (unexpected end of file mid-record).
    pub torn_truncations: u64,
    /// Records rejected for a checksum or envelope mismatch (bit rot);
    /// the segment is truncated at the first such record.
    pub corrupt_records: u64,
    /// Bytes dropped by all truncations.
    pub truncated_bytes: u64,
    /// Bytes read from all segments, headers and dropped tails included.
    pub bytes_read: u64,
}

/// Writer-side state: the active segment's append handle and offsets.
#[derive(Debug)]
struct Writer {
    active_id: u64,
    active: File,
    /// Next append offset in the active segment.
    active_len: u64,
    /// Record bytes per segment (excluding the magic header), kept so
    /// compaction can settle `total_bytes` when segments are deleted.
    segment_bytes: HashMap<u64, u64>,
}

/// The append-only value log. One per [`crate::ObjectStore`] with a
/// directory. All appends serialize on the internal writer lock; a
/// `put` appends with no shard lock held, while removals and the
/// compaction sweep append under their shard's lock (shard, then
/// writer). Reads go through `readers`, taken alone or under a shard
/// lock (the sweep reads what it copies) and never together with the
/// writer lock, so the sanitizer's lock-order graph stays acyclic.
#[derive(Debug)]
pub struct ValueLog {
    dir: PathBuf,
    writer: TrackedMutex<Writer>,
    /// One read handle per segment, opened on the segment's first read
    /// and dropped by [`ValueLog::delete_segments`].
    readers: TrackedMutex<HashMap<u64, Arc<File>>>,
    /// Bytes of every record appended and still on disk (live + dead).
    total_bytes: AtomicU64,
    /// Bytes of records still referenced by the store index.
    live_bytes: AtomicU64,
    /// Durability policy for appends.
    sync: SyncPolicy,
    /// Sync state. **Never held together with `writer`**: the
    /// leader drops this lock before snapshotting under `writer`, and
    /// the fsync itself runs outside both, so appenders keep appending
    /// while the disk flushes.
    sync_state: TrackedMutex<SyncState>,
    sync_cv: TrackedCondvar,
    /// Fsyncs issued (the store's `store.vlog.fsyncs`).
    fsyncs: Counter,
}

/// Segment file name for `id`.
#[must_use]
pub fn segment_name(id: u64) -> String {
    format!("vlog-{id:08}.log")
}

/// Parses a segment id out of a file name, if it is one.
#[must_use]
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("vlog-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// Serializes one record (checksum last) into a fresh buffer.
fn encode_record(kind: u8, key: &str, meta: RecordMeta, val: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + key.len() + val.len() + CRC_LEN);
    buf.push(kind);
    buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(val.len() as u32).to_le_bytes());
    buf.extend_from_slice(&meta.deadline.unwrap_or(u64::MAX).to_le_bytes());
    buf.extend_from_slice(&meta.future_uses.to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(val);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Why a record failed to decode during replay.
enum DecodeFailure {
    /// Fewer bytes than the record claims: a torn append.
    Torn,
    /// The envelope is full-length but the checksum (or a field) is
    /// wrong: bit rot.
    Corrupt,
}

/// Decodes the record starting at `buf[at..]`. `Ok` yields the record
/// and its total length.
fn decode_record(
    buf: &[u8],
    at: usize,
) -> std::result::Result<(DecodedRecord<'_>, usize), DecodeFailure> {
    let rest = &buf[at..];
    if rest.len() < HEADER_LEN {
        return Err(DecodeFailure::Torn);
    }
    let kind = rest[0];
    let key_len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
    let val_len = u32::from_le_bytes([rest[5], rest[6], rest[7], rest[8]]) as usize;
    let deadline = u64::from_le_bytes([
        rest[9], rest[10], rest[11], rest[12], rest[13], rest[14], rest[15], rest[16],
    ]);
    let future_uses = u32::from_le_bytes([rest[17], rest[18], rest[19], rest[20]]);
    if kind > KIND_TOMBSTONE {
        return Err(DecodeFailure::Corrupt);
    }
    let total = HEADER_LEN
        .checked_add(key_len)
        .and_then(|n| n.checked_add(val_len))
        .and_then(|n| n.checked_add(CRC_LEN))
        .ok_or(DecodeFailure::Corrupt)?;
    if rest.len() < total {
        return Err(DecodeFailure::Torn);
    }
    let body = &rest[..total - CRC_LEN];
    let stored = u32::from_le_bytes([
        rest[total - 4],
        rest[total - 3],
        rest[total - 2],
        rest[total - 1],
    ]);
    if crc32(body) != stored {
        return Err(DecodeFailure::Corrupt);
    }
    let Ok(key) = std::str::from_utf8(&rest[HEADER_LEN..HEADER_LEN + key_len]) else {
        return Err(DecodeFailure::Corrupt);
    };
    Ok((
        DecodedRecord {
            kind,
            key,
            val_len: val_len as u32,
            meta: RecordMeta {
                deadline: (deadline != u64::MAX).then_some(deadline),
                future_uses,
            },
        },
        total,
    ))
}

struct DecodedRecord<'a> {
    kind: u8,
    key: &'a str,
    val_len: u32,
    meta: RecordMeta,
}

impl ValueLog {
    /// Opens (or creates) the log under `dir`, replaying every segment.
    /// Returns the log, the surviving last-writer-wins record set (in
    /// replay order; tombstoned keys are already folded away), and the
    /// replay statistics. Torn tails are truncated **in place** so the
    /// active segment is clean for future appends. `sync` governs when
    /// appends reach stable storage (see [`SyncPolicy`]); every fsync
    /// the log issues counts on `fsyncs`.
    pub fn open(
        dir: &Path,
        sync: SyncPolicy,
        fsyncs: Counter,
    ) -> Result<(Self, Vec<ReplayRecord>, ReplayStats)> {
        fs::create_dir_all(dir)?;
        let manifest = Manifest::load(dir)?;
        // Segments on disk are the source of truth; the manifest only
        // advances the next-segment counter past anything ever created,
        // so a crash between segment creation and manifest write cannot
        // reuse an id.
        let mut ids: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().to_str().and_then(parse_segment_name))
            .collect();
        ids.sort_unstable();
        let mut stats = ReplayStats::default();
        let mut live: HashMap<String, (Ptr, RecordMeta)> = HashMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut total_bytes = 0u64;
        let mut live_bytes = 0u64;
        let mut segment_bytes = HashMap::new();
        for &id in &ids {
            let path = dir.join(segment_name(id));
            let buf = fs::read(&path)?;
            stats.bytes_read += buf.len() as u64;
            let mut at = SEGMENT_MAGIC.len();
            if buf.len() < at || buf[..at] != SEGMENT_MAGIC {
                // A segment without a complete magic is a file torn at
                // creation: truncate to empty and rewrite the header so
                // it is usable again.
                stats.torn_truncations += 1;
                stats.truncated_bytes += buf.len() as u64;
                let mut f = File::create(&path)?;
                f.write_all(&SEGMENT_MAGIC)?;
                segment_bytes.insert(id, 0);
                continue;
            }
            loop {
                if at == buf.len() {
                    break; // clean end
                }
                match decode_record(&buf, at) {
                    Ok((rec, total)) => {
                        stats.records += 1;
                        total_bytes += total as u64;
                        let ptr = Ptr {
                            segment: id,
                            offset: at as u64,
                            total_len: total as u32,
                            val_len: rec.val_len,
                        };
                        if let Some((old, _)) = live.remove(rec.key) {
                            live_bytes -= u64::from(old.total_len);
                        }
                        let key = rec.key.to_string();
                        if rec.kind == KIND_PUT {
                            live_bytes += total as u64;
                            live.insert(key.clone(), (ptr, rec.meta));
                        }
                        order.push(key);
                        at += total;
                    }
                    Err(failure) => {
                        match failure {
                            DecodeFailure::Torn => stats.torn_truncations += 1,
                            DecodeFailure::Corrupt => stats.corrupt_records += 1,
                        }
                        stats.truncated_bytes += (buf.len() - at) as u64;
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(at as u64)?;
                        break;
                    }
                }
            }
            segment_bytes.insert(
                id,
                (at.min(buf.len()) as u64).saturating_sub(SEGMENT_MAGIC.len() as u64),
            );
        }
        // Fold the ordered replay into the survivors, last writer wins.
        order.sort_unstable();
        order.dedup();
        let records = order
            .into_iter()
            .map(|key| {
                let put = live.get(&key).copied();
                ReplayRecord { key, put }
            })
            .collect();
        // Open (or create) the active segment: the highest existing id,
        // or a fresh one.
        let next_from_manifest = manifest.map_or(0, |m| m.next_segment);
        let active_id = match ids.last() {
            Some(&id) => id,
            None => next_from_manifest,
        };
        let path = dir.join(segment_name(active_id));
        let mut active = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut active_len = active.seek(SeekFrom::End(0))?;
        if active_len == 0 {
            active.write_all(&SEGMENT_MAGIC)?;
            active_len = SEGMENT_MAGIC.len() as u64;
            segment_bytes.entry(active_id).or_insert(0);
        }
        let log = ValueLog {
            dir: dir.to_path_buf(),
            writer: TrackedMutex::new(
                "store.vlog",
                Writer {
                    active_id,
                    active,
                    active_len,
                    segment_bytes,
                },
            ),
            readers: TrackedMutex::new("store.vlog.readers", HashMap::new()),
            total_bytes: AtomicU64::new(total_bytes),
            live_bytes: AtomicU64::new(live_bytes),
            sync,
            sync_state: TrackedMutex::new(
                "store.vlog.sync",
                SyncState {
                    // Nothing appended this run is unsynced yet; replayed
                    // bytes are already on disk by definition.
                    synced_segment: active_id,
                    synced_offset: active_len,
                    leader: false,
                },
            ),
            sync_cv: TrackedCondvar::new(),
            fsyncs,
        };
        log.write_manifest(active_id + 1)?;
        Ok((log, records, stats))
    }

    /// Persists the manifest (next segment id + current segment set).
    fn write_manifest(&self, next_segment: u64) -> Result<()> {
        let segments = {
            let w = self.writer.lock();
            let mut ids: Vec<u64> = w.segment_bytes.keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        Manifest {
            next_segment,
            segments,
        }
        .store(&self.dir)
    }

    /// Appends a put record; the checksum is the last bytes written, so
    /// a crash mid-append can never produce an adoptable record. Returns
    /// the record's location.
    pub fn append(&self, key: &str, meta: RecordMeta, val: &[u8]) -> Result<Ptr> {
        self.append_record(KIND_PUT, key, meta, val)
    }

    /// Appends a tombstone so the removal survives restart, and returns
    /// where it landed. The tombstone itself is immediately dead weight
    /// (counted as garbage).
    pub fn append_tombstone(&self, key: &str) -> Result<Ptr> {
        let ptr = self.append_record(
            KIND_TOMBSTONE,
            key,
            RecordMeta {
                deadline: None,
                future_uses: 0,
            },
            &[],
        )?;
        // A tombstone is never live.
        self.live_bytes
            .fetch_sub(u64::from(ptr.total_len), Ordering::Relaxed);
        Ok(ptr)
    }

    fn append_record(&self, kind: u8, key: &str, meta: RecordMeta, val: &[u8]) -> Result<Ptr> {
        let buf = encode_record(kind, key, meta, val);
        let mut w = self.writer.lock();
        let offset = w.active_len;
        let segment = w.active_id;
        w.active.write_all(&buf)?;
        w.active_len += buf.len() as u64;
        *w.segment_bytes.entry(segment).or_insert(0) += buf.len() as u64;
        drop(w);
        self.total_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.live_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        if self.sync != SyncPolicy::Never {
            self.sync_to(segment, offset + buf.len() as u64)?;
        }
        Ok(Ptr {
            segment,
            offset,
            total_len: buf.len() as u32,
            val_len: val.len() as u32,
        })
    }

    /// Blocks until stable storage covers the active segment up to
    /// `offset` — the leader/follower protocol.
    ///
    /// The first uncovered appender becomes **leader**: it briefly
    /// takes the writer lock to snapshot the active file handle and
    /// length, then fsyncs *outside every lock* and publishes how far
    /// the flush reached. Appenders that arrive while a leader is
    /// elected are **followers**: they wait on the condvar and re-check
    /// coverage, taking over leadership only if they wake still
    /// uncovered (their bytes landed after the leader's snapshot).
    fn sync_to(&self, segment: u64, offset: u64) -> Result<()> {
        loop {
            let mut s = self.sync_state.lock();
            if s.covers(segment, offset) {
                return Ok(());
            }
            if s.leader {
                // Bounded wait so a leader that errored out (and whose
                // notify raced our lock acquisition) cannot strand us.
                let _ = self.sync_cv.wait_for(&mut s, Duration::from_millis(50));
                continue;
            }
            s.leader = true;
            drop(s);

            // Snapshot the flush target under the writer lock, then
            // fsync with no lock held — appends proceed concurrently and
            // simply miss this flush.
            let snapshot = (|| -> Result<(u64, u64)> {
                let (id, len, file) = {
                    let w = self.writer.lock();
                    (w.active_id, w.active_len, w.active.try_clone()?)
                };
                file.sync_data()?;
                Ok((id, len))
            })();

            let mut s = self.sync_state.lock();
            s.leader = false;
            let outcome = match snapshot {
                Ok((id, len)) => {
                    if !s.covers(id, len) {
                        s.synced_segment = id;
                        s.synced_offset = len;
                    }
                    self.fsyncs.inc();
                    Ok(())
                }
                Err(e) => Err(e),
            };
            let covered = s.covers(segment, offset);
            drop(s);
            self.sync_cv.notify_all();
            outcome?;
            if covered {
                return Ok(());
            }
            // Our bytes landed after our own snapshot (a rotation raced
            // in): lead another round.
        }
    }

    /// Reads the value bytes of the record at `ptr`, re-validating the
    /// checksum and that the record really belongs to `key`. A missing
    /// segment file (compacted away underneath a raced reader) surfaces
    /// as [`StorageError::NotFound`]; a checksum or key mismatch as
    /// [`StorageError::Corrupt`]. One positioned read through the
    /// segment's held handle fills one buffer, and the value is moved to
    /// its front.
    pub fn read(&self, key: &str, ptr: Ptr) -> Result<Vec<u8>> {
        let Some(file) = self.reader(ptr.segment)? else {
            return Err(StorageError::NotFound {
                key: key.to_string(),
            });
        };
        let mut buf = vec![0u8; ptr.total_len as usize];
        if file.read_exact_at(&mut buf, ptr.offset).is_err() {
            return Err(StorageError::Corrupt {
                what: format!("record for `{key}` truncated under the index"),
            });
        }
        let val_len = match decode_record(&buf, 0) {
            Ok((rec, _)) if rec.kind == KIND_PUT && rec.key == key => rec.val_len as usize,
            _ => {
                return Err(StorageError::Corrupt {
                    what: format!("record for `{key}` failed checksum validation"),
                })
            }
        };
        let start = HEADER_LEN + key.len();
        buf.copy_within(start..start + val_len, 0);
        buf.truncate(val_len);
        Ok(buf)
    }

    /// The read handle of segment `id`, opened on its first read; `None`
    /// once the segment file is gone. The open happens under the
    /// `readers` lock and [`ValueLog::delete_segments`] unlinks a segment
    /// before it drops the handle under that lock, so no handle outlives
    /// its segment's deletion: a read either took its handle before (and
    /// reads the unlinked file's bytes through it) or finds no file.
    fn reader(&self, id: u64) -> Result<Option<Arc<File>>> {
        let mut readers = self.readers.lock();
        if let Some(file) = readers.get(&id) {
            return Ok(Some(Arc::clone(file)));
        }
        match File::open(self.dir.join(segment_name(id))) {
            Ok(file) => {
                let file = Arc::new(file);
                readers.insert(id, Arc::clone(&file));
                Ok(Some(file))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Marks `bytes` of previously-live records dead (superseded or
    /// removed objects).
    pub fn retire(&self, bytes: u64) {
        self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// (total, live) record bytes currently in the log.
    #[must_use]
    pub fn byte_totals(&self) -> (u64, u64) {
        (
            self.total_bytes.load(Ordering::Relaxed),
            self.live_bytes.load(Ordering::Relaxed),
        )
    }

    /// Dead-byte fraction of the log, in [0, 1].
    #[must_use]
    pub fn garbage_ratio(&self) -> f64 {
        let (total, live) = self.byte_totals();
        if total == 0 {
            return 0.0;
        }
        (total.saturating_sub(live)) as f64 / total as f64
    }

    /// Seals the active segment and starts a fresh one. Returns the ids
    /// of every sealed segment (compaction candidates). Under a syncing
    /// policy the sealed segment is fsynced on its way out, so "sealed"
    /// also means "stable".
    pub fn rotate(&self) -> Result<Vec<u64>> {
        let (sealed, next, sealed_id, sealed_len) = {
            let mut w = self.writer.lock();
            let next = w.active_id + 1;
            let path = self.dir.join(segment_name(next));
            let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
            f.write_all(&SEGMENT_MAGIC)?;
            if self.sync != SyncPolicy::Never {
                w.active.sync_data()?;
                self.fsyncs.inc();
            }
            let sealed: Vec<u64> = {
                let mut ids: Vec<u64> = w.segment_bytes.keys().copied().collect();
                ids.sort_unstable();
                ids
            };
            let sealed_id = w.active_id;
            let sealed_len = w.active_len;
            w.active_id = next;
            w.active = f;
            w.active_len = SEGMENT_MAGIC.len() as u64;
            w.segment_bytes.insert(next, 0);
            (sealed, next, sealed_id, sealed_len)
        };
        if self.sync != SyncPolicy::Never {
            // Everything in the sealed segment (and before it) is now
            // stable; advance coverage so waiting appenders see it.
            let mut s = self.sync_state.lock();
            if !s.covers(sealed_id, sealed_len) {
                s.synced_segment = sealed_id;
                s.synced_offset = sealed_len;
            }
            drop(s);
            self.sync_cv.notify_all();
        }
        self.write_manifest(next + 1)?;
        Ok(sealed)
    }

    /// Deletes sealed segments after compaction copied their live
    /// records out, settling the byte totals and dropping the segments'
    /// read handles once their files are unlinked.
    pub fn delete_segments(&self, ids: &[u64]) -> Result<()> {
        let mut freed = 0u64;
        let unlinked = {
            let mut w = self.writer.lock();
            ids.iter().try_for_each(|id| {
                debug_assert_ne!(*id, w.active_id, "cannot delete the active segment");
                if let Some(bytes) = w.segment_bytes.remove(id) {
                    freed += bytes;
                }
                match fs::remove_file(self.dir.join(segment_name(*id))) {
                    Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                    _ => Ok(()),
                }
            })
        };
        let mut readers = self.readers.lock();
        for id in ids {
            readers.remove(id);
        }
        drop(readers);
        unlinked?;
        self.total_bytes.fetch_sub(freed, Ordering::Relaxed);
        let next = self.writer.lock().active_id + 1;
        self.write_manifest(next)?;
        Ok(())
    }

    /// The active segment's id (tests and the kill-restart example poke
    /// segment files directly).
    #[must_use]
    pub fn active_segment(&self) -> u64 {
        self.writer.lock().active_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sand_vlog_{}_{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn meta(deadline: u64, uses: u32) -> RecordMeta {
        RecordMeta {
            deadline: Some(deadline),
            future_uses: uses,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values (zlib-compatible).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    /// The nibble-table body [`crc32`] replaced, kept as its oracle: two
    /// dependent 16-entry lookups per byte.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 16] = [
            0x0000_0000,
            0x1db7_1064,
            0x3b6e_20c8,
            0x26d9_30ac,
            0x76dc_4190,
            0x6b6b_51f4,
            0x4db2_6158,
            0x5005_713c,
            0xedb8_8320,
            0xf00f_9344,
            0xd6d6_a3e8,
            0xcb61_b38c,
            0x9b64_c2b0,
            0x86d3_d2d4,
            0xa00a_e278,
            0xbdbd_f21c,
        ];
        let mut crc: u32 = !0;
        for &b in bytes {
            crc = (crc >> 4) ^ TABLE[((crc ^ u32::from(b)) & 0xf) as usize];
            crc = (crc >> 4) ^ TABLE[((crc ^ (u32::from(b) >> 4)) & 0xf) as usize];
        }
        !crc
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1024))]

        /// The sliced kernel equals the nibble reference on every string,
        /// started at offsets 0..16 so unaligned starts and every tail
        /// length (0..16 bytes past the last whole block) are hit.
        #[test]
        fn crc32_matches_reference(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=4096),
            skip in 0usize..16,
        ) {
            let s = &bytes[skip.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(s), reference_crc32(s));
        }
    }

    /// The bytes of one record, fixed before the checksum kernel changed:
    /// segments written by any build replay in any other.
    #[test]
    fn encoded_record_bytes_are_fixed() {
        let val: Vec<u8> = (0..1000u32).map(|i| (i * 31 + 7) as u8).collect();
        let rec = encode_record(KIND_PUT, "golden/clip", meta(42, 3), &val);
        let header: [u8; HEADER_LEN + 11] = [
            0x00, 0x0b, 0x00, 0x00, 0x00, 0xe8, 0x03, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, b'g', b'o', b'l', b'd', b'e', b'n', b'/',
            b'c', b'l', b'i', b'p',
        ];
        assert_eq!(rec.len(), 1036);
        assert_eq!(rec[..header.len()], header);
        assert_eq!(rec[header.len()..rec.len() - CRC_LEN], val[..]);
        assert_eq!(rec[rec.len() - CRC_LEN..], 0x2d80_9100u32.to_le_bytes());
    }

    #[test]
    fn append_read_roundtrip() {
        let dir = tmp("roundtrip");
        let (log, recs, stats) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(stats.records, 0);
        let ptr = log.append("a/b", meta(3, 2), &[1, 2, 3, 4]).unwrap();
        assert_eq!(log.read("a/b", ptr).unwrap(), vec![1, 2, 3, 4]);
        // Wrong key at the right offset is corruption, not silent data.
        assert!(matches!(
            log.read("z", ptr),
            Err(StorageError::Corrupt { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_restores_last_writer_and_meta() {
        let dir = tmp("replay");
        {
            let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
            log.append("k1", meta(7, 5), b"old").unwrap();
            log.append("k2", meta(9, 1), b"other").unwrap();
            log.append("k1", meta(8, 4), b"newer").unwrap();
        }
        let (log, recs, stats) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        assert_eq!(stats.records, 3);
        assert_eq!(stats.torn_truncations, 0);
        let k1 = recs.iter().find(|r| r.key == "k1").unwrap();
        let (ptr, m) = k1.put.unwrap();
        assert_eq!(m, meta(8, 4));
        assert_eq!(log.read("k1", ptr).unwrap(), b"newer");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tombstone_survives_restart() {
        let dir = tmp("tomb");
        {
            let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
            log.append("gone", meta(1, 1), b"data").unwrap();
            log.append_tombstone("gone").unwrap();
        }
        let (_, recs, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        let gone = recs.iter().find(|r| r.key == "gone").unwrap();
        assert!(gone.put.is_none(), "tombstone must fold the put away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_adopted() {
        let dir = tmp("torn");
        let full_len = {
            let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
            log.append("whole", meta(1, 1), &[7; 64]).unwrap();
            log.append("torn", meta(2, 1), &[8; 64]).unwrap();
            fs::metadata(dir.join(segment_name(log.active_segment())))
                .unwrap()
                .len()
        };
        // Chop mid-way through the second record.
        let path = dir.join(segment_name(0));
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full_len - 30)
            .unwrap();
        let (log, recs, stats) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        assert_eq!(stats.torn_truncations, 1);
        let keys: Vec<&str> = recs.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, vec!["whole"]);
        let (ptr, _) = recs[0].put.unwrap();
        assert_eq!(log.read("whole", ptr).unwrap(), vec![7; 64]);
        // The truncation left a clean tail: appends go right back in.
        let p2 = log.append("after", meta(3, 1), &[9; 16]).unwrap();
        assert_eq!(log.read("after", p2).unwrap(), vec![9; 16]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_rejected_as_corrupt() {
        let dir = tmp("flip");
        let (first_val_at, _) = {
            let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
            let p1 = log.append("a", meta(1, 1), &[1; 32]).unwrap();
            log.append("b", meta(2, 1), &[2; 32]).unwrap();
            (p1.offset as usize + HEADER_LEN + 1, p1)
        };
        let path = dir.join(segment_name(0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[first_val_at + 4] ^= 0x40; // flip one value bit of record `a`
        fs::write(&path, &bytes).unwrap();
        let (_, recs, stats) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        assert_eq!(stats.corrupt_records, 1);
        // Replay stops at the flipped record; nothing after it survives
        // (record boundaries are untrustworthy past bit rot).
        assert!(recs.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_deletion_settle_byte_totals() {
        let dir = tmp("rotate");
        let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        let p = log.append("keep", meta(1, 1), &[3; 128]).unwrap();
        log.append("drop", meta(2, 1), &[4; 128]).unwrap();
        log.retire(u64::from(p.total_len)); // pretend `keep` was superseded
        let (total_before, _) = log.byte_totals();
        assert!(log.garbage_ratio() > 0.0);
        let sealed = log.rotate().unwrap();
        assert_eq!(sealed, vec![0]);
        let p2 = log.append("fresh", meta(3, 1), &[5; 16]).unwrap();
        assert_eq!(p2.segment, 1);
        log.delete_segments(&sealed).unwrap();
        let (total_after, _) = log.byte_totals();
        assert!(total_after < total_before);
        assert!(!dir.join(segment_name(0)).exists());
        assert_eq!(log.read("fresh", p2).unwrap(), vec![5; 16]);
        // Reads of compacted-away segments surface as NotFound (miss).
        assert!(matches!(
            log.read("keep", p),
            Err(StorageError::NotFound { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Reads across two segments open each segment once and keep its
    /// handle; deleting a sealed segment drops its handle, and a read of
    /// it afterwards is a miss that opens nothing.
    #[test]
    fn segment_handles_open_once_and_go_with_their_segment() {
        let dir = tmp("handles");
        let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        let a = log.append("a", meta(1, 1), &[1; 64]).unwrap();
        let sealed = log.rotate().unwrap();
        let b = log.append("b", meta(2, 1), &[2; 64]).unwrap();
        assert_eq!((a.segment, b.segment), (0, 1));
        assert!(log.readers.lock().is_empty(), "an append opened a handle");
        let held = |id: u64| log.readers.lock().get(&id).map(Arc::clone);
        assert_eq!(log.read("a", a).unwrap(), vec![1; 64]);
        assert_eq!(log.read("b", b).unwrap(), vec![2; 64]);
        let (h0, h1) = (held(0).unwrap(), held(1).unwrap());
        for _ in 0..3 {
            assert_eq!(log.read("a", a).unwrap(), vec![1; 64]);
            assert_eq!(log.read("b", b).unwrap(), vec![2; 64]);
        }
        assert!(Arc::ptr_eq(&h0, &held(0).unwrap()), "segment 0 reopened");
        assert!(Arc::ptr_eq(&h1, &held(1).unwrap()), "segment 1 reopened");
        assert_eq!(log.readers.lock().len(), 2);
        drop((h0, h1));
        log.delete_segments(&sealed).unwrap();
        let open_ids = || {
            let mut ids: Vec<u64> = log.readers.lock().keys().copied().collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(open_ids(), vec![1], "a deleted segment kept its handle");
        assert!(matches!(
            log.read("a", a),
            Err(StorageError::NotFound { .. })
        ));
        assert_eq!(open_ids(), vec![1], "a miss left a handle behind");
        assert_eq!(log.read("b", b).unwrap(), vec![2; 64]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Readers hammer a segment while it is deleted under them: every
    /// read returns the record's bytes (through a handle taken before
    /// the deletion) or a miss, never an error, and no handle for the
    /// deleted segment survives.
    #[test]
    fn a_read_racing_segment_deletion_gets_bytes_or_a_miss() {
        const READERS: usize = 2;
        let dir = tmp("read_vs_delete");
        for round in 0..8u8 {
            let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
            let ptrs: Vec<(String, Ptr, Vec<u8>)> = (0..16u8)
                .map(|i| {
                    let key = format!("r{round}/k{i}");
                    let val = vec![i ^ round; 256 + usize::from(i)];
                    let ptr = log.append(&key, meta(1, 1), &val).unwrap();
                    (key, ptr, val)
                })
                .collect();
            let sealed = log.rotate().unwrap();
            let barrier = std::sync::Barrier::new(READERS + 1);
            let (hits, misses) = std::thread::scope(|s| {
                let readers: Vec<_> = (0..READERS)
                    .map(|_| {
                        let (log, ptrs, barrier) = (&log, &ptrs, &barrier);
                        s.spawn(move || {
                            let (mut hits, mut misses) = (0u64, 0u64);
                            for pass in 0..100_000 {
                                if pass == 1 {
                                    barrier.wait();
                                }
                                for (key, ptr, val) in ptrs {
                                    match log.read(key, *ptr) {
                                        Ok(bytes) => {
                                            assert_eq!(&bytes, val, "wrong bytes for `{key}`");
                                            hits += 1;
                                        }
                                        Err(StorageError::NotFound { .. }) => misses += 1,
                                        Err(e) => panic!("read racing deletion failed: {e}"),
                                    }
                                }
                                if misses > 0 {
                                    break;
                                }
                            }
                            (hits, misses)
                        })
                    })
                    .collect();
                barrier.wait();
                log.delete_segments(&sealed).unwrap();
                readers
                    .into_iter()
                    .map(|r| r.join().unwrap())
                    .fold((0, 0), |(h, m), (rh, rm)| (h + rh, m + rm))
            });
            assert!(hits >= (READERS * ptrs.len()) as u64, "{hits} hits");
            assert!(misses > 0, "no read saw the deletion");
            assert!(
                sealed.iter().all(|id| !log.readers.lock().contains_key(id)),
                "a deleted segment kept its handle"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `Always` is a promise about *when* an append returns: only once
    /// stable storage covers its last byte. Four appenders race, a
    /// rotation seals the segment under them a quarter of the way in,
    /// and the fsync count stays between one and one per append (plus
    /// the seal's).
    #[test]
    fn always_covers_every_append_before_it_returns() {
        const THREADS: usize = 4;
        const APPENDS: usize = 64;
        let dir = tmp("always");
        let fsyncs = Counter::new();
        let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Always, fsyncs.clone()).unwrap();
        let barrier = std::sync::Barrier::new(THREADS + 1);
        let covered = |ptr: Ptr| {
            log.sync_state
                .lock()
                .covers(ptr.segment, ptr.offset + u64::from(ptr.total_len))
        };
        let ptrs: Vec<Ptr> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (log, barrier, covered) = (&log, &barrier, &covered);
                    s.spawn(move || {
                        let mut ptrs = Vec::new();
                        for i in 0..APPENDS {
                            if i % (APPENDS / 4) == 0 {
                                barrier.wait();
                            }
                            let key = format!("t{t}/{i}");
                            let ptr = log.append(&key, meta(i as u64, 1), &[t as u8; 32]).unwrap();
                            assert!(covered(ptr), "`{key}` returned before its fsync");
                            ptrs.push(ptr);
                        }
                        ptrs
                    })
                })
                .collect();
            // The threads meet at each quarter. The rotation runs beside
            // the second quarter's appends: segment 0 holds at least the
            // first quarter, segment 1 at least the second half.
            barrier.wait();
            barrier.wait();
            assert_eq!(log.rotate().unwrap(), vec![0]);
            barrier.wait();
            barrier.wait();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(ptrs.len(), THREADS * APPENDS);
        assert!(ptrs.iter().any(|p| p.segment == 0) && ptrs.iter().any(|p| p.segment == 1));
        assert!(
            ptrs.iter().all(|&p| covered(p)),
            "the rotation uncovered an earlier append"
        );
        let fsyncs = fsyncs.get();
        let seal = 1;
        assert!(
            (1..=(THREADS * APPENDS) as u64 + seal).contains(&fsyncs),
            "{fsyncs} fsyncs for {} appends",
            THREADS * APPENDS
        );
        drop(log);
        let (_, recs, stats) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        assert_eq!(stats.records, (THREADS * APPENDS) as u64);
        assert_eq!(stats.torn_truncations + stats.corrupt_records, 0);
        assert_eq!(
            recs.iter().filter(|r| r.put.is_some()).count(),
            THREADS * APPENDS
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_ids_never_reused_after_restart() {
        let dir = tmp("ids");
        {
            let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
            log.append("x", meta(1, 1), b"1").unwrap();
            let sealed = log.rotate().unwrap();
            // Compact everything away: segment 0 deleted, active is 1.
            log.delete_segments(&sealed).unwrap();
        }
        let (log, _, _) = ValueLog::open(&dir, SyncPolicy::Never, Counter::new()).unwrap();
        assert!(
            log.active_segment() >= 1,
            "deleted segment id resurrected: {}",
            log.active_segment()
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
