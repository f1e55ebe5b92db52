//! Write-ahead log: real durability for the embedded store.
//!
//! LMDB persists through its copy-on-write page file; our in-memory tree
//! gets the equivalent guarantee from a record-oriented WAL — every
//! committed transaction appends its operations plus a commit marker, and
//! [`crate::Database::open`] replays only *committed* batches (a torn
//! tail from a crash is discarded). [`crate::SyncMode`] chooses the flush
//! discipline at commit: `Sync` = fsync, `Async` = userspace flush,
//! `NoSync` = nothing (tmpfs-style deployments, as the paper's YCSB setup
//! uses).
//!
//! ## Two-phase-commit records
//!
//! Cross-shard transactions ([`crate::ShardedDb::multi_put_txn`]) extend
//! the format with two record kinds:
//!
//! * `PREPARE(txn_id, ops)` — the participant shard's promise: the
//!   transaction's operations for this shard, durable but not yet
//!   visible.
//! * `DECISION(txn_id, commit|abort)` — the coordinator's verdict. A
//!   commit decision makes the prepared operations replayable as a
//!   committed batch *at the decision's position in the log*; an abort
//!   discards them.
//!
//! A prepared transaction with no decision on record is **in doubt**:
//! replay neither applies nor discards it, and [`WalRecovery`] surfaces
//! it so the sharded layer can resolve it against its sibling shards
//! (commit if any shard logged a commit decision, else presumed abort).

use std::fs::{File, OpenOptions};
#[cfg(test)]
use std::io::Read;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::{Bytes, SyncMode};

/// Record tags.
const TAG_PUT: u8 = 1;
const TAG_DEL: u8 = 2;
const TAG_COMMIT: u8 = 3;
/// 2PC: a participant's prepared (durable, not yet visible) operations.
const TAG_PREPARE: u8 = 4;
/// 2PC: the coordinator's commit/abort verdict for a prepared txn.
const TAG_DECISION: u8 = 5;

/// Decision byte inside a `TAG_DECISION` record.
const DECIDE_ABORT: u8 = 0;
const DECIDE_COMMIT: u8 = 1;

/// One logged operation. Keys and values are refcounted buffers: an op
/// in a transaction's log or a prepare record shares the value cell with
/// the tree instead of carrying its own copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert/replace.
    Put(Bytes, Bytes),
    /// Delete.
    Del(Bytes),
}

impl WalOp {
    /// The key this operation touches.
    pub(crate) fn key(&self) -> &Bytes {
        match self {
            WalOp::Put(k, _) | WalOp::Del(k) => k,
        }
    }
}

/// Read one length-prefixed chunk at `*pos`; `None` if it runs past the
/// end of `bytes` (a torn or corrupt record).
fn read_chunk<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len_end = pos.checked_add(4)?;
    let len = u32::from_le_bytes(bytes.get(*pos..len_end)?.try_into().ok()?) as usize;
    let chunk = bytes.get(len_end..len_end.checked_add(len)?)?;
    *pos = len_end + len;
    Some(chunk)
}

/// Everything replay recovered from one WAL file.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Committed batches in log order. Prepared transactions whose commit
    /// decision is on record appear here as a batch sequenced at the
    /// decision's position.
    pub committed: Vec<Vec<WalOp>>,
    /// Prepared transactions with no decision on record, in prepare
    /// order: `(txn_id, this shard's operations)`. The caller must
    /// resolve each (roll forward or presumed-abort) before reuse.
    pub in_doubt: Vec<(u64, Vec<WalOp>)>,
    /// Transaction ids whose *commit* decision this log recorded — the
    /// evidence the sharded layer scans when resolving a sibling shard's
    /// in-doubt transaction.
    pub decided_commit: Vec<u64>,
    /// Highest transaction id seen in any prepare/decision record; new
    /// ids must start above this so recycled ids can never match stale
    /// decisions.
    pub max_txn_id: u64,
}

/// An append-only write-ahead log.
#[derive(Debug)]
pub struct Wal {
    writer: BufWriter<File>,
}

impl Wal {
    /// Open (or create) a log at `path`, returning the log plus
    /// everything recovered from it.
    pub fn open(path: &Path) -> std::io::Result<(Wal, WalRecovery)> {
        let recovery = match std::fs::read(path) {
            Ok(bytes) => Self::replay(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => WalRecovery::default(),
            Err(e) => return Err(e),
        };
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok((Wal { writer: BufWriter::new(file) }, recovery))
    }

    /// Decode committed batches plus 2PC state; a torn (uncommitted or
    /// mid-record) tail is dropped.
    fn replay(bytes: &[u8]) -> WalRecovery {
        let mut rec = WalRecovery::default();
        let mut pending = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let tag = bytes[pos];
            pos += 1;
            match tag {
                TAG_PUT => {
                    let Some(k) = read_chunk(bytes, &mut pos) else { break };
                    let Some(v) = read_chunk(bytes, &mut pos) else { break };
                    pending.push(WalOp::Put(k.into(), v.into()));
                }
                TAG_DEL => {
                    let Some(k) = read_chunk(bytes, &mut pos) else { break };
                    pending.push(WalOp::Del(k.into()));
                }
                TAG_COMMIT => {
                    rec.committed.push(std::mem::take(&mut pending));
                }
                TAG_PREPARE => {
                    let Some(header) = read_chunk(bytes, &mut pos) else { break };
                    let Some(payload) = read_chunk(bytes, &mut pos) else { break };
                    let Ok(id_bytes) = <[u8; 8]>::try_from(header) else { break };
                    let txn_id = u64::from_le_bytes(id_bytes);
                    let Some(ops) = decode_ops(payload) else { break };
                    rec.max_txn_id = rec.max_txn_id.max(txn_id);
                    // A re-prepare of the same id supersedes (append-only
                    // logs can only produce this via id recycling after a
                    // decision, which `max_txn_id` is meant to prevent).
                    rec.in_doubt.retain(|(id, _)| *id != txn_id);
                    rec.in_doubt.push((txn_id, ops));
                }
                TAG_DECISION => {
                    let Some(header) = read_chunk(bytes, &mut pos) else { break };
                    let Ok(hdr) = <[u8; 9]>::try_from(header) else { break };
                    let txn_id = u64::from_le_bytes(hdr[..8].try_into().expect("8-byte id"));
                    rec.max_txn_id = rec.max_txn_id.max(txn_id);
                    let prepared = rec
                        .in_doubt
                        .iter()
                        .position(|(id, _)| *id == txn_id)
                        .map(|i| rec.in_doubt.remove(i).1);
                    match hdr[8] {
                        DECIDE_COMMIT => {
                            rec.decided_commit.push(txn_id);
                            if let Some(ops) = prepared {
                                rec.committed.push(ops);
                            }
                        }
                        DECIDE_ABORT => {} // prepared ops (if any) dropped
                        _ => break,        // corruption: bad decision byte
                    }
                }
                _ => break, // corruption: stop at the first bad tag
            }
        }
        rec
    }

    fn write_chunk(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(&(chunk.len() as u32).to_le_bytes())?;
        self.writer.write_all(chunk)
    }

    fn sync(&mut self, sync: SyncMode) -> std::io::Result<()> {
        match sync {
            SyncMode::Sync => {
                self.writer.flush()?;
                self.writer.get_ref().sync_all()
            }
            SyncMode::Async => self.writer.flush(),
            SyncMode::NoSync => Ok(()),
        }
    }

    /// Append one transaction's operations and its commit marker, flushing
    /// per the sync mode.
    pub fn commit(&mut self, ops: &[WalOp], sync: SyncMode) -> std::io::Result<()> {
        for op in ops {
            match op {
                WalOp::Put(k, v) => {
                    self.writer.write_all(&[TAG_PUT])?;
                    self.write_chunk(k)?;
                    self.write_chunk(v)?;
                }
                WalOp::Del(k) => {
                    self.writer.write_all(&[TAG_DEL])?;
                    self.write_chunk(k)?;
                }
            }
        }
        self.writer.write_all(&[TAG_COMMIT])?;
        self.sync(sync)
    }

    /// Append a 2PC prepare record: this shard's share of transaction
    /// `txn_id`, durable but not yet visible. Must be on disk before any
    /// shard records a commit decision — that is the 2PC contract.
    pub fn prepare(&mut self, txn_id: u64, ops: &[WalOp], sync: SyncMode) -> std::io::Result<()> {
        self.writer.write_all(&[TAG_PREPARE])?;
        self.write_chunk(&txn_id.to_le_bytes())?;
        self.write_chunk(&encode_ops(ops))?;
        self.sync(sync)
    }

    /// Append a 2PC decision record for `txn_id`.
    pub fn decision(&mut self, txn_id: u64, commit: bool, sync: SyncMode) -> std::io::Result<()> {
        let mut header = [0u8; 9];
        header[..8].copy_from_slice(&txn_id.to_le_bytes());
        header[8] = if commit { DECIDE_COMMIT } else { DECIDE_ABORT };
        self.writer.write_all(&[TAG_DECISION])?;
        self.write_chunk(&header)?;
        self.sync(sync)
    }

    /// Flush any buffered bytes (called on database drop).
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

/// Serialize operations into a prepare record's payload: the same
/// tag-plus-chunk encoding as the main stream, nested inside one chunk so
/// a torn prepare can never be half-decoded.
fn encode_ops(ops: &[WalOp]) -> Vec<u8> {
    let mut out = Vec::new();
    let put_chunk = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    for op in ops {
        match op {
            WalOp::Put(k, v) => {
                out.push(TAG_PUT);
                put_chunk(&mut out, k);
                put_chunk(&mut out, v);
            }
            WalOp::Del(k) => {
                out.push(TAG_DEL);
                put_chunk(&mut out, k);
            }
        }
    }
    out
}

/// Decode a prepare payload; `None` on any malformed byte (the payload
/// chunk was length-complete, so this is corruption, not truncation).
fn decode_ops(payload: &[u8]) -> Option<Vec<WalOp>> {
    let mut ops = Vec::new();
    let mut pos = 0usize;
    while pos < payload.len() {
        let tag = payload[pos];
        pos += 1;
        match tag {
            TAG_PUT => {
                let k = read_chunk(payload, &mut pos)?;
                ops.push(WalOp::Put(k.into(), read_chunk(payload, &mut pos)?.into()));
            }
            TAG_DEL => ops.push(WalOp::Del(read_chunk(payload, &mut pos)?.into())),
            _ => return None,
        }
    }
    Some(ops)
}

/// Sanity helper for tests: byte length of a file.
#[cfg(test)]
fn file_len(path: &Path) -> u64 {
    let mut f = File::open(path).expect("open");
    let mut buf = Vec::new();
    f.read_to_end(&mut buf).expect("read");
    buf.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Database, DbConfig};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hatkvdb-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn put(k: &[u8], v: &[u8]) -> WalOp {
        WalOp::Put(k.into(), v.into())
    }

    fn del(k: &[u8]) -> WalOp {
        WalOp::Del(k.into())
    }

    #[test]
    fn commits_survive_reopen() {
        let path = temp_path("reopen");
        {
            let db = Database::open(&path, DbConfig::default()).unwrap();
            let mut txn = db.begin_write().unwrap();
            txn.put(b"alpha", b"1");
            txn.put(b"beta", b"2");
            txn.commit();
            let mut txn2 = db.begin_write().unwrap();
            txn2.del(b"alpha");
            txn2.put(b"gamma", b"3");
            txn2.commit();
        }
        let db = Database::open(&path, DbConfig::default()).unwrap();
        assert_eq!(db.get(b"alpha"), None);
        assert_eq!(db.get(b"beta").as_deref(), Some(&b"2"[..]));
        assert_eq!(db.get(b"gamma").as_deref(), Some(&b"3"[..]));
        assert_eq!(db.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn aborted_transactions_are_not_persisted() {
        let path = temp_path("abort");
        {
            let db = Database::open(&path, DbConfig::default()).unwrap();
            let mut txn = db.begin_write().unwrap();
            txn.put(b"kept", b"yes");
            txn.commit();
            let mut txn2 = db.begin_write().unwrap();
            txn2.put(b"dropped", b"no");
            txn2.abort();
        }
        let db = Database::open(&path, DbConfig::default()).unwrap();
        assert_eq!(db.get(b"kept").as_deref(), Some(&b"yes"[..]));
        assert_eq!(db.get(b"dropped"), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_on_recovery() {
        let path = temp_path("torn");
        {
            let db =
                Database::open(&path, DbConfig { sync_mode: SyncMode::Sync, ..Default::default() })
                    .unwrap();
            let mut txn = db.begin_write().unwrap();
            txn.put(b"good", b"committed");
            txn.commit();
        }
        // Simulate a crash mid-append: write a PUT record with no commit.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[TAG_PUT]).unwrap();
            f.write_all(&4u32.to_le_bytes()).unwrap();
            f.write_all(b"torn").unwrap();
            // ... crash before value and commit marker.
        }
        let db = Database::open(&path, DbConfig::default()).unwrap();
        assert_eq!(db.get(b"good").as_deref(), Some(&b"committed"[..]));
        assert_eq!(db.get(b"torn"), None);
        assert_eq!(db.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_tag_stops_replay_safely() {
        let path = temp_path("corrupt");
        {
            let db = Database::open(&path, DbConfig::default()).unwrap();
            let mut txn = db.begin_write().unwrap();
            txn.put(b"pre", b"ok");
            txn.commit();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xEE, 0xFF, 0x00]).unwrap();
        }
        let db = Database::open(&path, DbConfig::default()).unwrap();
        assert_eq!(db.get(b"pre").as_deref(), Some(&b"ok"[..]));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_mode_controls_file_growth_visibility() {
        let path = temp_path("sync");
        let db =
            Database::open(&path, DbConfig { sync_mode: SyncMode::Sync, ..Default::default() })
                .unwrap();
        let mut txn = db.begin_write().unwrap();
        txn.put(b"k", b"v");
        txn.commit();
        // Sync mode flushed through to the file immediately.
        assert!(file_len(&path) > 0);
        let _ = std::fs::remove_file(&path);
    }

    /// Write `records` into a fresh WAL at `path` and return the file
    /// bytes, so tests can replay (possibly truncated) images directly.
    fn wal_bytes(path: &std::path::Path, write: impl FnOnce(&mut Wal)) -> Vec<u8> {
        {
            let (mut wal, rec) = Wal::open(path).unwrap();
            assert_eq!(rec, WalRecovery::default());
            write(&mut wal);
            wal.flush().unwrap();
        }
        std::fs::read(path).unwrap()
    }

    #[test]
    fn prepare_without_decision_is_in_doubt() {
        let path = temp_path("indoubt");
        let ops = vec![put(b"a", b"1"), del(b"b")];
        let bytes = wal_bytes(&path, |wal| {
            wal.prepare(7, &ops, SyncMode::Async).unwrap();
        });
        let rec = Wal::replay(&bytes);
        assert!(rec.committed.is_empty());
        assert_eq!(rec.in_doubt, vec![(7, ops)]);
        assert!(rec.decided_commit.is_empty());
        assert_eq!(rec.max_txn_id, 7);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn commit_decision_promotes_prepared_ops_at_decision_position() {
        let path = temp_path("decide-commit");
        let txn_ops = vec![put(b"t", b"txn")];
        let bytes = wal_bytes(&path, |wal| {
            wal.prepare(3, &txn_ops, SyncMode::Async).unwrap();
            // An unrelated plain batch lands between prepare and decision.
            wal.commit(&[put(b"t", b"plain")], SyncMode::Async).unwrap();
            wal.decision(3, true, SyncMode::Async).unwrap();
        });
        let rec = Wal::replay(&bytes);
        // The txn batch replays *after* the plain batch: decision order,
        // not prepare order, decides visibility order.
        assert_eq!(rec.committed, vec![vec![put(b"t", b"plain")], txn_ops]);
        assert!(rec.in_doubt.is_empty());
        assert_eq!(rec.decided_commit, vec![3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn abort_decision_discards_prepared_ops() {
        let path = temp_path("decide-abort");
        let bytes = wal_bytes(&path, |wal| {
            wal.prepare(9, &[put(b"x", b"gone")], SyncMode::Async).unwrap();
            wal.decision(9, false, SyncMode::Async).unwrap();
        });
        let rec = Wal::replay(&bytes);
        assert!(rec.committed.is_empty());
        assert!(rec.in_doubt.is_empty());
        assert!(rec.decided_commit.is_empty());
        assert_eq!(rec.max_txn_id, 9);
        let _ = std::fs::remove_file(&path);
    }

    /// Truncate a prepare+decision image at *every* byte offset: replay
    /// must never see the transaction half-applied — it is either fully
    /// committed (decision record intact), in doubt (prepare intact,
    /// decision torn), or invisible (prepare torn).
    #[test]
    fn every_truncation_offset_is_atomic() {
        let path = temp_path("truncate-all");
        let ops =
            vec![put(b"key-one", b"value-one"), put(b"key-two", b"value-two"), del(b"key-three")];
        let bytes = wal_bytes(&path, |wal| {
            wal.prepare(42, &ops, SyncMode::Async).unwrap();
            wal.decision(42, true, SyncMode::Async).unwrap();
        });
        for cut in 0..=bytes.len() {
            let rec = Wal::replay(&bytes[..cut]);
            if cut == bytes.len() {
                assert_eq!(rec.committed, vec![ops.clone()], "cut={cut}");
            } else if rec.in_doubt.is_empty() {
                // Prepare torn: nothing committed, nothing in doubt.
                assert!(rec.committed.is_empty(), "cut={cut}");
                assert!(rec.decided_commit.is_empty(), "cut={cut}");
            } else {
                // Prepare intact, decision torn: exactly in doubt.
                assert_eq!(rec.in_doubt, vec![(42, ops.clone())], "cut={cut}");
                assert!(rec.committed.is_empty(), "cut={cut}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ops_payload_roundtrips_binary_and_empty() {
        let ops = vec![put(&[0, 255, 7], b""), put(b"", b"empty-key"), del(&[1, 2, 3])];
        assert_eq!(decode_ops(&encode_ops(&ops)), Some(ops));
        assert_eq!(decode_ops(&[0xEE]), None, "bad tag is corruption");
    }

    #[test]
    fn empty_value_and_binary_keys_roundtrip() {
        let path = temp_path("binkeys");
        {
            let db = Database::open(&path, DbConfig::default()).unwrap();
            let mut txn = db.begin_write().unwrap();
            txn.put(&[0u8, 255, 0, 7], b"");
            txn.put(b"", b"empty-key");
            txn.commit();
        }
        let db = Database::open(&path, DbConfig::default()).unwrap();
        assert_eq!(db.get(&[0u8, 255, 0, 7]).as_deref(), Some(&b""[..]));
        assert_eq!(db.get(b"").as_deref(), Some(&b"empty-key"[..]));
        let _ = std::fs::remove_file(&path);
    }
}
