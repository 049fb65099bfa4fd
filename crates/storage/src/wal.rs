//! The per-node write-ahead log.
//!
//! Durability of switch transactions is the responsibility of the database
//! nodes (§6.1): a node appends the *intent* (the operations it is about to
//! send to the switch) to its local log **before** sending the packet —
//! switch transactions count as committed at that point because they can no
//! longer abort — and appends the switch-assigned GID together with the
//! read/write results when the reply arrives. Cold writes are logged with
//! before/after images so that node recovery can redo committed and undo
//! uncommitted work.
//!
//! ## On-disk format
//!
//! The log is physically a sequence of bounded **segments**: sealed segments
//! are encoded once, at rotation ([`Wal::append`]/[`Wal::append_group`] seal
//! every [`Wal::segment_capacity`] records), plus one active tail. The wire
//! format — versioned magic, base LSN, then length-prefixed records each
//! closed by an FNV-1a-64 checksum — and the torn-tail-vs-interior-corruption
//! contract are documented in [`crate::segment`]. [`Wal::serialize_segments`]
//! is the stand-in for forcing the log to stable storage and
//! [`Wal::deserialize_segments`] the restart path.

use p4db_common::sync::unpoison;
use p4db_common::{GlobalTxnId, TupleId, TxnId, Value};
use p4db_switch::OpCode;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Default number of records per log segment before the active tail is
/// sealed and a new one started (see [`Wal::serialize_segments`]).
pub const DEFAULT_SEGMENT_RECORDS: usize = 512;

/// One operation of a switch (sub-)transaction as recorded in the log. The
/// tuple id (not the register slot) is logged so that recovery works even if
/// the hot set is re-offloaded to different registers after a switch failure.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LoggedSwitchOp {
    pub tuple: TupleId,
    pub op: OpCode,
    pub operand: u64,
    /// Operand forwarding source (read-dependent writes), same semantics as
    /// in the switch packet format.
    pub operand_from: Option<u8>,
}

/// A log record.
///
/// `ColdWrite` is much larger than the tag-only variants because it carries
/// two full before/after images inline; boxing them would put an allocation
/// on the append hot path for no benefit, since logs are stored in `Vec`s
/// whose slot size is paid either way.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// A write to a cold tuple performed by `txn` (before/after images).
    ColdWrite { txn: TxnId, tuple: TupleId, before: Value, after: Value },
    /// The intent of a switch (sub-)transaction, written *before* the packet
    /// is sent out.
    SwitchIntent { txn: TxnId, ops: Vec<LoggedSwitchOp> },
    /// The switch's reply: its globally-ordered GID plus the value returned
    /// for every operation (the read/write-set used by recovery to restore
    /// ordering).
    SwitchResult { txn: TxnId, gid: GlobalTxnId, results: Vec<(TupleId, u64)> },
    /// The transaction's cold part committed.
    Commit { txn: TxnId },
    /// The transaction aborted (cold part rolled back; never emitted for
    /// switch sub-transactions, which cannot abort).
    Abort { txn: TxnId },
}

impl LogRecord {
    /// The transaction this record belongs to.
    pub fn txn(&self) -> TxnId {
        match self {
            LogRecord::ColdWrite { txn, .. }
            | LogRecord::SwitchIntent { txn, .. }
            | LogRecord::SwitchResult { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => *txn,
        }
    }
}

/// A decode failure while reconstructing a log segment or a checkpoint from
/// its serialised bytes. `line` is the 1-based number of the offending record
/// (or checkpoint frame) within its blob, or `0` when the failure belongs to
/// no single record (a bad header, a missing segment). Torn trailing records
/// — a crash mid-flush — surface here as a regular error (or as a torn-tail
/// note) the caller can handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalCodecError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for WalCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WAL decode error at record {}: {}", self.line, self.message)
    }
}

impl std::error::Error for WalCodecError {}

/// The mutex-guarded interior of a [`Wal`]: the full record vector plus the
/// cache of sealed, already-encoded binary segments (every
/// `segment_capacity` records the oldest unsealed span is encoded once and
/// kept, so repeated crash drills never re-encode history).
#[derive(Debug, Default)]
struct WalInner {
    records: Vec<LogRecord>,
    sealed: Vec<Arc<Vec<u8>>>,
}

/// The per-node write-ahead log. Appends are serialised by a mutex; in the
/// real system this is the log buffer + group commit path, whose cost the
/// paper argues is negligible next to network latency (§A.3).
///
/// The log is physically a sequence of bounded **segments**: sealed segments
/// (encoded to the binary codec of [`crate::segment`] at rotation time,
/// immutable from then on) plus one active tail. [`Wal::serialize_segments`]
/// returns that sequence.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalInner>,
    segment_capacity: usize,
}

impl Default for Wal {
    fn default() -> Self {
        Wal { inner: Mutex::new(WalInner::default()), segment_capacity: DEFAULT_SEGMENT_RECORDS }
    }
}

impl Wal {
    pub fn new() -> Self {
        Self::default()
    }

    /// A log that rotates its binary segments every `capacity` records
    /// (clamped to at least 1). The capacity only bounds segment size; the
    /// record contents are unaffected.
    pub fn with_segment_capacity(capacity: usize) -> Self {
        Wal { inner: Mutex::new(WalInner::default()), segment_capacity: capacity.max(1) }
    }

    /// Number of records per sealed segment.
    pub fn segment_capacity(&self) -> usize {
        self.segment_capacity
    }

    /// Seals every complete, not-yet-sealed segment. Called with the append
    /// mutex held: rotation is the moment the record crossing the capacity
    /// boundary is appended, exactly like a file-backed log closing one
    /// segment file and opening the next.
    fn seal_full_segments(&self, inner: &mut WalInner) {
        while (inner.sealed.len() + 1) * self.segment_capacity <= inner.records.len() {
            let base = inner.sealed.len() * self.segment_capacity;
            let blob = crate::segment::encode_segment(base as u64, &inner.records[base..base + self.segment_capacity]);
            inner.sealed.push(Arc::new(blob));
        }
    }

    /// Appends a record and returns its log sequence number.
    pub fn append(&self, record: LogRecord) -> u64 {
        let mut inner = unpoison(self.inner.lock());
        inner.records.push(record);
        let lsn = (inner.records.len() - 1) as u64;
        self.seal_full_segments(&mut inner);
        lsn
    }

    /// Group commit: appends a whole batch of records under **one** lock
    /// acquisition — the stand-in for staging records in a worker-local
    /// buffer and encoding + fsyncing them as a single log write. The batch
    /// is appended contiguously and in order (no other appender's record can
    /// interleave inside it), and the serialised segments are byte-identical
    /// to the same records appended one by one, so the torn-record-safe
    /// encoding and [`Wal::deserialize_segments`] recovery are unaffected.
    ///
    /// Returns the LSN of the batch's first record, or `None` for an empty
    /// batch — an empty batch writes nothing, and handing out the current
    /// log length as its "LSN" would name a record that belongs to whoever
    /// appends next.
    pub fn append_group(&self, batch: impl IntoIterator<Item = LogRecord>) -> Option<u64> {
        let mut inner = unpoison(self.inner.lock());
        let first = inner.records.len() as u64;
        inner.records.extend(batch);
        if inner.records.len() as u64 == first {
            return None;
        }
        self.seal_full_segments(&mut inner);
        Some(first)
    }

    /// Number of records in the log.
    pub fn len(&self) -> usize {
        unpoison(self.inner.lock()).records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the whole log (recovery input).
    pub fn records(&self) -> Vec<LogRecord> {
        unpoison(self.inner.lock()).records.clone()
    }

    /// A snapshot of the log from `lsn` onwards (checkpoint-tail replay
    /// input).
    pub fn records_from(&self, lsn: u64) -> Vec<LogRecord> {
        let inner = unpoison(self.inner.lock());
        let at = (lsn as usize).min(inner.records.len());
        inner.records[at..].to_vec()
    }

    /// Serialises the log as its binary segment sequence: every sealed
    /// segment (encoded once, at rotation) followed by the active tail
    /// (encoded fresh, it is still growing). An empty log yields no
    /// segments. See [`crate::segment`] for the wire format and the torn-
    /// tail contract.
    pub fn serialize_segments(&self) -> Vec<Arc<Vec<u8>>> {
        let inner = unpoison(self.inner.lock());
        let mut blobs = inner.sealed.clone();
        let tail_base = inner.sealed.len() * self.segment_capacity;
        if tail_base < inner.records.len() {
            blobs.push(Arc::new(crate::segment::encode_segment(tail_base as u64, &inner.records[tail_base..])));
        }
        blobs
    }

    /// Reconstructs a log from a binary segment sequence, tolerating a torn
    /// tail in the **final** segment only (see [`crate::segment`]). The
    /// reconstructed log re-rotates under `capacity`.
    pub fn deserialize_segments(
        blobs: &[impl AsRef<[u8]>],
        capacity: usize,
    ) -> Result<(Self, Option<WalCodecError>), WalCodecError> {
        let (records, torn) = crate::segment::decode_segments(blobs)?;
        let wal =
            Wal { inner: Mutex::new(WalInner { records, sealed: Vec::new() }), segment_capacity: capacity.max(1) };
        {
            let mut inner = unpoison(wal.inner.lock());
            wal.seal_full_segments(&mut inner);
        }
        Ok((wal, torn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4db_common::{NodeId, TableId, WorkerId};

    fn txn(seq: u32) -> TxnId {
        TxnId::compose(seq, NodeId(0), WorkerId(0))
    }

    fn tuple(key: u64) -> TupleId {
        TupleId::new(TableId(0), key)
    }

    fn sample_wal() -> Wal {
        let wal = Wal::new();
        wal.append(LogRecord::ColdWrite {
            txn: txn(3),
            tuple: tuple(9),
            before: Value::from_fields(&[1, 7, 9]),
            after: Value::from_fields(&[2, 7, 9]),
        });
        wal.append(LogRecord::SwitchIntent {
            txn: txn(3),
            ops: vec![
                LoggedSwitchOp { tuple: tuple(1), op: OpCode::Add, operand: 2, operand_from: None },
                LoggedSwitchOp { tuple: tuple(2), op: OpCode::CondSub, operand: 5, operand_from: Some(0) },
            ],
        });
        wal.append(LogRecord::SwitchResult {
            txn: txn(3),
            gid: GlobalTxnId(0),
            results: vec![(tuple(1), 3), (tuple(2), 95)],
        });
        wal.append(LogRecord::Commit { txn: txn(3) });
        wal.append(LogRecord::Abort { txn: txn(4) });
        wal
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let wal = Wal::new();
        let a = wal.append(LogRecord::Commit { txn: txn(1) });
        let b = wal.append(LogRecord::Abort { txn: txn(2) });
        assert_eq!((a, b), (0, 1));
        assert_eq!(wal.len(), 2);
    }

    #[test]
    fn append_group_is_contiguous_and_serialises_identically() {
        // The same records, appended singly and as a group, must produce the
        // same log — byte-identical segments once serialised, including the
        // segment rotations that land inside the group.
        let singles = Wal::with_segment_capacity(2);
        for r in sample_wal().records() {
            singles.append(r);
        }
        let grouped = Wal::with_segment_capacity(2);
        let first = grouped.append_group(singles.records());
        assert_eq!(first, Some(0));
        assert_eq!(grouped.append_group(Vec::new()), None, "an empty batch has no LSN");
        assert_eq!(grouped.records(), singles.records());
        assert_eq!(grouped.serialize_segments(), singles.serialize_segments());
        // The next single append lands right after the group.
        let lsn = grouped.append(LogRecord::Commit { txn: txn(9) });
        assert_eq!(lsn, singles.len() as u64);
    }

    #[test]
    fn concurrent_append_groups_never_interleave() {
        let wal = std::sync::Arc::new(Wal::new());
        let threads: Vec<_> = (0..4u16)
            .map(|i| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for s in 0..100u32 {
                        let t = TxnId::compose(s, NodeId(0), WorkerId(i));
                        wal.append_group(vec![
                            LogRecord::SwitchIntent { txn: t, ops: vec![] },
                            LogRecord::Commit { txn: t },
                        ]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let records = wal.records();
        assert_eq!(records.len(), 800);
        // Every intent is immediately followed by its own commit: groups are
        // atomic with respect to each other.
        for pair in records.chunks(2) {
            assert!(matches!(pair[0], LogRecord::SwitchIntent { .. }));
            assert!(matches!(pair[1], LogRecord::Commit { .. }));
            assert_eq!(pair[0].txn(), pair[1].txn());
        }
    }

    #[test]
    fn records_snapshot_preserves_order() {
        let wal = Wal::new();
        wal.append(LogRecord::SwitchIntent {
            txn: txn(1),
            ops: vec![LoggedSwitchOp { tuple: tuple(1), op: OpCode::Add, operand: 2, operand_from: None }],
        });
        wal.append(LogRecord::SwitchResult { txn: txn(1), gid: GlobalTxnId(7), results: vec![(tuple(1), 3)] });
        wal.append(LogRecord::Commit { txn: txn(1) });
        let records = wal.records();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], LogRecord::SwitchIntent { .. }));
        assert!(matches!(records[2], LogRecord::Commit { .. }));
        assert_eq!(records[1].txn(), txn(1));
    }

    #[test]
    fn segment_rotation_seals_and_roundtrips() {
        let wal = Wal::with_segment_capacity(2);
        assert_eq!(wal.segment_capacity(), 2);
        for r in sample_wal().records() {
            wal.append(r);
        }
        // 5 records at capacity 2: two sealed segments + a 1-record tail.
        let blobs = wal.serialize_segments();
        assert_eq!(blobs.len(), 3);
        let views: Vec<&[u8]> = blobs.iter().map(|b| b.as_slice()).collect();
        let (restored, torn) = Wal::deserialize_segments(&views, 2).unwrap();
        assert!(torn.is_none());
        assert_eq!(restored.records(), wal.records());
        // Sealed blobs are cached: serialising twice returns the same Arcs.
        let again = wal.serialize_segments();
        assert!(Arc::ptr_eq(&blobs[0], &again[0]) && Arc::ptr_eq(&blobs[1], &again[1]));
        // An empty log has no segments.
        assert!(Wal::new().serialize_segments().is_empty());
        let (empty, torn) = Wal::deserialize_segments(&Vec::<Vec<u8>>::new(), 2).unwrap();
        assert!(empty.is_empty() && torn.is_none());
    }

    #[test]
    fn records_from_slices_the_tail() {
        let wal = sample_wal();
        assert_eq!(wal.records_from(0), wal.records());
        assert_eq!(wal.records_from(3), wal.records()[3..].to_vec());
        assert!(wal.records_from(99).is_empty());
    }

    #[test]
    fn concurrent_appends_do_not_lose_records() {
        let wal = std::sync::Arc::new(Wal::new());
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let wal = std::sync::Arc::clone(&wal);
                std::thread::spawn(move || {
                    for s in 0..500 {
                        wal.append(LogRecord::Commit { txn: TxnId::compose(s, NodeId(0), WorkerId(i)) });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.len(), 2000);
    }
}
