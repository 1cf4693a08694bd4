//! The durable write-ahead trace spool (DESIGN.md D10).
//!
//! Every accepted samples frame is appended to a per-session spool on
//! disk *before* it enters the ingest queue, so a daemon crash or a
//! dropped connection never loses accepted data. A session's spool is a
//! directory holding numbered *segments* (append-only record logs) and
//! at most one *snapshot* (a finalized checkpoint of the rebuilt EIPV
//! state). A compaction pass collapses sealed segments into a fresh
//! snapshot so replay cost stays proportional to the active segment,
//! not the session's lifetime.
//!
//! # Record format
//!
//! Segments are a stream of length-prefixed, CRC-checksummed records:
//!
//! ```text
//! [u32 BE len] [u32 BE crc32] [u8 kind] [payload: len-1 bytes]
//! ```
//!
//! The CRC (IEEE polynomial) covers the kind byte and payload. Record
//! kinds: [`REC_META`] (JSON [`SessionMeta`], always the first record
//! of every segment so each file is self-describing), [`REC_FRAME`]
//! (a varint frame sequence number followed by the raw trace-codec
//! bytes exactly as received — the spool reuses the profiler's v2
//! codec rather than inventing another sample encoding), and
//! [`REC_SNAPSHOT`] (the single record of a snapshot file).
//!
//! Record headers carry **no timestamps**: spool contents are a pure
//! function of the accepted frames, the same determinism discipline
//! fuzzylint R3 enforces (wall-clock time never reaches results — the
//! daemon's injected `Clock` is for idle policy only).
//!
//! # Torn writes
//!
//! A crash can leave a partial record at the tail of the active
//! segment. Replay stops at the first record whose length or CRC does
//! not check out ([`SegmentReplay::valid_len`] marks the boundary);
//! resuming truncates the torn tail and appends from there. Frame
//! records carry explicit sequence numbers and replay applies only the
//! strictly-next one, so duplicated or stale records (a client
//! retransmitting after resume) are skipped, never double-counted.

use crate::session::SessionConfig;
use bytes::{Buf, BufMut, BytesMut};
use fuzzyphase_profiler::trace::{
    get_varint, put_varint, read_samples, read_samples_into, write_samples_v2,
};
use fuzzyphase_profiler::{EipvBuilder, EipvData, Sample};
use fuzzyphase_stats::{SparseVec, Welford};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Record kind: JSON [`SessionMeta`], first record of every segment.
pub const REC_META: u8 = 1;
/// Record kind: varint frame sequence number + raw trace-codec bytes.
pub const REC_FRAME: u8 = 2;
/// Record kind: binary snapshot body (the single record of a
/// `snap-*.fzsn` file).
pub const REC_SNAPSHOT: u8 = 3;

/// Snapshot body magic ("FZSN").
const SNAPSHOT_MAGIC: u32 = 0x465A_534E;
/// Snapshot body format version.
const SNAPSHOT_VERSION: u32 = 1;

/// Record header size: u32 length + u32 CRC.
const RECORD_HEADER: usize = 8;

/// Spool knobs, normally set from `fuzzyphased` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpoolConfig {
    /// Root directory; each session spools under `<dir>/<token>/`.
    pub dir: PathBuf,
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// `fsync` after every N frame records (1 = every record, 0 = only
    /// on rotation). Lower is more durable, higher is faster.
    pub fsync_every: u32,
}

impl SpoolConfig {
    /// A config rooted at `dir` with production defaults: 4 MiB
    /// segments, fsync every 32 frames.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 4 << 20,
            fsync_every: 32,
        }
    }
}

/// Durable per-session metadata, the JSON payload of every segment's
/// leading [`REC_META`] record. Holds everything `Hello` established,
/// so a spool directory alone can rebuild the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionMeta {
    /// The resume token (also the spool directory name).
    pub token: String,
    /// Client-chosen session label.
    pub name: String,
    /// Samples per EIPV vector.
    pub spv: usize,
    /// Refit cadence in completed vectors.
    pub refit_every: usize,
    /// Negotiated protocol version of the original session.
    pub protocol: u32,
}

// ----------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3 polynomial, reflected) slicing-by-8 tables.
/// Table 0 is the classic byte-at-a-time table; table `k` maps a byte
/// to its CRC contribution from `k` positions deeper in the stream, so
/// eight bytes fold into the running CRC with eight independent table
/// lookups per iteration instead of an eight-long dependency chain.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut k = 1;
        while k < 8 {
            crc = (crc >> 8) ^ tables[0][(crc & 0xFF) as usize];
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC-32 over `parts` concatenated (kind byte, then payload).
///
/// Batch kernel: eight input bytes per iteration via the slicing-by-8
/// tables. Identical output to a byte-at-a-time CRC for every input (the
/// tables are an algebraic regrouping of the same polynomial division),
/// which `tests::crc32_slicing_matches_scalar_oracle` asserts alongside
/// the standard check value.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut chunks = part.chunks_exact(8);
        for ch in &mut chunks {
            let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            crc = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][(lo >> 24) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
    }
    !crc
}

// --------------------------------------------------------------- records

/// Encodes one record (header + kind + payload) into a fresh buffer.
pub fn encode_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = 1 + payload.len();
    let crc = crc32(&[&[kind], payload]);
    let mut out = Vec::with_capacity(RECORD_HEADER + len);
    out.extend_from_slice(&(len as u32).to_be_bytes());
    out.extend_from_slice(&crc.to_be_bytes());
    out.push(kind);
    out.extend_from_slice(payload);
    out
}

/// One step of a record scan.
#[derive(Debug, PartialEq)]
pub enum RecordScan<'a> {
    /// A complete, checksum-valid record.
    Record {
        /// Record kind byte.
        kind: u8,
        /// Record payload.
        payload: &'a [u8],
        /// Total bytes the record occupies (header included).
        consumed: usize,
    },
    /// End of valid data: either a clean end of buffer or a torn /
    /// corrupt record. `torn` distinguishes the two.
    End {
        /// True when trailing bytes exist but do not form a valid
        /// record (partial write or corruption).
        torn: bool,
    },
}

/// Decodes the record at the start of `buf` without consuming it.
/// Replay loops call this repeatedly, advancing by `consumed`.
pub fn scan_record(buf: &[u8]) -> RecordScan<'_> {
    if buf.is_empty() {
        return RecordScan::End { torn: false };
    }
    if buf.len() < RECORD_HEADER {
        return RecordScan::End { torn: true };
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let crc = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len == 0 || buf.len() < RECORD_HEADER + len {
        return RecordScan::End { torn: true };
    }
    let body = &buf[RECORD_HEADER..RECORD_HEADER + len];
    if crc32(&[body]) != crc {
        return RecordScan::End { torn: true };
    }
    RecordScan::Record {
        kind: body[0],
        payload: &body[1..],
        consumed: RECORD_HEADER + len,
    }
}

// ------------------------------------------------------------ file names

fn segment_name(index: u64) -> String {
    format!("seg-{index:06}.fzsp")
}

fn snapshot_name(frames: u64) -> String {
    format!("snap-{frames:012}.fzsn")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Lists `(segment index, path)` ascending and `(snapshot frames,
/// path)` ascending for one session directory.
#[allow(clippy::type_complexity)]
fn list_session_files(dir: &Path) -> io::Result<(Vec<(u64, PathBuf)>, Vec<(u64, PathBuf)>)> {
    let mut segments = Vec::new();
    let mut snapshots = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(i) = parse_numbered(name, "seg-", ".fzsp") {
            segments.push((i, entry.path()));
        } else if let Some(f) = parse_numbered(name, "snap-", ".fzsn") {
            snapshots.push((f, entry.path()));
        }
    }
    segments.sort_by_key(|&(i, _)| i);
    snapshots.sort_by_key(|&(f, _)| f);
    Ok((segments, snapshots))
}

/// Fsyncs a directory, which is what makes the creates, renames and
/// removals inside it durable. A failure is returned, never swallowed:
/// a caller that ignored it would treat an undurable step as durable.
fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

// ---------------------------------------------------------- spool writer

/// The append side of one session's spool, owned by the connection's
/// reader thread. Frames are appended (and optionally fsynced) before
/// they enter the ingest queue — write-ahead, so accepted data is
/// durable even if the engine never sees it.
#[derive(Debug)]
pub struct SessionSpool {
    dir: PathBuf,
    meta: SessionMeta,
    segment_bytes: u64,
    fsync_every: u32,
    file: File,
    seg_index: u64,
    seg_len: u64,
    unsynced: u32,
    last_seq: u64,
}

impl SessionSpool {
    /// Creates a fresh spool directory for a new session and opens its
    /// first segment.
    pub fn create(cfg: &SpoolConfig, meta: SessionMeta) -> io::Result<Self> {
        let dir = cfg.dir.join(&meta.token);
        std::fs::create_dir_all(&dir)?;
        let (file, seg_len) = open_segment_file(&dir, &meta, 0)?;
        fsync_dir(&dir)?;
        fsync_dir(&cfg.dir)?;
        Ok(Self {
            dir,
            meta,
            segment_bytes: cfg.segment_bytes.max(1),
            fsync_every: cfg.fsync_every,
            file,
            seg_index: 0,
            seg_len,
            unsynced: 0,
            last_seq: 0,
        })
    }

    /// Reopens the spool of a recovered session for appending, picking
    /// up where [`recover_session_dir`] left off: the active segment is
    /// reopened with its torn tail truncated, or — for a snapshot-only
    /// directory — a fresh segment starts. The frame sequence continues
    /// from the recovered high-water mark.
    pub fn resume(cfg: &SpoolConfig, recovered: &RecoveredSpool) -> io::Result<Self> {
        let dir = cfg.dir.join(&recovered.state.meta.token);
        Self::resume_in(dir, cfg, recovered)
    }

    /// Like [`resume`](Self::resume), but appends into an explicit
    /// session directory instead of recomputing `cfg.dir/<token>`. The
    /// sharded daemon needs this: after a restart with a different
    /// `--shards` count, a recovered spool may live under a shard
    /// subdirectory the current hash no longer maps its token to — the
    /// resume must reopen the segments where they actually are.
    pub fn resume_in(
        dir: PathBuf,
        cfg: &SpoolConfig,
        recovered: &RecoveredSpool,
    ) -> io::Result<Self> {
        match recovered.active_segment {
            Some((index, valid_len)) => Self::reopen_in(
                dir,
                cfg,
                recovered.state.meta.clone(),
                index,
                valid_len,
                recovered.state.frames,
            ),
            None => {
                std::fs::create_dir_all(&dir)?;
                let (file, seg_len) = open_segment_file(&dir, &recovered.state.meta, 0)?;
                fsync_dir(&dir)?;
                Ok(Self {
                    dir,
                    meta: recovered.state.meta.clone(),
                    segment_bytes: cfg.segment_bytes.max(1),
                    fsync_every: cfg.fsync_every,
                    file,
                    seg_index: 0,
                    seg_len,
                    unsynced: 0,
                    last_seq: recovered.state.frames,
                })
            }
        }
    }

    /// Reopens a recovered session's spool for appending: truncates the
    /// torn tail of the active segment (if any) and continues the frame
    /// sequence from `last_seq`.
    pub fn reopen(
        cfg: &SpoolConfig,
        meta: SessionMeta,
        active_segment: u64,
        valid_len: u64,
        last_seq: u64,
    ) -> io::Result<Self> {
        let dir = cfg.dir.join(&meta.token);
        Self::reopen_in(dir, cfg, meta, active_segment, valid_len, last_seq)
    }

    /// [`reopen`](Self::reopen) with an explicit session directory (see
    /// [`resume_in`](Self::resume_in) for why shard-aware recovery needs
    /// one).
    pub fn reopen_in(
        dir: PathBuf,
        cfg: &SpoolConfig,
        meta: SessionMeta,
        active_segment: u64,
        valid_len: u64,
        last_seq: u64,
    ) -> io::Result<Self> {
        let path = dir.join(segment_name(active_segment));
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            dir,
            meta,
            segment_bytes: cfg.segment_bytes.max(1),
            fsync_every: cfg.fsync_every,
            file,
            seg_index: active_segment,
            seg_len: valid_len,
            unsynced: 0,
            last_seq,
        })
    }

    fn open_segment(&mut self, index: u64) -> io::Result<()> {
        let (file, seg_len) = open_segment_file(&self.dir, &self.meta, index)?;
        self.file = file;
        self.seg_index = index;
        self.seg_len = seg_len;
        self.unsynced = 0;
        Ok(())
    }

    /// Appends one samples frame under the next sequence number.
    /// Returns `true` when the append sealed the previous segment
    /// (rotation happened) — the caller's cue to schedule compaction.
    pub fn append_frame(&mut self, payload: &[u8]) -> io::Result<bool> {
        let seq = self.last_seq + 1;
        let mut body = BytesMut::with_capacity(10 + payload.len());
        put_varint(&mut body, seq);
        body.put_slice(payload);
        let rec = encode_record(REC_FRAME, &body);
        self.file.write_all(&rec)?;
        self.seg_len += rec.len() as u64;
        self.last_seq = seq;
        self.unsynced += 1;
        if self.fsync_every > 0 && self.unsynced >= self.fsync_every {
            self.sync()?;
        }
        if self.seg_len >= self.segment_bytes {
            self.sync()?;
            let next = self.seg_index + 1;
            self.open_segment(next)?;
            fsync_dir(&self.dir)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// The highest sequence number appended (durable high-water mark).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// This session's spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The session metadata the spool was opened with.
    pub fn meta(&self) -> &SessionMeta {
        &self.meta
    }

    /// Index of the active (highest) segment.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }
}

/// Opens a brand-new segment file and writes its leading META record.
/// Returns the handle and the bytes written so far.
fn open_segment_file(dir: &Path, meta: &SessionMeta, index: u64) -> io::Result<(File, u64)> {
    let path = dir.join(segment_name(index));
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    let meta_json = serde_json::to_string(meta).map_err(io::Error::other)?;
    let rec = encode_record(REC_META, meta_json.as_bytes());
    file.write_all(&rec)?;
    file.sync_data()?;
    Ok((file, rec.len() as u64))
}

// --------------------------------------------------------- replay state

/// Session state rebuilt by replaying a spool: the same `EipvBuilder`
/// path the live engine runs, so a recovered session's final report is
/// bit-identical to an uninterrupted one.
#[derive(Debug)]
pub struct ReplayState {
    /// Session metadata (from the snapshot or the first META record).
    pub meta: SessionMeta,
    /// The rebuilt vector builder (completed vectors + pending chunk).
    pub builder: EipvBuilder,
    /// The rebuilt streaming CPI accumulator.
    pub welford: Welford,
    /// Samples applied so far.
    pub samples: u64,
    /// Frame payload bytes applied so far (session-byte accounting).
    pub bytes: u64,
    /// Highest applied frame sequence number.
    pub frames: u64,
    /// Decode scratch reused across frames: once grown to the largest
    /// frame seen, replay decodes without allocating.
    scratch: Vec<Sample>,
}

impl ReplayState {
    /// Fresh state for `meta` (no frames applied yet).
    pub fn new(meta: SessionMeta) -> Self {
        let spv = meta.spv.max(1);
        Self {
            meta,
            builder: EipvBuilder::new(spv),
            welford: Welford::new(),
            samples: 0,
            bytes: 0,
            frames: 0,
            scratch: Vec::new(),
        }
    }

    /// Applies one frame record if it is the strictly-next sequence
    /// number; duplicates and stale retransmits are skipped. Returns
    /// whether the frame was applied.
    ///
    /// # Errors
    ///
    /// Returns an error when an in-sequence payload fails to decode —
    /// a checksum-valid record with undecodable samples means the spool
    /// was written by something else entirely.
    pub fn apply_frame(&mut self, seq: u64, payload: &[u8]) -> io::Result<bool> {
        if seq != self.frames + 1 {
            return Ok(false);
        }
        read_samples_into(payload, &mut self.scratch)?;
        self.builder.push_samples(&self.scratch);
        for s in &self.scratch {
            self.welford.push(s.cpi);
        }
        self.samples += self.scratch.len() as u64;
        self.bytes += payload.len() as u64;
        self.frames = seq;
        Ok(true)
    }

    /// The session config this state runs under, given the server-wide
    /// analysis defaults.
    pub fn session_config(&self, base: &SessionConfig) -> SessionConfig {
        SessionConfig {
            spv: self.meta.spv,
            refit_every: self.meta.refit_every,
            ..*base
        }
    }
}

// ------------------------------------------------------------- snapshot

/// Serializes `state` into a snapshot body (the payload of a
/// [`REC_SNAPSHOT`] record). Every f64 is stored as raw bits, so a
/// snapshot round-trip is exact.
fn encode_snapshot(state: &ReplayState) -> io::Result<Vec<u8>> {
    let mut b = BytesMut::new();
    b.put_u32(SNAPSHOT_MAGIC);
    b.put_u32(SNAPSHOT_VERSION);
    let meta_json = serde_json::to_string(&state.meta).map_err(io::Error::other)?;
    put_varint(&mut b, meta_json.len() as u64);
    b.put_slice(meta_json.as_bytes());
    put_varint(&mut b, state.frames);
    put_varint(&mut b, state.samples);
    put_varint(&mut b, state.bytes);
    let (count, mean, m2) = state.welford.state();
    put_varint(&mut b, count);
    b.put_u64(mean.to_bits());
    b.put_u64(m2.to_bits());

    let data = state.builder.data();
    put_varint(&mut b, data.index.len() as u64);
    for id in 0..data.index.len() as u32 {
        put_varint(&mut b, data.index.eip(id));
    }
    put_varint(&mut b, data.vectors.len() as u64);
    for v in &data.vectors {
        put_varint(&mut b, v.nnz() as u64);
        for (i, x) in v.iter() {
            put_varint(&mut b, i as u64);
            b.put_u64(x.to_bits());
        }
    }
    for c in &data.cpis {
        b.put_u64(c.to_bits());
    }
    let pending = write_samples_v2(state.builder.pending());
    put_varint(&mut b, pending.len() as u64);
    b.put_slice(&pending);
    Ok(b.to_vec())
}

fn snap_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad snapshot: {what}"))
}

/// Decodes a snapshot body written by `encode_snapshot`.
fn decode_snapshot(mut body: &[u8]) -> io::Result<ReplayState> {
    if body.remaining() < 8 || body.get_u32() != SNAPSHOT_MAGIC {
        return Err(snap_err("magic"));
    }
    let version = body.get_u32();
    if version != SNAPSHOT_VERSION {
        return Err(snap_err("version"));
    }
    let meta_len = get_varint(&mut body)? as usize;
    if body.remaining() < meta_len {
        return Err(snap_err("meta length"));
    }
    let meta_json = std::str::from_utf8(&body[..meta_len]).map_err(|_| snap_err("meta utf-8"))?;
    let meta: SessionMeta = serde_json::from_str(meta_json).map_err(io::Error::other)?;
    body.advance(meta_len);
    let frames = get_varint(&mut body)?;
    let samples = get_varint(&mut body)?;
    let bytes = get_varint(&mut body)?;
    let count = get_varint(&mut body)?;
    if body.remaining() < 16 {
        return Err(snap_err("welford"));
    }
    let welford = Welford::from_state(
        count,
        f64::from_bits(body.get_u64()),
        f64::from_bits(body.get_u64()),
    );

    let eip_count = get_varint(&mut body)? as usize;
    let mut index = fuzzyphase_profiler::EipIndex::new();
    for _ in 0..eip_count {
        index.intern(get_varint(&mut body)?);
    }
    let vec_count = get_varint(&mut body)? as usize;
    let mut vectors = Vec::with_capacity(vec_count);
    for _ in 0..vec_count {
        let nnz = get_varint(&mut body)? as usize;
        let mut pairs = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let i = get_varint(&mut body)? as u32;
            if body.remaining() < 8 {
                return Err(snap_err("vector entry"));
            }
            pairs.push((i, f64::from_bits(body.get_u64())));
        }
        vectors.push(SparseVec::from_pairs(pairs));
    }
    let mut cpis = Vec::with_capacity(vec_count);
    for _ in 0..vec_count {
        if body.remaining() < 8 {
            return Err(snap_err("cpi"));
        }
        cpis.push(f64::from_bits(body.get_u64()));
    }
    let pending_len = get_varint(&mut body)? as usize;
    if body.remaining() < pending_len {
        return Err(snap_err("pending length"));
    }
    let pending = read_samples(&body[..pending_len])?;

    let spv = meta.spv.max(1);
    let data = EipvData {
        vectors,
        cpis,
        index,
        vector_threads: Vec::new(),
    };
    if pending.len() >= spv {
        return Err(snap_err("pending chunk not smaller than spv"));
    }
    Ok(ReplayState {
        meta,
        builder: EipvBuilder::from_parts(spv, pending, data),
        welford,
        samples,
        bytes,
        frames,
        scratch: Vec::new(),
    })
}

/// Writes `state` as the session's snapshot, atomically (tmp file +
/// rename + directory fsync), and returns the snapshot path.
pub fn write_snapshot(dir: &Path, state: &ReplayState) -> io::Result<PathBuf> {
    let body = encode_snapshot(state)?;
    let rec = encode_record(REC_SNAPSHOT, &body);
    let tmp = dir.join(".snap.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&rec)?;
        f.sync_data()?;
    }
    let path = dir.join(snapshot_name(state.frames));
    std::fs::rename(&tmp, &path)?;
    fsync_dir(dir)?;
    Ok(path)
}

/// Reads and validates a snapshot file.
pub fn read_snapshot(path: &Path) -> io::Result<ReplayState> {
    let bytes = std::fs::read(path)?;
    match scan_record(&bytes) {
        RecordScan::Record {
            kind: REC_SNAPSHOT,
            payload,
            ..
        } => decode_snapshot(payload),
        _ => Err(snap_err("not a snapshot record")),
    }
}

// --------------------------------------------------------------- replay

/// The outcome of replaying one segment file into a [`ReplayState`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SegmentReplay {
    /// Frame records applied (in-sequence ones only).
    pub frames_applied: u64,
    /// Frame records skipped as duplicates / stale retransmits.
    pub frames_skipped: u64,
    /// Bytes of valid records from the start of the file.
    pub valid_len: u64,
    /// Whether a torn or corrupt record ended the scan early.
    pub torn: bool,
}

/// Replays one segment file into `state`. META records are checked
/// against the state's token; FRAME records are applied through the
/// strict next-sequence filter. The scan stops at the first invalid
/// record (`torn`), which for the active segment marks where a resume
/// truncates.
pub fn replay_segment(path: &Path, state: &mut ReplayState) -> io::Result<SegmentReplay> {
    let bytes = std::fs::read(path)?;
    let mut out = SegmentReplay::default();
    let mut buf = &bytes[..];
    loop {
        match scan_record(buf) {
            RecordScan::Record {
                kind,
                payload,
                consumed,
            } => {
                match kind {
                    REC_META => {
                        let meta: SessionMeta = serde_json::from_str(
                            std::str::from_utf8(payload).map_err(|_| snap_err("meta utf-8"))?,
                        )
                        .map_err(io::Error::other)?;
                        if meta.token != state.meta.token {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "segment {} belongs to session '{}', not '{}'",
                                    path.display(),
                                    meta.token,
                                    state.meta.token
                                ),
                            ));
                        }
                    }
                    REC_FRAME => {
                        let mut p = payload;
                        let seq = get_varint(&mut p)?;
                        if state.apply_frame(seq, p)? {
                            out.frames_applied += 1;
                        } else {
                            out.frames_skipped += 1;
                        }
                    }
                    // Unknown record kinds from a newer spool writer
                    // are skipped, mirroring the wire protocol's
                    // lenient stance.
                    _ => {}
                }
                out.valid_len += consumed as u64;
                buf = &buf[consumed..];
            }
            RecordScan::End { torn } => {
                out.torn = torn;
                return Ok(out);
            }
        }
    }
}

/// Everything recovered from one session directory.
#[derive(Debug)]
pub struct RecoveredSpool {
    /// The fully replayed state (snapshot + all segment frames).
    pub state: ReplayState,
    /// `(index, valid byte length)` of the active (highest) segment; a
    /// resume reopens it, truncating any torn tail. `None` for a
    /// snapshot-only directory (compaction finished but the next
    /// segment never opened) — a resume starts a fresh segment.
    pub active_segment: Option<(u64, u64)>,
    /// Torn records encountered across the scan.
    pub torn_records: u64,
    /// Frame records skipped as duplicates/stale.
    pub frames_skipped: u64,
}

/// Rebuilds a session from its spool directory: loads the newest valid
/// snapshot, then replays every segment through the sequence filter.
///
/// # Errors
///
/// Fails when the directory holds no usable snapshot or segments, or
/// when its contents belong to a different session than `token` claims.
pub fn recover_session_dir(dir: &Path, token: &str) -> io::Result<RecoveredSpool> {
    let (segments, snapshots) = list_session_files(dir)?;
    // Newest snapshot that parses wins; older or corrupt ones are
    // ignored (compaction deletes them when it next succeeds).
    let mut state = None;
    for (_, path) in snapshots.iter().rev() {
        if let Ok(s) = read_snapshot(path) {
            state = Some(s);
            break;
        }
    }
    let mut state = match state {
        Some(s) => {
            if s.meta.token != token {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "snapshot in {} belongs to session '{}', not '{}'",
                        dir.display(),
                        s.meta.token,
                        token
                    ),
                ));
            }
            s
        }
        None => {
            // No snapshot: bootstrap metadata from the first segment's
            // META record.
            let Some((_, first)) = segments.first() else {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("spool {} has no snapshot and no segments", dir.display()),
                ));
            };
            let bytes = std::fs::read(first)?;
            let RecordScan::Record {
                kind: REC_META,
                payload,
                ..
            } = scan_record(&bytes)
            else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "segment {} does not start with a META record",
                        first.display()
                    ),
                ));
            };
            let meta: SessionMeta = serde_json::from_str(
                std::str::from_utf8(payload).map_err(|_| snap_err("meta utf-8"))?,
            )
            .map_err(io::Error::other)?;
            if meta.token != token {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "spool {} belongs to session '{}', not '{}'",
                        dir.display(),
                        meta.token,
                        token
                    ),
                ));
            }
            ReplayState::new(meta)
        }
    };

    let mut torn_records = 0u64;
    let mut frames_skipped = 0u64;
    let mut active_segment = None;
    for (index, path) in &segments {
        let replay = replay_segment(path, &mut state)?;
        torn_records += u64::from(replay.torn);
        frames_skipped += replay.frames_skipped;
        active_segment = Some((*index, replay.valid_len));
    }
    Ok(RecoveredSpool {
        state,
        active_segment,
        torn_records,
        frames_skipped,
    })
}

// ----------------------------------------------------------- compaction

/// What a compaction pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Sealed segments removed.
    pub segments_removed: usize,
    /// Frame high-water mark of the snapshot written.
    pub snapshot_frames: u64,
}

/// Collapses a session's sealed segments (every segment but the
/// highest-numbered, active one) into a fresh snapshot, then deletes
/// them and any older snapshots. Returns `None` when there is nothing
/// to compact. Crash-safe: the snapshot lands via atomic rename before
/// any deletion, and replay's sequence filter makes a
/// snapshot-plus-stale-segment overlap harmless.
pub fn compact_session(dir: &Path) -> io::Result<Option<CompactionOutcome>> {
    let (segments, snapshots) = list_session_files(dir)?;
    if segments.len() <= 1 {
        return Ok(None);
    }
    let sealed = &segments[..segments.len() - 1];

    let mut state = None;
    for (_, path) in snapshots.iter().rev() {
        if let Ok(s) = read_snapshot(path) {
            state = Some(s);
            break;
        }
    }
    let mut state = match state {
        Some(s) => s,
        None => {
            let bytes = std::fs::read(&sealed[0].1)?;
            let RecordScan::Record {
                kind: REC_META,
                payload,
                ..
            } = scan_record(&bytes)
            else {
                return Err(snap_err("sealed segment without META record"));
            };
            let meta: SessionMeta = serde_json::from_str(
                std::str::from_utf8(payload).map_err(|_| snap_err("meta utf-8"))?,
            )
            .map_err(io::Error::other)?;
            ReplayState::new(meta)
        }
    };

    for (_, path) in sealed {
        let replay = replay_segment(path, &mut state)?;
        if replay.torn {
            // Sealed segments are rotated-away files; a torn record
            // here means corruption. Leave everything in place — replay
            // at recovery time will stop at the same point.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("torn record in sealed segment {}", path.display()),
            ));
        }
    }

    write_snapshot(dir, &state)?;
    let mut removed = 0;
    for (_, path) in sealed {
        std::fs::remove_file(path)?;
        removed += 1;
    }
    for (frames, path) in &snapshots {
        if *frames < state.frames {
            let _ = std::fs::remove_file(path);
        }
    }
    fsync_dir(dir)?;
    Ok(Some(CompactionOutcome {
        segments_removed: removed,
        snapshot_frames: state.frames,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzyphase_profiler::Sample;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fuzzyphase-spool-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn meta(token: &str) -> SessionMeta {
        SessionMeta {
            token: token.to_string(),
            name: "test".to_string(),
            spv: 10,
            refit_every: 0,
            protocol: 2,
        }
    }

    fn trace(n: u64, base: u64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                eip: base + (i % 7) * 0x10,
                thread: 0,
                is_os: false,
                cpi: 0.9 + (i % 5) as f64 * 0.111_111,
            })
            .collect()
    }

    /// Byte-at-a-time CRC-32 — the oracle the slicing-by-8 [`crc32`]
    /// is tested against.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for part in parts {
            for &b in *part {
                crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answer() {
        // The standard check value for CRC-32/IEEE.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
        assert_eq!(crc32_bytewise(&[b"123456789"]), 0xCBF4_3926);
    }

    #[test]
    fn crc32_slicing_matches_scalar_oracle() {
        // Every length 0..64 covers all chunk remainders; pseudo-random
        // bytes and a split into parts cover part-boundary states.
        let data: Vec<u8> = (0u32..64)
            .map(|i| (i.wrapping_mul(2_654_435_761).rotate_left(11) >> 13) as u8)
            .collect();
        for len in 0..data.len() {
            let buf = &data[..len];
            assert_eq!(crc32(&[buf]), crc32_bytewise(&[buf]), "len {len}");
            for cut in 0..len {
                let parts = [&buf[..cut], &buf[cut..]];
                assert_eq!(crc32(&parts), crc32_bytewise(&[buf]), "len {len} cut {cut}");
            }
        }
    }

    #[test]
    fn records_roundtrip_and_detect_corruption() {
        let rec = encode_record(REC_FRAME, b"hello spool");
        match scan_record(&rec) {
            RecordScan::Record {
                kind,
                payload,
                consumed,
            } => {
                assert_eq!(kind, REC_FRAME);
                assert_eq!(payload, b"hello spool");
                assert_eq!(consumed, rec.len());
            }
            other => panic!("expected record, got {other:?}"),
        }
        // Flip one payload bit: CRC must catch it.
        let mut bad = rec.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(scan_record(&bad), RecordScan::End { torn: true });
        // Truncations at every boundary are torn, empty is clean.
        for cut in 1..rec.len() {
            assert_eq!(scan_record(&rec[..cut]), RecordScan::End { torn: true });
        }
        assert_eq!(scan_record(&[]), RecordScan::End { torn: false });
    }

    #[test]
    fn spool_appends_replay_bit_identically() {
        let root = test_dir("replay");
        let cfg = SpoolConfig {
            dir: root.clone(),
            segment_bytes: 4 << 20,
            fsync_every: 1,
        };
        let samples = trace(95, 0x4000);
        let mut spool = SessionSpool::create(&cfg, meta("sess-1")).expect("create");
        for chunk in samples.chunks(17) {
            spool
                .append_frame(&write_samples_v2(chunk))
                .expect("append");
        }
        assert_eq!(spool.last_seq(), 6);
        drop(spool);

        let rec = recover_session_dir(&root.join("sess-1"), "sess-1").expect("recover");
        assert_eq!(rec.state.frames, 6);
        assert_eq!(rec.state.samples, 95);
        assert_eq!(rec.torn_records, 0);
        let direct = EipvData::from_samples(&samples, 10);
        assert_eq!(rec.state.builder.data(), &direct_without_threads(&direct));
        let mut w = Welford::new();
        w.extend(samples.iter().map(|s| s.cpi));
        assert_eq!(rec.state.welford.mean().to_bits(), w.mean().to_bits());
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `from_samples` leaves `vector_threads` empty on the plain path,
    /// same as the builder — make that explicit for the comparison.
    fn direct_without_threads(d: &EipvData) -> EipvData {
        EipvData {
            vectors: d.vectors.clone(),
            cpis: d.cpis.clone(),
            index: d.index.clone(),
            vector_threads: Vec::new(),
        }
    }

    #[test]
    fn torn_tail_stops_replay_at_last_valid_record() {
        let root = test_dir("torn");
        let cfg = SpoolConfig {
            dir: root.clone(),
            segment_bytes: 4 << 20,
            fsync_every: 0,
        };
        let samples = trace(60, 0x8000);
        let mut spool = SessionSpool::create(&cfg, meta("sess-2")).expect("create");
        for chunk in samples.chunks(20) {
            spool
                .append_frame(&write_samples_v2(chunk))
                .expect("append");
        }
        spool.sync().expect("sync");
        drop(spool);

        // Tear the last record: chop a few bytes off the segment tail.
        let seg = root.join("sess-2").join("seg-000000.fzsp");
        let len = std::fs::metadata(&seg).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&seg).expect("open");
        f.set_len(len - 5).expect("truncate");
        drop(f);

        let rec = recover_session_dir(&root.join("sess-2"), "sess-2").expect("recover");
        assert_eq!(rec.state.frames, 2, "third frame was torn");
        assert_eq!(rec.state.samples, 40);
        assert_eq!(rec.torn_records, 1);
        let (_, valid_len) = rec.active_segment.expect("active segment");
        assert!(valid_len < len - 5);

        // Resume over the torn tail: reopen truncates, appends continue
        // the sequence, and a second recovery sees a clean log.
        let mut resumed = SessionSpool::resume(&cfg, &rec).expect("resume");
        resumed
            .append_frame(&write_samples_v2(&samples[40..]))
            .expect("append");
        resumed.sync().expect("sync");
        drop(resumed);
        let rec2 = recover_session_dir(&root.join("sess-2"), "sess-2").expect("recover2");
        assert_eq!(rec2.state.frames, 3);
        assert_eq!(rec2.state.samples, 60);
        assert_eq!(rec2.torn_records, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_roundtrip_is_exact() {
        let samples = trace(87, 0xA000);
        let mut state = ReplayState::new(meta("sess-3"));
        for (i, chunk) in samples.chunks(13).enumerate() {
            state
                .apply_frame(i as u64 + 1, &write_samples_v2(chunk))
                .expect("apply");
        }
        let root = test_dir("snap");
        let path = write_snapshot(&root, &state).expect("write");
        let back = read_snapshot(&path).expect("read");
        assert_eq!(back.meta, state.meta);
        assert_eq!(back.frames, state.frames);
        assert_eq!(back.samples, state.samples);
        assert_eq!(back.bytes, state.bytes);
        assert_eq!(back.builder.data(), state.builder.data());
        assert_eq!(back.builder.pending(), state.builder.pending());
        let (c1, m1, q1) = state.welford.state();
        let (c2, m2, q2) = back.welford.state();
        assert_eq!(c1, c2);
        assert_eq!(m1.to_bits(), m2.to_bits());
        assert_eq!(q1.to_bits(), q2.to_bits());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rotation_and_compaction_preserve_replay() {
        let root = test_dir("compact");
        let cfg = SpoolConfig {
            dir: root.clone(),
            segment_bytes: 600, // tiny: force several rotations
            fsync_every: 0,
        };
        let samples = trace(200, 0xC000);
        let mut spool = SessionSpool::create(&cfg, meta("sess-4")).expect("create");
        let mut sealed = 0;
        for chunk in samples.chunks(10) {
            if spool
                .append_frame(&write_samples_v2(chunk))
                .expect("append")
            {
                sealed += 1;
            }
        }
        spool.sync().expect("sync");
        assert!(sealed >= 2, "expected rotations, got {sealed}");
        let dir = root.join("sess-4");

        let before = recover_session_dir(&dir, "sess-4").expect("recover before");
        let outcome = compact_session(&dir)
            .expect("compact")
            .expect("something to compact");
        assert_eq!(outcome.segments_removed, sealed);
        let after = recover_session_dir(&dir, "sess-4").expect("recover after");
        assert_eq!(after.state.frames, before.state.frames);
        assert_eq!(after.state.samples, before.state.samples);
        assert_eq!(after.state.builder.data(), before.state.builder.data());
        assert_eq!(
            after.state.welford.mean().to_bits(),
            before.state.welford.mean().to_bits()
        );
        // Idempotent: nothing sealed remains.
        assert_eq!(compact_session(&dir).expect("recompact"), None);
        // Spool keeps accepting after compaction ran.
        drop(spool);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicate_and_stale_frames_are_skipped() {
        let samples = trace(30, 0xE000);
        let frame = write_samples_v2(&samples[..10]);
        let mut state = ReplayState::new(meta("sess-5"));
        assert!(state.apply_frame(1, &frame).expect("first"));
        assert!(!state.apply_frame(1, &frame).expect("dup"), "duplicate");
        assert!(!state.apply_frame(5, &frame).expect("gap"), "gap");
        assert!(state
            .apply_frame(2, &write_samples_v2(&samples[10..20]))
            .expect("next"));
        assert_eq!(state.frames, 2);
        assert_eq!(state.samples, 20);
    }

    #[test]
    fn recovery_rejects_mismatched_tokens() {
        let root = test_dir("mismatch");
        let cfg = SpoolConfig::new(root.clone());
        let mut spool = SessionSpool::create(&cfg, meta("sess-6")).expect("create");
        spool
            .append_frame(&write_samples_v2(&trace(10, 0x100)))
            .expect("append");
        drop(spool);
        let err = recover_session_dir(&root.join("sess-6"), "sess-other").expect_err("mismatch");
        assert!(err.to_string().contains("belongs to session"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fsync_dir_reports_failure() {
        let root = test_dir("fsync-dir");
        fsync_dir(&root).expect("existing directory");
        let _ = std::fs::remove_dir_all(&root);
        assert!(
            fsync_dir(&root).is_err(),
            "missing directory must be an error"
        );
    }
}
