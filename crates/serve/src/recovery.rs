//! Startup recovery: rebuilding sessions from spool directories.
//!
//! When `fuzzyphased` starts with `--spool-dir`, it scans the spool
//! root before accepting connections. Every session directory is
//! replayed through [`recover_session_dir`] — the same `EipvBuilder`
//! path live ingest uses, so a recovered session continues
//! bit-identically to one that never crashed. Recovered sessions wait
//! in a map keyed by resume token; a reconnecting client presents its
//! token in `Hello` and the server hands the rebuilt state to the new
//! connection, reporting the durable frame high-water mark so the
//! client retransmits only the gap.
//!
//! The map is consume-on-resume: a token taken by a connection leaves
//! the map for good, and any later resume of the same token (another
//! crash, another reconnect) replays the spool directory from disk on
//! demand. State can therefore never go stale — disk is always the
//! source of truth.

use crate::spool::{recover_session_dir, RecoveredSpool, SpoolConfig};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// One session rebuilt from its spool, waiting for its client to
/// reconnect (or for the operator to inspect it).
#[derive(Debug)]
pub struct RecoveredSession {
    /// The replayed spool: state plus append-resume coordinates.
    pub spool: RecoveredSpool,
}

impl RecoveredSession {
    /// The resume token this session answers to.
    pub fn token(&self) -> &str {
        &self.spool.state.meta.token
    }

    /// The durable frame high-water mark (what `Hello` reports back as
    /// `last_seq`).
    pub fn last_seq(&self) -> u64 {
        self.spool.state.frames
    }
}

/// Counters from a recovery scan, folded into the server's metrics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Session directories successfully rebuilt.
    pub sessions_recovered: u64,
    /// Frame records applied across all replays.
    pub frames_replayed: u64,
    /// Torn records encountered (each marks a truncation point).
    pub torn_records: u64,
    /// Duplicate/stale frame records skipped by the sequence filter.
    pub frames_skipped: u64,
    /// Directories that could not be recovered (corrupt or foreign).
    pub failed: u64,
    /// Highest numeric session id seen in any token, so the server's
    /// id counter starts past every spooled session.
    pub max_session_id: u64,
}

/// Parses the numeric id out of a `sess-NNNNNNNN` token; `None` for
/// anything else — including every string that could name a path other
/// than a direct child of the spool root.
pub fn token_session_id(token: &str) -> Option<u64> {
    let digits = token.strip_prefix("sess-")?;
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Recovers one session directory on demand (the fallback path when a
/// resume token is not in the startup map).
pub fn recover_session(dir: &Path, token: &str) -> io::Result<RecoveredSession> {
    let spool = recover_session_dir(dir, token)?;
    Ok(RecoveredSession { spool })
}

/// Scans the spool root and rebuilds every session directory in it
/// (`<root>/<token>`). Returns the token→session map plus scan
/// counters. Directories that fail to recover are left on disk
/// untouched (counted in [`RecoveryStats::failed`]) — recovery never
/// deletes data. Entries are scanned in sorted name order so the stats
/// are deterministic.
pub fn recover_all(
    cfg: &SpoolConfig,
) -> io::Result<(BTreeMap<String, RecoveredSession>, RecoveryStats)> {
    let mut map: BTreeMap<String, RecoveredSession> = BTreeMap::new();
    let mut stats = RecoveryStats::default();
    if !cfg.dir.exists() {
        return Ok((map, stats));
    }
    for (token, path) in sorted_subdirs(&cfg.dir, &mut stats)? {
        if let Some(id) = token_session_id(&token) {
            stats.max_session_id = stats.max_session_id.max(id);
        }
        match recover_session(&path, &token) {
            Ok(sess) => {
                stats.sessions_recovered += 1;
                stats.frames_replayed += sess.spool.state.frames;
                stats.torn_records += sess.spool.torn_records;
                stats.frames_skipped += sess.spool.frames_skipped;
                map.insert(token, sess);
            }
            Err(_) => {
                stats.failed += 1;
            }
        }
    }
    Ok((map, stats))
}

/// Subdirectories of `dir` as `(name, path)`, sorted by name.
/// Non-UTF-8 names count as failed (they cannot be resume tokens).
fn sorted_subdirs(dir: &Path, stats: &mut RecoveryStats) -> io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        match entry.file_name().to_str() {
            Some(name) => out.push((name.to_string(), entry.path())),
            None => stats.failed += 1,
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spool::{SessionMeta, SessionSpool};
    use fuzzyphase_profiler::trace::write_samples_v2;
    use fuzzyphase_profiler::Sample;

    fn test_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fuzzyphase-recovery-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    fn spool_one(cfg: &SpoolConfig, token: &str, frames: usize) {
        let meta = SessionMeta {
            token: token.to_string(),
            name: "t".to_string(),
            spv: 10,
            refit_every: 0,
            protocol: 2,
        };
        let mut spool = SessionSpool::create(cfg, meta).expect("create");
        for f in 0..frames {
            let samples: Vec<Sample> = (0..10)
                .map(|i| Sample {
                    eip: 0x1000 + (f * 10 + i) as u64 % 13,
                    thread: 0,
                    is_os: false,
                    cpi: 1.0 + i as f64 * 0.01,
                })
                .collect();
            spool
                .append_frame(&write_samples_v2(&samples))
                .expect("append");
        }
        spool.sync().expect("sync");
    }

    #[test]
    fn scan_recovers_every_session_and_tracks_max_id() {
        let root = test_root("scan");
        let cfg = SpoolConfig::new(root.clone());
        spool_one(&cfg, "sess-00000003", 4);
        spool_one(&cfg, "sess-00000017", 2);
        // A non-session file in the root is ignored.
        std::fs::write(root.join("stray.txt"), b"not a spool").expect("write");

        let (map, stats) = recover_all(&cfg).expect("recover_all");
        assert_eq!(stats.sessions_recovered, 2);
        assert_eq!(stats.frames_replayed, 6);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.max_session_id, 17);
        assert_eq!(map.len(), 2);
        assert_eq!(map["sess-00000003"].last_seq(), 4);
        assert_eq!(map["sess-00000017"].last_seq(), 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_directory_counts_as_failed_not_fatal() {
        let root = test_root("corrupt");
        let cfg = SpoolConfig::new(root.clone());
        spool_one(&cfg, "sess-00000001", 3);
        // An empty directory has nothing to recover from.
        std::fs::create_dir_all(root.join("sess-00000099")).expect("mkdir");

        let (map, stats) = recover_all(&cfg).expect("recover_all");
        assert_eq!(stats.sessions_recovered, 1);
        assert_eq!(stats.failed, 1);
        // Even failed directories still advance the id counter so a
        // restarted server never reissues a token that exists on disk.
        assert_eq!(stats.max_session_id, 99);
        assert!(map.contains_key("sess-00000001"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn missing_root_is_an_empty_recovery() {
        let cfg = SpoolConfig::new(
            std::env::temp_dir().join(format!("fuzzyphase-none-{}", std::process::id())),
        );
        let (map, stats) = recover_all(&cfg).expect("recover_all");
        assert!(map.is_empty());
        assert_eq!(stats, RecoveryStats::default());
    }
}
