//! Checkpoint storage (§3.7).
//!
//! OID arrays are periodically copied (non-atomically — a *fuzzy*
//! checkpoint) to secondary storage. The engine serializes its snapshot
//! payload; this module stores it beside the log and records the location
//! of the most recent checkpoint in the name of an empty *marker file*,
//! exactly as the paper describes, so recovery can find it without
//! reading the log first.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use ermia_common::Lsn;

use crate::io::{FileBackend, SegmentIoFactory};
use crate::records::checksum32;

/// Magic prefix of a checkpoint payload file.
const CHECKPOINT_MAGIC: [u8; 4] = *b"ECHK";
/// magic + u64 payload length + u32 checksum.
const CHECKPOINT_HEADER_LEN: usize = 4 + 8 + 4;

/// Metadata identifying a checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// LSN at which the fuzzy snapshot began: recovery replays the log
    /// from here.
    pub begin: Lsn,
}

/// Reads and writes checkpoint payloads + marker files in a directory.
pub struct CheckpointStore {
    dir: PathBuf,
    io: Arc<dyn SegmentIoFactory>,
}

impl CheckpointStore {
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<CheckpointStore> {
        CheckpointStore::with_backend(dir, Arc::new(FileBackend))
    }

    /// Open the store with an injectable write backend
    /// ([`FaultInjector`](crate::FaultInjector) in crash tests). Only the *write* path goes
    /// through the backend; reads use plain `std::fs`, since a recovery
    /// read never needs fault coverage beyond what corrupt files provide.
    pub fn with_backend(
        dir: impl Into<PathBuf>,
        io: Arc<dyn SegmentIoFactory>,
    ) -> io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // A leftover `chk-tmp` means a checkpoint died mid-write (before
        // its rename); it is garbage from a previous incarnation.
        let tmp = dir.join("chk-tmp");
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }
        Ok(CheckpointStore { dir, io })
    }

    fn payload_path(&self, begin: Lsn) -> PathBuf {
        self.dir.join(format!("chk-{:016x}.bin", begin.raw()))
    }

    fn marker_path(&self, begin: Lsn) -> PathBuf {
        self.dir.join(format!("chk-marker-{:016x}", begin.raw()))
    }

    /// Persist a checkpoint: payload first (framed with a magic, length
    /// and checksum so a torn or bit-rotted file is detectable), then the
    /// marker (the marker's existence implies a complete payload).
    pub fn write(&self, meta: CheckpointMeta, payload: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join("chk-tmp");
        {
            let f = self.io.open(&tmp)?;
            // Truncate first: a reused tmp from a failed earlier attempt
            // must not leave trailing junk past this image.
            f.set_len(0)?;
            // One positional write for header + payload, so a fault plan
            // addresses the whole checkpoint image as a single write.
            let mut framed = Vec::with_capacity(CHECKPOINT_HEADER_LEN + payload.len());
            framed.extend_from_slice(&CHECKPOINT_MAGIC);
            framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            framed.extend_from_slice(&checksum32(payload).to_le_bytes());
            framed.extend_from_slice(payload);
            f.write_all_at(&framed, 0)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, self.payload_path(meta.begin))?;
        self.io.open(&self.marker_path(meta.begin))?.sync_data()?;
        Ok(())
    }

    /// Decode and verify one framed payload file; `None` if the file is
    /// missing, truncated, or fails its checksum.
    fn read_verified(&self, begin: Lsn) -> Option<Vec<u8>> {
        let raw = std::fs::read(self.payload_path(begin)).ok()?;
        if raw.len() < CHECKPOINT_HEADER_LEN || raw[..4] != CHECKPOINT_MAGIC {
            return None;
        }
        let len = u64::from_le_bytes(raw[4..12].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(raw[12..16].try_into().unwrap());
        let body = &raw[CHECKPOINT_HEADER_LEN..];
        if body.len() != len || checksum32(body) != sum {
            return None;
        }
        Some(body.to_vec())
    }

    /// Find the most recent checkpoint whose payload verifies. A corrupt
    /// or incomplete newest checkpoint falls back to the next-older one —
    /// recovery then simply replays more of the log.
    pub fn latest(&self) -> io::Result<Option<(CheckpointMeta, Vec<u8>)>> {
        let mut marked: Vec<Lsn> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(hex) = name.strip_prefix("chk-marker-") {
                if let Ok(raw) = u64::from_str_radix(hex, 16) {
                    marked.push(Lsn::from_raw(raw));
                }
            }
        }
        marked.sort_unstable();
        for &begin in marked.iter().rev() {
            if let Some(payload) = self.read_verified(begin) {
                return Ok(Some((CheckpointMeta { begin }, payload)));
            }
        }
        Ok(None)
    }

    /// Drop all but the most recent checkpoint (background housekeeping).
    pub fn prune(&self) -> io::Result<usize> {
        let Some((latest, _)) = self.latest()? else { return Ok(0) };
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = name
                .strip_prefix("chk-marker-")
                .or_else(|| name.strip_prefix("chk-").map(|s| s.trim_end_matches(".bin")))
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .is_some_and(|raw| Lsn::from_raw(raw) < latest.begin);
            if stale {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ermia-chk-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_latest() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(store.latest().unwrap().is_none());
        store.write(CheckpointMeta { begin: Lsn::from_parts(100, 0) }, b"snapshot-a").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(200, 0) }, b"snapshot-b").unwrap();
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(200, 0));
        assert_eq!(payload, b"snapshot-b");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let dir = tmpdir("corrupt");
        let store = CheckpointStore::new(&dir).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(100, 0) }, b"good-old").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(200, 0) }, b"bad-new").unwrap();
        // Flip a payload byte in the newest checkpoint: checksum mismatch.
        let path = store.payload_path(Lsn::from_parts(200, 0));
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(100, 0), "must fall back past the corrupt one");
        assert_eq!(payload, b"good-old");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_or_missing_payload_falls_back() {
        let dir = tmpdir("truncated");
        let store = CheckpointStore::new(&dir).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(10, 0) }, b"intact").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(20, 0) }, b"torn-payload").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(30, 0) }, b"gone").unwrap();
        // Truncate one payload mid-body, delete another outright (marker
        // survives in both cases — the failure modes of a dying disk).
        let torn = store.payload_path(Lsn::from_parts(20, 0));
        let raw = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &raw[..raw.len() - 4]).unwrap();
        std::fs::remove_file(store.payload_path(Lsn::from_parts(30, 0))).unwrap();
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(10, 0));
        assert_eq!(payload, b"intact");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn all_checkpoints_corrupt_means_none() {
        let dir = tmpdir("allbad");
        let store = CheckpointStore::new(&dir).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(5, 0) }, b"x").unwrap();
        std::fs::write(store.payload_path(Lsn::from_parts(5, 0)), b"junk").unwrap();
        assert!(store.latest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_is_cleaned_on_open() {
        let dir = tmpdir("tmpclean");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chk-tmp"), b"half-written checkpoint").unwrap();
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(!dir.join("chk-tmp").exists(), "stale tmp must be removed");
        assert!(store.latest().unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_checkpoint_write_fails_and_falls_back() {
        use crate::io::{FaultInjector, FaultPlan, TornWrite};
        let dir = tmpdir("chk-torn");
        // A good checkpoint first, through the plain backend.
        CheckpointStore::new(&dir)
            .unwrap()
            .write(CheckpointMeta { begin: Lsn::from_parts(10, 0) }, b"good")
            .unwrap();
        // Now a checkpoint writer that tears its very first image write.
        let inj = FaultInjector::new(FaultPlan {
            torn_write: Some(TornWrite { at_write: 0, keep_bytes: 7 }),
            ..FaultPlan::default()
        });
        let store = CheckpointStore::with_backend(&dir, Arc::new(inj.clone())).unwrap();
        let err =
            store.write(CheckpointMeta { begin: Lsn::from_parts(20, 0) }, b"newer").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert!(inj.crashed());
        // The torn image died as `chk-tmp`: no marker, no payload file.
        assert!(dir.join("chk-tmp").exists(), "torn image is left behind as tmp");
        // A restarted store cleans the tmp and still serves the old one.
        let store = CheckpointStore::new(&dir).unwrap();
        assert!(!dir.join("chk-tmp").exists());
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(10, 0));
        assert_eq!(payload, b"good");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn silently_torn_checkpoint_with_marker_falls_back() {
        use crate::io::{FaultInjector, FaultPlan, TornWrite};
        let dir = tmpdir("chk-silent");
        CheckpointStore::new(&dir)
            .unwrap()
            .write(CheckpointMeta { begin: Lsn::from_parts(10, 0) }, b"good")
            .unwrap();
        // The storage persists only 9 bytes of the image but reports
        // success: the rename happens, the *marker is written* — the
        // worst case, a marker pointing at a corrupt payload.
        let inj = FaultInjector::new(FaultPlan {
            silent_torn_write: Some(TornWrite { at_write: 0, keep_bytes: 9 }),
            ..FaultPlan::default()
        });
        let store = CheckpointStore::with_backend(&dir, Arc::new(inj.clone())).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(20, 0) }, b"newer").unwrap();
        assert_eq!(inj.faults_injected(), 1);
        assert!(store.marker_path(Lsn::from_parts(20, 0)).exists(), "marker exists");
        // `latest()` must catch the truncation and fall back past it.
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(10, 0), "corrupt-but-marked must be skipped");
        assert_eq!(payload, b"good");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_fsync_failure_surfaces_before_any_rename() {
        use crate::io::{FaultInjector, FaultPlan};
        let dir = tmpdir("chk-sync");
        let inj =
            FaultInjector::new(FaultPlan { fail_sync_at: Some(0), ..FaultPlan::default() });
        let store = CheckpointStore::with_backend(&dir, Arc::new(inj)).unwrap();
        assert!(store.write(CheckpointMeta { begin: Lsn::from_parts(5, 0) }, b"x").is_err());
        assert!(store.latest().unwrap().is_none(), "nothing was published");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_latest() {
        let dir = tmpdir("prune");
        let store = CheckpointStore::new(&dir).unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(1, 0) }, b"a").unwrap();
        store.write(CheckpointMeta { begin: Lsn::from_parts(2, 0) }, b"b").unwrap();
        let removed = store.prune().unwrap();
        assert_eq!(removed, 2); // old payload + old marker
        let (meta, payload) = store.latest().unwrap().unwrap();
        assert_eq!(meta.begin, Lsn::from_parts(2, 0));
        assert_eq!(payload, b"b");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
