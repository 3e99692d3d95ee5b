//! Deterministic checkpoint files.
//!
//! A checkpoint is a self-describing file: a fixed magic, a format
//! version, a metadata block (scenario name, seed, shard count, the
//! captured simulation time) and the full engine state encoded with
//! [`gdisim_snap`]. Everything the step loop's results depend on rides
//! along — the flight table, every counter-based RNG position, the
//! fault/churn/resilience runtimes, report accumulators and (under
//! sharding) per-shard state plus the undelivered window mail — so a
//! run resumed from a checkpoint produces output bit-identical to the
//! uninterrupted run. The one derived scheduling value, the next
//! periodic-series launch, is rebuilt from the series cursors on load.
//!
//! Writes are atomic: the bytes land in a `.tmp` sibling which is then
//! renamed over the final path, so a crash mid-write can never leave a
//! truncated file that a later `--resume` would trip over.

use crate::engine::Simulation;
use crate::shard::ShardedSimulation;
use gdisim_snap::{Snap, SnapError, SnapReader, SnapWriter};
use gdisim_types::SimTime;
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic: "GDISNAP\0".
pub const MAGIC: [u8; 8] = *b"GDISNAP\0";

/// Current checkpoint format version. Bump on any encoding change —
/// the loader refuses other versions rather than misreading them.
pub const VERSION: u32 = 2;

/// Checkpoint identity: enough to refuse a resume under mismatched
/// flags and to label crash reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Scenario label the run was launched with.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Shard count (1 for a serial engine).
    pub shards: u32,
    /// Simulation time the state was captured at.
    pub now: SimTime,
}

/// The engine state carried by a checkpoint.
pub enum SnapshotPayload {
    /// A serial engine.
    Serial(Box<Simulation>),
    /// A sharded engine (shards, mailboxes, window cursor).
    Sharded(Box<ShardedSimulation>),
}

/// A decoded checkpoint.
pub struct Snapshot {
    /// Identity block.
    pub meta: SnapshotMeta,
    /// Engine state.
    pub payload: SnapshotPayload,
}

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure (path attached).
    Io(PathBuf, std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not [`VERSION`].
    BadVersion(u32),
    /// The payload bytes failed to decode.
    Corrupt(SnapError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(path, e) => write!(f, "checkpoint i/o on {}: {e}", path.display()),
            SnapshotError::BadMagic => write!(f, "not a gdisim checkpoint (bad magic)"),
            SnapshotError::BadVersion(v) => write!(
                f,
                "checkpoint format v{v} is not supported (this build reads v{VERSION})"
            ),
            SnapshotError::Corrupt(e) => write!(f, "checkpoint payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl Snapshot {
    /// Wraps a serial engine for writing.
    pub fn serial(scenario: &str, seed: u64, sim: Simulation) -> Self {
        let now = sim.now();
        Snapshot {
            meta: SnapshotMeta {
                scenario: scenario.to_string(),
                seed,
                shards: 1,
                now,
            },
            payload: SnapshotPayload::Serial(Box::new(sim)),
        }
    }

    /// Wraps a sharded engine for writing.
    pub fn sharded(scenario: &str, seed: u64, sim: ShardedSimulation) -> Self {
        let (now, shards) = (sim.now(), sim.shards() as u32);
        Snapshot {
            meta: SnapshotMeta {
                scenario: scenario.to_string(),
                seed,
                shards,
                now,
            },
            payload: SnapshotPayload::Sharded(Box::new(sim)),
        }
    }

    /// Encodes the checkpoint into its on-disk byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        match &self.payload {
            SnapshotPayload::Serial(sim) => encode(&self.meta, 0, |w| sim.save(w)),
            SnapshotPayload::Sharded(sim) => encode(&self.meta, 1, |w| sim.save(w)),
        }
    }

    /// Atomically writes a checkpoint of a *borrowed* serial engine —
    /// the mid-run form, where the engine keeps stepping afterwards.
    pub fn write_serial(
        path: &Path,
        scenario: &str,
        seed: u64,
        sim: &Simulation,
    ) -> Result<(), SnapshotError> {
        let meta = SnapshotMeta {
            scenario: scenario.to_string(),
            seed,
            shards: 1,
            now: sim.now(),
        };
        write_atomic_bytes(path, &encode(&meta, 0, |w| sim.save(w)))
    }

    /// Atomically writes a checkpoint of a *borrowed* sharded engine at
    /// a window barrier.
    pub fn write_sharded(
        path: &Path,
        scenario: &str,
        seed: u64,
        sim: &ShardedSimulation,
    ) -> Result<(), SnapshotError> {
        let meta = SnapshotMeta {
            scenario: scenario.to_string(),
            seed,
            shards: sim.shards() as u32,
            now: sim.now(),
        };
        write_atomic_bytes(path, &encode(&meta, 1, |w| sim.save(w)))
    }

    /// Decodes a checkpoint, rejecting foreign magic, unknown versions
    /// and trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(bytes);
        let magic = r
            .take_raw(MAGIC.len())
            .map_err(|_| SnapshotError::BadMagic)?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.take_u32().map_err(SnapshotError::Corrupt)?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let meta = SnapshotMeta {
            scenario: String::load(&mut r).map_err(SnapshotError::Corrupt)?,
            seed: u64::load(&mut r).map_err(SnapshotError::Corrupt)?,
            shards: u32::load(&mut r).map_err(SnapshotError::Corrupt)?,
            now: SimTime::load(&mut r).map_err(SnapshotError::Corrupt)?,
        };
        let payload = match r.take_u8().map_err(SnapshotError::Corrupt)? {
            0 => SnapshotPayload::Serial(Box::new(
                Simulation::load(&mut r).map_err(SnapshotError::Corrupt)?,
            )),
            1 => SnapshotPayload::Sharded(Box::new(
                ShardedSimulation::load(&mut r).map_err(SnapshotError::Corrupt)?,
            )),
            tag => {
                return Err(SnapshotError::Corrupt(SnapError::BadTag {
                    ty: "SnapshotPayload",
                    tag,
                }))
            }
        };
        if !r.is_done() {
            return Err(SnapshotError::Corrupt(SnapError::Invalid(
                "trailing bytes after checkpoint",
            )));
        }
        Ok(Snapshot { meta, payload })
    }

    /// Reads and decodes a checkpoint file.
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(path.to_path_buf(), e))?;
        Self::from_bytes(&bytes)
    }
}

/// Encodes the common on-disk frame: magic, version, metadata block,
/// payload tag, then whatever `save` appends.
fn encode(meta: &SnapshotMeta, tag: u8, save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.put_raw(&MAGIC);
    w.put_u32(VERSION);
    meta.scenario.save(&mut w);
    meta.seed.save(&mut w);
    meta.shards.save(&mut w);
    meta.now.save(&mut w);
    w.put_u8(tag);
    save(&mut w);
    w.into_bytes()
}

/// The atomic-write primitive behind every checkpoint: bytes land in a
/// `.tmp` sibling, are fsynced, and the sibling is renamed over `path`.
fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io(dir.to_path_buf(), e))?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let io_err = |e| SnapshotError::Io(tmp.clone(), e);
    let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
    f.write_all(bytes).map_err(io_err)?;
    f.sync_all().map_err(io_err)?;
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| SnapshotError::Io(path.to_path_buf(), e))?;
    Ok(())
}

/// Canonical checkpoint file name inside a checkpoint directory:
/// `<scenario>-t<seconds>.ckpt`, zero-padded so lexicographic order is
/// chronological order.
pub fn checkpoint_path(dir: &Path, scenario: &str, at: SimTime) -> PathBuf {
    dir.join(format!(
        "{scenario}-t{:010}.ckpt",
        at.as_micros() / 1_000_000
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_foreign_bytes() {
        assert!(matches!(
            Snapshot::from_bytes(b"not a checkpoint at all"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(
            Snapshot::from_bytes(b""),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn rejects_future_version() {
        // v1 predates the single incident queue; its engine encoding
        // differs from v2's, so it must be refused, not misread.
        for version in [1, VERSION + 1] {
            let mut w = SnapWriter::new();
            w.put_raw(&MAGIC);
            w.put_u32(version);
            assert!(matches!(
                Snapshot::from_bytes(&w.into_bytes()),
                Err(SnapshotError::BadVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn checkpoint_paths_sort_chronologically() {
        let dir = Path::new("ck");
        let a = checkpoint_path(dir, "churned", SimTime::from_secs(90));
        let b = checkpoint_path(dir, "churned", SimTime::from_secs(1800));
        assert!(a < b, "{a:?} vs {b:?}");
        assert!(a.to_string_lossy().ends_with("churned-t0000000090.ckpt"));
    }
}
