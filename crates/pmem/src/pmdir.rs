//! The "DAX filesystem": a directory of puddle files plus daemon metadata.
//!
//! The paper stores each puddle as a file owned by `puddled` on a DAX
//! filesystem mounted at `/mnt/pmem0`. We reproduce the same structure in an
//! ordinary directory: fixed-size puddle files that are mapped with
//! `MAP_SHARED`, and small metadata files that are updated atomically
//! (write-to-temp + `rename`) so the daemon's own records survive crashes.

use crate::faultio::{self, FaultPlan, FaultSite, IoStats, SyncFault, WriteFault, MAX_IO_RETRIES};
use crate::{PmError, Result, PAGE_SIZE};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A directory acting as the persistent-memory device.
///
/// A `PmDir` may carry a [`FaultPlan`]; cloning the handle clones the plan
/// reference, so every layer that derives its file access from this
/// directory (registry metadata, the WAL, puddle files) consults the same
/// seeded schedule.
#[derive(Debug, Clone)]
pub struct PmDir {
    root: PathBuf,
    fault: Option<Arc<FaultPlan>>,
    stats: Arc<IoStats>,
}

impl PmDir {
    /// Opens (creating if necessary) a PM directory rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        fs::create_dir_all(root.join("puddles"))?;
        fs::create_dir_all(root.join("meta"))?;
        fs::create_dir_all(root.join("exports"))?;
        Ok(PmDir {
            root,
            fault: None,
            stats: Arc::new(IoStats::default()),
        })
    }

    /// Attaches a fault-injection plan to this handle (and every clone made
    /// from it afterwards). Torture harness only; production paths never
    /// attach one.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// The attached fault plan, if any (layers owning their own file
    /// handles — e.g. the WAL — consult it directly).
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.fault.as_ref()
    }

    /// The I/O robustness counters shared by every clone of this handle.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn write_fault(&self, site: FaultSite, len: usize) -> Option<WriteFault> {
        self.fault.as_ref().and_then(|p| p.on_write(site, len))
    }

    fn sync_fault(&self, site: FaultSite) -> Option<SyncFault> {
        self.fault.as_ref().and_then(|p| p.on_sync(site))
    }

    /// Runs `op` with the bounded transient-error retry budget: a transient
    /// storage error (injected `EIO`, `Interrupted`) is retried up to
    /// [`MAX_IO_RETRIES`] times after `undo` cleans up the failed attempt's
    /// partial state; anything else — including `ENOSPC`, which retrying
    /// cannot fix — surfaces immediately.
    fn with_io_retries<T>(
        &self,
        mut op: impl FnMut() -> Result<T>,
        mut undo: impl FnMut(),
    ) -> Result<T> {
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if is_transient_pm(&e) => {
                    // Failed attempts clean up their partial state whether
                    // another retry follows or not; a non-transient error
                    // (below) must NOT undo — e.g. a duplicate-name
                    // rejection would otherwise delete the pre-existing
                    // file it collided with.
                    undo();
                    if attempt < MAX_IO_RETRIES {
                        attempt += 1;
                        self.stats.note_retry();
                    } else {
                        self.stats.note_transient();
                        return Err(e);
                    }
                }
                Err(e) => {
                    if matches!(e, PmError::NoSpace(_)) {
                        self.stats.note_enospc();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Returns the root path of the PM directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Returns the path that stores the puddle file named `name`.
    pub fn puddle_path(&self, name: &str) -> PathBuf {
        self.root.join("puddles").join(name)
    }

    /// Returns the directory used for exported pools.
    pub fn exports_dir(&self) -> PathBuf {
        self.root.join("exports")
    }

    /// Returns the path of the metadata file `name` (for callers that manage
    /// their own file handles, e.g. an append-only log; atomic
    /// replace-style updates should use [`PmDir::write_meta`] instead).
    pub fn meta_path(&self, name: &str) -> PathBuf {
        self.root.join("meta").join(name)
    }

    /// Creates a zero-filled puddle file of `size` bytes and returns its path.
    ///
    /// `size` must be a multiple of the page size; puddles are "regions of
    /// memory ... of any size in multiples of an OS page" (§4.3).
    pub fn create_puddle_file(&self, name: &str, size: usize) -> Result<PathBuf> {
        if size == 0 || !size.is_multiple_of(PAGE_SIZE) {
            return Err(PmError::Misaligned {
                value: size,
                align: PAGE_SIZE,
            });
        }
        let path = self.puddle_path(name);
        // `create_new` makes a duplicate name an error, which must survive
        // the retry wrapper: only *failed* attempts remove their partial
        // file, so a pre-existing puddle still rejects cleanly.
        self.with_io_retries(
            || {
                match self.write_fault(FaultSite::PuddleCreate, size) {
                    Some(WriteFault::Eio) => return Err(faultio::eio().into()),
                    Some(WriteFault::Enospc) => return Err(faultio::enospc().into()),
                    Some(WriteFault::Short(keep)) => {
                        // Torn create: the file exists but is shorter than
                        // the puddle it was meant to back; the retry (or
                        // the caller's rollback) removes it.
                        let file = OpenOptions::new()
                            .read(true)
                            .write(true)
                            .create_new(true)
                            .open(&path)?;
                        let _ = file.set_len(keep as u64);
                        return Err(faultio::eio().into());
                    }
                    None => {}
                }
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create_new(true)
                    .open(&path)?;
                file.set_len(size as u64)?;
                match self.sync_fault(FaultSite::PuddleCreate) {
                    Some(SyncFault::Eio) => return Err(faultio::eio().into()),
                    Some(SyncFault::Dropped) => {}
                    None => file.sync_all()?,
                }
                Ok(path.clone())
            },
            || {
                let _ = fs::remove_file(&path);
            },
        )
    }

    /// Opens an existing puddle file, verifying its recorded size.
    pub fn open_puddle_file(&self, name: &str, expect_size: usize) -> Result<(File, PathBuf)> {
        let path = self.puddle_path(name);
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len() as usize;
        if len != expect_size {
            return Err(PmError::Corruption(format!(
                "puddle file {name} has size {len}, expected {expect_size}"
            )));
        }
        Ok((file, path))
    }

    /// Deletes a puddle file.
    pub fn delete_puddle_file(&self, name: &str) -> Result<()> {
        self.with_io_retries(
            || {
                if let Some(WriteFault::Eio | WriteFault::Short(_)) =
                    self.write_fault(FaultSite::PuddleDelete, 0)
                {
                    return Err(faultio::eio().into());
                }
                fs::remove_file(self.puddle_path(name))?;
                Ok(())
            },
            || {},
        )
    }

    /// Returns `true` if a puddle file with this name exists.
    pub fn puddle_exists(&self, name: &str) -> bool {
        self.puddle_path(name).exists()
    }

    /// Copies a puddle file into an arbitrary destination path (used by pool
    /// export).
    pub fn copy_puddle_file(&self, name: &str, dest: &Path) -> Result<u64> {
        Ok(fs::copy(self.puddle_path(name), dest)?)
    }

    /// Lists the names of all puddle files.
    pub fn list_puddles(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(self.root.join("puddles"))? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Atomically replaces the metadata file `name` with `bytes`.
    ///
    /// Uses the classic write-temp + fsync + rename sequence so a crash never
    /// leaves a half-written metadata file.
    pub fn write_meta(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let dir = self.root.join("meta");
        let tmp = dir.join(format!("{name}.tmp"));
        let dst = dir.join(name);
        // A failed attempt aborts *before* the rename, so the previous
        // metadata generation stays intact whatever the plane injects — the
        // atomic-replace contract the daemon's checkpoints rely on.
        self.with_io_retries(
            || {
                {
                    let mut file = File::create(&tmp)?;
                    match self.write_fault(FaultSite::MetaWrite, bytes.len()) {
                        Some(WriteFault::Eio) => return Err(faultio::eio().into()),
                        Some(WriteFault::Enospc) => return Err(faultio::enospc().into()),
                        Some(WriteFault::Short(keep)) => {
                            let _ = file.write_all(&bytes[..keep]);
                            return Err(faultio::eio().into());
                        }
                        None => {}
                    }
                    file.write_all(bytes)?;
                    match self.sync_fault(FaultSite::MetaWrite) {
                        Some(SyncFault::Eio) => return Err(faultio::eio().into()),
                        Some(SyncFault::Dropped) => {}
                        None => file.sync_all()?,
                    }
                }
                fs::rename(&tmp, &dst)?;
                Ok(())
            },
            || {
                let _ = fs::remove_file(&tmp);
            },
        )
    }

    /// Reads the metadata file `name`, or `Ok(None)` if it does not exist.
    pub fn read_meta(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let path = self.root.join("meta").join(name);
        match File::open(&path) {
            Ok(mut file) => {
                let mut buf = Vec::new();
                file.read_to_end(&mut buf)?;
                Ok(Some(buf))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PmError::Io(e)),
        }
    }
}

/// `true` for substrate errors the bounded retry budget applies to.
fn is_transient_pm(e: &PmError) -> bool {
    matches!(e, PmError::Io(io) if faultio::is_transient_io(io))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> (tempfile::TempDir, PmDir) {
        let tmp = tempfile::tempdir().unwrap();
        let pm = PmDir::open(tmp.path()).unwrap();
        (tmp, pm)
    }

    #[test]
    fn create_and_open_puddle_file() {
        let (_tmp, pm) = dir();
        let path = pm.create_puddle_file("p0", 2 * PAGE_SIZE).unwrap();
        assert!(path.exists());
        let (file, _) = pm.open_puddle_file("p0", 2 * PAGE_SIZE).unwrap();
        assert_eq!(file.metadata().unwrap().len(), (2 * PAGE_SIZE) as u64);
    }

    #[test]
    fn create_rejects_unaligned_and_zero_sizes() {
        let (_tmp, pm) = dir();
        assert!(pm.create_puddle_file("bad", 100).is_err());
        assert!(pm.create_puddle_file("bad", 0).is_err());
    }

    #[test]
    fn create_rejects_duplicate_names() {
        let (_tmp, pm) = dir();
        pm.create_puddle_file("dup", PAGE_SIZE).unwrap();
        assert!(pm.create_puddle_file("dup", PAGE_SIZE).is_err());
    }

    #[test]
    fn open_detects_size_mismatch() {
        let (_tmp, pm) = dir();
        pm.create_puddle_file("p", PAGE_SIZE).unwrap();
        assert!(pm.open_puddle_file("p", 2 * PAGE_SIZE).is_err());
    }

    #[test]
    fn list_and_delete_puddles() {
        let (_tmp, pm) = dir();
        pm.create_puddle_file("a", PAGE_SIZE).unwrap();
        pm.create_puddle_file("b", PAGE_SIZE).unwrap();
        assert_eq!(pm.list_puddles().unwrap(), vec!["a", "b"]);
        pm.delete_puddle_file("a").unwrap();
        assert_eq!(pm.list_puddles().unwrap(), vec!["b"]);
        assert!(!pm.puddle_exists("a"));
        assert!(pm.puddle_exists("b"));
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        use crate::faultio::{FaultPlan, FaultProfile};
        let tmp = tempfile::tempdir().unwrap();
        // 6% transient faults per class: plenty of injections across 150
        // operations, and (for this seed) never MAX_IO_RETRIES+1 in a row.
        let plan = FaultPlan::new(0xF00D, FaultProfile::transient(60_000));
        let pm = PmDir::open(tmp.path())
            .unwrap()
            .with_fault_plan(Arc::clone(&plan));
        for i in 0..50 {
            let name = format!("p{i}");
            pm.create_puddle_file(&name, PAGE_SIZE).unwrap();
            pm.write_meta("reg", format!("gen-{i}").as_bytes()).unwrap();
            assert_eq!(
                pm.read_meta("reg").unwrap().unwrap(),
                format!("gen-{i}").as_bytes()
            );
            pm.delete_puddle_file(&name).unwrap();
            assert!(!pm.puddle_exists(&name));
        }
        assert!(plan.injected() > 0, "30% rates must inject across 150 ops");
        assert!(
            pm.io_stats()
                .io_retries
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
    }

    #[test]
    fn enospc_surfaces_typed_and_counted() {
        use crate::faultio::{FaultPlan, FaultProfile};
        let tmp = tempfile::tempdir().unwrap();
        let plan = FaultPlan::new(
            1,
            FaultProfile {
                write_enospc_ppm: 1_000_000,
                ..FaultProfile::default()
            },
        );
        let pm = PmDir::open(tmp.path()).unwrap().with_fault_plan(plan);
        match pm.create_puddle_file("p", PAGE_SIZE) {
            Err(PmError::NoSpace(_)) => {}
            other => panic!("expected NoSpace, got {other:?}"),
        }
        assert!(!pm.puddle_exists("p"));
        assert_eq!(
            pm.io_stats()
                .enospc_rejections
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn meta_roundtrip_and_missing() {
        let (_tmp, pm) = dir();
        assert!(pm.read_meta("registry.json").unwrap().is_none());
        pm.write_meta("registry.json", b"{\"v\":1}").unwrap();
        assert_eq!(
            pm.read_meta("registry.json").unwrap().unwrap(),
            b"{\"v\":1}"
        );
        pm.write_meta("registry.json", b"{\"v\":2}").unwrap();
        assert_eq!(
            pm.read_meta("registry.json").unwrap().unwrap(),
            b"{\"v\":2}"
        );
    }
}
