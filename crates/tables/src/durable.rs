//! Crash-safe file writes: tmp file + fsync + atomic rename.
//!
//! Every durable artifact in the pipeline (per-slot `YLT.bin` and
//! `MEASURES.txt`, run and shard manifests, the stage-1 disk tier) goes
//! through [`write_atomic`]. The contract is the classic one:
//!
//! 1. the bytes are written to a sibling temporary file in the *same*
//!    directory (so the final rename never crosses a filesystem),
//! 2. the temporary file is `sync_all`'d, so its contents are on stable
//!    storage before it can be observed under the final name,
//! 3. `rename(2)` swaps it into place — atomic on POSIX — and the
//!    parent directory is fsynced best-effort so the rename itself
//!    survives a power cut.
//!
//! A process killed at any byte boundary therefore leaves either the
//! previous file (or no file), never a half-written one. Readers only
//! have to handle "absent" and "complete"; "torn" cannot happen.
//!
//! Leftover `*.rptmp` files are the footprint of an interrupted write;
//! `is_tmp_path` identifies them and [`remove_stale_tmps`] sweeps a
//! directory. Temporary names carry the writer's `<pid>-<seq>`, and the
//! sweep skips the current process's: those are writes in flight on
//! other threads (a failed write removes its own temporary), not
//! leftovers. Another process's temporary cannot be told from a crashed
//! writer's, so it is swept — see [`remove_stale_tmps`].

#![expect(
    clippy::disallowed_methods,
    reason = "this module is the atomic-write protocol: its creates and writes \
              land in tmp files that are fsynced, then renamed"
)]

use riskpipe_types::RiskResult;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Suffix appended to in-flight temporary files.
pub const TMP_SUFFIX: &str = ".rptmp";

/// Process-local counter so concurrent writers targeting the same
/// final path never collide on the temporary name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_path_for(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string());
    path.with_file_name(format!("{name}.{pid}-{seq}{TMP_SUFFIX}"))
}

/// Whether `path` is an in-flight temporary from an interrupted
/// [`write_atomic`] (and therefore safe to delete).
fn is_tmp_path(path: &Path) -> bool {
    path.file_name()
        .map(|n| n.to_string_lossy().ends_with(TMP_SUFFIX))
        .unwrap_or(false)
}

/// Best-effort fsync of a directory, so a completed rename survives a
/// power cut. Ignored on platforms where directories cannot be synced.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Durably write `bytes` to `path`: tmp file in the same directory,
/// `sync_all`, atomic rename, parent-dir fsync. On any error the tmp
/// file is removed, the previous contents of `path` (if any) are
/// untouched, and the returned [`RiskError::Io`](riskpipe_types::RiskError::Io)
/// keeps the failure's [`std::io::ErrorKind`] with `path` leading its
/// message, so a failed write among many files says which one it was.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> RiskResult<()> {
    // Telemetry: one write span (key = payload bytes) wrapping the
    // whole protocol, with the two stable-storage syncs bracketed by
    // their own fsync spans. No-ops unless a recorder is installed.
    let _write_span = riskpipe_obs::span_key("durable.write", bytes.len() as u64);
    let tmp = tmp_path_for(path);
    let result = (|| -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        {
            let _fsync_span = riskpipe_obs::span_key("durable.fsync", bytes.len() as u64);
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    match result {
        Ok(()) => {
            if let Some(parent) = path.parent() {
                let _fsync_span = riskpipe_obs::span("durable.fsync_dir");
                sync_dir(parent);
            }
            riskpipe_obs::counter_add("durable.writes", 1);
            riskpipe_obs::counter_add("durable.bytes", bytes.len() as u64);
            riskpipe_obs::histogram_record(
                "durable.write_bytes",
                WRITE_BYTES_BOUNDS,
                bytes.len() as u64,
            );
            Ok(())
        }
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            let named = std::io::Error::new(e.kind(), format!("{}: {e}", path.display()));
            Err(named.into())
        }
    }
}

/// Fixed bucket bounds for the `durable.write_bytes` histogram (bytes;
/// last bucket is overflow). Fixed so snapshots are comparable across
/// runs and mergeable across registries.
const WRITE_BYTES_BOUNDS: &[u64] = &[
    1 << 10,  // 1 KiB
    16 << 10, // 16 KiB
    256 << 10,
    1 << 20, // 1 MiB
    16 << 20,
    256 << 20,
];

/// Whether `name` is a temporary this process created: `tmp_path_for`
/// names them `<final>.<pid>-<seq>.rptmp`.
fn is_own_tmp(name: &str) -> bool {
    name.strip_suffix(TMP_SUFFIX)
        .and_then(|stem| stem.rsplit_once('.'))
        .and_then(|(_, tag)| tag.split_once('-'))
        .is_some_and(|(pid, _)| pid.parse() == Ok(std::process::id()))
}

/// Remove leftover `*.rptmp` files in `dir` (non-recursive). Returns
/// how many were removed; a missing directory counts as zero.
///
/// Temporaries of the current process are left alone: a sweep racing
/// another thread's [`write_atomic`] between its create and its rename
/// would otherwise delete the file under it and fail that write. A
/// temporary of *another* process is removed whether that process
/// crashed or is still writing — in the second case its rename fails
/// with `NotFound` and its `write_atomic` returns the error.
pub fn remove_stale_tmps(dir: &Path) -> RiskResult<usize> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(ref e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let mut removed = 0;
    for entry in entries {
        let entry = entry?;
        let p = entry.path();
        if p.is_file() && is_tmp_path(&p) && !is_own_tmp(&entry.file_name().to_string_lossy()) {
            fs::remove_file(&p)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    fn temp_dir(tag: &str) -> PathBuf {
        static N: TestCounter = TestCounter::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "riskpipe-durable-test-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn writes_new_file() {
        let dir = temp_dir("new");
        let p = dir.join("a.bin");
        write_atomic(&p, b"hello").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"hello");
        // No tmp residue.
        assert_eq!(remove_stale_tmps(&dir).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replaces_existing_file() {
        let dir = temp_dir("replace");
        let p = dir.join("a.bin");
        write_atomic(&p, b"old").unwrap();
        write_atomic(&p, b"new contents").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"new contents");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn creates_missing_parents() {
        let dir = temp_dir("parents");
        let p = dir.join("x/y/z.bin");
        write_atomic(&p, b"deep").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"deep");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_is_identified_and_swept() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let stale = dir.join(format!("YLT.bin.999-0{TMP_SUFFIX}"));
        fs::write(&stale, b"torn write").unwrap();
        let keep = dir.join("YLT.bin");
        fs::write(&keep, b"intact").unwrap();
        assert!(is_tmp_path(&stale));
        assert!(!is_tmp_path(&keep));
        assert_eq!(remove_stale_tmps(&dir).unwrap(), 1);
        assert!(!stale.exists());
        assert!(keep.exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_spares_this_process_and_takes_every_other() {
        let dir = temp_dir("ownpid");
        fs::create_dir_all(&dir).unwrap();
        let own = tmp_path_for(&dir.join("stage1-00aa.rps"));
        let foreign = dir.join(format!(
            "stage1-00aa.rps.{}-0{TMP_SUFFIX}",
            std::process::id().wrapping_add(1)
        ));
        // Not `<pid>-<seq>` shaped: nothing this process could have
        // created, so nothing it may still be writing.
        let odd = dir.join(format!("{}{TMP_SUFFIX}", std::process::id()));
        for p in [&own, &foreign, &odd] {
            fs::write(p, b"in flight").unwrap();
        }
        assert_eq!(remove_stale_tmps(&dir).unwrap(), 2);
        assert!(own.exists() && !foreign.exists() && !odd.exists());
        // The spared temporary is still the writer's to finish.
        fs::rename(&own, dir.join("stage1-00aa.rps")).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_records_telemetry_when_installed() {
        let dir = temp_dir("telemetry");
        let telemetry = riskpipe_obs::Telemetry::new();
        {
            let _ctx = riskpipe_obs::install(&telemetry);
            write_atomic(&dir.join("a.bin"), b"0123456789").unwrap();
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.metrics().counter("durable.writes"), 1);
        assert_eq!(snap.metrics().counter("durable.bytes"), 10);
        assert_eq!(snap.spans_named("durable.write").count(), 1);
        assert_eq!(snap.spans_named("durable.fsync").count(), 1);
        let hist = snap
            .metrics()
            .histogram("durable.write_bytes")
            .expect("histogram registered");
        assert_eq!(hist.total, 1);
        assert_eq!(hist.sum, 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_of_missing_dir_is_zero() {
        let dir = temp_dir("absent");
        assert_eq!(remove_stale_tmps(&dir).unwrap(), 0);
    }

    #[test]
    fn failed_write_leaves_previous_contents() {
        let dir = temp_dir("failkeep");
        let p = dir.join("a.bin");
        write_atomic(&p, b"previous").unwrap();
        // Make the final path a directory so the rename must fail.
        let clash = dir.join("b.bin");
        fs::create_dir_all(&clash).unwrap();
        match write_atomic(&clash, b"x") {
            Err(riskpipe_types::RiskError::Io(e)) => {
                let msg = e.to_string();
                assert!(msg.starts_with(&clash.display().to_string()), "{msg}");
                assert_eq!(e.kind(), std::io::ErrorKind::IsADirectory, "{msg}");
            }
            other => panic!("expected an i/o error, got {other:?}"),
        }
        // The original file is untouched and no tmp residue remains.
        assert_eq!(fs::read(&p).unwrap(), b"previous");
        assert_eq!(remove_stale_tmps(&dir).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
