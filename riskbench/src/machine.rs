//! What the benchmark reads from the machine it runs on: core count,
//! CPU model, process memory and CPU time — and the one scratch
//! directory everything it writes lives under.

use crate::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pool width every workload runs at: the machine's parallelism capped
/// at 4 (the shipped fixtures hard-code 4 and oversubscribe a 2-core
/// box; a wider pool than 4 would make results from big machines
/// incomparable with the sandbox trajectory).
pub fn pool_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// First `key` line of a `/proc`-style `key: value` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Peak resident set of this process in MB (`VmHWM`); `None` where
/// `/proc` is not available.
pub fn peak_rss_mb() -> Option<f64> {
    let field = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = field.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used;
/// `None` where `/proc` is not available. Linux reports these fields
/// in 100 Hz ticks on every mainstream configuration.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name (which may itself
    // contain spaces): state is field 3, utime 14, stime 15.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// The machine descriptor every result document carries.
pub fn descriptor() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name").map_or(Json::Null, Json::Str),
        ),
        ("rustc", rustc.map_or(Json::Null, Json::Str)),
        ("pool_threads", Json::Num(pool_threads() as f64)),
    ])
}

/// The per-process scratch root: every spill, disk tier and shuffle
/// work directory of a run lives under it, and dropping the guard
/// removes it — also when a workload failed. It sits beside the
/// running executable (inside the build directory), so the benchmark
/// writes nothing outside its checkout, and `TMPDIR` points at it so
/// the temp directories the product crates create on their own
/// (`WarehouseSink`, the shuffle runtime) land there too.
#[derive(Debug)]
pub struct ScratchRoot {
    dir: PathBuf,
    next: AtomicU64,
}

impl ScratchRoot {
    /// Create the root and point `TMPDIR` at it. Call once, before any
    /// thread is spawned.
    pub fn create() -> std::io::Result<ScratchRoot> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("riskbench-tmp-{}", std::process::id()));
        // A previous process with a recycled pid may have been killed
        // before its guard ran.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        std::env::set_var("TMPDIR", &dir);
        Ok(ScratchRoot {
            dir,
            next: AtomicU64::new(0),
        })
    }

    /// A path under the root no earlier call returned (not created).
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.dir.join(format!("{tag}-{n}"))
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_probes_read_this_process() {
        assert!(pool_threads() >= 1 && pool_threads() <= 4);
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(cpu_seconds().unwrap() >= 0.0);
        }
    }
}
