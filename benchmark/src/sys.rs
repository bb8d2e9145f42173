//! What the benchmark asks of the operating system: a scratch directory
//! that goes away, peak memory, CPU time.

use std::path::{Path, PathBuf};

/// Where page files, logs and traces go, relative to the directory the
/// command runs from (the root of a checkout).
pub const OUT_DIR: &str = "benchmark/out";

/// A per-process scratch directory under [`OUT_DIR`], removed on drop —
/// so also when a check fails or a workload returns an error.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create() -> std::io::Result<ScratchDir> {
        let path = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        // A killed earlier run with this pid may have left files behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Remove a store's page file and log, if present.
pub fn remove_store(page: &Path) {
    let _ = std::fs::remove_file(page);
    let _ = std::fs::remove_file(xmlstore::wal_path_for(page));
}

/// Bytes a file occupies; 0 when it does not exist.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset `VmHWM` to the current resident size, so the peak that follows
/// belongs to the measured phase and not to set-up. Where the kernel
/// refuses, the peak stays that of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// User plus system CPU seconds of this process, all threads. The tick
/// is the 100 Hz `USER_HZ` every Linux ABI reports in `/proc`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let Some(after) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
