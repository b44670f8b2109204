//! What the host contributes to a run: CPU time of this process,
//! hypervisor steal, peak memory, and the identity of the code measured.
//!
//! Everything here reads Linux `/proc`; on a host without it the
//! benchmark stops with an error instead of printing made-up numbers.

use std::io;
use std::path::Path;

fn read(path: impl AsRef<Path>) -> io::Result<String> {
    std::fs::read_to_string(path)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// CPU time, in nanoseconds, of every thread alive in this process: the
/// first field of each `/proc/self/task/<tid>/schedstat`. A thread that
/// exits drops out of the sum, so a phase reads this while every thread
/// that worked in it is still alive.
pub fn cpu_ns() -> io::Result<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir("/proc/self/task")? {
        let path = entry?.path().join("schedstat");
        // a thread may exit between listing and reading; it then has
        // nothing left to contribute
        let Ok(text) = read(&path) else { continue };
        let ns = text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| bad("unreadable schedstat"))?;
        total += ns;
    }
    Ok(total)
}

/// Whole-machine CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct CpuJiffies {
    steal: u64,
    total: u64,
}

pub fn cpu_jiffies() -> io::Result<CpuJiffies> {
    let text = read("/proc/stat")?;
    let line = text.lines().next().ok_or_else(|| bad("empty /proc/stat"))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse::<u64>().map_err(|_| bad("unreadable /proc/stat")))
        .collect::<io::Result<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user time, so it is not added again
    if fields.len() < 8 {
        return Err(bad("short /proc/stat cpu line"));
    }
    Ok(CpuJiffies {
        steal: fields[7],
        total: fields[..8].iter().sum(),
    })
}

/// Steal jiffies over all jiffies between two readings.
pub fn steal_share(from: CpuJiffies, to: CpuJiffies) -> f64 {
    let total = to.total.saturating_sub(from.total);
    if total == 0 {
        return 0.0;
    }
    to.steal.saturating_sub(from.steal) as f64 / total as f64
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let text = read("/proc/self/status")?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| bad("no VmHWM in /proc/self/status"))?;
    Ok(kb as f64 / 1024.0)
}

/// The logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"none"` outside a git work tree.
pub fn git_rev() -> String {
    let head = match read(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = read(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of the library sources (`Cargo.toml`, `Cargo.lock`,
/// `src/` and `crates/`, paths sorted), so a run outside a git work tree
/// still names the code it measured.
pub fn source_digest() -> io::Result<String> {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect_files(Path::new(root), &mut files)?;
    }
    files.sort();
    let mut h = crate::stats::Fnv::new();
    for f in &files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(f)?);
    }
    Ok(format!("{:016x}", h.finish()))
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let meta = std::fs::symlink_metadata(path)?;
    if meta.is_dir() {
        for entry in std::fs::read_dir(path)? {
            collect_files(&entry?.path(), out)?;
        }
    } else if meta.is_file() {
        out.push(path.to_path_buf());
    }
    Ok(())
}
