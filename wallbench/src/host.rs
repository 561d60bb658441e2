//! What the run needs from its host: a fingerprint printed with every
//! result, the peak resident set, and a scratch directory that lives
//! only as long as the run.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The machine and toolchain a result was measured on.
pub struct Fingerprint {
    /// `available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or `none` outside a repository.
    pub commit: String,
}

impl Fingerprint {
    /// Probes the host. Every field degrades to `unknown`/`none` rather
    /// than failing the run.
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into());
        // Keep git from walking above the checkout into an unrelated repository.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(Path::to_path_buf))
            .unwrap_or_default();
        let commit = stdout_of(
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .env("GIT_CEILING_DIRECTORIES", ceiling),
        )
        .unwrap_or_else(|| "none".into());
        Self {
            nproc,
            cpu,
            rustc,
            commit,
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
            self.nproc,
            json_string(&self.cpu),
            json_string(&self.rustc),
            json_string(&self.commit)
        )
    }
}

/// Trimmed standard output of `cmd`, if it ran and succeeded.
fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Where the benchmark keeps its files, under the directory it runs in.
pub const OUT_DIR: &str = ".wallbench";

/// A fresh directory for this run's stores, removed when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.wallbench/tmp-<pid>`, emptying any leftover of the same name.
    pub fn create() -> std::io::Result<Self> {
        let path = Path::new(OUT_DIR).join(format!("tmp-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory costs disk, not correctness.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
