//! The host side of a run: where its files go, peak memory, core count and
//! build profile, the cross-run count check, the result records, and the
//! comparison of two sets of records.

use crate::metrics::{median, Outcome};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Build profile of this binary.
pub const PROFILE: &str = if cfg!(debug_assertions) {
    "debug"
} else {
    "release"
};

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// The benchmark's output directory, inside its own package directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Creates the output directory and makes it the working directory, so
/// socket paths stay short relative names whatever the checkout path.
pub fn enter_out_dir() -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    std::env::set_current_dir(dir)
}

static SOCKETS: AtomicUsize = AtomicUsize::new(0);

/// A fresh Unix socket path (relative to the output directory).
pub fn socket_path(tag: &str) -> String {
    let seq = SOCKETS.fetch_add(1, Ordering::Relaxed);
    format!("{tag}-{}-{seq}.sock", std::process::id())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a of the running binary: deterministic counts are compared only
/// between runs of the same build.
fn exe_fingerprint() -> std::io::Result<u64> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }))
}

/// Parses `name<TAB>value` lines.
fn read_pairs(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Checks this run's deterministic counts against earlier runs of the same
/// build, workload and seed, then stores the union.
pub fn check_counts_across_runs(workload: &str, seed: u64, o: &mut Outcome) {
    let fingerprint = match exe_fingerprint() {
        Ok(f) => f,
        Err(e) => return o.check("read own binary", Err(e.to_string())),
    };
    let path = out_dir().join(format!("counts-{workload}-s{seed}-{fingerprint:016x}.tsv"));
    let mut stored = std::fs::read_to_string(&path)
        .map(|t| read_pairs(&t))
        .unwrap_or_default();
    for (&name, &value) in &o.counts.clone() {
        match stored.get(name) {
            Some(prev) => o.check(
                &format!("{name} repeats across runs"),
                if *prev == value.to_string() {
                    Ok(())
                } else {
                    Err(format!("earlier run counted {prev}, this run {value}"))
                },
            ),
            None => {
                stored.insert(name.to_string(), value.to_string());
            }
        }
    }
    let text: String = stored.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = written {
        o.check("store counts", Err(e.to_string()));
    }
}

/// Writes the run's result record: host facts, verdict and every metric.
pub fn write_record(workload: &str, seed: u64, trace: bool, o: &Outcome) -> std::io::Result<()> {
    let mut text = String::new();
    let _ = writeln!(text, "workload\t{workload}");
    let _ = writeln!(text, "seed\t{seed}");
    let _ = writeln!(text, "trace\t{}", u8::from(trace));
    let _ = writeln!(text, "host_cores\t{}", cores());
    let _ = writeln!(text, "build_profile\t{PROFILE}");
    let _ = writeln!(text, "correct\t{}", o.failed == 0);
    for (name, v) in &o.values {
        let _ = writeln!(text, "metric.{name}\t{v}");
    }
    let name = format!("result-{workload}-s{seed}-t{}.tsv", u8::from(trace));
    std::fs::write(out_dir().join(name), text)
}

/// One directory of result records.
struct RecordSet {
    cores: Vec<String>,
    profiles: Vec<String>,
    /// `(workload, metric)` → values.
    values: BTreeMap<(String, String), Vec<f64>>,
}

fn load(dir: &Path) -> Result<RecordSet, String> {
    let mut set = RecordSet {
        cores: Vec::new(),
        profiles: Vec::new(),
        values: BTreeMap::new(),
    };
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_record = path
            .file_name()
            .and_then(|f| f.to_str())
            .is_some_and(|f| f.starts_with("result-") && f.ends_with(".tsv"));
        if !is_record {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rec = read_pairs(&text);
        let field = |k: &str| {
            rec.get(k)
                .cloned()
                .ok_or_else(|| format!("{}: no {k}", path.display()))
        };
        set.cores.push(field("host_cores")?);
        set.profiles.push(field("build_profile")?);
        let workload = field("workload")?;
        for (k, v) in &rec {
            if let (Some(metric), Ok(v)) = (k.strip_prefix("metric."), v.parse::<f64>()) {
                set.values
                    .entry((workload.clone(), metric.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    if set.cores.is_empty() {
        return Err(format!("{}: no result records", dir.display()));
    }
    Ok(set)
}

/// The single value every record agrees on.
fn agreed(values: &[String], what: &str, dir: &Path) -> Result<String, String> {
    let first = &values[0];
    if values.iter().any(|v| v != first) {
        return Err(format!("{}: records disagree on {what}", dir.display()));
    }
    Ok(first.clone())
}

/// Compares the medians of two directories of result records. Refuses
/// (`Err`) when their core counts or build profiles differ.
pub fn compare(a: &Path, b: &Path) -> Result<String, String> {
    let (sa, sb) = (load(a)?, load(b)?);
    let cores = (
        agreed(&sa.cores, "host_cores", a)?,
        agreed(&sb.cores, "host_cores", b)?,
    );
    if cores.0 != cores.1 {
        return Err(format!(
            "refusing to compare: {} cores vs {} cores",
            cores.0, cores.1
        ));
    }
    let profiles = (
        agreed(&sa.profiles, "build_profile", a)?,
        agreed(&sb.profiles, "build_profile", b)?,
    );
    if profiles.0 != profiles.1 {
        return Err(format!(
            "refusing to compare: {} build vs {} build",
            profiles.0, profiles.1
        ));
    }
    let mut out = format!(
        "{:<22} {:<30} {:>14} {:>14} {:>8}\n",
        "workload", "metric", "median A", "median B", "B/A"
    );
    for (key, va) in &sa.values {
        let Some(vb) = sb.values.get(key) else {
            continue;
        };
        let (ma, mb) = (median(va).unwrap_or(0.0), median(vb).unwrap_or(0.0));
        let ratio = if ma == 0.0 { f64::NAN } else { mb / ma };
        let _ = writeln!(
            out,
            "{:<22} {:<30} {ma:>14.6} {mb:>14.6} {ratio:>8.3}",
            key.0, key.1
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(dir: &Path, name: &str, cores: usize, wall: f64) {
        std::fs::create_dir_all(dir).expect("mkdir");
        let text = format!(
            "workload\tw\nhost_cores\t{cores}\nbuild_profile\trelease\nmetric.wall_s\t{wall}\n"
        );
        std::fs::write(dir.join(name), text).expect("write record");
    }

    #[test]
    fn compare_refuses_different_core_counts() {
        let root = out_dir().join(format!("selftest-compare-{}", std::process::id()));
        let (a, b, c) = (root.join("a"), root.join("b"), root.join("c"));
        record(&a, "result-1.tsv", 2, 1.0);
        record(&a, "result-2.tsv", 2, 3.0);
        record(&a, "result-3.tsv", 2, 2.0);
        record(&b, "result-1.tsv", 2, 4.0);
        record(&c, "result-1.tsv", 1, 4.0);
        let table = compare(&a, &b).expect("same core count compares");
        assert!(table.contains("wall_s"), "{table}");
        assert!(table.contains("2.000"), "{table}");
        let refused = compare(&a, &c).expect_err("different core counts");
        assert!(refused.contains("2 cores vs 1 cores"), "{refused}");
        std::fs::remove_dir_all(root).expect("cleanup");
    }
}
