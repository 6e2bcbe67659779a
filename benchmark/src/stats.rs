//! Sample summaries and the `/proc` probes behind the CPU and memory metrics.

use dlrv_json::{object, Json};
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn nanos_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median and quartiles of a sample, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the one the repository driver applies to
/// whole runs), so spreads printed here compare with the driver's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Summarizes `samples` (at least one; a single sample is its own quartiles).
    pub fn of(samples: &[f64]) -> Quartiles {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let m = sorted.len();
        if m == 1 {
            return Quartiles {
                q1: sorted[0],
                median: sorted[0],
                q3: sorted[0],
            };
        }
        let cut = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Quartiles::of(samples).median
}

/// The `q`-quantile (0..=1) of an unsorted nanosecond sample, in place.
pub fn quantile_nanos(samples: &mut [u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "no samples to summarize");
    let k = ((samples.len() - 1) as f64 * q).round() as usize;
    let (_, value, _) = samples.select_nth_unstable(k);
    f64::from(*value)
}

/// User + system CPU seconds of this process, all threads, plus — with
/// `children` — those of child processes already waited for (`monitord` fleets).
pub fn cpu_seconds(children: bool) -> f64 {
    // Fields 14..=17 of /proc/self/stat are utime, stime, cutime, cstime in clock
    // ticks; field 2 (the command) may contain spaces, so split after its `)`.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<u64> = after
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse().ok())
        .collect();
    let ticks: u64 = fields.iter().take(if children { 4 } else { 2 }).sum();
    // USER_HZ is 100 on every Linux ABI; there is no libc here to ask sysconf.
    ticks as f64 / 100.0
}

fn status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Resident set size now, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Resident-set high-water mark, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Resets the kernel's `VmHWM` high-water mark to the current RSS.  Returns false
/// where the kernel refuses (then growth is measured from process start).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Logical cores available to this process.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Host and build facts every output document carries.
pub fn host_facts() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim())
        .to_string();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    object([
        ("logical_cores", Json::from(logical_cores())),
        ("cpu_model", Json::from(cpu_model)),
        (
            "build_profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", Json::from(commit)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_python_exclusive_rule() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&ten);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(Quartiles::of(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn proc_probes_read_plausible_values() {
        assert!(rss_mb() > 0.5);
        assert!(peak_rss_mb() >= rss_mb() * 0.5);
        let before = cpu_seconds(false);
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds(true) >= before);
    }
}
