//! Process memory probes (Linux `/proc`-based; `None` elsewhere).

/// Peak resident set size of this process in bytes, from the `VmHWM` line of
/// `/proc/self/status` (a high-water mark maintained by the kernel — it never
/// decreases, which is exactly the bounded-memory observable soak tests need).
///
/// Returns `None` on platforms without procfs or when parsing fails; callers
/// treat that as "not measured" and report 0.  The value measures the host, so
/// no results document carries it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Parses the `VmHWM:    12345 kB` line out of a `/proc/<pid>/status` document.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_procfs_status_document() {
        let doc = "Name:\tmonitord\nVmPeak:\t  123 kB\nVmHWM:\t   2048 kB\nThreads:\t3\n";
        assert_eq!(parse_vm_hwm(doc), Some(2048 * 1024));
        assert_eq!(parse_vm_hwm("Name: x\n"), None);
    }

    #[test]
    fn live_probe_reports_a_plausible_peak() {
        // On Linux CI this must succeed and be at least a megabyte.
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 1 << 20, "implausible peak RSS: {bytes}");
        }
    }
}
