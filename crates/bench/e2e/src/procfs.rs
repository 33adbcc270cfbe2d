//! Process CPU time and peak resident memory from `/proc/self`.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// architecture the kernel supports; `sysconf` would need libc.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process, exited threads
/// included, from the text of `/proc/<pid>/stat`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after the last `)`. utime and stime are fields
    // 14 and 15, so the 12th and 13th after the state letter.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// `VmHWM` (peak resident set) in MB from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .as_deref()
        .and_then(parse_cpu_seconds)
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_peak_rss_mb)
        .expect("/proc/self/status carries VmHWM on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_survive_a_hostile_command_name() {
        let stat = "4242 (e2e (x) y) R 1 4242 4242 0 -1 4194304 812 0 0 0 \
                    1234 56 0 0 20 0 3 0 123456 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(12.9));
        assert_eq!(parse_cpu_seconds("garbage"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm() {
        let status = "Name:\te2e\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_peak_rss_mb("Name:\te2e\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
