//! Process-level readings from `/proc`: CPU time of all threads and the
//! resident-set high-water mark.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (Linux `USER_HZ`, fixed at 100 on every mainstream
/// architecture).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process, summed over all its
/// threads (live and exited). `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) is parenthesized and may hold spaces;
    // fields after it are space-separated. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process in MB (10⁶ bytes).
/// `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive_and_cpu_time_grows() {
        let before = cpu_seconds().expect("linux /proc");
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_seconds().expect("linux /proc");
        assert!(after > before, "busy loop must show CPU time");
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
