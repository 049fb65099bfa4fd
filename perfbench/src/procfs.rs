//! Host counters read from `/proc`: process and per-thread CPU time, the
//! machine's steal time and its load average.
//!
//! CPU times come from the `utime`/`stime` fields of `stat`, in clock ticks
//! of `USER_HZ`, which the kernel fixes at 100 on every mainstream
//! architecture (10 ms per tick).

use std::fs;
use std::time::Duration;

const TICK: Duration = Duration::from_millis(10);

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Splits a `stat` line into the command name and the fields after it. The
/// name is parenthesised and may itself contain spaces or parentheses, so it
/// ends at the last `)`.
fn split_stat(line: &str) -> Option<(&str, Vec<&str>)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    Some((&line[open + 1..close], line[close + 1..].split_whitespace().collect()))
}

/// `utime + stime` of one `stat` line. After the name, field 0 is the state,
/// so `utime` (field 14 of the whole line) sits at index 11.
fn stat_cpu(line: &str) -> Result<(String, Duration), String> {
    let parse = || -> Option<(String, Duration)> {
        let (name, fields) = split_stat(line)?;
        let ticks = fields.get(11)?.parse::<u32>().ok()? + fields.get(12)?.parse::<u32>().ok()?;
        Some((name.to_string(), TICK * ticks))
    };
    parse().ok_or_else(|| format!("malformed stat line: {line}"))
}

/// CPU time (user + system, all threads) of this process so far.
pub fn process_cpu() -> Result<Duration, String> {
    Ok(stat_cpu(&read("/proc/self/stat")?)?.1)
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Result<Duration, String> {
    Ok(stat_cpu(&read("/proc/thread-self/stat")?)?.1)
}

/// CPU time of every live thread of this process, by thread name.
pub fn threads_cpu() -> Result<Vec<(String, Duration)>, String> {
    let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("cannot list /proc/self/task: {e}"))?;
    let mut threads = Vec::new();
    for entry in dir {
        let path = entry.map_err(|e| format!("cannot list /proc/self/task: {e}"))?.path().join("stat");
        // A thread that exited between the listing and the read is skipped.
        if let Ok(line) = fs::read_to_string(&path) {
            threads.push(stat_cpu(&line)?);
        }
    }
    Ok(threads)
}

/// Sums the CPU time of the threads whose name starts with `prefix`.
pub fn cpu_of(threads: &[(String, Duration)], prefix: &str) -> Duration {
    threads.iter().filter(|(name, _)| name.starts_with(prefix)).map(|(_, cpu)| *cpu).sum()
}

/// The machine-wide CPU tick counters of `/proc/stat`: steal and total.
#[derive(Copy, Clone, Debug)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn read() -> Result<HostTicks, String> {
        let text = read("/proc/stat")?;
        let line = text.lines().find(|l| l.starts_with("cpu ")).ok_or("no cpu line in /proc/stat")?;
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already included in user time.
        let ticks: Vec<u64> = line.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
        if ticks.len() < 8 {
            return Err(format!("malformed cpu line in /proc/stat: {line}"));
        }
        Ok(HostTicks { steal: ticks[7], total: ticks.iter().sum() })
    }

    /// Share of the machine's CPU time stolen by the hypervisor since
    /// `earlier`.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The one-minute load average.
pub fn loadavg() -> Result<f64, String> {
    let text = read("/proc/loadavg")?;
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("malformed /proc/loadavg: {text}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_name_may_contain_spaces_and_parentheses() {
        let line = "42 (p4db (x) 1) S 1 42 42 0 -1 4194560 100 0 0 0 7 3 0 0 20 0 5 0";
        let (name, cpu) = stat_cpu(line).unwrap();
        assert_eq!(name, "p4db (x) 1");
        assert_eq!(cpu, TICK * 10);
    }

    #[test]
    fn own_counters_are_readable() {
        assert!(process_cpu().is_ok());
        assert!(thread_cpu().is_ok());
        assert!(!threads_cpu().unwrap().is_empty());
        let a = HostTicks::read().unwrap();
        assert!((0.0..=1.0).contains(&HostTicks::read().unwrap().steal_share_since(&a)));
        assert!(loadavg().unwrap() >= 0.0);
    }
}
