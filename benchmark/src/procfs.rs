//! Peak memory and CPU time of this process and its worker children,
//! read from `/proc`.

use std::fs;

/// `VmHWM` (peak resident set) in kB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
}

/// The fields of a `/proc/<pid>/stat` line after the command name,
/// which is parenthesised and may itself contain spaces or parentheses.
fn stat_fields(stat: &str) -> Option<Vec<&str>> {
    let close = stat.rfind(')')?;
    Some(stat[close + 1..].split_whitespace().collect())
}

/// Parent pid from a `/proc/<pid>/stat` line.
pub fn parse_stat_ppid(stat: &str) -> Option<u32> {
    stat_fields(stat)?.get(1)?.parse().ok()
}

/// User plus system CPU time in clock ticks from a `/proc/<pid>/stat`
/// line.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let f = stat_fields(stat)?;
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 for user space).
pub const TICKS_PER_SEC: f64 = 100.0;

/// Peak resident set of `pid` (this process when `None`) in MiB.
pub fn vmhwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let kb = parse_vmhwm_kb(&fs::read_to_string(path).ok()?)?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds `pid` has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / TICKS_PER_SEC)
}

/// Live child processes of this process (the service's workers).
pub fn children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut kids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| parse_stat_ppid(&s))
                == Some(me)
        })
        .collect();
    kids.sort_unstable();
    kids
}

/// Peak resident set of this process plus that of its largest child,
/// in MiB. Call before the children shut down.
pub fn peak_rss_mb() -> f64 {
    let own = vmhwm_mb(None).unwrap_or(0.0);
    let worker = children()
        .into_iter()
        .filter_map(|p| vmhwm_mb(Some(p)))
        .fold(0.0, f64::max);
    own + worker
}

/// Total CPU seconds used so far by this process's children.
pub fn children_cpu_seconds() -> f64 {
    children().into_iter().filter_map(cpu_seconds).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_is_parsed_from_status_text() {
        let status =
            "Name:\tbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(20480));
        assert_eq!(parse_vmhwm_kb("Name:\tx\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t garbage kB\n"), None);
    }

    #[test]
    fn own_vmhwm_is_readable() {
        let mb = vmhwm_mb(None).expect("/proc/self/status has VmHWM");
        assert!(mb > 0.0);
    }

    #[test]
    fn stat_fields_survive_odd_command_names() {
        let stat =
            "4242 (a (weird) name) S 17 4242 17 0 -1 4194560 100 0 0 0 25 7 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_stat_ppid(stat), Some(17));
        assert_eq!(parse_stat_cpu_ticks(stat), Some(32));
        assert_eq!(parse_stat_ppid("garbage"), None);
    }
}
