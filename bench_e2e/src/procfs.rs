//! What the kernel says about this process, read as text from `/proc`:
//! CPU time of the process and of single threads, context switches, and
//! the resident-set high-water mark. No libc, no `unsafe`.

use std::fs;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`): 100 on
/// every Linux ABI; `sysconf` would need libc.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// `utime` and `stime` (fields 14 and 15) of a `stat` line. The command
/// name (field 2) may itself hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<Cpu> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(Cpu {
        user_s: utime as f64 / TICKS_PER_S,
        sys_s: stime as f64 / TICKS_PER_S,
    })
}

/// The number after `key:` in a `status` file (`VmHWM:   1234 kB`).
pub fn parse_status_u64(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

fn read_cpu(path: &str) -> Cpu {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

/// CPU time of the whole process, exited threads included.
pub fn process_cpu() -> Cpu {
    read_cpu("/proc/self/stat")
}

/// CPU time of the calling thread.
pub fn thread_cpu() -> Cpu {
    read_cpu("/proc/thread-self/stat")
}

/// Thread ids of the process, ascending. The kernel hands ids out in
/// increasing order, so threads spawned after a snapshot sort after it in
/// their spawn order.
pub fn task_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// One thread's CPU time and context switches so far; `None` once it has
/// exited.
pub fn task_sample(tid: u32) -> Option<(Cpu, u64)> {
    let cpu = parse_stat_cpu(&fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?)?;
    let status = fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    let switches = parse_status_u64(&status, "voluntary_ctxt_switches")?
        + parse_status_u64(&status, "nonvoluntary_ctxt_switches")?;
    Some((cpu, switches))
}

/// Seconds the hypervisor ran something else while a CPU of this machine
/// had work (the `steal` column of the first line of `/proc/stat`).
pub fn parse_steal_s(stat: &str) -> Option<f64> {
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: u64 = line.split_ascii_whitespace().nth(7)?.parse().ok()?;
    Some(ticks as f64 / TICKS_PER_S)
}

pub fn host_steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_s(&s))
        .unwrap_or(0.0)
}

/// Bytes a socket may queue for its reader before the kernel drops what
/// arrives (`SO_RCVBUF` of a socket nobody tuned); the stock 208 KiB where
/// the file cannot be read.
pub fn rmem_default() -> u64 {
    fs::read_to_string("/proc/sys/net/core/rmem_default")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(212_992)
}

/// Resident-set high-water mark, MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_u64(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Reset the high-water mark to the current resident set (`5` is the
/// kernel's "reset peak RSS" command). Returns whether the kernel took
/// it; where it does not, every lap reports the run's peak so far.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 269 0 0 20 0 5 0 12345 1000000 250 18446744073709551615";
        let cpu = parse_stat_cpu(stat).unwrap();
        assert_eq!(cpu.user_s, 7.31);
        assert_eq!(cpu.sys_s, 2.69);
        assert_eq!(cpu.total_s(), 10.0);
        assert!(parse_stat_cpu("no parenthesis here").is_none());
        assert!(parse_stat_cpu("1 (short) R 1 2").is_none());
    }

    #[test]
    fn cpu_since_subtracts_fieldwise() {
        let a = Cpu {
            user_s: 1.0,
            sys_s: 0.5,
        };
        let b = Cpu {
            user_s: 3.0,
            sys_s: 0.75,
        };
        assert_eq!(
            b.since(&a),
            Cpu {
                user_s: 2.0,
                sys_s: 0.25
            }
        );
    }

    #[test]
    fn status_values_are_found_by_exact_key() {
        let status = "Name:\tbench_e2e\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\n\
                      voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(parse_status_u64(status, "VmHWM"), Some(123_456));
        assert_eq!(
            parse_status_u64(status, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(
            parse_status_u64(status, "nonvoluntary_ctxt_switches"),
            Some(5)
        );
        assert_eq!(parse_status_u64(status, "VmRSS"), None);
        // A key that is only a prefix of the line's key must not match.
        assert_eq!(parse_status_u64(status, "Vm"), None);
    }

    #[test]
    fn steal_is_the_eighth_column_of_the_cpu_line() {
        let stat =
            "cpu  1468680 0 358260 1980319 7735 0 16670 15344 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_s(stat), Some(153.44));
        assert_eq!(parse_steal_s("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal_s("cpu 1 2 3\n"), None);
    }

    #[test]
    fn live_proc_reads_do_not_fail_on_linux() {
        assert!(process_cpu().total_s() >= 0.0);
        assert!(!task_ids().is_empty());
        assert!(peak_rss_mb() > 0.0);
        assert!(rmem_default() > 0);
    }
}
