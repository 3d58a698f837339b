//! Std-only process and host accounting from `/proc`.
//!
//! The parsers are pure functions over the file contents, so they are
//! tested on fixture strings; the `read_*` wrappers do the I/O.

use std::collections::BTreeMap;

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ`
/// is part of the Linux userspace ABI and is 100 on every supported
/// architecture.
pub const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU of a process, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTicks {
    pub user: u64,
    pub sys: u64,
}

impl CpuTicks {
    /// Ticks spent between `earlier` and `self`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }

    pub fn total_secs(self) -> f64 {
        (self.user + self.sys) as f64 / TICKS_PER_SEC
    }

    pub fn sys_secs(self) -> f64 {
        self.sys as f64 / TICKS_PER_SEC
    }
}

/// Parse `utime` and `stime` (fields 14 and 15) from a
/// `/proc/<pid>/stat` line. The command name (field 2) is wrapped in
/// parentheses and may itself contain spaces or parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTicks> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: field 3 (state) is index 0, so utime (14)
    // is index 11 and stime (15) index 12.
    let mut fields = rest.split_whitespace().skip(11);
    let user = fields.next()?.parse().ok()?;
    let sys = fields.next()?.parse().ok()?;
    Some(CpuTicks { user, sys })
}

/// What the benchmark reads from a `/proc/<pid>/status` file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusInfo {
    /// Peak resident set size (`VmHWM`), KiB. Only the process-level
    /// file carries it.
    pub vm_hwm_kb: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

/// Parse a `/proc/<pid>/status` (or per-thread status) file.
pub fn parse_status(status: &str) -> StatusInfo {
    let mut info = StatusInfo::default();
    for line in status.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let number = || {
            value
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key {
            "VmHWM" => info.vm_hwm_kb = number(),
            "voluntary_ctxt_switches" | "nonvoluntary_ctxt_switches" => {
                info.ctx_switches += number();
            }
            _ => {}
        }
    }
    info
}

/// Host-wide CPU time from the aggregate `cpu` line of `/proc/stat`,
/// in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// Sum of every state's ticks.
    pub total: u64,
    /// Ticks the hypervisor gave to other guests while this one
    /// wanted to run.
    pub steal: u64,
}

impl HostCpu {
    /// Share of host CPU time stolen between `earlier` and `self`.
    pub fn steal_frac_since(self, earlier: HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parse the aggregate `cpu` line of `/proc/stat`: user nice system
/// idle iowait irq softirq steal guest guest_nice. Guest time is
/// already counted in user and nice, so it is left out of the total.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let states = values.get(..8)?;
    Some(HostCpu {
        total: states.iter().sum(),
        steal: states[7],
    })
}

pub fn read_self_cpu() -> CpuTicks {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu(&s))
        .unwrap_or_default()
}

pub fn read_self_status() -> StatusInfo {
    std::fs::read_to_string("/proc/self/status")
        .map(|s| parse_status(&s))
        .unwrap_or_default()
}

/// Parse the on-CPU nanoseconds (first field) of a `schedstat` file.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// What one thread has used so far: context switches and on-CPU
/// nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadUse {
    pub ctx_switches: u64,
    pub cpu_ns: u64,
}

impl ThreadUse {
    pub fn since(self, earlier: ThreadUse) -> ThreadUse {
        ThreadUse {
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
        }
    }
}

fn read_thread_use(dir: &std::path::Path) -> ThreadUse {
    let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
    ThreadUse {
        ctx_switches: parse_status(&read("status")).ctx_switches,
        cpu_ns: parse_schedstat_ns(&read("schedstat")).unwrap_or(0),
    }
}

/// What the calling thread has used so far.
pub fn read_this_thread() -> ThreadUse {
    read_thread_use(std::path::Path::new("/proc/thread-self"))
}

/// What every live thread of this process has used, by thread id.
/// Threads that exit between two snapshots take their counts with
/// them, so short-lived threads measure themselves with
/// [`read_this_thread`].
pub fn read_tasks() -> BTreeMap<u64, ThreadUse> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        if let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) {
            out.insert(tid, read_thread_use(&entry.path()));
        }
    }
    out
}

/// Use by threads alive at `after` since `before`; a thread that
/// started in between counts from zero.
pub fn tasks_between(
    before: &BTreeMap<u64, ThreadUse>,
    after: &BTreeMap<u64, ThreadUse>,
) -> ThreadUse {
    after.iter().fold(ThreadUse::default(), |acc, (tid, now)| {
        let d = now.since(before.get(tid).copied().unwrap_or_default());
        ThreadUse {
            ctx_switches: acc.ctx_switches + d.ctx_switches,
            cpu_ns: acc.cpu_ns + d.cpu_ns,
        }
    })
}

pub fn read_host_cpu() -> HostCpu {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_host_cpu(&s))
        .unwrap_or_default()
}

/// A snapshot of the process and host counters one phase is charged
/// against.
#[derive(Debug, Clone)]
pub struct Usage {
    pub cpu: CpuTicks,
    pub host: HostCpu,
    pub tasks: BTreeMap<u64, ThreadUse>,
}

impl Usage {
    pub fn now() -> Usage {
        Usage {
            cpu: read_self_cpu(),
            host: read_host_cpu(),
            tasks: read_tasks(),
        }
    }

    /// What the process used since `self`.
    pub fn elapsed(&self) -> UsageDelta {
        let now = Usage::now();
        UsageDelta {
            cpu: now.cpu.since(self.cpu),
            steal_frac: now.host.steal_frac_since(self.host),
            live: tasks_between(&self.tasks, &now.tasks),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct UsageDelta {
    /// Process user and system time, every thread included.
    pub cpu: CpuTicks,
    pub steal_frac: f64,
    /// Context switches and on-CPU time of threads still alive at the
    /// end (nanosecond resolution, unlike `cpu`).
    pub live: ThreadUse,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_command() {
        // A command name with spaces and a parenthesis must not shift
        // the fields.
        let stat = "4242 (perf bench) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 \
                    731 52 0 0 20 0 5 0 123456 1000000 2500 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some(CpuTicks { user: 731, sys: 52 }));
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_reads_peak_rss_and_both_switch_kinds() {
        let status = "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\n\
                      VmRSS:\t  100000 kB\nThreads:\t7\n\
                      voluntary_ctxt_switches:\t150\nnonvoluntary_ctxt_switches:\t25\n";
        assert_eq!(
            parse_status(status),
            StatusInfo {
                vm_hwm_kb: 123_456,
                ctx_switches: 175
            }
        );
        assert_eq!(parse_status(""), StatusInfo::default());
    }

    #[test]
    fn host_cpu_sums_states_and_reads_steal() {
        let stat = "cpu  100 5 50 800 10 1 4 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\nintr 1 2\n";
        let cpu = parse_host_cpu(stat).expect("parses");
        assert_eq!(cpu.total, 100 + 5 + 50 + 800 + 10 + 1 + 4 + 30);
        assert_eq!(cpu.steal, 30);
        let later = HostCpu {
            total: cpu.total + 200,
            steal: cpu.steal + 50,
        };
        assert!((later.steal_frac_since(cpu) - 0.25).abs() < 1e-12);
        assert_eq!(cpu.steal_frac_since(cpu), 0.0);
        assert_eq!(parse_host_cpu("intr 1 2\n"), None);
    }

    #[test]
    fn schedstat_reads_on_cpu_nanoseconds() {
        assert_eq!(parse_schedstat_ns("298611 1200 17\n"), Some(298_611));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn task_delta_counts_new_threads_from_zero() {
        let used = |ctx_switches, cpu_ns| ThreadUse {
            ctx_switches,
            cpu_ns,
        };
        let before = BTreeMap::from([(1, used(10, 100)), (2, used(5, 50))]);
        let after = BTreeMap::from([(1, used(14, 160)), (3, used(6, 30))]);
        // Thread 1 used 4 and 60, thread 3 is new, thread 2 exited.
        assert_eq!(tasks_between(&before, &after), used(10, 90));
    }
}
