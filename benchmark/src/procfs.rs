//! What the kernel reports about this process, read from `/proc`. Each
//! reader is a pure parser over the file's text plus a thin wrapper that
//! reads the file, so the parsers are tested on fixture strings.

use std::path::Path;

/// Linux reports process times in clock ticks; `USER_HZ` is 100 on every
/// architecture the kernel supports.
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds from the text of `/proc/<pid>/stat`,
/// threads that already exited included. The command name (field 2) may
/// contain spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// A `key:  <number> [kB]` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches of one task.
pub fn parse_ctx_switches(status: &str) -> Option<u64> {
    Some(
        parse_status_field(status, "voluntary_ctxt_switches")?
            + parse_status_field(status, "nonvoluntary_ctxt_switches")?,
    )
}

/// First field of `/proc/loadavg`.
pub fn parse_loadavg_1m(loadavg: &str) -> Option<f64> {
    loadavg.split_ascii_whitespace().next()?.parse().ok()
}

/// Filesystem type of the longest mount point in the text of
/// `/proc/mounts` that is a prefix of `path`.
pub fn parse_fs_of(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_ascii_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fstype)| fstype.to_string())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

pub fn cpu_s() -> f64 {
    parse_cpu_s(&read("/proc/self/stat")).unwrap_or(0.0)
}

/// High-water mark of resident memory, MiB.
pub fn peak_rss_mb() -> f64 {
    parse_status_field(&read("/proc/self/status"), "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Context switches summed over the threads alive now. `/proc` keeps no
/// process-wide total, so switches of threads that already exited (the
/// blocking runtime's per-connection handlers) are not in it.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("status")).ok())
        .filter_map(|s| parse_ctx_switches(&s))
        .sum()
}

pub fn loadavg_1m() -> f64 {
    parse_loadavg_1m(&read("/proc/loadavg")).unwrap_or(0.0)
}

pub fn fs_of(dir: &Path) -> String {
    let abs = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    parse_fs_of(&read("/proc/mounts"), &abs).unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_seconds_survive_a_hostile_command_name() {
        let stat = "4242 (peace) bench) R) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    1234 566 0 0 20 0 5 0 100 1000000 300 18446744073709551615";
        assert_eq!(parse_cpu_s(stat), Some(18.0));
        assert_eq!(parse_cpu_s("garbage"), None);
        assert_eq!(parse_cpu_s("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tpeace-benchmark\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\n\
                      Threads:\t5\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_field(status, "Threads"), Some(5));
        assert_eq!(parse_status_field(status, "VmSwap"), None);
        assert_eq!(parse_ctx_switches(status), Some(127));
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg_1m("0.42 0.75 1.49 2/87 21921\n"), Some(0.42));
        assert_eq!(parse_loadavg_1m(""), None);
    }

    #[test]
    fn filesystem_is_the_longest_matching_mount() {
        let mounts = "overlay / overlay rw 0 0\nproc /proc proc rw 0 0\n\
                      /dev/vdb /root ext4 rw 0 0\ntmpfs /root/repo/tmp tmpfs rw 0 0\n";
        let fs = |p: &str| parse_fs_of(mounts, Path::new(p));
        assert_eq!(fs("/root/repo/benchmark/out").as_deref(), Some("ext4"));
        assert_eq!(fs("/root/repo/tmp/x").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/rootless").as_deref(), Some("overlay"));
    }
}
