//! CPU placement of the embedded workload. `fanout_tick` runs each
//! episode on one CPU, alternating between two.
//!
//! On a shared host each virtual CPU is slowed by other tenants' work on
//! its physical core, by up to 1.7x for seconds at a time and mostly
//! independently of the other CPU. A session pinned to one CPU ticks on
//! the sequential path (`TickMode::Auto` sees one worker), so a tick
//! waits on that CPU alone rather than on the slower of two, and a run
//! that alternates between the CPUs is less often slowed throughout.
//! A thread's CPU mask is inherited by the threads it spawns later.

use std::io;

/// The two CPUs a run alternates between: the first two this process
/// may use, or the same one twice when it may use only one.
#[derive(Debug, Clone, Copy)]
pub struct CpuPair([usize; 2]);

impl CpuPair {
    pub fn choose() -> io::Result<Self> {
        let status = std::fs::read_to_string("/proc/self/status")?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .ok_or_else(|| io::Error::other("no Cpus_allowed_list in /proc/self/status"))?;
        let cpus = parse_cpu_list(list.trim())
            .ok_or_else(|| io::Error::other(format!("cannot read CPU list {list:?}")))?;
        let first = *cpus
            .first()
            .ok_or_else(|| io::Error::other("no CPU allowed"))?;
        Ok(Self([first, cpus.get(1).copied().unwrap_or(first)]))
    }

    /// The CPU window `i` of a run runs on.
    pub fn for_window(&self, i: usize) -> usize {
        self.0[i % 2]
    }
}

/// Parses a kernel CPU list such as `0-3,6,8-9`.
pub fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => cpus.extend(a.parse::<usize>().ok()?..=b.parse::<usize>().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and whatever it spawns from now on) to
/// `cpu`.
pub fn pin_current_thread(cpu: usize) -> io::Result<()> {
    // The kernel's default `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    *mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("CPU {cpu} out of range")))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and the kernel only reads it; pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0"), Some(vec![0]));
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("1,3-5,8"), Some(vec![1, 3, 4, 5, 8]));
        assert_eq!(parse_cpu_list("x"), None);
    }

    #[test]
    fn windows_alternate_between_the_pair() {
        let pair = CpuPair([2, 5]);
        assert_eq!(
            (0..4).map(|i| pair.for_window(i)).collect::<Vec<_>>(),
            vec![2, 5, 2, 5]
        );
    }
}
