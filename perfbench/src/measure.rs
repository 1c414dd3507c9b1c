//! Timing, summary statistics, memory and host facts.

use std::time::Instant;

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The median of `v` (mean of the two middle values for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set size of process `pid` (`"self"` for this process) in
/// MB, from the kernel's high-water mark. `None` where `/proc` is absent.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What the host offers and what the benchmark uses.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (also honours CPU quotas).
    pub available_parallelism: usize,
    /// The `--jobs` every measured check runs with.
    pub jobs: usize,
}

impl Host {
    /// Probes the host. `jobs` never exceeds either core count.
    pub fn probe() -> Host {
        let available_parallelism = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let nproc = affinity_cpus().unwrap_or(available_parallelism);
        Host {
            nproc,
            available_parallelism,
            jobs: nproc.min(available_parallelism).max(1),
        }
    }

    /// One line for the log.
    pub fn describe(&self) -> String {
        let label = if self.jobs > self.nproc {
            " (oversubscribed: more workers than cores)"
        } else {
            ""
        };
        format!(
            "host: nproc={} available_parallelism={} jobs={}{label}",
            self.nproc, self.available_parallelism, self.jobs
        )
    }
}

/// Counts the CPUs in this process's affinity mask (`Cpus_allowed_list`).
fn affinity_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    (n > 0).then_some(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn host_never_oversubscribes() {
        let h = Host::probe();
        assert!(h.jobs >= 1 && h.jobs <= h.nproc && h.jobs <= h.available_parallelism);
    }
}
