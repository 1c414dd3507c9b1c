//! The driver's worker pool: the fan-out primitive behind `pool_map`.
//!
//! The driver distributes per-item work (file parses, `(unit, function)`
//! checks, summary waves, program-pass reruns) over a pool of scoped
//! threads. Every worker pulls the next task index from one shared
//! `fetch_add` counter, so load balances dynamically: a worker stuck on a
//! slow item simply takes fewer of the rest.
//!
//! Scheduling never affects output: results land in per-index slots and
//! are merged in index order regardless of which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Counters accumulated across every pool fan-out of a driver.
///
/// Retrieved (and reset) with `Driver::take_sched_stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Total task indices executed.
    pub tasks: u64,
    /// Nanoseconds workers spent waiting for their fan-out to join: for
    /// each worker, the time from finishing its last task to the join.
    pub idle_ns: u64,
    /// Tasks executed per worker slot, summed across fan-outs.
    pub tasks_per_worker: Vec<u64>,
}

impl SchedStats {
    /// Folds one fan-out's per-worker logs into the running totals.
    pub(crate) fn absorb(&mut self, logs: &[WorkerLog]) {
        if self.tasks_per_worker.len() < logs.len() {
            self.tasks_per_worker.resize(logs.len(), 0);
        }
        for (w, log) in logs.iter().enumerate() {
            self.tasks += log.executed;
            self.idle_ns += log.idle_ns;
            self.tasks_per_worker[w] += log.executed;
        }
    }
}

/// One worker's view of a single fan-out.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkerLog {
    pub(crate) executed: u64,
    pub(crate) idle_ns: u64,
}

/// Runs `exec` over every index in `0..n` using `workers` threads that
/// share one `fetch_add` counter, returning per-worker logs. `exec` is
/// called exactly once per index; no ordering is guaranteed (callers merge
/// by index slot).
pub(crate) fn run_pool<E>(n: usize, workers: usize, exec: E) -> Vec<WorkerLog>
where
    E: Fn(usize) + Sync,
{
    let next = AtomicUsize::new(0);
    let finished: Vec<(u64, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut executed = 0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        exec(i);
                        executed += 1;
                    }
                    (executed, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let joined = Instant::now();
    finished
        .into_iter()
        .map(|(executed, at)| WorkerLog {
            executed,
            idle_ns: joined.duration_since(at).as_nanos() as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_exactly_once() {
        for &(n, workers) in &[(0usize, 4usize), (1, 4), (7, 2), (64, 4), (1000, 8)] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let logs = run_pool(n, workers, |i| {
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "n={n} workers={workers}: some index ran 0 or 2+ times"
            );
            assert_eq!(logs.len(), workers);
            let total: u64 = logs.iter().map(|l| l.executed).sum();
            assert_eq!(total, n as u64);
        }
    }

    #[test]
    fn skewed_load_leaves_idle_time() {
        // Index 0 is slow: whichever worker takes it finishes last, and the
        // others wait at the join. Bounded spin so the test stays fast.
        let n = 64;
        let logs = run_pool(n, 4, |i| {
            if i == 0 {
                let mut acc = 0u64;
                for k in 0..2_000_000u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(k);
                }
                assert!(acc != 1); // keep the loop alive
            }
        });
        let mut stats = SchedStats::default();
        stats.absorb(&logs);
        assert!(stats.idle_ns > 0, "workers done early must wait: {stats:?}");
        assert_eq!(stats.tasks, n as u64);
        assert_eq!(stats.tasks_per_worker.iter().sum::<u64>(), n as u64);
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut stats = SchedStats::default();
        stats.absorb(&[
            WorkerLog {
                executed: 3,
                idle_ns: 10,
            },
            WorkerLog {
                executed: 5,
                idle_ns: 20,
            },
        ]);
        stats.absorb(&[WorkerLog {
            executed: 2,
            idle_ns: 5,
        }]);
        assert_eq!(stats.tasks, 10);
        assert_eq!(stats.idle_ns, 35);
        assert_eq!(stats.tasks_per_worker, vec![5, 5]);
    }
}
