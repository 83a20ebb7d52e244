//! Closed-loop operation accounting: every attempted operation ends as
//! completed (with its wall and simulated time), failed (an error or a
//! failed correctness check) or rejected (refused at admission). Failed
//! and rejected operations both count against `failed_fraction`.
//!
//! Wall-clock figures are taken per measurement window and reported as
//! the median over windows, so a few seconds of interference from other
//! work on a shared machine move them little.

use crate::stats::{self, Tail};

/// Outcome tally and latency samples of one measured run.
#[derive(Debug, Clone, Default)]
pub struct OpLog {
    /// Operations started.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
    /// Operations refused at admission (also counted in `failed`).
    pub rejected: u64,
    /// Wall time of each completed operation, ms.
    pub wall_ms: Vec<f64>,
    /// Simulated GPU time of each completed operation, ms.
    pub sim_ms: Vec<f64>,
    /// When each completed operation finished, s since the run started.
    pub done_at_s: Vec<f64>,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
}

/// Failure reasons kept for the log.
const KEPT_REASONS: usize = 8;

impl OpLog {
    /// A completed operation that finished `done_at_s` into the run.
    pub fn complete(&mut self, wall_ms: f64, sim_ms: f64, done_at_s: f64) {
        self.attempted += 1;
        self.wall_ms.push(wall_ms);
        self.sim_ms.push(sim_ms);
        self.done_at_s.push(done_at_s);
    }

    /// An operation that errored or failed a correctness check.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < KEPT_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// An operation refused at admission.
    pub fn reject(&mut self, reason: impl Into<String>) {
        self.fail(reason);
        self.rejected += 1;
    }

    /// Marks an already-completed operation as failing a later check
    /// (bit-identity checks made after the timed loop). Its latency
    /// sample stays: the work was done and timed.
    pub fn fail_completed(&mut self, reason: impl Into<String>) {
        self.failed += 1;
        if self.reasons.len() < KEPT_REASONS {
            self.reasons.push(reason.into());
        }
    }

    /// Folds another client's log into this one.
    pub fn merge(&mut self, other: OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejected += other.rejected;
        self.wall_ms.extend(other.wall_ms);
        self.sim_ms.extend(other.sim_ms);
        self.done_at_s.extend(other.done_at_s);
        for r in other.reasons {
            if self.reasons.len() < KEPT_REASONS {
                self.reasons.push(r);
            }
        }
    }

    /// Failed plus rejected over attempted (0 with nothing attempted).
    pub fn failed_fraction(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Mean simulated ms per completed operation.
    pub fn sim_ms_per_op(&self) -> f64 {
        stats::mean(&self.sim_ms)
    }

    /// Per-window throughput, latency and CPU figures, each the median
    /// over `windows`. An operation belongs to the window it finished in.
    /// A window without completions counts as zero throughput and is left
    /// out of the latency and CPU medians.
    pub fn windowed(&self, windows: &[Window]) -> Windowed {
        let mut throughput = Vec::new();
        let (mut p50, mut tails, mut cpu) = (Vec::new(), Vec::<Tail>::new(), Vec::new());
        for w in windows {
            let lat: Vec<f64> = self
                .done_at_s
                .iter()
                .zip(&self.wall_ms)
                .filter(|(t, _)| **t >= w.start_s && **t < w.end_s)
                .map(|(_, l)| *l)
                .collect();
            throughput.push(lat.len() as f64 / (w.end_s - w.start_s));
            if let Some(t) = stats::tail(&lat) {
                p50.push(stats::median(&lat));
                cpu.push(w.cpu_s * 1e3 / lat.len() as f64);
                tails.push(t);
            }
        }
        let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        Windowed {
            windows: windows.len(),
            throughput: stats::median(&throughput),
            latency_p50_ms: stats::median(&p50),
            latency_tail_ms: stats::median(&tail_values),
            tail: tails.get(tails.len() / 2).copied(),
            cpu_ms_per_op: stats::median(&cpu),
            throughput_quartiles: stats::quartiles(&throughput),
        }
    }
}

/// A measurement window: its span in seconds since the run started, and
/// the process CPU seconds spent in it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Start, s.
    pub start_s: f64,
    /// End (exclusive), s.
    pub end_s: f64,
    /// Process CPU seconds (all threads) within the window.
    pub cpu_s: f64,
}

/// Medians over windows of the per-window end-to-end figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Windows measured.
    pub windows: usize,
    /// Completed operations per second.
    pub throughput: f64,
    /// Median operation latency, ms.
    pub latency_p50_ms: f64,
    /// Tail latency by the rule of [`stats::tail`], ms.
    pub latency_tail_ms: f64,
    /// The tail reading of a middle window (which percentile, how many
    /// samples), for the log.
    pub tail: Option<Tail>,
    /// Process CPU ms per completed operation.
    pub cpu_ms_per_op: f64,
    /// First and third quartiles of the per-window throughput.
    pub throughput_quartiles: Option<(f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_failed_and_rejected_ops_add_up() {
        let mut log = OpLog::default();
        log.complete(2.0, 0.5, 0.1);
        log.complete(4.0, 1.5, 0.2);
        log.fail("gate residual 1e-3 > 1e-6");
        log.reject("QueueFull");
        assert_eq!(log.attempted, 4);
        assert_eq!(log.failed, 2);
        assert_eq!(log.rejected, 1);
        assert_eq!(log.failed_fraction(), 0.5);
        assert_eq!(log.wall_ms, vec![2.0, 4.0]);
        assert_eq!(log.sim_ms_per_op(), 1.0);
        assert_eq!(log.reasons.len(), 2);
    }

    #[test]
    fn a_late_check_failure_keeps_the_latency_sample() {
        let mut log = OpLog::default();
        log.complete(3.0, 1.0, 0.5);
        log.fail_completed("factors differ from compute");
        assert_eq!(log.attempted, 1);
        assert_eq!(log.failed, 1);
        assert_eq!(log.wall_ms.len(), 1);
        assert_eq!(log.failed_fraction(), 1.0);
    }

    #[test]
    fn merging_client_logs_sums_counts_and_samples() {
        let mut a = OpLog::default();
        a.complete(1.0, 0.1, 0.0);
        let mut b = OpLog::default();
        b.complete(2.0, 0.2, 0.0);
        b.reject("QueueFull");
        a.merge(b);
        assert_eq!(a.attempted, 3);
        assert_eq!(a.failed, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.wall_ms, vec![1.0, 2.0]);
        assert_eq!(OpLog::default().failed_fraction(), 0.0);
    }

    #[test]
    fn windows_take_medians_and_count_stalls_as_zero() {
        let mut log = OpLog::default();
        // Window 0: 4 ops of 10 ms; window 1: 2 ops of 40 ms; window 2:
        // nothing finished; window 3: 4 ops of 10 ms.
        for t in [0.1, 0.2, 0.3, 0.4] {
            log.complete(10.0, 0.0, t);
        }
        for t in [1.2, 1.7] {
            log.complete(40.0, 0.0, t);
        }
        for t in [3.1, 3.2, 3.3, 3.9] {
            log.complete(10.0, 0.0, t);
        }
        let w = |i: usize, cpu_s: f64| Window {
            start_s: i as f64,
            end_s: i as f64 + 1.0,
            cpu_s,
        };
        let out = log.windowed(&[w(0, 0.08), w(1, 0.08), w(2, 0.0), w(3, 0.08)]);
        assert_eq!(out.windows, 4);
        // Per-window throughput 4, 2, 0, 4 → median 3.
        assert_eq!(out.throughput, 3.0);
        // Per-window p50 10, 40, 10 → 10; the stalled window has none.
        assert_eq!(out.latency_p50_ms, 10.0);
        assert_eq!(out.latency_tail_ms, 10.0);
        // CPU per op 20, 40, 20 ms → 20.
        assert_eq!(out.cpu_ms_per_op, 20.0);
        let empty = OpLog::default().windowed(&[]);
        assert_eq!(empty.throughput, 0.0);
        assert_eq!(empty.tail, None);
    }
}
