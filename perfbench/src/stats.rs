//! Order statistics and the bookkeeping every workload shares.

use std::time::Instant;

/// Nearest-rank percentile: `sorted[ceil(q·n) − 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Seconds since `t` as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// CPU time of every thread of this process, in seconds. Unlike wall
/// time it excludes time the hypervisor stole from the virtual CPUs.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on) and the
    // clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Starts timing one operation on both clocks.
pub struct OpTimer {
    wall: Instant,
    cpu: f64,
}

/// Wall and process CPU time of one operation.
#[derive(Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl OpTimer {
    pub fn start() -> Self {
        let cpu = process_cpu_s();
        OpTimer {
            wall: Instant::now(),
            cpu,
        }
    }

    pub fn stop(self) -> Sample {
        let wall_s = secs(self.wall);
        Sample {
            wall_s,
            cpu_s: process_cpu_s() - self.cpu,
        }
    }
}

/// What an end-to-end run measured and checked.
#[derive(Default)]
pub struct Measured {
    /// Each set-up repetition.
    pub setups: Vec<Sample>,
    /// Every timed operation, in order.
    pub ops: Vec<Sample>,
    /// Index into `ops` where each whole pass over the fixed operation
    /// list starts.
    pub pass_starts: Vec<usize>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations that errored, returned a non-200 status or failed an
    /// output check; failures before the first operation or after the
    /// last one count once more.
    pub failed: u64,
    /// `attempted` when `failed` last grew: an operation fails once
    /// however many of its checks fail.
    failed_at: Option<u64>,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Digest of the per-operation counter snapshots of one pass.
    pub counters_digest: String,
    /// Extra lines for the human-readable summary.
    pub notes: Vec<String>,
}

impl Measured {
    /// Starts the next pass.
    pub fn begin_pass(&mut self) {
        self.pass_starts.push(self.ops.len());
    }

    pub fn passes(&self) -> usize {
        self.pass_starts.len()
    }

    /// Records one timed operation of the current pass.
    pub fn record(&mut self, timer: OpTimer) {
        self.ops.push(timer.stop());
        self.attempted += 1;
    }

    /// The operations of each pass.
    pub fn pass_ops(&self) -> Vec<&[Sample]> {
        let ends = self
            .pass_starts
            .iter()
            .skip(1)
            .copied()
            .chain([self.ops.len()]);
        self.pass_starts
            .iter()
            .zip(ends)
            .map(|(&a, b)| &self.ops[a..b])
            .filter(|p| !p.is_empty())
            .collect()
    }

    /// Records one failure.
    pub fn fail(&mut self, message: impl Into<String>) {
        if self.failed_at != Some(self.attempted) {
            self.failed += 1;
            self.failed_at = Some(self.attempted);
        }
        if self.failures.len() < 8 {
            self.failures.push(message.into());
        }
    }

    /// Records one failure when `ok` is false.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// `a` and `b` agree to a relative tolerance.
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    a == b || (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
