//! Shared measurement helpers for `bench_e2e`: one percentile, one Zipf
//! sampler, one JSON builder, one machine-facts block, and the CPU pin.
//!
//! Everything here is independent of the workloads; `main.rs` and its
//! modules hold what is specific to the federate benchmark.

#![warn(missing_docs)]

use std::process::Command;

use rand::rngs::StdRng;
use rand::Rng;
use serde_json::{Number, Value};

/// The `p`-th percentile (0–100) of an ascending slice, nearest-rank on the
/// upper side; `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() * p / 100).min(sorted.len() - 1)]
}

/// Sorts `samples` in place and returns their median.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile(samples, 50)
}

/// The smallest sample; `0.0` for an empty slice.
pub fn best_low(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The largest sample; `0.0` for an empty slice.
pub fn best_high(samples: &[f64]) -> f64 {
    samples.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// The arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// How many consecutive slices of about `slice` items `len` items make, and
/// how long each is (a remainder shorter than a slice is left out).
fn slices(len: usize, slice: usize) -> (usize, usize) {
    let count = (len / slice.max(1)).max(1);
    (count, len / count)
}

/// The lowest p50 among consecutive slices of about `slice` samples: a
/// phase is cut into stretches short enough for one to fall between two
/// interference bursts.
pub fn best_slice_p50(samples: &[f64], slice: usize) -> f64 {
    let (_, size) = slices(samples.len(), slice);
    if size == 0 {
        return 0.0;
    }
    let p50s = samples
        .chunks_exact(size)
        .map(|chunk| median(&mut chunk.to_vec()));
    p50s.reduce(f64::min).unwrap_or(0.0)
}

/// The highest completion rate (per second) among consecutive slices of
/// about `slice` completions; `done_s` holds ascending completion times.
pub fn best_slice_rate(done_s: &[f64], slice: usize) -> f64 {
    let (count, size) = slices(done_s.len(), slice);
    let rate = |i: usize| {
        let from = if i == 0 { 0.0 } else { done_s[i * size - 1] };
        size as f64 / (done_s[(i + 1) * size - 1] - from)
    };
    if size == 0 {
        return 0.0;
    }
    (0..count).map(rate).reduce(f64::max).unwrap_or(0.0)
}

/// A Zipf(s = 1.0) sampler over `n` ranks via inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over ranks `0..n` (rank 0 the most popular).
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / (rank + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len().saturating_sub(1))
    }
}

/// Builds a JSON object from `(key, value)` pairs, in order.
pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A JSON float.
pub fn float(value: f64) -> Value {
    Value::Number(Number::F64(value))
}

/// A JSON non-negative integer.
pub fn uint(value: u64) -> Value {
    Value::Number(Number::U64(value))
}

/// A JSON string.
pub fn text(value: impl Into<String>) -> Value {
    Value::String(value.into())
}

/// One reported metric: `{"value": …, "unit": …}`.
pub fn metric(value: f64, unit: &str) -> Value {
    object([("value", float(value)), ("unit", text(unit))])
}

/// The ALU canary: a fixed xorshift loop, milliseconds. It moves with clock
/// speed and preemption only.
pub fn spin_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..1_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The memory canary: a fixed pointer chase through 32 MiB, far past the
/// caches, so it moves when a co-tenant takes cache or memory bandwidth.
#[derive(Debug)]
pub struct MemWalk {
    next: Vec<u32>,
}

impl MemWalk {
    /// Builds the 32 MiB single-cycle permutation (Sattolo's shuffle).
    pub fn new() -> Self {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0x3e3a_11c5);
        let mut next: Vec<u32> = (0..8 * 1024 * 1024).collect();
        for i in (1..next.len()).rev() {
            next.swap(i, rng.gen_range(0..i));
        }
        MemWalk { next }
    }

    /// One fixed walk, milliseconds.
    pub fn walk_ms(&self) -> f64 {
        let t = std::time::Instant::now();
        let mut at = 0u32;
        for _ in 0..50_000 {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for MemWalk {
    fn default() -> Self {
        Self::new()
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Words in the affinity mask handed to the kernel: 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs this thread may run on, ascending.
pub fn cpus_allowed() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread — and every thread it spawns afterwards — to the
/// first CPU it is allowed on. Returns the CPUs allowed afterwards.
///
/// Call before any other thread exists: client, reactor and worker then
/// share one CPU, so a round trip never measures where the scheduler put
/// them.
pub fn pin_to_first_cpu() -> Vec<usize> {
    if let Some(&first) = cpus_allowed().first() {
        let mut mask = [0u64; MASK_WORDS];
        mask[first / 64] = 1 << (first % 64);
        // SAFETY: `mask` is a live buffer of exactly the byte length passed;
        // pid 0 names the calling thread. A refusal leaves the affinity as
        // it was, which the caller sees in the returned list.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
    cpus_allowed()
}

/// CPU time this process has consumed so far, all threads, in seconds.
pub fn process_cpu_seconds() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The machine block every report carries: what ran the numbers.
pub fn machine_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    object([
        ("nproc", uint(nproc as u64)),
        ("cpus_allowed", uint(cpus_allowed().len() as u64)),
        ("commit", text(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", text(command_line("rustc", &["--version"]))),
        ("os", text(std::env::consts::OS)),
        ("arch", text(std::env::consts::ARCH)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&v, 50), 3.0);
        assert_eq!(percentile(&v, 99), 4.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn slices_pick_the_best_stretch() {
        let samples = [9.0, 9.0, 9.0, 1.0, 2.0, 3.0, 9.0];
        assert_eq!(best_slice_p50(&samples, 3), 2.0);
        assert_eq!(best_slice_p50(&samples, 100), 9.0);
        // Four completions: two in the first second, two in the next tenth.
        let done = [0.5, 1.0, 1.05, 1.1];
        assert!((best_slice_rate(&done, 2) - 20.0).abs() < 1e-9);
        assert!((best_slice_rate(&done, 100) - 4.0 / 1.1).abs() < 1e-9);
        assert_eq!(best_slice_rate(&[], 2), 0.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = Zipf::new(8);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 8];
        for _ in 0..4000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[3] && counts[3] > counts[7]);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        assert_eq!(pin_to_first_cpu().len(), 1);
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
