//! Measurement plumbing shared by every workload: the seeded op-stream
//! generator, the percentile rule, process CPU time and peak memory read
//! from `/proc`, and the report the command prints.

use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64 finalizer: a bijective 64-bit mix.
#[must_use]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator. Op `i` of a stream seeded with `s`
/// draws from `Rng::for_op(s, i)`, so an op depends only on the seed and
/// its index — never on which client thread picked it up or when.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    /// The generator for op `index` of the stream seeded with `seed`.
    #[must_use]
    pub fn for_op(seed: u64, index: u64) -> Rng {
        Rng::new(seed ^ mix(index.wrapping_add(0x5EED)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform selectivity in `[lo, 1]`: most draws are selective,
    /// but every decade of the range is visited.
    pub fn selectivity(&mut self, lo: f64) -> f64 {
        lo.powf(1.0 - self.unit())
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles tried for the tail, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile in [`TAIL_PERCENTILES`] that has at least
/// [`TAIL_MIN_BEYOND`] samples strictly after its nearest-rank position,
/// with its value: `(percentile, value)`. `sorted` must be ascending.
/// Falls back to the median when even p50 has too few samples beyond it.
#[must_use]
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        if n - rank >= TAIL_MIN_BEYOND {
            return (p, sorted[rank - 1]);
        }
    }
    (50.0, median(sorted))
}

/// Process on-CPU seconds (user + system, all threads) from
/// `/proc/self/stat`, in clock ticks of 1/100 s.
#[must_use]
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's `VmHWM` to its current resident size (Linux 4.0
/// and later); `false` when the kernel refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Restricts this thread, and every thread it creates afterwards, to
/// the lowest-numbered CPU it may run on; returns that CPU, or `None`
/// when the kernel refused.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer of `size`
    // bytes that outlives the call; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let bit = mask[word].trailing_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer of `size` bytes
    // that outlives the call; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Wall and CPU time excluded from a measured window — spent checking
/// results against the reference evaluator between timed ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct Excluded {
    pub wall: Duration,
    pub cpu_s: f64,
}

impl Excluded {
    /// Runs `f`, adding its wall and CPU time to the exclusion.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, cpu) = (std::time::Instant::now(), process_cpu_seconds());
        let out = f();
        self.wall += t.elapsed();
        self.cpu_s += process_cpu_seconds() - cpu;
        out
    }
}

/// Length of one measurement window, in seconds. Throughput, median
/// latency, CPU per op and simulated I/O per op are medians over the
/// windows of a run, so a burst of interference from outside the process,
/// or one exceptionally expensive op, moves them less than it moves a
/// whole-run mean.
pub const WINDOW_S: f64 = 1.0;

/// Samples a tail window needs: p99 of 1000 samples has 10 beyond it.
pub const TAIL_WINDOW_SAMPLES: usize = 100 * TAIL_MIN_BEYOND;

/// The end-to-end measurements of one untraced run, aggregated window by
/// window as ops complete. Memory stays bounded by a few windows of
/// latencies whatever the run's length or throughput, so it adds next to
/// nothing to `peak_rss_mb`. Times are on the measured clock: seconds
/// since the window opened, with result checks excluded.
#[derive(Debug, Default)]
pub struct E2e {
    /// Ops attempted in the run.
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// Duration of each set-up repetition, in seconds.
    pub setups_s: Vec<f64>,
    /// Peak resident memory, read while no reference data is alive.
    pub peak_rss_mb: f64,
    /// Ops recorded.
    samples: u64,
    /// `(time, process CPU seconds)` of the last mark.
    last_mark: Option<(f64, f64)>,
    /// Latencies (ms) of the open window, and their simulated I/O (ms).
    open: Vec<f64>,
    open_io_ms: f64,
    /// Per closed window of at least half a [`WINDOW_S`] that completed an
    /// op: `[ops per second, median latency ms, CPU ms per op, simulated
    /// I/O ms per op]`.
    windows: Vec<[f64; 4]>,
    /// Latencies of the tail window being filled, and of the last filled
    /// one (a short remainder at the end of the run joins it).
    tail_open: Vec<f64>,
    tail_last: Vec<f64>,
    /// p99 of every filled tail window before `tail_last`.
    tails: Vec<f64>,
}

impl E2e {
    /// Records one completed op.
    pub fn record(&mut self, latency_ms: f64, sim_io_ms: f64) {
        self.samples += 1;
        self.open.push(latency_ms);
        self.open_io_ms += sim_io_ms;
    }

    /// The first call opens the first window at `t`. Later calls close the
    /// open window at `t` when a window has passed since the last mark, or
    /// always when `force` is set. `cpu` is called only when a mark is due.
    pub fn mark(&mut self, t: f64, force: bool, cpu: impl FnOnce() -> f64) {
        let Some((t0, c0)) = self.last_mark else {
            self.last_mark = Some((t, cpu()));
            return;
        };
        if !force && t - t0 < WINDOW_S {
            return;
        }
        let c1 = cpu();
        self.last_mark = Some((t, c1));
        let n = self.open.len() as f64;
        if t - t0 >= WINDOW_S / 2.0 && n > 0.0 {
            self.windows.push([
                n / (t - t0),
                median(&self.open),
                (c1 - c0) * 1e3 / n,
                self.open_io_ms / n,
            ]);
        }
        self.tail_open.append(&mut self.open);
        self.open_io_ms = 0.0;
        if self.tail_open.len() >= TAIL_WINDOW_SAMPLES {
            if !self.tail_last.is_empty() {
                self.tail_last.sort_by(f64::total_cmp);
                self.tails.push(tail(&self.tail_last).1);
            }
            std::mem::swap(&mut self.tail_last, &mut self.tail_open);
            self.tail_open.clear();
        }
    }

    /// `(percentile, ms, tail windows)`. Consecutive measurement windows
    /// are grouped into tail windows of at least [`TAIL_WINDOW_SAMPLES`]
    /// samples each (a short remainder joins the last group), and the
    /// result is the median of their p99s: a stall in one part of the run
    /// moves it less than it moves the run's own p99. A run too short for
    /// one tail window reports its own [`tail`] (with 0 windows).
    fn tail_latency(&self) -> (f64, f64, usize) {
        let mut last = [self.tail_last.as_slice(), self.tail_open.as_slice()].concat();
        last.sort_by(f64::total_cmp);
        let (p, ms) = tail(&last);
        if self.tail_last.is_empty() {
            return (p, ms, 0);
        }
        let tails = [self.tails.as_slice(), &[ms]].concat();
        (99.0, median(&tails), tails.len())
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one invocation prints.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// False when any op disagreed with the reference evaluator.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end report of an untraced run.
    #[must_use]
    pub fn from_e2e(e: &E2e, correct: bool) -> Report {
        let mut r = Report {
            attempted: e.attempted,
            failed: e.failed,
            correct,
            ..Report::default()
        };
        let of = |i: usize| median(&e.windows.iter().map(|w| w[i]).collect::<Vec<_>>());
        let (pct, tail_ms, tail_windows) = e.tail_latency();
        r.metric("throughput_ops", of(0), "ops/s");
        r.metric("latency_p50_ms", of(1), "ms");
        r.metric("latency_p99_ms", tail_ms, "ms");
        r.metric("cpu_ms_per_op", of(2), "ms");
        r.metric("sim_io_ms_per_op", of(3), "ms");
        r.metric("setup_s", median(&e.setups_s), "s");
        r.metric("peak_rss_mb", e.peak_rss_mb, "MB");
        r.note(format!(
            "latency samples: {} in {} windows of {WINDOW_S} s; p99 over {tail_windows} tail windows",
            e.samples,
            e.windows.len(),
        ));
        if pct < 99.0 {
            r.note(format!(
                "latency_p99_ms reports p{pct}: fewer than {TAIL_MIN_BEYOND} samples lie beyond p99"
            ));
        }
        r.note(format!(
            "error_rate = {} fraction ({} of {} ops failed or disagreed with the reference)",
            e.failed as f64 / e.attempted.max(1) as f64,
            e.failed,
            e.attempted
        ));
        r
    }

    /// Prints the notes and metrics, then the one-line JSON result last.
    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, 10 samples beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 999 samples: p99 is rank 990 with 9 beyond; p98 (rank 980)
        // has 19 beyond.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), (98.0, 980.0));
        // 100 samples: p90 is rank 90 with 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        for n in [25usize, 100, 333, 1000, 5000] {
            let v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let (_, value) = tail(&v);
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: {beyond} beyond {value}");
        }
    }

    #[test]
    fn streamed_tail_is_the_median_of_tail_window_p99s() {
        let mut e = E2e::default();
        e.mark(0.0, false, || 0.0);
        // Three 1-s windows of 1000, 1000 and 500 samples: two tail
        // windows, the last 500 joining the second.
        for (w, n, scale) in [(1.0, 1000, 1.0), (2.0, 1000, 2.0), (3.0, 500, 2.0)] {
            for i in 1..=n {
                e.record(f64::from(i) * scale, 1.0);
            }
            e.mark(w, false, || w);
        }
        assert_eq!(e.windows.len(), 3);
        assert_eq!(e.windows[0], [1000.0, 500.5, 1.0, 1.0]);
        // First tail window: p99 of 1..=1000 is 990. Second: 2, 4, ..,
        // 2000 and 2, 4, .., 1000; p99 (rank 1485 of 1500) is 1970.
        assert_eq!(e.tail_latency(), (99.0, (990.0 + 1970.0) / 2.0, 2));
        // Too few samples for one tail window: the run's own tail.
        let mut short = E2e::default();
        short.mark(0.0, false, || 0.0);
        (1..=100).for_each(|i| short.record(f64::from(i), 0.0));
        short.mark(0.4, true, || 0.0);
        assert!(
            short.windows.is_empty(),
            "a window under half a WINDOW_S is dropped"
        );
        assert_eq!(short.tail_latency(), (90.0, 90.0, 0));
    }

    #[test]
    fn tail_of_tiny_samples_is_the_median() {
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn op_generators_depend_only_on_seed_and_index() {
        let draw = |seed, i| {
            let mut r = Rng::for_op(seed, i);
            (r.next_u64(), r.below(7), r.selectivity(0.001))
        };
        assert_eq!(draw(3, 17), draw(3, 17));
        assert_ne!(draw(3, 17), draw(4, 17));
        assert_ne!(draw(3, 17), draw(3, 18));
        let s = Rng::new(9).selectivity(0.001);
        assert!((0.001..=1.0).contains(&s));
    }

    #[test]
    fn pinning_confines_new_threads_to_one_cpu() {
        let cpus = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            let child = std::thread::spawn(|| {
                std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default()
            });
            (cpu, child.join().expect("child thread ran"))
        });
        let (cpu, status) = cpus.join().expect("pinned thread ran");
        let cpu = cpu.expect("the kernel lets a thread narrow its own affinity");
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map(str::trim);
        assert_eq!(allowed, Some(cpu.to_string().as_str()));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu_seconds();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(60) {
            x = x.wrapping_add(mix(x));
        }
        std::hint::black_box(x);
        assert!(process_cpu_seconds() > before);
    }
}
