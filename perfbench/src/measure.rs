//! Clocks, exact percentiles, memory, scratch directories and the
//! benchmark's own span recorder.

use crate::Report;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A run times at least this many set-ups; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Nearest-rank percentile `p` (0–100) of unsorted samples.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn mean(total: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// What one round of an end-to-end run measured.
pub struct Round {
    /// Latency of each operation, µs.
    pub latencies_us: Vec<f64>,
    /// Queries coordinated.
    pub queries: usize,
    /// Seconds the operations took.
    pub busy_s: f64,
}

/// One end-to-end run. `setup` builds fresh inputs; `round(report,
/// inputs, n)` does round `n` — a fixed amount of work, its answers
/// checked and tallied outside its timing.
///
/// Every round gets inputs of its own from a timed `setup`, dropped
/// after it, so no database, cache or store outlives a round and one
/// unlucky build (its memory layout, its hash seeds) shapes one round,
/// not the run. The first tenth of `seconds` is warm-up: checked, not
/// recorded. Rounds then run until `seconds` have passed, and the run
/// reports the median over rounds of each round's p50, p90 and
/// throughput, so interference that hits one round moves one sample,
/// not the result. `setup_s` is the median set-up time of the timed
/// rounds, with more set-ups timed at the end if there were fewer than
/// [`SETUPS`] rounds.
pub fn end_to_end<T>(
    report: &mut Report,
    seconds: f64,
    mut setup: impl FnMut() -> T,
    mut round: impl FnMut(&mut Report, &T, usize) -> Round,
) {
    let mut timed_setup = || {
        let t0 = Instant::now();
        let inputs = setup();
        (inputs, t0.elapsed().as_secs_f64())
    };
    let mut n = 0;
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < seconds / 10.0 {
        round(report, &timed_setup().0, n);
        n += 1;
    }
    let (mut p50, mut p90, mut p99, mut rate) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut ops = 0;
    let start = Instant::now();
    while p50.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (inputs, setup_s) = timed_setup();
        setups.push(setup_s);
        let mut r = round(report, &inputs, n);
        drop(inputs);
        n += 1;
        ops += r.latencies_us.len();
        p50.push(percentile(&mut r.latencies_us, 50.0));
        p90.push(percentile(&mut r.latencies_us, 90.0));
        p99.push(percentile(&mut r.latencies_us, 99.0));
        rate.push(r.queries as f64 / r.busy_s);
    }
    let rounds = p50.len();
    while setups.len() < SETUPS {
        setups.push(timed_setup().1);
    }
    report.note(format!(
        "{rounds} rounds after {} warm-up, {ops} operations; per-round queries/s {rate:.1?}; \
         median per-round p99 {:.1} us; {} set-ups",
        n - rounds,
        median(&mut p99),
        setups.len()
    ));
    report.set("op_p50_us", median(&mut p50));
    report.set("op_p90_us", median(&mut p90));
    report.set("queries_per_s", median(&mut rate));
    report.set("setup_s", median(&mut setups));
}

/// Peak resident set size (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's scratch root: next to its executable, so inside the
/// build directory of the checkout it runs from.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .expect("executable has a directory")
        .join("perfbench-scratch")
}

/// A fresh directory, removed with everything in it on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = scratch_root().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch directory");
        ScratchDir(path)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One span: a call the benchmark made into a layer's public function.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (request) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory; written out once, at the end of the run.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

pub struct SpanId(usize);

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above is not inside.
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = now;
    }

    /// Time `f` as a span named `name`. The result passes through
    /// `black_box`, so the call is not optimised away when unused.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// `(count, total duration ns)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (usize, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns()))
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, t) = self.total(name);
        mean(t as f64, n)
    }

    /// Summed self time (duration minus the time covered by child
    /// spans) of the spans named `name`, in nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.dur_ns().saturating_sub(child[i]))
            .sum()
    }

    /// Write every span as one JSON object per line to
    /// `<scratch root>/../perfbench-trace/<file>` and return the path.
    pub fn write(&self, file: &str) -> PathBuf {
        let dir = scratch_root().with_file_name("perfbench-trace");
        std::fs::create_dir_all(&dir).expect("create trace directory");
        let path = dir.join(file);
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(&path, out).expect("write spans");
        path
    }
}
