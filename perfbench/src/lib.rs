//! The repository benchmark: three seeded workloads driven through the
//! public API of the coordination crates, with end-to-end metrics
//! measured with tracing off and per-layer metrics from a separate
//! traced run.
//!
//! Every call into the program goes through [`api`], one thin function
//! per layer entry point, so a renamed API is a one-line fix there.
//! Inputs are built in [`inputs`] from the public `coord-gen`
//! generators and the `--seed` argument. Correctness is checked after
//! each timed region, never inside it, and every failed check counts in
//! [`Report::failed`].

pub mod api;
pub mod catalog;
mod consistent_batch;
mod inputs;
mod measure;
mod online_keystone;
mod scc_batch;

use catalog::{MetricSpec, END_TO_END, PER_LAYER};
use std::fmt::Write as _;

/// The named workloads of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OnlineKeystone,
    SccBatch,
    ConsistentBatch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OnlineKeystone,
        Workload::SccBatch,
        Workload::ConsistentBatch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OnlineKeystone => "online_keystone",
            Workload::SccBatch => "scc_batch",
            Workload::ConsistentBatch => "consistent_batch",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One benchmark run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed region of an end-to-end run.
    pub seconds: f64,
    /// `false`: end-to-end metrics with tracing off. `true`: the traced
    /// per-layer run.
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt one answer before it is checked (self-test of the
    /// checks: the run must then report a failure).
    pub corrupt: bool,
}

/// The result of one run: operation counts and the metrics of the
/// requested kind, every one of them present.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(spec, value, measured)`: `measured` is false for a metric of a
    /// layer this workload does not exercise, which reads 0.
    pub metrics: Vec<(&'static MetricSpec, f64, bool)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    fn new(trace: bool) -> Self {
        let specs = if trace { PER_LAYER } else { END_TO_END };
        Report {
            attempted: 0,
            failed: 0,
            metrics: specs.iter().map(|s| (s, 0.0, false)).collect(),
            notes: Vec::new(),
        }
    }

    /// Record a measured metric.
    ///
    /// # Panics
    /// Panics on a name outside this run's catalogue section: a
    /// misspelt metric is a bug in the benchmark, not a zero.
    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .metrics
            .iter_mut()
            .find(|(s, _, _)| s.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in this catalogue section"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        slot.1 = value;
        slot.2 = true;
    }

    /// The `db.*` counter metrics from the probe work of `ops`
    /// operations.
    fn set_db(&mut self, work: api::DbCounters, ops: usize) {
        let ops = ops.max(1) as f64;
        let scans = (work.index_hits + work.index_misses).max(1) as f64;
        self.set("db.probe_work_per_op", work.probe_work as f64 / ops);
        self.set("db.rows_scanned_per_op", work.rows_scanned as f64 / ops);
        self.set("db.index_hit_ratio", work.index_hits as f64 / scans);
        self.set("db.find_one_calls_per_op", work.find_one as f64 / ops);
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count operations and the ones whose answer failed its check.
    fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(s, _, _)| s.name == name)
            .map(|(_, v, _)| *v)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric with its unit.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (spec, value, _)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_number(*value),
                spec.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Make a delivery wrong on purpose: the first binding gets a value no
/// table holds (or, with no answers, an answer for no query appears).
fn corrupt_answers(answers: &mut Vec<coord_core::engine::QueryAnswer>) {
    match answers.first_mut().and_then(|a| a.bindings.first_mut()) {
        Some(binding) => binding.1 = coord_db::Value::str("corrupted"),
        None => answers.push(coord_core::engine::QueryAnswer {
            query: "corrupted".to_string(),
            bindings: Vec::new(),
        }),
    }
}

/// Run one workload in the mode `cfg` asks for.
pub fn run(cfg: &Config) -> Report {
    let mut report = Report::new(cfg.trace);
    match (cfg.workload, cfg.trace) {
        (Workload::OnlineKeystone, false) => online_keystone::end_to_end(cfg, &mut report),
        (Workload::OnlineKeystone, true) => online_keystone::traced(cfg, &mut report),
        (Workload::SccBatch, false) => scc_batch::end_to_end(cfg, &mut report),
        (Workload::SccBatch, true) => scc_batch::traced(cfg, &mut report),
        (Workload::ConsistentBatch, false) => consistent_batch::end_to_end(cfg, &mut report),
        (Workload::ConsistentBatch, true) => consistent_batch::traced(cfg, &mut report),
    }
    if !cfg.trace {
        report.set("peak_rss_mb", measure::peak_rss_mb());
    }
    report.note(format!(
        "{}: attempted {} failed {} error_rate {}",
        cfg.workload.name(),
        report.attempted,
        report.failed,
        if report.attempted == 0 {
            1.0
        } else {
            report.failed as f64 / report.attempted as f64
        }
    ));
    report
}
