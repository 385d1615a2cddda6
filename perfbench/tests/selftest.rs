//! Self-test of the benchmark at tiny sizes: every workload emits every
//! named metric with its unit, a corrupted answer is counted as a
//! failure, the single-client counters repeat exactly, and the metric
//! catalogue agrees with `BENCHMARK.json`.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use perfbench::catalog::{MetricSpec, END_TO_END, PER_LAYER};
use perfbench::{run, Config, Report, Scale, Workload};

fn tiny(workload: Workload, trace: bool, corrupt: bool) -> Report {
    run(&Config {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        corrupt,
    })
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = tiny(workload, trace, false);
            let w = workload.name();
            assert!(report.correct(), "{w} trace={trace}: {report:?}");
            let specs = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<_> = report.metrics.iter().map(|(s, _, _)| s.name).collect();
            let expected: Vec<_> = specs.iter().map(|s| s.name).collect();
            assert_eq!(names, expected, "{w} trace={trace}");
            let json = report.to_json();
            for (spec, value, measured) in &report.metrics {
                let applies = spec.workloads.contains(&w);
                assert_eq!(*measured, applies, "{w}: {} measured={measured}", spec.name);
                if !applies {
                    assert_eq!(*value, 0.0, "{w}: bypassed layer metric {}", spec.name);
                }
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", spec.name))
                        && json.contains(&format!("\"unit\": \"{}\"", spec.unit)),
                    "{w}: {} missing from {json}",
                    spec.name
                );
            }
            if !trace {
                for (spec, value, _) in &report.metrics {
                    assert!(*value > 0.0, "{w}: end-to-end {} reads 0", spec.name);
                }
            }
        }
    }
}

#[test]
fn a_corrupted_answer_raises_the_error_rate() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = tiny(workload, trace, true);
            assert!(
                report.failed > 0 && !report.correct(),
                "{} trace={trace}: corruption went unseen",
                workload.name()
            );
        }
    }
}

#[test]
fn single_client_counters_repeat_exactly() {
    let exact = [
        (Workload::SccBatch, "scc.ground_work_per_batch"),
        (Workload::SccBatch, "graph.unify_calls_per_batch"),
        (Workload::SccBatch, "db.probe_work_per_op"),
        (Workload::ConsistentBatch, "consistent.values_considered"),
        (Workload::ConsistentBatch, "db.probe_work_per_op"),
    ];
    for (workload, metric) in exact {
        let a = tiny(workload, true, false).value(metric);
        let b = tiny(workload, true, false).value(metric);
        assert!(
            a.is_some_and(|v| v > 0.0),
            "{metric} on {}",
            workload.name()
        );
        assert_eq!(a, b, "{metric} on {}", workload.name());
    }
}

/// The value of `"key": "value"` on a line of `BENCHMARK.json`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// `(name, unit)` of every metric line in one section of the file.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?.to_string(), field(l, "unit")?.to_string())))
        .collect()
}

fn catalogue(specs: &[MetricSpec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(section(&json, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(section(&json, "per_layer"), catalogue(PER_LAYER));

    let start = json.find("\"workloads\"").expect("workloads");
    let end = start + json[start..].find(']').expect("workloads close");
    let listed: Vec<&str> = json[start..end]
        .lines()
        .filter_map(|l| field(l, "name"))
        .collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, known);

    let e2e: Vec<&str> = END_TO_END.iter().map(|s| s.name).collect();
    for spec in END_TO_END.iter().chain(PER_LAYER) {
        assert!(!spec.workloads.is_empty(), "{} applies nowhere", spec.name);
        for w in spec.workloads {
            assert!(known.contains(w), "{}: unknown workload {w}", spec.name);
        }
        for m in spec.moves {
            assert!(e2e.contains(m), "{}: moves unknown metric {m}", spec.name);
        }
    }
}
