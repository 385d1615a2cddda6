//! `consistent_batch`: the Consistent algorithm (Section 5) on the
//! Figure 7 worst case, 50 any-friend queries over complete friendships
//! and 1 000 distinct (destination, day) values.
//!
//! One operation coordinates [`SETS`] query sets, the 50 queries in as
//! many seeded orders. A single run's time is bimodal on a shared host
//! (about 38 ms or 52 ms, the mix varying from run to run), so its
//! median flipped between the modes: over five seeds the spread of
//! `op_p50_us` was 0.23 of the median with one set per operation.

use crate::api;
use crate::inputs::consistent_instance;
use crate::measure::{self, micros, Round, Spans};
use crate::{Config, Report, Scale};
use coord_core::consistent::{ConsistentConfig, ConsistentOutcome, ConsistentQuery};
use coord_core::CoordError;
use coord_db::Database;
use std::time::Instant;

/// `(queries, flight rows)`.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (50, 1000),
        Scale::Tiny => (6, 20),
    }
}

/// Query sets (coordinator runs) in one operation.
const SETS: usize = 4;
/// Operations in one round.
const ROUND_OPS: usize = 10;

struct Inputs {
    db: Database,
    config: ConsistentConfig,
    /// [`SETS`] orders of the same queries.
    sets: Vec<Vec<ConsistentQuery>>,
    rows: usize,
}

fn setup(cfg: &Config) -> Inputs {
    let (n, rows) = sizes(cfg.scale);
    let (db, config, sets) = consistent_instance(n, rows, SETS, cfg.seed);
    Inputs {
        db,
        config,
        sets,
        rows,
    }
}

/// In the worst case nothing is pruned: every value is considered and
/// the best set holds every query.
fn correct(
    inputs: &Inputs,
    set: &[ConsistentQuery],
    out: &Result<ConsistentOutcome, CoordError>,
    corrupt: bool,
) -> bool {
    match out {
        Ok(o) => {
            let members = o
                .best
                .as_ref()
                .map_or(0, |b| b.members.len())
                .saturating_sub(usize::from(corrupt));
            o.stats.values_considered == inputs.rows && members == set.len()
        }
        Err(_) => false,
    }
}

pub fn end_to_end(cfg: &Config, report: &mut Report) {
    let setup = || setup(cfg);
    measure::end_to_end(report, cfg.seconds, setup, |report, inputs, n| {
        let mut round = Round {
            latencies_us: Vec::with_capacity(ROUND_OPS),
            queries: 0,
            busy_s: 0.0,
        };
        for op in 0..ROUND_OPS {
            let t0 = Instant::now();
            let outs: Vec<_> = inputs
                .sets
                .iter()
                .map(|set| api::consistent_run(&inputs.db, &inputs.config, set))
                .collect();
            let dt = t0.elapsed();
            let mut ok = true;
            for (i, (set, out)) in inputs.sets.iter().zip(&outs).enumerate() {
                let corrupt = cfg.corrupt && n == 0 && op == 0 && i == 0;
                ok &= correct(inputs, set, out, corrupt);
            }
            report.tally(1, u64::from(!ok));
            if ok {
                round.queries += inputs.sets.iter().map(Vec::len).sum::<usize>();
            }
            round.busy_s += dt.as_secs_f64();
            round.latencies_us.push(micros(dt));
        }
        round
    });
}

/// Runs in the traced pass; the counters repeat exactly on each.
const TRACED_RUNS: usize = 10;

pub fn traced(cfg: &Config, report: &mut Report) {
    let inputs = setup(cfg);
    let db = &inputs.db;
    let mut spans = Spans::new();
    let (mut values, mut db_queries, mut rounds) = (0usize, 0usize, 0usize);
    let mut db_work = api::DbCounters::default();
    for run in 0..TRACED_RUNS {
        let r = run as u64;
        let db_before = api::DbCounters::read(db);
        let queries = &inputs.sets[run % SETS];
        let out = spans.time("consistent.run", r, || {
            api::consistent_run(db, &inputs.config, queries)
        });
        db_work.add_since(db, db_before);
        let ok = correct(&inputs, queries, &out, cfg.corrupt && run == 0);
        report.tally(1, u64::from(!ok));
        if let Ok(o) = &out {
            values += o.stats.values_considered;
            db_queries += o.stats.db_queries;
            rounds += o.stats.cleaning_rounds;
        }
        // The value enumerations the run starts from, on their own: one
        // option list and one friend list per query.
        for q in queries {
            spans.time("db.distinct_values", r, || {
                api::option_list(db, &inputs.config, q)
            });
            spans.time("db.distinct_values", r, || {
                api::friends_of(db, &inputs.config, q)
            });
        }
    }
    let runs = TRACED_RUNS as f64;
    report.set("consistent.values_considered", values as f64 / runs);
    report.set("consistent.db_queries", db_queries as f64 / runs);
    report.set("consistent.cleaning_rounds", rounds as f64 / runs);
    report.set_db(db_work, TRACED_RUNS);
    report.set(
        "db.distinct_values_us",
        spans.mean_ns("db.distinct_values") / 1e3,
    );
    // The option sweep itself has no public entry point of its own, so
    // the covered layer is the database's share of a run.
    report.set(
        "trace.coverage",
        spans.self_ns("db.distinct_values") as f64 / spans.total("consistent.run").1 as f64,
    );
    let path = spans.write(&format!("consistent_batch-seed{}.jsonl", cfg.seed));
    report.note(format!("spans: {}", path.display()));
}
