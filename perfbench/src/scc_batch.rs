//! `scc_batch`: the paper's Figure 5/6 regime. `SccCoordinator::run` on
//! seeded BA(1000, 2) query sets over the Slashdot-sized tuple pool.

use crate::api;
use crate::inputs::scale_free_sets;
use crate::measure::{self, micros, Round, Spans};
use crate::{Config, Report, Scale};
use coord_core::scc::SccOutcome;
use coord_core::{CoordError, EntangledQuery};
use coord_db::Database;
use coord_gen::social::SLASHDOT_ROWS;
use std::time::Instant;

/// `(pool rows, queries per set, query sets)`.
fn sizes(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (SLASHDOT_ROWS, 1000, 8),
        Scale::Tiny => (1000, 50, 2),
    }
}

/// Passes over the query sets in one round.
const ROUND_PASSES: usize = 2;

struct Inputs {
    db: Database,
    sets: Vec<Vec<EntangledQuery>>,
}

/// Build the pool and generate the query sets, and let the storage
/// layer see the probe patterns of every set (any index it builds for
/// them is built here, inside set-up).
fn setup(cfg: &Config) -> Inputs {
    let (rows, n, sets) = sizes(cfg.scale);
    let db = api::pool_db(rows);
    let sets = scale_free_sets(sets, n, cfg.seed);
    for set in &sets {
        drop(api::scc_preprocess(&db, set));
    }
    Inputs { db, sets }
}

/// Every query of a BA set lies on some closure that coordinates, and
/// each component costs exactly one database query.
fn correct(n: usize, out: &Result<SccOutcome, CoordError>, corrupt: bool) -> bool {
    match out {
        Ok(o) => {
            let found = o.found.len().saturating_sub(usize::from(corrupt));
            found == n && o.stats.db_queries == o.stats.components
        }
        Err(_) => false,
    }
}

pub fn end_to_end(cfg: &Config, report: &mut Report) {
    let setup = || setup(cfg);
    measure::end_to_end(report, cfg.seconds, setup, |report, inputs, n| {
        let mut round = Round {
            latencies_us: Vec::new(),
            queries: 0,
            busy_s: 0.0,
        };
        for b in 0..ROUND_PASSES * inputs.sets.len() {
            let set = &inputs.sets[b % inputs.sets.len()];
            let t0 = Instant::now();
            let out = api::scc_run(&inputs.db, set);
            let dt = t0.elapsed();
            let ok = correct(set.len(), &out, cfg.corrupt && n == 0 && b == 0);
            report.tally(1, u64::from(!ok));
            if ok {
                round.queries += set.len();
            }
            round.busy_s += dt.as_secs_f64();
            round.latencies_us.push(micros(dt));
        }
        round
    });
}

pub fn traced(cfg: &Config, report: &mut Report) {
    let inputs = setup(cfg);
    let db = &inputs.db;
    let mut spans = Spans::new();
    let (mut unify, mut ground, mut db_queries, mut components) = (0u64, 0u64, 0usize, 0usize);
    let mut db_work = api::DbCounters::default();
    for (b, set) in inputs.sets.iter().enumerate() {
        let r = b as u64;
        let db_before = api::DbCounters::read(db);
        let out = spans.time("scc.run", r, || api::scc_run(db, set));
        db_work.add_since(db, db_before);
        let ok = correct(set.len(), &out, cfg.corrupt && b == 0);
        report.tally(1, u64::from(!ok));
        if let Ok(o) = &out {
            unify += o.stats.unify_calls;
            ground += o.stats.ground_work;
            db_queries += o.stats.db_queries;
            components += o.stats.components;
        }

        // The same batch through the two halves of `run`, and the graph
        // algorithms on the coordination graph preprocessing built.
        let pre = spans.time("scc.preprocess", r, || api::scc_preprocess(db, set));
        spans.time("graph.tarjan", r, || api::tarjan_condense(&pre.graph));
        spans.time("scc.evaluate", r, || api::scc_evaluate(db, pre));
    }
    let batches = inputs.sets.len() as f64;
    report.set("graph.unify_calls_per_batch", unify as f64 / batches);
    report.set("scc.ground_work_per_batch", ground as f64 / batches);
    report.set("scc.db_queries_per_batch", db_queries as f64 / batches);
    report.set("scc.components_per_batch", components as f64 / batches);
    report.set_db(db_work, inputs.sets.len());
    report.set("scc.preprocess_us", spans.mean_ns("scc.preprocess") / 1e3);
    report.set("scc.evaluate_us", spans.mean_ns("scc.evaluate") / 1e3);
    report.set("graph.tarjan_us", spans.mean_ns("graph.tarjan") / 1e3);
    let layers = spans.self_ns("scc.preprocess") + spans.self_ns("scc.evaluate");
    report.set(
        "trace.coverage",
        layers as f64 / spans.total("scc.run").1 as f64,
    );
    let path = spans.write(&format!("scc_batch-seed{}.jsonl", cfg.seed));
    report.note(format!("spans: {}", path.display()));
}
