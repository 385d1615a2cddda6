//! `online_keystone`: the durable online service under a closed loop of
//! one submitter over disjoint BA(16, 2) keystone groups.
//!
//! One submitter, not two, in the end-to-end run: on a 2-vCPU machine
//! two submitters need both CPUs, so anything else the host runs stalls
//! them; over ten seeds their throughput spread was 0.34 of the median,
//! against 0.09 for one submitter. The traced run adds a two-submitter
//! pass for the lock-wait and migration counters.

use crate::api;
use crate::inputs::{keystone_arrivals, keystone_groups, GROUP};
use crate::measure::{self, micros, Round, ScratchDir, Spans};
use crate::{corrupt_answers, Config, Report, Scale};
use coord_core::engine::SubmitResult;
use coord_core::{CoordError, EntangledQuery};
use coord_db::Database;
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;

type Outcome = ((usize, usize), Result<SubmitResult, CoordError>);

const SHARDS: usize = 4;
/// Submitters of the traced run's contention pass.
const CONTENDING_SUBMITTERS: usize = 2;
/// A WAL sync is timed after this many appends in the traced replay.
const SYNC_EVERY: usize = 64;

fn groups_per_round(scale: Scale) -> usize {
    match scale {
        Scale::Full => 2048,
        Scale::Tiny => 8,
    }
}

struct Inputs {
    db: Database,
    groups: Vec<Vec<EntangledQuery>>,
}

/// Build the pool, generate the groups, and open (then close) a store.
fn setup(cfg: &Config) -> Inputs {
    let n = groups_per_round(cfg.scale);
    let db = api::pool_db(n * GROUP);
    let groups = keystone_groups(n, cfg.seed);
    let dir = ScratchDir::new("setup");
    drop(api::open_durable(
        &db,
        dir.path(),
        SHARDS,
        api::no_tracing(),
    ));
    Inputs { db, groups }
}

/// Every group's arrivals from `submitters` closed-loop submitters, each
/// owning the groups `g` with `g % submitters` equal to its number and
/// timing each request from entry to acknowledgement.
struct Submitted {
    latencies_us: Vec<f64>,
    outcomes: Vec<Outcome>,
    /// From the first submitter's start to the last one's end.
    busy_s: f64,
}

fn drive(
    groups: &[Vec<EntangledQuery>],
    submitters: usize,
    submit: impl Fn(EntangledQuery) -> Result<SubmitResult, CoordError> + Sync,
) -> Submitted {
    let order = keystone_arrivals(groups.len());
    let barrier = Barrier::new(submitters);
    let per_thread: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..submitters)
            .map(|t| {
                let (order, submit, barrier) = (&order, &submit, &barrier);
                s.spawn(move || {
                    let mine: Vec<_> = order.iter().filter(|(g, _)| g % submitters == t).collect();
                    let mut latencies_us = Vec::with_capacity(mine.len());
                    let mut outcomes = Vec::with_capacity(mine.len());
                    barrier.wait();
                    let begin = Instant::now();
                    for &&(g, i) in &mine {
                        let q = groups[g][i].clone();
                        let t0 = Instant::now();
                        let r = submit(q);
                        latencies_us.push(micros(t0.elapsed()));
                        outcomes.push(((g, i), r));
                    }
                    (begin, Instant::now(), latencies_us, outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread panicked"))
            .collect()
    });
    let begin = per_thread.iter().map(|p| p.0).min().expect("submitters");
    let end = per_thread.iter().map(|p| p.1).max().expect("submitters");
    let mut round = Submitted {
        latencies_us: Vec::with_capacity(order.len()),
        outcomes: Vec::with_capacity(order.len()),
        busy_s: (end - begin).as_secs_f64(),
    };
    for (_, _, latencies_us, outcomes) in per_thread {
        round.latencies_us.extend(latencies_us);
        round.outcomes.extend(outcomes);
    }
    round
}

/// Failed operations of a round: an error, a member that coordinated
/// before its keystone, a keystone whose delivery is not exactly its
/// group as a valid coordinating set, and every query left pending.
fn check(inputs: &Inputs, outcomes: &[Outcome], pending: usize, corrupt: bool) -> u64 {
    let mut failed = pending as u64;
    let mut corrupt = corrupt;
    for ((g, i), r) in outcomes {
        let ok = match r {
            Err(_) => false,
            Ok(res) if *i < GROUP - 1 => !res.coordinated(),
            Ok(res) if corrupt => {
                corrupt = false;
                let mut answers = res.answers.clone();
                corrupt_answers(&mut answers);
                api::is_coordinating_set(&inputs.db, &inputs.groups[*g], &answers)
            }
            Ok(res) => api::is_coordinating_set(&inputs.db, &inputs.groups[*g], &res.answers),
        };
        failed += u64::from(!ok);
    }
    failed
}

pub fn end_to_end(cfg: &Config, report: &mut Report) {
    let setup = || setup(cfg);
    measure::end_to_end(report, cfg.seconds, setup, |report, inputs, n| {
        let dir = ScratchDir::new("wal");
        let engine = api::open_durable(&inputs.db, dir.path(), SHARDS, api::no_tracing());
        let round = drive(&inputs.groups, 1, |q| api::durable_submit(&engine, q));
        let pending = api::durable_pending(&engine);
        let failed = check(inputs, &round.outcomes, pending, cfg.corrupt && n == 0);
        report.tally(round.outcomes.len() as u64, failed);
        Round {
            queries: round.outcomes.len(),
            latencies_us: round.latencies_us,
            busy_s: round.busy_s,
        }
    });
}

pub fn traced(cfg: &Config, report: &mut Report) {
    let inputs = setup(cfg);
    let submitted: usize = inputs.groups.iter().map(Vec::len).sum();

    // Pass A: the end-to-end round with tracing off, for the engine and
    // store counters and the untraced throughput.
    let db_before = api::DbCounters::read(&inputs.db);
    let dir = ScratchDir::new("wal");
    let engine = api::open_durable(&inputs.db, dir.path(), SHARDS, api::no_tracing());
    let round = drive(&inputs.groups, 1, |q| api::durable_submit(&engine, q));
    let failed = check(
        &inputs,
        &round.outcomes,
        api::durable_pending(&engine),
        cfg.corrupt,
    );
    report.tally(round.outcomes.len() as u64, failed);
    let untraced_rate = round.outcomes.len() as f64 / round.busy_s;
    let c = api::durable_counters(&engine);
    drop(engine);
    drop(dir);
    let submits = c.engine.submits.max(1) as f64;
    report.set(
        "engine.pairings_per_submit",
        c.engine.pairings_checked as f64 / submits,
    );
    report.set(
        "engine.evaluated_per_submit",
        c.engine.evaluated_per_submit(),
    );
    let mut encoded = 0usize;
    for q in inputs.groups.iter().flatten() {
        let mut buf = Vec::new();
        api::encode(q, &mut buf);
        encoded += buf.len();
    }
    report.set(
        "store.bytes_per_submit",
        c.store.bytes_appended as f64 / submits,
    );
    report.set(
        "store.records_per_submit",
        c.store.records_appended as f64 / submits,
    );
    report.set(
        "store.write_amp",
        c.store.bytes_appended as f64 / encoded as f64,
    );
    report.set("store.snapshots", c.store.snapshots_taken as f64);
    let mut db_work = api::DbCounters::default();
    db_work.add_since(&inputs.db, db_before);
    report.set_db(db_work, round.outcomes.len());

    // Pass A2: the same round from two submitters, for the costs one
    // submitter never meets: shard lock waits and migration retries.
    let dir = ScratchDir::new("wal");
    let engine = api::open_durable(&inputs.db, dir.path(), SHARDS, api::no_tracing());
    let round = drive(&inputs.groups, CONTENDING_SUBMITTERS, |q| {
        api::durable_submit(&engine, q)
    });
    let failed = check(
        &inputs,
        &round.outcomes,
        api::durable_pending(&engine),
        false,
    );
    report.tally(round.outcomes.len() as u64, failed);
    let c = api::durable_counters(&engine);
    drop(engine);
    drop(dir);
    report.set("engine.migrations", c.engine.migrations as f64);
    report.set(
        "engine.migration_backoffs",
        c.engine.migration_backoffs as f64,
    );
    let shard_submits = c.shards.iter().map(|s| s.submits).sum::<u64>().max(1) as f64;
    let lock_wait_ns: u64 = c.shards.iter().map(|s| s.lock_wait_nanos).sum();
    let contended: u64 = c.shards.iter().map(|s| s.contended).sum();
    report.set(
        "engine.lock_wait_us_per_submit",
        lock_wait_ns as f64 / 1e3 / shard_submits,
    );
    report.set("engine.contended_ratio", contended as f64 / shard_submits);
    report.note(format!(
        "online_keystone, {CONTENDING_SUBMITTERS} submitters: {:.1} submits/s against {untraced_rate:.1} from one",
        round.outcomes.len() as f64 / round.busy_s
    ));

    // Pass B: the same round with tracing on, on a fresh database (a
    // database mirrors its counters into the first registry attached).
    let traced_inputs = Inputs {
        db: api::pool_db(groups_per_round(cfg.scale) * GROUP),
        groups: inputs.groups.clone(),
    };
    let dir = ScratchDir::new("wal");
    let engine = api::open_durable(
        &traced_inputs.db,
        dir.path(),
        SHARDS,
        api::tracing_registry(32 * submitted),
    );
    let round = drive(&traced_inputs.groups, 1, |q| {
        api::durable_submit(&engine, q)
    });
    let failed = check(
        &traced_inputs,
        &round.outcomes,
        api::durable_pending(&engine),
        false,
    );
    report.tally(round.outcomes.len() as u64, failed);
    let traced_rate = round.outcomes.len() as f64 / round.busy_s;
    report.set("obs.overhead_ratio", untraced_rate / traced_rate);
    let phases = api::trace_phases(engine.obs());
    drop(engine);
    drop(dir);
    for (name, p50, p99) in &phases.phases {
        if *name == "critical_path" {
            continue;
        }
        report.set(&format!("trace.{name}_p50_us"), *p50 as f64 / 1e3);
        report.set(&format!("trace.{name}_p99_us"), *p99 as f64 / 1e3);
    }
    report.note(format!(
        "online_keystone traced: {} complete traces of {submitted}; named phases cover {:.3} of the critical path",
        phases.complete,
        phases.named_nanos as f64 / phases.critical_nanos.max(1) as f64
    ));

    // Pass C: one submitter replays the same arrivals through each
    // layer's public entry point, each call in its own span.
    let spans = replay(&inputs, report);
    let us = |name| spans.mean_ns(name) / 1e3;
    report.set("engine.sharded_submit_us", us("engine.sharded_submit"));
    report.set("engine.single_submit_us", us("engine.single_submit"));
    report.set("store.codec_encode_ns", spans.mean_ns("store.codec_encode"));
    report.set("store.append_us", us("store.append_commit"));
    report.set("store.fsync_us", us("store.sync_all"));
    report.set(
        "graph.index_candidates_ns",
        spans.mean_ns("graph.index_candidates"),
    );
    report.set(
        "graph.unionfind_union_ns",
        spans.mean_ns("graph.unionfind_union"),
    );
    report.set("db.find_one_us", us("db.find_one"));
    // The layers under a durable submit: the sharded engine (which holds
    // the single engine, evaluation and probes), the codec and the WAL
    // append. SyncPolicy::Never puts no fsync on the submit path.
    let layers: u64 = [
        "engine.sharded_submit",
        "store.codec_encode",
        "store.append_commit",
    ]
    .iter()
    .map(|n| spans.self_ns(n))
    .sum();
    report.set(
        "trace.coverage",
        layers as f64 / spans.total("durable.submit").1 as f64,
    );
    let path = spans.write(&format!("online_keystone-seed{}.jsonl", cfg.seed));
    report.note(format!("spans: {}", path.display()));
}

fn replay(inputs: &Inputs, report: &mut Report) -> Spans {
    let db = &inputs.db;
    let durable_dir = ScratchDir::new("wal");
    let durable = api::open_durable(db, durable_dir.path(), SHARDS, api::no_tracing());
    let sharded = api::sharded_engine(db, SHARDS);
    let mut single = api::single_engine(db);
    let store_dir = ScratchDir::new("store");
    let store = api::open_store(store_dir.path(), SHARDS);
    let mut index = api::atom_index();
    let mut uf = api::union_find();
    let mut seq_of: HashMap<String, usize> = HashMap::new();
    let mut keys_of = Vec::new();
    let mut spans = Spans::new();
    let mut outcomes = Vec::new();
    let order = keystone_arrivals(inputs.groups.len());
    for (req, &(g, i)) in order.iter().enumerate() {
        let q = &inputs.groups[g][i];
        let r = req as u64;
        let (q1, q2, q3) = (q.clone(), q.clone(), q.clone());
        let body = api::body_query(q);
        let op = spans.begin("op", r);
        let rd = spans.time("durable.submit", r, || api::durable_submit(&durable, q1));
        let rs = spans.time("engine.sharded_submit", r, || {
            api::sharded_submit(&sharded, q2)
        });
        let r1 = spans.time("engine.single_submit", r, || {
            api::single_submit(&mut single, q3)
        });

        seq_of.insert(q.name().to_string(), req);
        let retired: Vec<usize> = match &r1 {
            Ok(res) => res
                .answers
                .iter()
                .filter_map(|a| seq_of.get(&a.query).copied())
                .collect(),
            Err(_) => Vec::new(),
        };
        let mut buf = Vec::new();
        spans.time("store.codec_encode", r, || api::encode(q, &mut buf));
        let retired_seqs = retired.iter().map(|&s| s as u64).collect();
        spans.time("store.append_commit", r, || {
            api::append_commit(&store, req % SHARDS, r, buf, retired_seqs);
        });
        if (req + 1) % SYNC_EVERY == 0 {
            spans.time("store.sync_all", r, || api::sync_all(&store));
        }

        let (provides, requires) = api::keys(q);
        let candidates = spans.time("graph.index_candidates", r, || {
            api::index_candidates(&index, &provides, &requires)
        });
        api::index_insert(&mut index, req, &provides, &requires);
        api::uf_add(&mut uf, req);
        for c in candidates {
            spans.time("graph.unionfind_union", r, || {
                api::uf_union(&mut uf, req, c)
            });
        }
        keys_of.push((provides, requires));
        for &s in &retired {
            let (p, q) = &keys_of[s];
            api::index_remove(&mut index, s, p, q);
        }

        spans.time("db.find_one", r, || api::find_one(db, &body));
        spans.end(op);

        let agree = match (&rd, &rs, &r1) {
            (Ok(a), Ok(b), Ok(c)) => {
                a.answers.len() == c.answers.len() && b.answers.len() == c.answers.len()
            }
            _ => false,
        };
        report.tally(0, u64::from(!agree));
        outcomes.push(((g, i), r1));
    }
    let failed = check(inputs, &outcomes, api::single_pending(&single), false);
    report.tally(outcomes.len() as u64, failed);
    if let Some(m) = api::sharded_memo(&sharded) {
        report.set(
            "memo.hit_ratio",
            m.hits as f64 / (m.hits + m.misses).max(1) as f64,
        );
    }
    spans
}
