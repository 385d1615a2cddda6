//! Every metric the benchmark reports: its unit, whether it is a
//! deterministic count or a wall-clock figure, the workloads that
//! measure it and, for a per-layer metric, the end-to-end metrics it
//! should move. `BENCHMARK.json` lists the same names and units; the
//! self-test holds the two in step.
//!
//! A workload not listed for a per-layer metric bypasses that layer and
//! reports 0 for it.

/// What a metric measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Work done, or a ratio of work counts. With one client these
    /// repeat exactly for a given seed.
    Count,
    /// Time, or a ratio of times; varies run to run.
    Wall,
}

#[derive(Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub kind: Kind,
    pub workloads: &'static [&'static str],
    /// End-to-end metrics this per-layer metric should move (empty for
    /// end-to-end metrics).
    pub moves: &'static [&'static str],
    pub about: &'static str,
}

const ALL: &[&str] = &["online_keystone", "scc_batch", "consistent_batch"];
const ONLINE: &[&str] = &["online_keystone"];
const SCC: &[&str] = &["scc_batch"];
const CONSISTENT: &[&str] = &["consistent_batch"];

const LATENCY: &[&str] = &["op_p50_us"];
const TAIL: &[&str] = &["op_p90_us"];
const TAIL_AND_RATE: &[&str] = &["op_p90_us", "queries_per_s"];
const RATE: &[&str] = &["queries_per_s"];
const BATCH: &[&str] = &["op_p50_us", "queries_per_s"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    about: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        kind,
        workloads: ALL,
        moves: &[],
        about,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    kind: Kind,
    workloads: &'static [&'static str],
    moves: &'static [&'static str],
    about: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        kind,
        workloads,
        moves,
        about,
    }
}

/// End-to-end metrics, measured with tracing off. An operation is one
/// submit (online_keystone), one coordinator run (scc_batch) or four
/// (consistent_batch), timed in the client from entry to return. Each
/// round's percentiles come from its exact per-operation samples; a run
/// reports the median over its rounds.
#[rustfmt::skip]
pub const END_TO_END: &[MetricSpec] = &[
    e2e("op_p50_us", "us", Kind::Wall, "median operation latency"),
    e2e("op_p90_us", "us", Kind::Wall, "90th-percentile operation latency"),
    e2e("queries_per_s", "1/s", Kind::Wall, "queries coordinated per second of timed region (one submit is one query)"),
    e2e("setup_s", "s", Kind::Wall, "median set-up time of the timed rounds: database build, input generation, store open"),
    e2e("peak_rss_mb", "MiB", Kind::Count, "VmHWM of the process at the end of the run"),
];

/// Per-layer metrics of the traced run.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricSpec] = &[
    layer("engine.pairings_per_submit", "count", Kind::Count, ONLINE, LATENCY, "candidate pairings checked per submit (MetricsSnapshot)"),
    layer("engine.evaluated_per_submit", "count", Kind::Count, ONLINE, LATENCY, "queries evaluated per submit (MetricsSnapshot)"),
    layer("engine.lock_wait_us_per_submit", "us", Kind::Wall, ONLINE, TAIL_AND_RATE, "shard lock wait per submit, two submitters (ShardStatsSnapshot)"),
    layer("engine.contended_ratio", "ratio", Kind::Count, ONLINE, TAIL_AND_RATE, "share of submits that found their shard lock held, two submitters"),
    layer("engine.migrations", "count", Kind::Count, ONLINE, TAIL, "component migrations between shards in a two-submitter round"),
    layer("engine.migration_backoffs", "count", Kind::Count, ONLINE, TAIL, "migration retries in a two-submitter round"),
    layer("engine.sharded_submit_us", "us", Kind::Wall, ONLINE, LATENCY, "mean SharedEngine::submit on the same arrivals, no store"),
    layer("engine.single_submit_us", "us", Kind::Wall, ONLINE, LATENCY, "mean CoordinationEngine::submit on the same arrivals"),
    layer("store.bytes_per_submit", "B", Kind::Count, ONLINE, RATE, "WAL bytes appended per submit (StoreStatsSnapshot)"),
    layer("store.records_per_submit", "count", Kind::Count, ONLINE, RATE, "WAL records appended per submit"),
    layer("store.write_amp", "ratio", Kind::Count, ONLINE, RATE, "WAL bytes over EntangledQueryCodec bytes of the submitted queries"),
    layer("store.snapshots", "count", Kind::Count, ONLINE, TAIL, "snapshot rotations in one round"),
    layer("store.codec_encode_ns", "ns", Kind::Wall, ONLINE, LATENCY, "mean EntangledQueryCodec encode of one query"),
    layer("store.append_us", "us", Kind::Wall, ONLINE, LATENCY, "mean CoordStore::append_commit of the workload's commit records"),
    layer("store.fsync_us", "us", Kind::Wall, ONLINE, LATENCY, "mean CoordStore::sync_all after 64 appends"),
    layer("db.probe_work_per_op", "count", Kind::Count, ALL, TAIL_AND_RATE, "rows walked plus ground probes per operation (QueryStats)"),
    layer("db.rows_scanned_per_op", "count", Kind::Count, ALL, TAIL_AND_RATE, "rows walked per operation"),
    layer("db.index_hit_ratio", "ratio", Kind::Count, ALL, TAIL_AND_RATE, "scans served by an index over all scans"),
    layer("db.find_one_calls_per_op", "count", Kind::Count, ALL, BATCH, "find_one calls per operation"),
    layer("db.find_one_us", "us", Kind::Wall, ONLINE, LATENCY, "mean Database::find_one on one query body"),
    layer("db.distinct_values_us", "us", Kind::Wall, CONSISTENT, BATCH, "mean Database::distinct_values of an option list or friend list"),
    layer("graph.unify_calls_per_batch", "count", Kind::Count, SCC, BATCH, "atom unifiability tests per batch (SccStats)"),
    layer("graph.tarjan_us", "us", Kind::Wall, SCC, BATCH, "tarjan_scc plus condensation of the batch's coordination graph"),
    layer("graph.index_candidates_ns", "ns", Kind::Wall, ONLINE, LATENCY, "mean AtomIndex::candidates for one arriving query"),
    layer("graph.unionfind_union_ns", "ns", Kind::Wall, ONLINE, LATENCY, "mean UnionFind::union of an arrival with one candidate"),
    layer("scc.preprocess_us", "us", Kind::Wall, SCC, BATCH, "coord_core::scc::preprocess of one batch"),
    layer("scc.evaluate_us", "us", Kind::Wall, SCC, BATCH, "SccCoordinator::run_preprocessed of one batch"),
    layer("scc.ground_work_per_batch", "count", Kind::Count, SCC, BATCH, "grounding work per batch (SccStats)"),
    layer("scc.db_queries_per_batch", "count", Kind::Count, SCC, BATCH, "database queries per batch (SccStats)"),
    layer("scc.components_per_batch", "count", Kind::Count, SCC, BATCH, "condensation components per batch (SccStats)"),
    layer("memo.hit_ratio", "ratio", Kind::Count, ONLINE, LATENCY, "closure-cache hits over lookups (MemoStats)"),
    layer("consistent.values_considered", "count", Kind::Count, CONSISTENT, BATCH, "coordination values considered per run (ConsistentStats)"),
    layer("consistent.db_queries", "count", Kind::Count, CONSISTENT, BATCH, "database queries per run"),
    layer("consistent.cleaning_rounds", "count", Kind::Count, CONSISTENT, BATCH, "cleaning rounds per run"),
    layer("obs.overhead_ratio", "ratio", Kind::Wall, ONLINE, RATE, "submits/s with tracing off over submits/s with it on"),
    layer("trace.lock_wait_p50_us", "us", Kind::Wall, ONLINE, LATENCY, "TraceAnalyzer lock_wait phase, median over submits"),
    layer("trace.lock_wait_p99_us", "us", Kind::Wall, ONLINE, TAIL, "TraceAnalyzer lock_wait phase, 99th percentile"),
    layer("trace.evaluate_p50_us", "us", Kind::Wall, ONLINE, LATENCY, "TraceAnalyzer evaluate phase, median"),
    layer("trace.evaluate_p99_us", "us", Kind::Wall, ONLINE, TAIL, "TraceAnalyzer evaluate phase, 99th percentile"),
    layer("trace.db_probe_p50_us", "us", Kind::Wall, ONLINE, LATENCY, "TraceAnalyzer db_probe phase, median"),
    layer("trace.db_probe_p99_us", "us", Kind::Wall, ONLINE, TAIL, "TraceAnalyzer db_probe phase, 99th percentile"),
    layer("trace.memo_p50_us", "us", Kind::Wall, ONLINE, LATENCY, "TraceAnalyzer memo phase, median"),
    layer("trace.memo_p99_us", "us", Kind::Wall, ONLINE, TAIL, "TraceAnalyzer memo phase, 99th percentile"),
    layer("trace.wal_append_p50_us", "us", Kind::Wall, ONLINE, LATENCY, "TraceAnalyzer wal_append phase, median"),
    layer("trace.wal_append_p99_us", "us", Kind::Wall, ONLINE, TAIL, "TraceAnalyzer wal_append phase, 99th percentile"),
    layer("trace.wal_sync_p50_us", "us", Kind::Wall, ONLINE, LATENCY, "TraceAnalyzer wal_sync phase, median"),
    layer("trace.wal_sync_p99_us", "us", Kind::Wall, ONLINE, TAIL, "TraceAnalyzer wal_sync phase, 99th percentile"),
    layer("trace.other_p50_us", "us", Kind::Wall, ONLINE, LATENCY, "TraceAnalyzer unnamed self time of the submit root, median"),
    layer("trace.other_p99_us", "us", Kind::Wall, ONLINE, TAIL, "TraceAnalyzer unnamed self time, 99th percentile"),
    layer("trace.coverage", "ratio", Kind::Wall, ALL, &[], "summed per-layer span time over end-to-end span time per operation"),
];
