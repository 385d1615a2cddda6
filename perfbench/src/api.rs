//! The benchmark's only contact with the program: one thin function per
//! layer entry point. When a public API is renamed or merged, the fix
//! is a line here.

use coord_core::consistent::{
    ConsistentConfig, ConsistentCoordinator, ConsistentOutcome, ConsistentQuery,
};
use coord_core::engine::{
    CoordinationEngine, Placement, RebalanceConfig, SharedEngine, SubmitResult,
};
use coord_core::persist::{DurabilityOptions, EntangledQueryCodec, SyncPolicy};
use coord_core::scc::{Preprocessed, SccCoordinator, SccOutcome};
use coord_core::{
    check_coordinating_set, CoordError, DurableSharedEngine, EntangledQuery, MemoStats, QuerySet,
};
use coord_db::{ConjunctiveQuery, Database, Symbol, Value};
use coord_engine::ShardStatsSnapshot;
use coord_engine::{AtomIndex, CoordinationQuery, KeyPattern, MetricsSnapshot, Polarity};
use coord_graph::{condensation, tarjan_scc, Condensation, DiGraph, UnionFind};
use coord_obs::{Registry, TraceAnalyzer};
use coord_store::{CommitRecord, CoordStore, QueryCodec, StoreOptions, StoreStatsSnapshot};
use std::path::Path;

/// Key patterns as the engine's atom index stores them.
pub type Key = KeyPattern<Symbol, Value>;

// ---- coord-db ----------------------------------------------------------

/// The default database (row store) holding the Slashdot-sized tuple
/// pool `S(id, tag)`.
pub fn pool_db(rows: usize) -> Database {
    coord_gen::workloads::pool_db(rows)
}

/// The database's probe counters (`QueryStats`) at one moment, or the
/// difference between two moments.
#[derive(Clone, Copy, Debug, Default)]
pub struct DbCounters {
    pub probe_work: u64,
    pub rows_scanned: u64,
    pub index_hits: u64,
    pub index_misses: u64,
    pub find_one: u64,
}

impl DbCounters {
    pub fn read(db: &Database) -> Self {
        let s = db.stats();
        DbCounters {
            probe_work: s.probe_work(),
            rows_scanned: s.rows_scanned(),
            index_hits: s.index_hit_count(),
            index_misses: s.index_miss_count(),
            find_one: s.find_one_count(),
        }
    }

    /// The work done since `earlier`, added to `self`.
    pub fn add_since(&mut self, db: &Database, earlier: DbCounters) {
        let now = DbCounters::read(db);
        self.probe_work += now.probe_work - earlier.probe_work;
        self.rows_scanned += now.rows_scanned - earlier.rows_scanned;
        self.index_hits += now.index_hits - earlier.index_hits;
        self.index_misses += now.index_misses - earlier.index_misses;
        self.find_one += now.find_one - earlier.find_one;
    }
}

pub fn find_one(db: &Database, body: &ConjunctiveQuery) -> bool {
    db.find_one(body)
        .expect("benchmark body atoms name existing relations")
        .is_some()
}

pub fn body_query(q: &EntangledQuery) -> ConjunctiveQuery {
    ConjunctiveQuery::new(q.body().to_vec())
}

/// The option list of a Consistent query, as the algorithm reads it:
/// the distinct coordination values of the tuples its constants allow.
pub fn option_list(db: &Database, config: &ConsistentConfig, q: &ConsistentQuery) -> usize {
    let constants = |attrs: &[String], values: &[Option<Value>]| {
        attrs
            .iter()
            .zip(values)
            .filter_map(|(a, v)| Some((a.clone(), v.clone()?)))
            .collect::<Vec<_>>()
    };
    let mut bound = constants(&config.coord_attrs, &q.coord);
    bound.extend(constants(&config.personal_attrs, &q.personal));
    let bound: Vec<(&str, Value)> = bound.iter().map(|(a, v)| (a.as_str(), v.clone())).collect();
    let project: Vec<&str> = config.coord_attrs.iter().map(String::as_str).collect();
    db.distinct_values(&config.table, &project, &bound)
        .expect("benchmark relation exists")
        .len()
}

/// The friends of a Consistent query's user in the friendship relation
/// `F(user, friend)`, as the algorithm reads them.
pub fn friends_of(db: &Database, config: &ConsistentConfig, q: &ConsistentQuery) -> usize {
    let table = db
        .table(&config.friends)
        .expect("friendship relation exists");
    let attrs = table.schema().attrs();
    db.distinct_values(
        &config.friends,
        &[attrs[1].as_str()],
        &[(attrs[0].as_str(), q.user.clone())],
    )
    .expect("friendship relation exists")
    .len()
}

// ---- coord-core: SCC and Consistent algorithms -------------------------

/// Steps 1–2 of the SCC algorithm; advises the storage layer of the
/// multi-column patterns the bodies probe (lazy index set-up).
pub fn scc_preprocess(db: &Database, queries: &[EntangledQuery]) -> Preprocessed {
    coord_core::scc::preprocess(db, queries).expect("benchmark query sets are safe")
}

pub fn scc_evaluate(db: &Database, pre: Preprocessed) -> SccOutcome {
    SccCoordinator::new(db)
        .run_preprocessed(pre)
        .expect("benchmark query sets evaluate")
}

pub fn scc_run(db: &Database, queries: &[EntangledQuery]) -> Result<SccOutcome, CoordError> {
    SccCoordinator::new(db).run(queries)
}

pub fn consistent_run(
    db: &Database,
    config: &ConsistentConfig,
    queries: &[ConsistentQuery],
) -> Result<ConsistentOutcome, CoordError> {
    ConsistentCoordinator::new(db, config.clone())?.run(queries)
}

// ---- coord-core: online engines ----------------------------------------

pub fn single_engine(db: &Database) -> CoordinationEngine<'_> {
    CoordinationEngine::new(db)
}

pub fn single_submit(
    engine: &mut CoordinationEngine<'_>,
    q: EntangledQuery,
) -> Result<SubmitResult, CoordError> {
    engine.submit(q)
}

pub fn single_pending(engine: &CoordinationEngine<'_>) -> usize {
    engine.pending().len()
}

pub fn sharded_engine(db: &Database, shards: usize) -> SharedEngine<'_> {
    SharedEngine::with_obs(
        db,
        shards,
        Placement::default(),
        RebalanceConfig::default(),
        Registry::disabled(),
    )
}

pub fn sharded_submit(
    engine: &SharedEngine<'_>,
    q: EntangledQuery,
) -> Result<SubmitResult, CoordError> {
    engine.submit(q)
}

pub fn sharded_memo(engine: &SharedEngine<'_>) -> Option<MemoStats> {
    engine.memo_stats()
}

/// The durable sharded service with `SyncPolicy::Never` and a snapshot
/// every 1024 records, recording into `obs`.
pub fn open_durable<'a>(
    db: &'a Database,
    dir: &Path,
    shards: usize,
    obs: Registry,
) -> DurableSharedEngine<'a> {
    let options = DurabilityOptions {
        sync: SyncPolicy::Never,
        snapshot_every: Some(1024),
    };
    DurableSharedEngine::open_with_obs(db, dir, shards, options, obs).expect("open durable engine")
}

pub fn durable_submit(
    engine: &DurableSharedEngine<'_>,
    q: EntangledQuery,
) -> Result<SubmitResult, CoordError> {
    engine.submit(q)
}

pub struct DurableCounters {
    pub engine: MetricsSnapshot,
    pub shards: Vec<ShardStatsSnapshot>,
    pub store: StoreStatsSnapshot,
}

pub fn durable_counters(engine: &DurableSharedEngine<'_>) -> DurableCounters {
    DurableCounters {
        engine: engine.metrics(),
        shards: engine.shard_stats(),
        store: engine.store_stats(),
    }
}

pub fn durable_pending(engine: &DurableSharedEngine<'_>) -> usize {
    engine.pending_count()
}

// ---- coord-store -------------------------------------------------------

pub fn encode(q: &EntangledQuery, out: &mut Vec<u8>) {
    EntangledQueryCodec.encode(q, out);
}

/// A bare store with one stream per shard, never syncing on its own and
/// never snapshotting: appends and syncs are driven by the caller.
pub fn open_store(dir: &Path, streams: usize) -> CoordStore {
    let options = StoreOptions {
        streams,
        sync: SyncPolicy::Never,
        snapshot_every: None,
    };
    CoordStore::open(dir, options).expect("open store").store
}

pub fn append_commit(
    store: &CoordStore,
    stream: usize,
    seq: u64,
    query: Vec<u8>,
    retired: Vec<u64>,
) {
    let record = CommitRecord {
        seq,
        query,
        retired,
    };
    store.append_commit(stream, &record).expect("WAL append");
}

pub fn sync_all(store: &CoordStore) {
    store.sync_all().expect("WAL sync");
}

// ---- coord-graph -------------------------------------------------------

pub fn tarjan_condense<N, E>(graph: &DiGraph<N, E>) -> (usize, Condensation) {
    (tarjan_scc(graph).len(), condensation(graph))
}

pub fn keys(q: &EntangledQuery) -> (Vec<Key>, Vec<Key>) {
    (q.provides(), q.requires())
}

pub fn atom_index() -> AtomIndex<Symbol, Value> {
    AtomIndex::new()
}

pub fn index_insert(
    index: &mut AtomIndex<Symbol, Value>,
    token: usize,
    provides: &[Key],
    requires: &[Key],
) {
    for k in provides {
        index.insert(token, Polarity::Provides, k);
    }
    for k in requires {
        index.insert(token, Polarity::Requires, k);
    }
}

pub fn index_remove(
    index: &mut AtomIndex<Symbol, Value>,
    token: usize,
    provides: &[Key],
    requires: &[Key],
) {
    for k in provides {
        index.remove(token, Polarity::Provides, k);
    }
    for k in requires {
        index.remove(token, Polarity::Requires, k);
    }
}

pub fn index_candidates(
    index: &AtomIndex<Symbol, Value>,
    provides: &[Key],
    requires: &[Key],
) -> Vec<usize> {
    index.candidates(provides, requires).0
}

pub fn union_find() -> UnionFind {
    UnionFind::new(0)
}

pub fn uf_add(uf: &mut UnionFind, token: usize) {
    uf.ensure(token);
}

pub fn uf_union(uf: &mut UnionFind, a: usize, b: usize) {
    uf.union(a, b);
}

// ---- coord-obs ---------------------------------------------------------

/// An enabled registry whose trace ring holds `events` events.
pub fn tracing_registry(events: usize) -> Registry {
    Registry::with_trace_capacity(events)
}

pub fn no_tracing() -> Registry {
    Registry::disabled()
}

/// Per-phase `(name, p50_ns, p99_ns)` over complete traces, and the
/// summed named-phase and critical-path nanos.
pub struct PhaseReport {
    pub phases: Vec<(&'static str, u64, u64)>,
    pub named_nanos: u64,
    pub critical_nanos: u64,
    pub complete: usize,
}

pub fn trace_phases(obs: &Registry) -> PhaseReport {
    let analyzer = TraceAnalyzer::from_tracer(&obs.tracer());
    let mut named = 0;
    let mut critical = 0;
    let mut complete = 0;
    for t in analyzer.traces().iter().filter(|t| t.complete) {
        named += t.breakdown.phase_sum() - t.breakdown.other;
        critical += t.breakdown.critical_path_nanos;
        complete += 1;
    }
    PhaseReport {
        phases: analyzer.phase_percentiles(),
        named_nanos: named,
        critical_nanos: critical,
        complete,
    }
}

// ---- correctness -------------------------------------------------------

/// Whether `answers` deliver exactly `members` as a coordinating set
/// (Definition 1, checked by `coord_core::check_coordinating_set`).
pub fn is_coordinating_set(
    db: &Database,
    members: &[EntangledQuery],
    answers: &[coord_core::engine::QueryAnswer],
) -> bool {
    if answers.len() != members.len() {
        return false;
    }
    let qs = QuerySet::new(members.to_vec());
    let mut grounding = coord_core::Grounding::new();
    for id in qs.ids() {
        let q = qs.query(id);
        let Some(answer) = answers.iter().find(|a| a.query == q.name()) else {
            return false;
        };
        for local in 0..q.var_count() {
            let var = coord_db::Var(local);
            let name = q.var_name(var);
            let Some((_, value)) = answer.bindings.iter().find(|(n, _)| n == name) else {
                return false;
            };
            grounding.set(qs.global_var(id, var), value.clone());
        }
    }
    let ids: Vec<_> = qs.ids().collect();
    check_coordinating_set(db, &qs, &ids, &grounding).is_ok()
}
