//! The three workloads: how each deployment is built, what one operation
//! is, and how each run is checked.
//!
//! Every workload runs one client in a closed loop through
//! [`run_trial`]; the benchmark times its own calls into the public
//! functions of `vedb-core` and `vedb-workloads` in virtual time and reads
//! the counters every layer already publishes in the deployment's
//! [`MetricsRegistry`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use vedb_core::catalog::Catalog;
use vedb_core::db::{Db, DbConfig, LogBackendKind, StorageFabric};
use vedb_core::ebp::EbpConfig;
use vedb_core::query::{execute, Plan, QuerySession};
use vedb_core::recovery::{self, RecoveryReport};
use vedb_core::{FlushPolicy, Row, Value};
use vedb_sim::{ClusterSpec, MetricsRegistry, SimCtx, TraceEvent, TraceLog, VTime};
use vedb_workloads::chbench;
use vedb_workloads::driver::{run_trial, DriverConfig, OpOutcome, DEFAULT_SYNC_WINDOW};
use vedb_workloads::lookup::{self, LookupScale};
use vedb_workloads::tpcc::{self, TpccScale};

use crate::stats::thread_cpu_ns;

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TPC-C standard mix on AStore + EBP, `PerCommit` flush.
    TpccEbp,
    /// Read-only skewed point lookups on a table ≫ buffer pool, EBP warm.
    LookupEbp,
    /// CH-benCHmark Q1–Q22 back to back with push-down.
    ChPushdown,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TpccEbp, Workload::LookupEbp, Workload::ChPushdown];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccEbp => "tpcc_ebp",
            Workload::LookupEbp => "lookup_ebp",
            Workload::ChPushdown => "ch_pushdown",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Data size: `Bench` is what the benchmark measures; `Tiny` keeps every
/// layer busy on a few-second run for the benchmark's own test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Tiny,
}

/// Kind of one measured operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    NewOrder,
    Payment,
    OrderStatus,
    Delivery,
    StockLevel,
    PkLookup,
    IndexLookup,
    /// CH-benCHmark query `1..=22`.
    Query(usize),
}

/// Span op names of the CH queries (trace ops must be `'static`).
const QUERY_SPANS: [&str; 22] = [
    "q01", "q02", "q03", "q04", "q05", "q06", "q07", "q08", "q09", "q10", "q11", "q12", "q13",
    "q14", "q15", "q16", "q17", "q18", "q19", "q20", "q21", "q22",
];

impl OpKind {
    fn span(self) -> &'static str {
        match self {
            OpKind::NewOrder => "new_order",
            OpKind::Payment => "payment",
            OpKind::OrderStatus => "order_status",
            OpKind::Delivery => "delivery",
            OpKind::StockLevel => "stock_level",
            OpKind::PkLookup => "pk_lookup",
            OpKind::IndexLookup => "index_lookup",
            OpKind::Query(q) => QUERY_SPANS[q - 1],
        }
    }
}

/// One measured operation, timed in virtual time by the benchmark.
pub struct Sample {
    pub kind: OpKind,
    pub lat_ns: u64,
    /// `false` when the engine returned an error (lock timeout, engine
    /// error); the spec's 1% NewOrder rollback is completed work.
    pub ok: bool,
    /// Rows the operation returned (queries only).
    pub rows: u64,
}

/// Everything one pass (one fresh deployment) measured.
pub struct Pass {
    /// Host CPU seconds to build the fabric, load the data and warm the
    /// caches.
    pub setup_s: f64,
    /// Host CPU seconds of the measured window.
    pub measure_s: f64,
    /// Virtual length of the measured window.
    pub window: VTime,
    /// Operations that completed inside the window.
    pub samples: Vec<Sample>,
    /// Virtual time `recovery::recover` took after the crash.
    pub recover: VTime,
    pub recovery: RecoveryReport,
    /// Every registry metric the window produced (load-phase metrics are
    /// discarded before the window opens).
    pub layers: MetricsRegistry,
    /// `pagestore.apply_lag_records` when the window closed.
    pub apply_lag: i64,
    /// Trace spans of the window (traced passes only).
    pub spans: Vec<TraceEvent>,
    /// Trace spans of the crash recovery (traced passes only).
    pub recovery_spans: Vec<TraceEvent>,
    /// First few engine errors, for the log.
    pub errors: Vec<String>,
}

/// Ring capacity for traced passes; a pass fails rather than let the ring
/// evict, because evicted children fold into their parent's self time.
const TRACE_CAPACITY: usize = 1 << 22;

struct Dep {
    fabric: StorageFabric,
    db: Arc<Db>,
    ctx: SimCtx,
    cfg: DbConfig,
}

impl Dep {
    fn open(cfg: DbConfig, seed: u64) -> Result<Dep, String> {
        let fabric = StorageFabric::build(ClusterSpec::paper_default(), 192 << 20, 1 << 20);
        let mut ctx = SimCtx::new(0, seed);
        let db = Db::open(&mut ctx, &fabric, cfg.clone()).map_err(|e| format!("open: {e}"))?;
        Ok(Dep {
            fabric,
            db,
            ctx,
            cfg,
        })
    }

    fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.fabric.env.metrics
    }
}

/// Engine configuration: AStore log, `PerCommit` flush and an EBP, with a
/// buffer pool smaller than the workload's data so that misses reach the
/// EBP. The tiny scale shrinks the pool with the data so the same layers
/// work.
fn config(w: Workload, scale: Scale) -> DbConfig {
    let (bench_pages, tiny_pages, ebp_bytes) = match w {
        // Smaller than the loaded tables: evictions spill into the EBP
        // (the smoke-report and Fig 6/7 AStore+EBP shape).
        Workload::TpccEbp => (96, 16, 256 << 20),
        // About 5% of the table: the Fig 12 shape.
        Workload::LookupEbp => (128, 16, 32 << 20),
        // Much smaller than the analytical working set (Fig 14).
        Workload::ChPushdown => (64, 8, 512 << 20),
    };
    let bp_pages = match scale {
        Scale::Bench => bench_pages,
        Scale::Tiny => tiny_pages,
    };
    DbConfig::builder()
        .bp_pages(bp_pages)
        .bp_shards(8)
        .log(LogBackendKind::AStore)
        .ring_segments(12)
        .ebp(EbpConfig {
            capacity_bytes: ebp_bytes,
            ..Default::default()
        })
        .flush_policy(FlushPolicy::PerCommit)
        .build()
        .expect("benchmark DbConfig is valid")
}

fn tpcc_scale(scale: Scale) -> TpccScale {
    match scale {
        Scale::Bench => TpccScale::bench(),
        Scale::Tiny => TpccScale::tiny(),
    }
}

fn lookup_scale(scale: Scale) -> LookupScale {
    LookupScale {
        rows: match scale {
            Scale::Bench => 20_000,
            Scale::Tiny => 3_000,
        },
        hot_fraction: 0.95,
        hot_region: 0.06,
    }
}

fn ch_scale(scale: Scale) -> TpccScale {
    match scale {
        Scale::Bench => TpccScale {
            warehouses: 8,
            districts: 4,
            customers: 60,
            items: 300,
            initial_orders: 40,
        },
        Scale::Tiny => TpccScale {
            warehouses: 2,
            districts: 2,
            customers: 30,
            items: 100,
            initial_orders: 10,
        },
    }
}

fn schema(w: Workload) -> fn(&mut Catalog) {
    match w {
        Workload::TpccEbp => tpcc::define_schema,
        Workload::LookupEbp => lookup::define_schema,
        Workload::ChPushdown => |cat| {
            tpcc::define_schema(cat);
            chbench::extend_schema(cat);
        },
    }
}

/// Virtual length of one measured window. Fixed per workload and scale:
/// TPC-C grows its tables, so throughput depends on window length.
fn window(w: Workload, scale: Scale) -> VTime {
    match (w, scale) {
        (Workload::TpccEbp, Scale::Bench) => VTime::from_millis(2000),
        (Workload::LookupEbp, Scale::Bench) => VTime::from_millis(1000),
        (Workload::ChPushdown, Scale::Bench) => VTime::from_millis(500),
        (Workload::TpccEbp, Scale::Tiny) => VTime::from_millis(300),
        (Workload::LookupEbp, Scale::Tiny) => VTime::from_millis(100),
        (Workload::ChPushdown, Scale::Tiny) => VTime::from_millis(100),
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no client panicked while recording")
}

/// Shared recorder the closed-loop op closure writes into.
struct Recorder {
    samples: Mutex<Vec<Sample>>,
    errors: Mutex<Vec<String>>,
    /// Wrong answers (a correctness failure, unlike an engine error).
    wrong: Mutex<Vec<String>>,
    end: VTime,
}

impl Recorder {
    fn new(end: VTime) -> Recorder {
        Recorder {
            samples: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
            wrong: Mutex::new(Vec::new()),
            end,
        }
    }

    /// Record an operation that ran over `[t0, ctx.now()]` and map it to the
    /// driver's outcome. Operations completing after the window are not
    /// counted, matching the driver's own accounting.
    fn record(
        &self,
        ctx: &SimCtx,
        t0: VTime,
        kind: OpKind,
        result: Result<u64, String>,
    ) -> OpOutcome {
        let ok = result.is_ok();
        if ctx.now() <= self.end {
            let rows = *result.as_ref().unwrap_or(&0);
            lock(&self.samples).push(Sample {
                kind,
                lat_ns: (ctx.now() - t0).as_nanos(),
                ok,
                rows,
            });
            if let Err(e) = result {
                let mut errors = lock(&self.errors);
                if errors.len() < 8 {
                    errors.push(format!("{kind:?}: {e}"));
                }
            }
        }
        if ok {
            OpOutcome::Committed
        } else {
            OpOutcome::Aborted
        }
    }

    fn wrong(&self, what: String) {
        let mut wrong = lock(&self.wrong);
        if wrong.len() < 8 {
            wrong.push(what);
        }
    }
}

/// Run one pass of `w`: build and warm a fresh deployment, measure one
/// window, check the results, crash the engine, recover it and check again.
/// `Err` names the failed check.
pub fn run_pass(w: Workload, scale: Scale, seed: u64, traced: bool) -> Result<Pass, String> {
    let cpu_setup = thread_cpu_ns();
    let mut dep = setup(w, scale, seed)?;
    let setup_s = (thread_cpu_ns() - cpu_setup) as f64 / 1e9;

    // Load-phase metrics are not part of any window.
    dep.metrics().drain_into(&MetricsRegistry::new());
    let trace = Arc::clone(dep.metrics().trace());
    trace.clear();
    if traced {
        trace.set_capacity(TRACE_CAPACITY);
        trace.enable();
    }

    let window = window(w, scale);
    let driver = DriverConfig {
        clients: 1,
        warmup: VTime::ZERO,
        measure: window,
        seed,
        start: dep.ctx.now(),
        sync_window: DEFAULT_SYNC_WINDOW,
    };
    let rec = Recorder::new(driver.start + window);
    let db = Arc::clone(&dep.db);
    let (tpcc, lookup) = (tpcc_scale(scale), lookup_scale(scale));
    let plans = chbench::all_queries();
    let next = AtomicUsize::new(0);
    let first = Mutex::new(BTreeMap::new());
    // The client runs on the driver's thread: its CPU time is read there,
    // from the start of the first operation to the end of the last.
    let cpu = Mutex::new((0u64, 0u64));
    run_trial(&driver, |ctx, _| {
        {
            let mut cpu = lock(&cpu);
            if cpu.0 == 0 {
                cpu.0 = thread_cpu_ns();
            }
        }
        let out = match w {
            Workload::TpccEbp => tpcc_op(ctx, &db, &tpcc, &rec, &trace),
            Workload::LookupEbp => lookup_op(ctx, &db, lookup, &rec, &trace),
            Workload::ChPushdown => query_op(ctx, &db, &plans, &next, &first, &rec, &trace),
        };
        if ctx.now() >= rec.end {
            lock(&cpu).1 = thread_cpu_ns();
        }
        out
    });
    let (cpu_start, cpu_end) = *lock(&cpu);
    let measure_s = cpu_end.saturating_sub(cpu_start) as f64 / 1e9;
    let first_results = first.into_inner().expect("no client panicked");
    dep.ctx.wait_until(driver.start + window);
    trace.disable();
    let spans = if traced {
        let spans = trace.events();
        if spans.len() >= TRACE_CAPACITY {
            return Err(format!(
                "trace ring filled ({} spans): raise TRACE_CAPACITY",
                spans.len()
            ));
        }
        spans
    } else {
        Vec::new()
    };
    trace.clear();
    let layers = MetricsRegistry::new();
    dep.metrics().drain_into(&layers);
    let apply_lag = dep
        .metrics()
        .gauge_values()
        .get("pagestore.apply_lag_records")
        .copied()
        .unwrap_or(0);

    let samples = std::mem::take(&mut *lock(&rec.samples));
    let errors = std::mem::take(&mut *lock(&rec.errors));
    let wrong = std::mem::take(&mut *lock(&rec.wrong));
    if let Some(first) = wrong.first() {
        return Err(format!("{} wrong results, first: {first}", wrong.len()));
    }
    if samples.is_empty() {
        return Err("no operation completed in the window".into());
    }

    // Check the live engine and keep what it answered; the recovered
    // engine must answer the same.
    let mut ctx = dep.ctx.fork();
    let before = match w {
        Workload::TpccEbp => {
            tpcc::check_consistency(&mut ctx, &dep.db, &tpcc)
                .map_err(|e| format!("TPC-C consistency after the window: {e}"))?;
            vec![tpcc_state(&mut ctx, &dep.db, &tpcc)?]
        }
        Workload::LookupEbp => {
            verify_lookups(&mut ctx, &dep.db, lookup)
                .map_err(|e| format!("lookups after the window: {e}"))?;
            Vec::new()
        }
        Workload::ChPushdown => check_pushdown(&mut ctx, &dep.db, &first_results)?,
    };
    dep.ctx.wait_until(ctx.now());

    let ring_ids = dep.db.log_segment_ids();
    let crashed_at = dep.ctx.now();
    drop(db);
    let Dep {
        fabric,
        db: old,
        cfg,
        ..
    } = dep;
    drop(old);
    let mut rctx = SimCtx::new(1, seed ^ 0x5EED_5EED);
    rctx.wait_until(crashed_at);
    if traced {
        trace.enable();
    }
    let sp = trace.span(&rctx, "bench", "recover");
    let recovered = recovery::recover(&mut rctx, &fabric, cfg, schema(w), &ring_ids);
    sp.finish(&rctx);
    trace.disable();
    let recovery_spans = if traced { trace.events() } else { Vec::new() };
    trace.clear();
    let (db2, report) = recovered.map_err(|e| format!("recovery: {e}"))?;
    let recover = rctx.now() - crashed_at;

    match w {
        Workload::TpccEbp => {
            tpcc::check_consistency(&mut rctx, &db2, &tpcc)
                .map_err(|e| format!("TPC-C consistency after recovery: {e}"))?;
            same_rows(&tpcc_state(&mut rctx, &db2, &tpcc)?, &before[0])
                .map_err(|e| format!("committed TPC-C state changed by recovery: {e}"))?;
        }
        Workload::LookupEbp => verify_lookups(&mut rctx, &db2, lookup)
            .map_err(|e| format!("lookups after recovery: {e}"))?,
        Workload::ChPushdown => {
            for ((q, plan), want) in plans.iter().zip(&before) {
                let rows = execute(&mut rctx, &db2, &QuerySession::with_pushdown(), plan)
                    .map_err(|e| format!("Q{q} after recovery: {e}"))?;
                same_rows(&rows, want)
                    .map_err(|e| format!("Q{q} after recovery differs from before: {e}"))?;
            }
        }
    }

    Ok(Pass {
        setup_s,
        measure_s,
        window,
        samples,
        recover,
        recovery: report,
        layers,
        apply_lag,
        spans,
        recovery_spans,
        errors,
    })
}

/// Build the deployment, create the workload's tables, load them and warm
/// the caches: everything `setup_s` times.
fn setup(w: Workload, scale: Scale, seed: u64) -> Result<Dep, String> {
    let mut dep = Dep::open(config(w, scale), seed)?;
    dep.db.define_schema(schema(w));
    dep.db
        .create_tables(&mut dep.ctx)
        .map_err(|e| format!("create tables: {e}"))?;
    let (db, ctx) = (&dep.db, &mut dep.ctx);
    match w {
        Workload::TpccEbp => {
            let scale = tpcc_scale(scale);
            tpcc::load(ctx, db, &scale).map_err(|e| format!("load: {e}"))?;
            // Warm the buffer pool and EBP with the mix itself.
            let mut client = SimCtx::new(1, seed ^ 0x3A3A);
            client.wait_until(ctx.now());
            let warm = Recorder::new(client.now() + VTime::from_millis(50));
            while client.now() < warm.end {
                tpcc_op(&mut client, db, &scale, &warm, db.metrics().trace());
            }
            if let Some(e) = lock(&warm.errors).first() {
                return Err(format!("warm-up: {e}"));
            }
            ctx.wait_until(client.now());
        }
        Workload::LookupEbp => {
            let scale = lookup_scale(scale);
            lookup::load(ctx, db, scale).map_err(|e| format!("load: {e}"))?;
            // Stream the whole table through the BP so evictions fill the
            // EBP with every cold page.
            for id in 1..=scale.rows {
                db.get_by_pk(ctx, None, "operations", &[Value::Int(id)])
                    .map_err(|e| format!("warm lookup {id}: {e}"))?;
            }
        }
        Workload::ChPushdown => {
            tpcc::load(ctx, db, &ch_scale(scale)).map_err(|e| format!("load: {e}"))?;
            chbench::load_extra(ctx, db).map_err(|e| format!("load CH: {e}"))?;
            // One local pass streams every table through the buffer pool,
            // so evictions fill the EBP that push-down tasks then read.
            for (q, plan) in chbench::all_queries() {
                execute(ctx, db, &QuerySession::default(), &plan)
                    .map_err(|e| format!("warm Q{q}: {e}"))?;
            }
        }
    }
    Ok(dep)
}

/// The next CH-benCHmark query in Q1..Q22 order, with push-down. The first
/// answer to each query is kept for the check against local execution.
fn query_op(
    ctx: &mut SimCtx,
    db: &Arc<Db>,
    plans: &[(usize, Plan)],
    next: &AtomicUsize,
    first: &Mutex<BTreeMap<usize, Vec<Row>>>,
    rec: &Recorder,
    trace: &Arc<TraceLog>,
) -> OpOutcome {
    let (q, plan) = &plans[next.fetch_add(1, Ordering::Relaxed) % plans.len()];
    let t0 = ctx.now();
    let sp = trace.span(ctx, "bench", OpKind::Query(*q).span());
    let r = execute(ctx, db, &QuerySession::with_pushdown(), plan);
    sp.finish(ctx);
    let r = r.map_err(|e| e.to_string()).map(|rows| {
        let n = rows.len() as u64;
        lock(first).entry(*q).or_insert(rows);
        n
    });
    rec.record(ctx, t0, OpKind::Query(*q), r)
}

/// One TPC-C transaction of the standard mix, called directly rather than
/// through `tpcc::run_transaction` so that engine errors are counted as
/// failures instead of panicking.
fn tpcc_op(
    ctx: &mut SimCtx,
    db: &Arc<Db>,
    scale: &TpccScale,
    rec: &Recorder,
    trace: &Arc<TraceLog>,
) -> OpOutcome {
    let roll = ctx.rng().gen_range(0..100u32);
    let kind = match roll {
        0..=44 => OpKind::NewOrder,
        45..=87 => OpKind::Payment,
        88..=91 => OpKind::OrderStatus,
        92..=95 => OpKind::Delivery,
        _ => OpKind::StockLevel,
    };
    let t0 = ctx.now();
    let sp = trace.span(ctx, "bench", kind.span());
    let r = match kind {
        OpKind::NewOrder => tpcc::new_order(ctx, db, scale),
        OpKind::Payment => tpcc::payment(ctx, db, scale),
        OpKind::OrderStatus => tpcc::order_status(ctx, db, scale),
        OpKind::Delivery => tpcc::delivery(ctx, db, scale),
        _ => tpcc::stock_level(ctx, db, scale),
    };
    sp.finish(ctx);
    // `Ok(false)` is the spec's rollback: completed work, not a failure.
    rec.record(ctx, t0, kind, r.map(|_| 0).map_err(|e| e.to_string()))
}

/// Rows sharing one `op_user` value, capped at the lookup limit of 10.
fn index_matches(scale: LookupScale, user: i64) -> usize {
    let m = (scale.rows / 10).max(1);
    let n = if user == 0 {
        scale.rows / m
    } else if user <= scale.rows {
        (scale.rows - user) / m + 1
    } else {
        0
    };
    (n as usize).min(10)
}

/// Check one lookup's answer: a PK lookup returns exactly row `id`; an
/// index lookup returns every row of `user` (up to the limit) and no other.
fn check_pk(id: i64, row: Option<&Row>) -> Result<(), String> {
    match row {
        Some(r) if r[0] == Value::Int(id) && r[2] == Value::Int(id % 7) => Ok(()),
        Some(r) => Err(format!("pk {id} returned row {:?}", &r[..3.min(r.len())])),
        None => Err(format!("pk {id} returned no row")),
    }
}

fn check_index(scale: LookupScale, user: i64, rows: &[Row]) -> Result<(), String> {
    let want = index_matches(scale, user);
    if rows.len() != want || rows.iter().any(|r| r[1] != Value::Int(user)) {
        return Err(format!(
            "index user {user} returned {} rows, want {want}",
            rows.len()
        ));
    }
    Ok(())
}

/// One skewed lookup: 80% by primary key, 20% by secondary index (the
/// `lookup::lookup_op` mix), with its answer checked.
fn lookup_op(
    ctx: &mut SimCtx,
    db: &Arc<Db>,
    scale: LookupScale,
    rec: &Recorder,
    trace: &Arc<TraceLog>,
) -> OpOutcome {
    let hot_rows = ((scale.rows as f64 * scale.hot_region) as i64).max(1);
    let id = if ctx.rng().gen_bool(scale.hot_fraction) {
        ctx.rng().gen_range(1..=hot_rows)
    } else {
        ctx.rng().gen_range(1..=scale.rows)
    };
    let t0 = ctx.now();
    if ctx.rng().gen_bool(0.8) {
        let sp = trace.span(ctx, "bench", OpKind::PkLookup.span());
        let r = db.get_by_pk(ctx, None, "operations", &[Value::Int(id)]);
        sp.finish(ctx);
        if let Ok(row) = &r {
            if let Err(e) = check_pk(id, row.as_ref()) {
                rec.wrong(e);
            }
        }
        rec.record(
            ctx,
            t0,
            OpKind::PkLookup,
            r.map(|_| 1).map_err(|e| e.to_string()),
        )
    } else {
        let user = id % (scale.rows / 10).max(1);
        let sp = trace.span(ctx, "bench", OpKind::IndexLookup.span());
        let r = db.index_lookup(ctx, "operations", "idx_ops_user", &[Value::Int(user)], 10);
        sp.finish(ctx);
        if let Ok(rows) = &r {
            if let Err(e) = check_index(scale, user, rows) {
                rec.wrong(e);
            }
        }
        let r = r.map(|rows| rows.len() as u64).map_err(|e| e.to_string());
        rec.record(ctx, t0, OpKind::IndexLookup, r)
    }
}

/// Every warehouse and district row: the year-to-date totals and next
/// order ids that each committed Payment and NewOrder advanced.
fn tpcc_state(ctx: &mut SimCtx, db: &Arc<Db>, scale: &TpccScale) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in 1..=scale.warehouses {
        let mut keys = vec![vec![Value::Int(w)]];
        keys.extend((1..=scale.districts).map(|d| vec![Value::Int(w), Value::Int(d)]));
        for (i, key) in keys.iter().enumerate() {
            let table = if i == 0 { "warehouse" } else { "district" };
            let row = db
                .get_by_pk(ctx, None, table, key)
                .map_err(|e| format!("read {table} {key:?}: {e}"))?
                .ok_or_else(|| format!("{table} {key:?} missing"))?;
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Spot-check lookups across the whole key range (hot and cold).
fn verify_lookups(ctx: &mut SimCtx, db: &Arc<Db>, scale: LookupScale) -> Result<(), String> {
    let step = (scale.rows / 200).max(1) as usize;
    for id in (1..=scale.rows).step_by(step) {
        let row = db
            .get_by_pk(ctx, None, "operations", &[Value::Int(id)])
            .map_err(|e| e.to_string())?;
        check_pk(id, row.as_ref())?;
        let user = id % (scale.rows / 10).max(1);
        let rows = db
            .index_lookup(ctx, "operations", "idx_ops_user", &[Value::Int(user)], 10)
            .map_err(|e| e.to_string())?;
        check_index(scale, user, &rows)?;
    }
    Ok(())
}

/// Compare each query's first push-down answer from the window with local
/// (engine-only) execution. Returns the local answers in query order, which
/// the post-recovery check compares against.
fn check_pushdown(
    ctx: &mut SimCtx,
    db: &Arc<Db>,
    pushed: &BTreeMap<usize, Vec<Row>>,
) -> Result<Vec<Vec<Row>>, String> {
    let mut local = Vec::new();
    for (q, plan) in chbench::all_queries() {
        let rows = execute(ctx, db, &QuerySession::default(), &plan)
            .map_err(|e| format!("local Q{q}: {e}"))?;
        let got = pushed
            .get(&q)
            .ok_or_else(|| format!("Q{q} never ran in the window"))?;
        same_rows(got, &rows).map_err(|e| format!("Q{q} push-down differs from local: {e}"))?;
        local.push(rows);
    }
    Ok(local)
}

/// Two query answers hold the same rows, in any order; doubles may differ
/// by a relative 1e-9 (push-down sums partial aggregates in another order).
pub fn same_rows(a: &[Row], b: &[Row]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} rows vs {} rows", a.len(), b.len()));
    }
    let sorted = |rows: &[Row]| {
        let mut v = rows.to_vec();
        v.sort_by(|x, y| {
            x.iter()
                .zip(y)
                .map(|(p, q)| cmp_value(p, q))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    };
    for (x, y) in sorted(a).iter().zip(&sorted(b)) {
        let same = x.len() == y.len()
            && x.iter().zip(y).all(|(p, q)| match (p, q) {
                (Value::Double(p), Value::Double(q)) => {
                    (p - q).abs() <= 1e-9 * p.abs().max(q.abs()).max(1.0)
                }
                _ => p == q,
            });
        if !same {
            return Err(format!("row {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// Total order for sorting answers; doubles compare after rounding to 9
/// significant digits so near-equal sums sort alike.
fn cmp_value(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            let round = |v: f64| format!("{v:.8e}").parse::<f64>().unwrap_or(v);
            round(*x).total_cmp(&round(*y))
        }
        _ => a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_matches_counts_rows_per_user() {
        let scale = lookup_scale(Scale::Bench);
        for user in [0, 1, 1999] {
            assert_eq!(index_matches(scale, user), 10);
        }
    }

    #[test]
    fn same_rows_ignores_order_and_rounding() {
        let a = vec![
            vec![Value::Int(1), Value::Double(0.1 + 0.2)],
            vec![Value::Int(2), Value::Double(5.0)],
        ];
        let b = vec![
            vec![Value::Int(2), Value::Double(5.0)],
            vec![Value::Int(1), Value::Double(0.3)],
        ];
        assert!(same_rows(&a, &b).is_ok());
        let c = vec![
            vec![Value::Int(2), Value::Double(5.0)],
            vec![Value::Int(1), Value::Double(0.4)],
        ];
        assert!(same_rows(&a, &c).is_err());
    }
}
