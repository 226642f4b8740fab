//! PageStore servers and the client-side facade.
//!
//! Pages are grouped into PageStore *segments* of `pages_per_segment`
//! consecutive page numbers per tablespace; each segment is replicated on
//! `replication` servers and a ship is durable once `quorum` replicas
//! acknowledge it (§III: "we choose to implement a quorum replication, and
//! use a gossip protocol for filling in missing records").
//!
//! Every record carries a back-link to the previous record of the same
//! segment; a replica that sees a mismatched back-link parks the record in
//! an out-of-order buffer and [`PageStoreServer::gossip_fill`]s the hole
//! from its peers before applying.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use vedb_astore::{Lsn, PageId};
use vedb_rdma::RpcFabric;
use vedb_sim::cluster::NodeRes;
use vedb_sim::fault::NodeId;
use vedb_sim::trace::TraceLog;
use vedb_sim::{
    Counter, Gauge, LatencyModel, LatencyRecorder, SimCtx, Timeline, VTime, WorkerPool,
};

use crate::page::{Page, PAGE_SIZE};
use crate::redo::RedoRecord;
use crate::{PageStoreError, Result};

/// Identifies a PageStore segment: a run of consecutive pages in one space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PsSegmentKey {
    /// Tablespace.
    pub space_no: u32,
    /// Segment index within the space.
    pub index: u32,
}

/// PageStore deployment configuration.
#[derive(Debug, Clone)]
pub struct PageStoreConfig {
    /// Replicas per segment (paper: three or six).
    pub replication: usize,
    /// Acks required before a ship is durable.
    pub quorum: usize,
    /// Pages per segment.
    pub pages_per_segment: u32,
}

impl Default for PageStoreConfig {
    fn default() -> Self {
        PageStoreConfig {
            replication: 3,
            quorum: 2,
            pages_per_segment: 256,
        }
    }
}

impl PageStoreConfig {
    /// The segment a page belongs to.
    pub fn segment_of(&self, page: PageId) -> PsSegmentKey {
        PsSegmentKey {
            space_no: page.space_no,
            index: page.page_no / self.pages_per_segment,
        }
    }
}

/// Per-server apply-pipeline configuration: how redo turns into pages.
#[derive(Debug, Clone)]
pub struct ApplyConfig {
    /// Apply workers per server. Redo is partitioned by page id across the
    /// pool ([`RedoRecord::apply_partition`]), so independent pages apply
    /// concurrently on the node's CPU lanes while per-page LSN order is
    /// preserved. `1` restores the serial applier.
    pub workers: usize,
    /// Background-checkpoint trigger: snapshot a segment's page images
    /// after this many newly accepted records (and truncate replayed redo
    /// below the *previous* checkpoint). `0` disables checkpointing —
    /// replicas then retain redo forever and restarts replay from LSN 0.
    pub checkpoint_every_records: u64,
}

impl Default for ApplyConfig {
    fn default() -> Self {
        ApplyConfig {
            workers: 4,
            checkpoint_every_records: 1024,
        }
    }
}

/// A durable segment snapshot: every page image as of `lsn`. Restores and
/// behind-the-horizon gossip peers start from here instead of LSN 0.
#[derive(Clone)]
struct SegCheckpoint {
    lsn: Lsn,
    pages: BTreeMap<u32, Page>,
}

/// One replica's state for one segment.
///
/// Durability model: `retained`, `out_of_order` and `checkpoint` are this
/// replica's **durable** per-segment redo log and snapshot (a quorum ack
/// means durable append); `pages`, `applied_lsn` and `queue` are volatile
/// and rebuilt on [`PageStoreServer::restart`].
#[derive(Default)]
struct ReplicaSeg {
    pages: HashMap<u32, Page>,
    /// LSN replay has reached.
    applied_lsn: Lsn,
    /// LSN of the last record received *in order*.
    last_lsn: Lsn,
    /// In-order records not yet applied.
    queue: Vec<RedoRecord>,
    /// Records whose back-link did not match (a gap precedes them).
    out_of_order: BTreeMap<Lsn, RedoRecord>,
    /// Everything received in order, retained for gossip peers until the
    /// checkpointer truncates below the previous checkpoint.
    retained: BTreeMap<Lsn, RedoRecord>,
    /// Latest durable page-image snapshot, if the checkpointer ran.
    checkpoint: Option<SegCheckpoint>,
    /// Accepted records since the last checkpoint (trigger counter).
    accepted_since_ckpt: u64,
}

/// Replay/read metric handles (component `"pagestore"`), registered into the
/// node's deployment registry and shared by every server (same registry key
/// → same instance), so each reads cluster-wide.
///
/// Lag accounting distinguishes *where* an accepted record waits:
/// `queued_records` counts records queued behind an apply worker (in-order,
/// waiting for CPU), `parked_records` counts records parked out-of-order
/// behind a back-link gap. `apply_lag_records` is their sum. In fault-free
/// runs the books balance exactly:
/// `records_accepted == records_applied + queued_records + parked_records`
/// (asserted by `metrics_accuracy`); crashes and checkpoint installs retire
/// records without applying them, counted by `records_superseded` /
/// `restore_replayed_records` instead.
struct PsStats {
    ships: Arc<Counter>,
    records_accepted: Arc<Counter>,
    records_applied: Arc<Counter>,
    page_materializations: Arc<Counter>,
    page_reads: Arc<Counter>,
    gossip_recoveries: Arc<Counter>,
    checkpoints: Arc<Counter>,
    checkpoint_pages: Arc<Counter>,
    log_truncated_records: Arc<Counter>,
    restores: Arc<Counter>,
    restore_replayed: Arc<Counter>,
    records_superseded: Arc<Counter>,
    apply_lag: Arc<Gauge>,
    queued: Arc<Gauge>,
    parked: Arc<Gauge>,
    /// Virtual-time-bucketed samples of `apply_lag_records`, recorded on
    /// every accept/apply transition — the replication-lag timeline in the
    /// bench report's `profile` section.
    apply_lag_tl: Arc<Timeline>,
    read_lat: Arc<LatencyRecorder>,
    trace: Arc<TraceLog>,
}

impl PsStats {
    fn register(res: &NodeRes) -> Self {
        let reg = &res.metrics;
        PsStats {
            ships: reg.counter("pagestore", "ships"),
            records_accepted: reg.counter("pagestore", "records_accepted"),
            records_applied: reg.counter("pagestore", "records_applied"),
            page_materializations: reg.counter("pagestore", "page_materializations"),
            page_reads: reg.counter("pagestore", "page_reads"),
            gossip_recoveries: reg.counter("pagestore", "gossip_recoveries"),
            checkpoints: reg.counter("pagestore", "checkpoints"),
            checkpoint_pages: reg.counter("pagestore", "checkpoint_pages"),
            log_truncated_records: reg.counter("pagestore", "log_truncated_records"),
            restores: reg.counter("pagestore", "restores"),
            restore_replayed: reg.counter("pagestore", "restore_replayed_records"),
            records_superseded: reg.counter("pagestore", "records_superseded"),
            apply_lag: reg.gauge("pagestore", "apply_lag_records"),
            queued: reg.gauge("pagestore", "queued_records"),
            parked: reg.gauge("pagestore", "parked_records"),
            apply_lag_tl: reg.timeline("pagestore", "apply_lag_records"),
            read_lat: reg.latency("pagestore", "read_page"),
            trace: Arc::clone(reg.trace()),
        }
    }
}

/// Absorb parked records that now chain onto the in-order stream: either
/// their back-link matches the stream tail exactly, or (after a checkpoint
/// install) their predecessor sits at or below `floor`, which the snapshot
/// is known to cover. Parked→queued gauge transition per record.
fn absorb_parked(seg: &mut ReplicaSeg, stats: &PsStats, floor: Lsn) {
    while let Some((&lsn, parked)) = seg.out_of_order.iter().next() {
        let chains = parked.prev_same_segment == seg.last_lsn
            || (lsn > seg.last_lsn && parked.prev_same_segment <= floor);
        if !chains {
            break;
        }
        // vedb-lint: allow(no-panic-in-runtime, "key was just witnessed by iter().next() under the same segs lock")
        let parked = seg.out_of_order.remove(&lsn).expect("present");
        stats.parked.sub(1);
        stats.queued.add(1);
        seg.last_lsn = parked.lsn;
        seg.retained.insert(parked.lsn, parked.clone());
        seg.queue.push(parked);
    }
}

/// One PageStore server process (one per storage node).
pub struct PageStoreServer {
    node: NodeId,
    res: Arc<NodeRes>,
    model: LatencyModel,
    apply: ApplyConfig,
    /// Apply workers over this node's CPU — parallel redo apply and
    /// restore replay both price their CPU through the pool.
    pool: WorkerPool,
    /// At most one background checkpoint in flight per server.
    ckpt_inflight: AtomicBool,
    segs: Mutex<HashMap<PsSegmentKey, ReplicaSeg>>,
    stats: PsStats,
}

impl PageStoreServer {
    /// Create a server on a storage node with the default apply pipeline
    /// (parallel workers + background checkpointer, [`ApplyConfig`]).
    pub fn new(node: NodeId, res: Arc<NodeRes>, model: LatencyModel) -> Arc<Self> {
        Self::with_apply(node, res, model, ApplyConfig::default())
    }

    /// Create a server with an explicit apply-pipeline configuration.
    pub fn with_apply(
        node: NodeId,
        res: Arc<NodeRes>,
        model: LatencyModel,
        apply: ApplyConfig,
    ) -> Arc<Self> {
        let stats = PsStats::register(&res);
        let pool = WorkerPool::with_metrics(
            &format!("{}.apply", res.name),
            apply.workers.max(1),
            Arc::clone(&res.cpu),
            &res.metrics,
        );
        Arc::new(PageStoreServer {
            node,
            res,
            model,
            apply,
            pool,
            ckpt_inflight: AtomicBool::new(false),
            segs: Mutex::new(HashMap::new()),
            stats,
        })
    }

    /// Node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Node resources (RPC dispatch + push-down CPU accounting).
    pub fn res(&self) -> &Arc<NodeRes> {
        &self.res
    }

    /// Handler: ingest a batch of records for `key`. Records whose
    /// back-link matches extend the in-order stream; the rest wait in the
    /// out-of-order buffer. Charges per-record CPU, and kicks the
    /// background checkpointer once enough new records accumulated.
    pub fn handle_ship(&self, ctx: &mut SimCtx, key: PsSegmentKey, records: &[RedoRecord]) {
        let sp = self.stats.trace.span(ctx, "pagestore", "redo_accept");
        let cpu = self
            .res
            .cpu
            .acquire(ctx.now(), VTime::from_nanos(records.len() as u64 * 800));
        ctx.wait_until(cpu);
        self.stats.ships.inc();
        let ckpt_due = {
            let mut segs = self.segs.lock();
            let seg = segs.entry(key).or_default();
            for rec in records {
                if rec.lsn <= seg.last_lsn {
                    continue; // duplicate delivery
                }
                if rec.prev_same_segment == seg.last_lsn {
                    self.stats.records_accepted.inc();
                    self.stats.queued.add(1);
                    self.stats.apply_lag.add(1);
                    seg.accepted_since_ckpt += 1;
                    seg.last_lsn = rec.lsn;
                    seg.retained.insert(rec.lsn, rec.clone());
                    seg.queue.push(rec.clone());
                    absorb_parked(seg, &self.stats, 0);
                } else if seg.out_of_order.insert(rec.lsn, rec.clone()).is_none() {
                    // A re-delivered record already parked here (e.g. the
                    // same hole pulled from two gossip peers) must not be
                    // double-counted as accepted.
                    self.stats.records_accepted.inc();
                    self.stats.parked.add(1);
                    self.stats.apply_lag.add(1);
                    seg.accepted_since_ckpt += 1;
                }
            }
            self.apply.checkpoint_every_records > 0
                && seg.accepted_since_ckpt >= self.apply.checkpoint_every_records
        };
        self.stats
            .apply_lag_tl
            .record(ctx.now(), self.stats.apply_lag.get());
        if ckpt_due && !self.ckpt_inflight.swap(true, Ordering::AcqRel) {
            // Background work: a forked clock keeps it off the shipper's
            // critical path; resource charges still land on this node.
            let mut bg = ctx.fork();
            let _ = self.checkpoint_segment(&mut bg, key);
            self.ckpt_inflight.store(false, Ordering::Release);
        }
        sp.finish(ctx);
    }

    /// Handler: serve records after `from_lsn` (gossip peer side). Serves
    /// the in-order retained stream *and* parked out-of-order records — a
    /// record every quorum member parked would otherwise be unreachable;
    /// the puller's back-link check decides what actually chains on.
    pub fn handle_get_records(
        &self,
        key: PsSegmentKey,
        from_lsn: Lsn,
        max: usize,
    ) -> Vec<RedoRecord> {
        let segs = self.segs.lock();
        match segs.get(&key) {
            Some(seg) => {
                let mut have: BTreeMap<Lsn, RedoRecord> = BTreeMap::new();
                for (l, r) in seg.retained.range(from_lsn + 1..) {
                    have.insert(*l, r.clone());
                }
                for (l, r) in seg.out_of_order.range(from_lsn + 1..) {
                    have.insert(*l, r.clone());
                }
                have.into_values().take(max).collect()
            }
            None => Vec::new(),
        }
    }

    /// Fill back-link gaps for `key` by gossiping with `peers` (§III:
    /// "with the back-link mechanism a PageStore instance can detect
    /// missing logs and gossip with other instances to retrieve them").
    /// Returns how many records were recovered.
    pub fn gossip_fill(
        &self,
        ctx: &mut SimCtx,
        rpc: &RpcFabric,
        key: PsSegmentKey,
        peers: &[Arc<PageStoreServer>],
    ) -> usize {
        self.gossip_fill_until(ctx, rpc, key, peers, 0)
    }

    /// [`gossip_fill`](Self::gossip_fill), additionally pulling the *tail*
    /// of the stream until `need` is covered. Back-links only reveal holes
    /// once a later record arrives; a replica that missed the end of the
    /// stream has no gap evidence, so a reader demanding `need` passes it
    /// here as the target to chase.
    pub fn gossip_fill_until(
        &self,
        ctx: &mut SimCtx,
        rpc: &RpcFabric,
        key: PsSegmentKey,
        peers: &[Arc<PageStoreServer>],
        need: Lsn,
    ) -> usize {
        let mut recovered = 0;
        loop {
            let (last, has_gap) = {
                let segs = self.segs.lock();
                match segs.get(&key) {
                    Some(seg) => (seg.last_lsn, !seg.out_of_order.is_empty()),
                    None => (0, false),
                }
            };
            if !has_gap && last >= need {
                break;
            }
            let mut progressed = false;
            for peer in peers {
                if peer.node() == self.node {
                    continue;
                }
                let got = rpc.call(ctx, peer.node(), peer.res(), 64, 4096, |_c| {
                    peer.handle_get_records(key, last, 64)
                });
                if let Ok(records) = got {
                    if !records.is_empty() {
                        let before = self.segs.lock().get(&key).map(|s| s.last_lsn).unwrap_or(0);
                        self.handle_ship(ctx, key, &records);
                        let after = self.segs.lock().get(&key).map(|s| s.last_lsn).unwrap_or(0);
                        if after > before {
                            recovered += 1;
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            if !progressed {
                // Record pulls cannot help — either the gap predates the
                // peers' truncation horizon or the records are truly
                // lost. A peer's checkpoint can still leap this replica
                // over the hole wholesale.
                for peer in peers {
                    if peer.node() == self.node {
                        continue;
                    }
                    let meta = rpc.call(ctx, peer.node(), peer.res(), 32, 32, |_c| {
                        peer.handle_checkpoint_meta(key)
                    });
                    let Ok(Some((ck_lsn, n_pages))) = meta else {
                        continue;
                    };
                    if ck_lsn <= last {
                        continue;
                    }
                    let resp_bytes = n_pages.max(1) * PAGE_SIZE;
                    let got = rpc.call(ctx, peer.node(), peer.res(), 64, resp_bytes, |_c| {
                        peer.handle_get_checkpoint(key, last)
                    });
                    if let Ok(Some((lsn, pages))) = got {
                        if self.install_checkpoint(key, lsn, pages) {
                            recovered += 1;
                            progressed = true;
                            break;
                        }
                    }
                }
            }
            if !progressed {
                break; // peers cannot help (records truly lost)
            }
        }
        self.stats.gossip_recoveries.add(recovered as u64);
        recovered
    }

    /// Apply all in-order records (the "constantly replays" background
    /// work, charged to this node's CPU — through the worker pool — and
    /// SSD).
    pub fn apply_pending(&self, ctx: &mut SimCtx, key: PsSegmentKey) -> Result<()> {
        let to_apply: Vec<RedoRecord> = {
            let mut segs = self.segs.lock();
            match segs.get_mut(&key) {
                Some(seg) => std::mem::take(&mut seg.queue),
                None => return Ok(()),
            }
        };
        if to_apply.is_empty() {
            return Ok(());
        }
        // Span opens only when there is work: an idle replay poll is free.
        let sp = self.stats.trace.span(ctx, "pagestore", "apply");
        self.apply_batch(ctx, key, to_apply, false)?;
        sp.finish(ctx);
        Ok(())
    }

    /// Apply a drained batch through the worker pool. Records partition by
    /// page id ([`RedoRecord::apply_partition`]) so a page's records stay
    /// on one worker in LSN order while distinct pages apply concurrently;
    /// page mutation itself happens under the segment lock in worker-index
    /// order, so the resulting images are identical to a serial apply.
    /// With `recovery` set, applied records count as
    /// `restore_replayed_records` instead of `records_applied`.
    fn apply_batch(
        &self,
        ctx: &mut SimCtx,
        key: PsSegmentKey,
        to_apply: Vec<RedoRecord>,
        recovery: bool,
    ) -> Result<usize> {
        let nparts = self.pool.workers();
        let mut parts: Vec<Vec<RedoRecord>> = vec![Vec::new(); nparts];
        for rec in to_apply {
            let p = rec.apply_partition(nparts);
            parts[p].push(rec);
        }
        let demands: Vec<VTime> = parts
            .iter()
            .map(|p| VTime::from_nanos(p.len() as u64 * 600))
            .collect();
        self.pool.dispatch(ctx, &demands);
        let mut touched = 0usize;
        let mut first_err: Option<PageStoreError> = None;
        {
            let mut segs = self.segs.lock();
            // vedb-lint: allow(no-panic-in-runtime, "apply_batch only runs for keys handle_ship inserted under this same lock")
            let seg = segs.get_mut(&key).expect("created by ship");
            let mut applied_max: Lsn = 0;
            let mut stuck_min: Option<Lsn> = None;
            let mut requeue: Vec<RedoRecord> = Vec::new();
            for part in &parts {
                for (i, rec) in part.iter().enumerate() {
                    if !seg.pages.contains_key(&rec.page.page_no) {
                        self.stats.page_materializations.inc();
                    }
                    let page = seg.pages.entry(rec.page.page_no).or_default();
                    match rec.apply(page) {
                        Ok(()) => {
                            applied_max = applied_max.max(rec.lsn);
                            touched += 1;
                        }
                        Err(e) => {
                            // Keep this worker's unapplied tail; other
                            // workers' pages are independent and keep
                            // applying. Dropping the tail would freeze
                            // `applied_lsn` below these records forever
                            // (permanent `NotYetApplied` on later reads).
                            stuck_min = Some(stuck_min.map_or(rec.lsn, |s: Lsn| s.min(rec.lsn)));
                            if first_err.is_none() {
                                first_err = Some(e);
                            }
                            requeue.extend_from_slice(&part[i..]);
                            break;
                        }
                    }
                }
            }
            // The apply watermark promises "everything at or below is
            // applied": with a stuck record at LSN s, records beyond s on
            // *other* workers may be applied but cannot be advertised.
            let watermark = match stuck_min {
                None => applied_max,
                Some(s) => applied_max.min(s.saturating_sub(1)),
            };
            seg.applied_lsn = seg.applied_lsn.max(watermark);
            if !requeue.is_empty() {
                requeue.sort_by_key(|r| r.lsn);
                requeue.extend(std::mem::take(&mut seg.queue));
                seg.queue = requeue;
            }
        }
        if recovery {
            self.stats.restore_replayed.add(touched as u64);
        } else {
            self.stats.records_applied.add(touched as u64);
        }
        self.stats.queued.sub(touched as i64);
        self.stats.apply_lag.sub(touched as i64);
        if touched > 0 {
            if let Some(ssd) = &self.res.ssd {
                let batches = touched.div_ceil(16).max(1);
                let done =
                    ssd.acquire(ctx.now(), self.model.ssd_write_svc(batches * PAGE_SIZE) / 4);
                ctx.wait_until(done);
            }
        }
        self.stats
            .apply_lag_tl
            .record(ctx.now(), self.stats.apply_lag.get());
        match first_err {
            None => Ok(touched),
            Some(e) => Err(e),
        }
    }

    /// Background checkpoint of one segment: materialize its pages (apply
    /// everything pending — this is what keeps hot pages ahead of reads),
    /// snapshot the page images durably, and truncate retained redo below
    /// the **previous** checkpoint. The previous checkpoint's window stays
    /// served so gossip peers lagging between the two checkpoints can
    /// still pull records; peers behind the truncation horizon install the
    /// snapshot itself ([`Self::handle_get_checkpoint`]).
    pub fn checkpoint_segment(&self, ctx: &mut SimCtx, key: PsSegmentKey) -> Result<()> {
        self.apply_pending(ctx, key)?;
        let snap = {
            let mut segs = self.segs.lock();
            let Some(seg) = segs.get_mut(&key) else {
                return Ok(());
            };
            let prev_lsn = seg.checkpoint.as_ref().map(|c| c.lsn).unwrap_or(0);
            if seg.applied_lsn == 0 || seg.applied_lsn <= prev_lsn {
                None
            } else {
                let pages: BTreeMap<u32, Page> =
                    seg.pages.iter().map(|(k, v)| (*k, v.clone())).collect();
                let n_pages = pages.len();
                seg.checkpoint = Some(SegCheckpoint {
                    lsn: seg.applied_lsn,
                    pages,
                });
                seg.accepted_since_ckpt = 0;
                let truncated = if prev_lsn > 0 {
                    let keep = seg.retained.split_off(&(prev_lsn + 1));
                    let n = seg.retained.len();
                    seg.retained = keep;
                    n
                } else {
                    0
                };
                Some((n_pages, truncated))
            }
        };
        let Some((n_pages, truncated)) = snap else {
            return Ok(());
        };
        let sp = self.stats.trace.span(ctx, "pagestore", "checkpoint");
        self.stats.checkpoints.inc();
        self.stats.checkpoint_pages.add(n_pages as u64);
        self.stats.log_truncated_records.add(truncated as u64);
        if let Some(ssd) = &self.res.ssd {
            // Sequential snapshot stream, same amortization as apply's
            // page flush.
            let done = ssd.acquire(
                ctx.now(),
                self.model.ssd_write_svc(n_pages.max(1) * PAGE_SIZE) / 4,
            );
            ctx.wait_until(done);
        }
        sp.finish(ctx);
        Ok(())
    }

    /// Handler: checkpoint lsn + page count for `key`, if one exists
    /// (cheap gossip probe before fetching the snapshot itself).
    pub fn handle_checkpoint_meta(&self, key: PsSegmentKey) -> Option<(Lsn, usize)> {
        let segs = self.segs.lock();
        let ckpt = segs.get(&key)?.checkpoint.as_ref()?;
        Some((ckpt.lsn, ckpt.pages.len()))
    }

    /// Handler: serve the segment's checkpoint to a gossip peer whose
    /// stream tail `after` predates it. `None` when there is no newer
    /// snapshot to offer.
    pub fn handle_get_checkpoint(
        &self,
        key: PsSegmentKey,
        after: Lsn,
    ) -> Option<(Lsn, Vec<(u32, Page)>)> {
        let segs = self.segs.lock();
        let ckpt = segs.get(&key)?.checkpoint.as_ref()?;
        if ckpt.lsn <= after {
            return None;
        }
        Some((
            ckpt.lsn,
            ckpt.pages.iter().map(|(k, v)| (*k, v.clone())).collect(),
        ))
    }

    /// Install a peer's checkpoint over this replica's segment state: the
    /// snapshot supersedes local page images, the queued tail, and parked
    /// records at or below its LSN (they were accepted but never applied
    /// here — counted as `records_superseded`). Parked records just beyond
    /// the snapshot chain back on. Returns `false` when the snapshot is
    /// not newer than the local stream tail.
    pub fn install_checkpoint(&self, key: PsSegmentKey, lsn: Lsn, pages: Vec<(u32, Page)>) -> bool {
        let mut segs = self.segs.lock();
        let seg = segs.entry(key).or_default();
        if lsn <= seg.last_lsn {
            return false;
        }
        // Every queued record has lsn <= last_lsn < lsn: superseded.
        let stale_q = seg.queue.len();
        seg.queue.clear();
        self.stats.queued.sub(stale_q as i64);
        self.stats.apply_lag.sub(stale_q as i64);
        seg.pages = pages.into_iter().collect();
        seg.checkpoint = Some(SegCheckpoint {
            lsn,
            pages: seg.pages.iter().map(|(k, v)| (*k, v.clone())).collect(),
        });
        seg.applied_lsn = lsn;
        seg.last_lsn = lsn;
        seg.accepted_since_ckpt = 0;
        let covered: Vec<Lsn> = seg.out_of_order.range(..=lsn).map(|(l, _)| *l).collect();
        for l in &covered {
            seg.out_of_order.remove(l);
        }
        self.stats.parked.sub(covered.len() as i64);
        self.stats.apply_lag.sub(covered.len() as i64);
        self.stats
            .records_superseded
            .add((stale_q + covered.len()) as u64);
        absorb_parked(seg, &self.stats, lsn);
        true
    }

    /// Crash-restart this server: volatile state (page images, apply
    /// queue, apply watermark) is lost; the durable redo log, parked
    /// records and checkpoints survive. Every segment is rebuilt from
    /// checkpoint + log replay through the worker pool. Returns the number
    /// of records replayed; the caller's virtual-time delta across this
    /// call is the node's recovery time.
    pub fn restart(&self, ctx: &mut SimCtx) -> Result<usize> {
        self.restore_to_lsn(ctx, Lsn::MAX)
    }

    /// Point-in-time restore of this server: rebuild every segment from
    /// checkpoint + log replay to exactly `target`, durably discarding
    /// redo beyond it. A checkpoint ahead of `target` is discarded too;
    /// if the retained log then cannot chain from the remaining base up
    /// to `target` (truncated below the restore point), the segment is
    /// left untouched and [`PageStoreError::NotYetApplied`] is returned.
    pub fn restore_to_lsn(&self, ctx: &mut SimCtx, target: Lsn) -> Result<usize> {
        let mut keys: Vec<PsSegmentKey> = self.segs.lock().keys().copied().collect();
        keys.sort_unstable();
        let sp = self.stats.trace.span(ctx, "pagestore", "restore");
        let mut replayed = 0;
        for key in keys {
            replayed += self.restore_segment(ctx, key, target)?;
        }
        self.stats.restores.inc();
        sp.finish(ctx);
        Ok(replayed)
    }

    /// Rebuild one segment to `target` (`Lsn::MAX` = crash-restart, keep
    /// everything durable). See [`Self::restore_to_lsn`].
    pub fn restore_segment(
        &self,
        ctx: &mut SimCtx,
        key: PsSegmentKey,
        target: Lsn,
    ) -> Result<usize> {
        let (base_pages, replay) = {
            let mut segs = self.segs.lock();
            let Some(seg) = segs.get_mut(&key) else {
                return Ok(0);
            };
            // Pick the base image: the checkpoint, unless it is ahead of
            // the restore point (then only a full-log replay can work).
            let base_lsn = match seg.checkpoint.as_ref() {
                Some(c) if c.lsn <= target => c.lsn,
                _ => 0,
            };
            // Coverage check *before* mutating anything: replay needs an
            // unbroken back-link chain from the base up to `target`. A
            // broken chain (e.g. redo truncated below the restore point)
            // fails the restore and leaves the segment untouched.
            let mut prev = base_lsn;
            let mut replay: Vec<RedoRecord> = Vec::new();
            for (l, r) in seg.retained.range(base_lsn + 1..) {
                if *l > target {
                    break;
                }
                let chains = r.prev_same_segment == prev
                    || (prev == base_lsn && r.prev_same_segment <= base_lsn);
                if !chains {
                    return Err(PageStoreError::NotYetApplied {
                        need: *l,
                        applied: prev,
                    });
                }
                replay.push(r.clone());
                prev = *l;
            }
            // The walk stopping at `target` proves nothing by itself: if
            // redo between the base and `target` was truncated, the range
            // is simply empty. The first durable record *beyond* the
            // target must chain onto the walk tail, or records at or
            // below the target are missing and state-at-`target` is not
            // reconstructible.
            if target < Lsn::MAX {
                if let Some((_, r)) = seg.retained.range(target + 1..).next() {
                    let chains = r.prev_same_segment == prev
                        || (prev == base_lsn && r.prev_same_segment <= base_lsn);
                    if !chains {
                        return Err(PageStoreError::NotYetApplied {
                            need: target,
                            applied: prev,
                        });
                    }
                }
            }
            // PITR: the future beyond `target` is discarded durably.
            if target < Lsn::MAX {
                let dropped_r = seg.retained.split_off(&(target + 1)).len();
                let dropped_p: Vec<Lsn> = seg
                    .out_of_order
                    .range(target + 1..)
                    .map(|(l, _)| *l)
                    .collect();
                for l in &dropped_p {
                    seg.out_of_order.remove(l);
                }
                self.stats.parked.sub(dropped_p.len() as i64);
                self.stats.apply_lag.sub(dropped_p.len() as i64);
                self.stats
                    .records_superseded
                    .add((dropped_r + dropped_p.len()) as u64);
                if seg.checkpoint.as_ref().is_some_and(|c| c.lsn > target) {
                    seg.checkpoint = None;
                }
            }
            // Volatile state dies with the old incarnation.
            let stale_q = seg.queue.len();
            seg.queue.clear();
            self.stats.queued.sub(stale_q as i64);
            self.stats.apply_lag.sub(stale_q as i64);
            let base = seg.checkpoint.clone();
            let n_base = base.as_ref().map(|c| c.pages.len()).unwrap_or(0);
            seg.pages = base
                .map(|c| c.pages.into_iter().collect())
                .unwrap_or_default();
            seg.applied_lsn = base_lsn;
            seg.last_lsn = replay.last().map(|r| r.lsn).unwrap_or(base_lsn);
            self.stats.queued.add(replay.len() as i64);
            self.stats.apply_lag.add(replay.len() as i64);
            seg.queue = replay.clone();
            (n_base, replay.len())
        };
        if base_pages > 0 {
            if let Some(ssd) = &self.res.ssd {
                // Stream the checkpoint image back in (sequential read).
                let done = ssd.acquire(
                    ctx.now(),
                    self.model.ssd_read_svc(base_pages * PAGE_SIZE) / 4,
                );
                ctx.wait_until(done);
            }
        }
        let to_apply: Vec<RedoRecord> = {
            let mut segs = self.segs.lock();
            match segs.get_mut(&key) {
                Some(seg) => std::mem::take(&mut seg.queue),
                None => Vec::new(),
            }
        };
        if !to_apply.is_empty() {
            self.apply_batch(ctx, key, to_apply, true)?;
        }
        Ok(replay)
    }

    /// Durable watermark of one segment (the log-truncation RPC handler):
    /// every record at or below it is held in this replica's durable redo
    /// log or captured by its checkpoint.
    pub fn segment_watermark(&self, key: PsSegmentKey) -> Lsn {
        self.segs.lock().get(&key).map(|s| s.last_lsn).unwrap_or(0)
    }

    /// LSN of this segment's checkpoint, 0 if none (tests / monitoring).
    pub fn checkpoint_lsn(&self, key: PsSegmentKey) -> Lsn {
        self.segs
            .lock()
            .get(&key)
            .and_then(|s| s.checkpoint.as_ref().map(|c| c.lsn))
            .unwrap_or(0)
    }

    /// Records currently retained for gossip (tests / monitoring).
    pub fn retained_count(&self, key: PsSegmentKey) -> usize {
        self.segs
            .lock()
            .get(&key)
            .map(|s| s.retained.len())
            .unwrap_or(0)
    }

    /// LSN replay has reached for `key`.
    pub fn applied_lsn(&self, key: PsSegmentKey) -> Lsn {
        self.segs
            .lock()
            .get(&key)
            .map(|s| s.applied_lsn)
            .unwrap_or(0)
    }

    /// Handler: read the latest image of `page`, replaying (and gossiping
    /// via `peers` if records are missing) until `min_lsn` is covered.
    pub fn handle_read_page(
        &self,
        ctx: &mut SimCtx,
        rpc: &RpcFabric,
        key: PsSegmentKey,
        page: PageId,
        min_lsn: Lsn,
        peers: &[Arc<PageStoreServer>],
    ) -> Result<Vec<u8>> {
        // Finished on every return: an error answer (UnknownPage for a
        // fresh page, NotYetApplied) is a completed call, not an abandoned one.
        let sp = self.stats.trace.span(ctx, "pagestore", "read_page");
        let res = self.read_page_traced(ctx, rpc, key, page, min_lsn, peers);
        sp.finish(ctx);
        res
    }

    fn read_page_traced(
        &self,
        ctx: &mut SimCtx,
        rpc: &RpcFabric,
        key: PsSegmentKey,
        page: PageId,
        min_lsn: Lsn,
        peers: &[Arc<PageStoreServer>],
    ) -> Result<Vec<u8>> {
        let t0 = ctx.now();
        self.apply_pending(ctx, key)?;
        if self.applied_lsn(key) < min_lsn {
            self.gossip_fill_until(ctx, rpc, key, peers, min_lsn);
            self.apply_pending(ctx, key)?;
        }
        let applied = self.applied_lsn(key);
        if applied < min_lsn {
            return Err(PageStoreError::NotYetApplied {
                need: min_lsn,
                applied,
            });
        }
        // Charge the 16KB media read.
        if let Some(ssd) = &self.res.ssd {
            let done = ssd.acquire(ctx.now(), self.model.ssd_read_svc(PAGE_SIZE));
            ctx.wait_until(done);
        }
        let segs = self.segs.lock();
        let seg = segs.get(&key).ok_or(PageStoreError::UnknownPage(page))?;
        let p = seg
            .pages
            .get(&page.page_no)
            .ok_or(PageStoreError::UnknownPage(page))?;
        self.stats.page_reads.inc();
        self.stats.read_lat.record(ctx.now() - t0);
        Ok(p.as_bytes().to_vec())
    }

    /// Local (no-RPC) page access for push-down execution on this server;
    /// charges the SSD read but no network. Replays pending records first.
    pub fn local_page(
        &self,
        ctx: &mut SimCtx,
        cfg: &PageStoreConfig,
        page: PageId,
        min_lsn: Lsn,
    ) -> Result<Page> {
        let key = cfg.segment_of(page);
        self.apply_pending(ctx, key)?;
        let applied = self.applied_lsn(key);
        if applied < min_lsn {
            return Err(PageStoreError::NotYetApplied {
                need: min_lsn,
                applied,
            });
        }
        if let Some(ssd) = &self.res.ssd {
            let done = ssd.acquire(ctx.now(), self.model.ssd_read_svc(PAGE_SIZE));
            ctx.wait_until(done);
        }
        let segs = self.segs.lock();
        let seg = segs.get(&key).ok_or(PageStoreError::UnknownPage(page))?;
        seg.pages
            .get(&page.page_no)
            .cloned()
            .ok_or(PageStoreError::UnknownPage(page))
    }

    /// Number of distinct pages materialized for a segment (tests).
    pub fn page_count(&self, key: PsSegmentKey) -> usize {
        self.segs
            .lock()
            .get(&key)
            .map(|s| s.pages.len())
            .unwrap_or(0)
    }

    /// Records parked out-of-order for a segment (tests / monitoring).
    pub fn gap_count(&self, key: PsSegmentKey) -> usize {
        self.segs
            .lock()
            .get(&key)
            .map(|s| s.out_of_order.len())
            .unwrap_or(0)
    }
}

/// Client-side facade: knows the replica layout, ships with quorum, reads
/// with replica fail-over. This is the part of the storage SDK that talks
/// to PageStore (§III).
pub struct PageStore {
    cfg: PageStoreConfig,
    rpc: Arc<RpcFabric>,
    servers: Vec<Arc<PageStoreServer>>,
    /// Last LSN shipped per segment — the source of each record's back-link.
    ship_state: Mutex<HashMap<PsSegmentKey, Lsn>>,
    /// Shared deployment trace (all servers register into one registry).
    trace: Arc<TraceLog>,
}

impl PageStore {
    /// Create the facade over a set of servers.
    pub fn new(
        cfg: PageStoreConfig,
        rpc: Arc<RpcFabric>,
        servers: Vec<Arc<PageStoreServer>>,
    ) -> Arc<Self> {
        assert!(
            servers.len() >= cfg.replication,
            "need >= {} PageStore servers",
            cfg.replication
        );
        assert!(cfg.quorum <= cfg.replication && cfg.quorum >= 1);
        let trace = Arc::clone(servers[0].res().metrics.trace());
        Arc::new(PageStore {
            cfg,
            rpc,
            servers,
            ship_state: Mutex::new(HashMap::new()),
            trace,
        })
    }

    /// Configuration (segment mapping).
    pub fn cfg(&self) -> &PageStoreConfig {
        &self.cfg
    }

    /// The replica servers of a segment.
    pub fn replicas_of(&self, key: PsSegmentKey) -> Vec<Arc<PageStoreServer>> {
        let n = self.servers.len();
        let h = (key.space_no as usize)
            .wrapping_mul(31)
            .wrapping_add(key.index as usize);
        (0..self.cfg.replication)
            .map(|i| Arc::clone(&self.servers[(h + i) % n]))
            .collect()
    }

    /// All servers (push-down task dispatch).
    pub fn servers(&self) -> &[Arc<PageStoreServer>] {
        &self.servers
    }

    /// Ship records (in LSN order, possibly spanning pages/segments):
    /// grouped per segment, back-links attached, delivered to all replicas,
    /// durable at quorum.
    pub fn ship(&self, ctx: &mut SimCtx, records: &[RedoRecord]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        // Quorum-failure paths drop the guard → abandoned span.
        let sp = self.trace.span(ctx, "pagestore", "ship");
        // Group by segment, preserving order, and attach back-links.
        // The `ship_state` lock is held across the whole send: back-link
        // assignment and delivery must be one atomic step, or two
        // concurrent ships could chain from the same tail / arrive in
        // inverted LSN order. Crucially, a segment's tail only *commits*
        // after its group reaches quorum — a failed batch must not advance
        // the chain, or the re-shipped records would carry a dangling
        // `prev_same_segment` and park on the replicas forever.
        let mut ship_state = self.ship_state.lock();
        let mut groups: Vec<(PsSegmentKey, Vec<RedoRecord>)> = Vec::new();
        for rec in records {
            let key = self.cfg.segment_of(rec.page);
            let tail = match groups.iter().rev().find(|(k, _)| *k == key) {
                Some((_, v)) => v.last().map(|r| r.lsn).unwrap_or(0),
                None => ship_state.get(&key).copied().unwrap_or(0),
            };
            let mut rec = rec.clone();
            rec.prev_same_segment = tail;
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(rec),
                None => groups.push((key, vec![rec])),
            }
        }
        let bytes: usize = records.len() * 64;
        let mut max_done = ctx.now();
        for (key, group) in &groups {
            let mut acked = 0;
            let mut group_done = ctx.now();
            for server in self.replicas_of(*key) {
                let mut rep_ctx = ctx.fork();
                let ok = self
                    .rpc
                    .call(&mut rep_ctx, server.node(), server.res(), bytes, 16, |c| {
                        server.handle_ship(c, *key, group);
                    })
                    .is_ok();
                if ok {
                    acked += 1;
                    group_done = group_done.max(rep_ctx.now());
                }
            }
            if acked < self.cfg.quorum {
                return Err(PageStoreError::QuorumFailed {
                    acked,
                    quorum: self.cfg.quorum,
                });
            }
            // Quorum reached: this segment's chain tail is now durable.
            if let Some(last) = group.last() {
                ship_state.insert(*key, last.lsn);
            }
            max_done = max_done.max(group_done);
        }
        ctx.wait_until(max_done);
        sp.finish(ctx);
        Ok(())
    }

    /// Point-in-time restore of the whole deployment: rebuild every
    /// replica of every segment from checkpoint + log replay to exactly
    /// `target`, durably discarding redo beyond it, then re-anchor the
    /// facade's ship chain at the restored tails so the next ship's
    /// back-links chain on cleanly. Returns the total records replayed
    /// across replicas. See [`PageStoreServer::restore_to_lsn`].
    pub fn restore_to_lsn(&self, ctx: &mut SimCtx, target: Lsn) -> Result<usize> {
        let sp = self.trace.span(ctx, "pagestore", "restore");
        let mut total = 0;
        for server in &self.servers {
            total += server.restore_to_lsn(ctx, target)?;
        }
        let mut ship_state = self.ship_state.lock();
        let keys: Vec<PsSegmentKey> = ship_state.keys().copied().collect();
        for key in keys {
            let tail = self
                .replicas_of(key)
                .iter()
                .map(|s| s.segment_watermark(key))
                .max()
                .unwrap_or(0);
            ship_state.insert(key, tail);
        }
        drop(ship_state);
        sp.finish(ctx);
        Ok(total)
    }

    /// AStore log-truncation watermark RPC: the highest LSN such that for
    /// every segment, all records at or below it are durable at a quorum
    /// of that segment's replicas. The engine may recycle WAL slots below
    /// `min(shipped, watermark)` — PageStore can rebuild every page
    /// without a re-ship. A segment whose quorum-th best replica already
    /// holds the full shipped tail does not bound the watermark, so in
    /// steady state this returns [`Lsn::MAX`] and the shipped LSN governs.
    pub fn truncation_watermark(&self, ctx: &mut SimCtx) -> Lsn {
        let mut entries: Vec<(PsSegmentKey, Lsn)> = self
            .ship_state
            .lock()
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        entries.sort_unstable();
        let mut wm = Lsn::MAX;
        for (key, tail) in entries {
            let mut acks: Vec<Lsn> = Vec::new();
            for server in self.replicas_of(key) {
                let got = self
                    .rpc
                    .call(ctx, server.node(), server.res(), 32, 32, |_c| {
                        server.segment_watermark(key)
                    });
                acks.push(got.unwrap_or(0));
            }
            acks.sort_unstable();
            acks.reverse();
            let quorum_wm = acks.get(self.cfg.quorum - 1).copied().unwrap_or(0);
            if quorum_wm < tail {
                wm = wm.min(quorum_wm);
            }
        }
        wm
    }

    /// Read the latest image of `page` at or beyond `min_lsn`, trying
    /// replicas in order.
    pub fn read_page(&self, ctx: &mut SimCtx, page: PageId, min_lsn: Lsn) -> Result<Vec<u8>> {
        let sp = self.trace.span(ctx, "pagestore", "read");
        let key = self.cfg.segment_of(page);
        let replicas = self.replicas_of(key);
        let mut last_err = PageStoreError::UnknownPage(page);
        // An unreachable replica says nothing about the data; a replica
        // that answered (even with an error such as UnknownPage, which
        // callers treat as authoritative for fresh pages) must win over a
        // dead node tried later in the fail-over order.
        let mut saw_server_err = false;
        for server in &replicas {
            let peers: Vec<Arc<PageStoreServer>> = replicas
                .iter()
                .filter(|p| p.node() != server.node())
                .cloned()
                .collect();
            let rpc = Arc::clone(&self.rpc);
            let result = self
                .rpc
                .call(ctx, server.node(), server.res(), 64, PAGE_SIZE, |c| {
                    server.handle_read_page(c, &rpc, key, page, min_lsn, &peers)
                });
            match result {
                Ok(Ok(bytes)) => {
                    sp.finish(ctx);
                    return Ok(bytes);
                }
                Ok(Err(e)) => {
                    last_err = e;
                    saw_server_err = true;
                }
                Err(e) => {
                    if !saw_server_err {
                        last_err = PageStoreError::Network(e);
                    }
                }
            }
        }
        // A failed read is still a finished call: its time belongs here,
        // not in the caller's self time.
        sp.finish(ctx);
        Err(last_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageType;
    use crate::redo::PageOp;
    use vedb_sim::ClusterSpec;

    fn setup() -> (Arc<vedb_sim::SimEnv>, Arc<PageStore>) {
        setup_with(ApplyConfig::default())
    }

    fn setup_with(apply: ApplyConfig) -> (Arc<vedb_sim::SimEnv>, Arc<PageStore>) {
        let env = ClusterSpec::paper_default().build();
        let servers: Vec<Arc<PageStoreServer>> = env
            .storage_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                PageStoreServer::with_apply(
                    200 + i as NodeId,
                    Arc::clone(n),
                    env.model.clone(),
                    apply.clone(),
                )
            })
            .collect();
        let rpc = Arc::new(RpcFabric::new(env.model.clone(), Arc::clone(&env.faults)));
        let ps = PageStore::new(PageStoreConfig::default(), rpc, servers);
        (env, ps)
    }

    fn make_records(page: PageId, start_lsn: Lsn, n: usize) -> Vec<RedoRecord> {
        let mut recs = vec![RedoRecord {
            lsn: start_lsn,
            prev_same_segment: 0,
            txn_id: 1,
            page,
            op: PageOp::Format {
                ty: PageType::BTreeLeaf,
                level: 0,
            },
        }];
        for i in 0..n {
            recs.push(RedoRecord {
                lsn: start_lsn + 10 * (i as u64 + 1),
                prev_same_segment: 0,
                txn_id: 1,
                page,
                op: PageOp::InsertAt {
                    slot: i as u16,
                    cell: format!("row-{i:03}").into_bytes(),
                },
            });
        }
        recs
    }

    #[test]
    fn ship_apply_read_roundtrip() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 42);
        let recs = make_records(page, 100, 5);
        let last_lsn = recs.last().unwrap().lsn;
        ps.ship(&mut ctx, &recs).unwrap();
        let bytes = ps.read_page(&mut ctx, page, last_lsn).unwrap();
        let p = Page::from_bytes(&bytes).unwrap();
        assert_eq!(p.lsn(), last_lsn);
        assert_eq!(p.n_slots(), 5);
        assert_eq!(p.get(2).unwrap(), b"row-002");
    }

    #[test]
    fn cold_page_read_costs_about_a_millisecond() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 1);
        let recs = make_records(page, 100, 3);
        ps.ship(&mut ctx, &recs).unwrap();
        let t0 = ctx.now();
        ps.read_page(&mut ctx, page, recs.last().unwrap().lsn)
            .unwrap();
        let ms = (ctx.now() - t0).as_millis_f64();
        assert!(
            (0.4..=2.0).contains(&ms),
            "remote page read should be ~1ms, got {ms:.2}ms"
        );
    }

    #[test]
    fn quorum_tolerates_one_dead_replica() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 7);
        let key = ps.cfg().segment_of(page);
        let replicas = ps.replicas_of(key);
        env.faults.crash(replicas[0].node());
        let recs = make_records(page, 100, 3);
        ps.ship(&mut ctx, &recs).unwrap(); // 2/3 acks = quorum
        env.faults.restore(replicas[0].node());
        // Read from any replica; the one that missed everything gossips.
        let bytes = ps
            .read_page(&mut ctx, page, recs.last().unwrap().lsn)
            .unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 3);
    }

    #[test]
    fn two_dead_replicas_fail_quorum() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 9);
        let key = ps.cfg().segment_of(page);
        let replicas = ps.replicas_of(key);
        env.faults.crash(replicas[0].node());
        env.faults.crash(replicas[1].node());
        assert!(matches!(
            ps.ship(&mut ctx, &make_records(page, 100, 1)),
            Err(PageStoreError::QuorumFailed {
                acked: 1,
                quorum: 2
            })
        ));
    }

    #[test]
    fn backlink_gap_detected_and_gossip_fills() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 11);
        let key = ps.cfg().segment_of(page);
        let replicas = ps.replicas_of(key);

        // First batch reaches everyone.
        let batch1 = make_records(page, 100, 2);
        ps.ship(&mut ctx, &batch1).unwrap();
        // Second batch misses replica 0 (it is down).
        env.faults.crash(replicas[0].node());
        let batch2 = vec![RedoRecord {
            lsn: 500,
            prev_same_segment: 0, // facade fills it in
            txn_id: 2,
            page,
            op: PageOp::InsertAt {
                slot: 2,
                cell: b"late".to_vec(),
            },
        }];
        ps.ship(&mut ctx, &batch2).unwrap();
        env.faults.restore(replicas[0].node());
        // Third batch reaches everyone — replica 0 sees a back-link gap.
        let batch3 = vec![RedoRecord {
            lsn: 600,
            prev_same_segment: 0,
            txn_id: 2,
            page,
            op: PageOp::InsertAt {
                slot: 3,
                cell: b"even-later".to_vec(),
            },
        }];
        ps.ship(&mut ctx, &batch3).unwrap();
        assert_eq!(
            replicas[0].gap_count(key),
            1,
            "replica 0 must park the gapped record"
        );

        // Gossip heals it.
        let peers: Vec<_> = replicas[1..].to_vec();
        let rpc = RpcFabric::new(env.model.clone(), Arc::clone(&env.faults));
        replicas[0].gossip_fill(&mut ctx, &rpc, key, &peers);
        assert_eq!(replicas[0].gap_count(key), 0);
        replicas[0].apply_pending(&mut ctx, key).unwrap();
        assert_eq!(replicas[0].applied_lsn(key), 600);
    }

    #[test]
    fn read_requires_min_lsn() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 13);
        let recs = make_records(page, 100, 1);
        ps.ship(&mut ctx, &recs).unwrap();
        // Asking for a future LSN fails cleanly.
        assert!(matches!(
            ps.read_page(&mut ctx, page, 10_000),
            Err(PageStoreError::NotYetApplied { .. })
        ));
    }

    #[test]
    fn unknown_page_reported() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        assert!(matches!(
            ps.read_page(&mut ctx, PageId::new(9, 9), 0),
            Err(PageStoreError::UnknownPage(_))
        ));
    }

    /// Follow-on inserts for a page already formatted by [`make_records`].
    fn more_inserts(page: PageId, start_lsn: Lsn, n: usize, slot_base: u16) -> Vec<RedoRecord> {
        (0..n)
            .map(|i| RedoRecord {
                lsn: start_lsn + 10 * i as u64,
                prev_same_segment: 0, // facade fills it in
                txn_id: 9,
                page,
                op: PageOp::InsertAt {
                    slot: slot_base + i as u16,
                    cell: format!("more-{:03}", slot_base as usize + i).into_bytes(),
                },
            })
            .collect()
    }

    #[test]
    fn background_checkpoint_truncates_replayed_log() {
        let (_env, ps) = setup_with(ApplyConfig {
            workers: 4,
            checkpoint_every_records: 8,
        });
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 21);
        let key = ps.cfg().segment_of(page);
        // Batch 1 (10 records) triggers checkpoint #1; batch 2 (9 records)
        // triggers checkpoint #2, which truncates redo below #1.
        ps.ship(&mut ctx, &make_records(page, 100, 9)).unwrap();
        ps.ship(&mut ctx, &more_inserts(page, 300, 9, 9)).unwrap();
        for r in ps.replicas_of(key) {
            assert_eq!(r.checkpoint_lsn(key), 380, "second checkpoint at tail");
            assert!(
                r.retained_count(key) < 19,
                "replayed redo below the previous checkpoint must be truncated, \
                 still retaining {}",
                r.retained_count(key)
            );
        }
        // The truncated log still serves the latest image.
        let bytes = ps.read_page(&mut ctx, page, 380).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 18);
    }

    #[test]
    fn restart_rebuilds_pages_from_durable_log() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 23);
        let key = ps.cfg().segment_of(page);
        let recs = make_records(page, 100, 5);
        let tail = recs.last().unwrap().lsn;
        ps.ship(&mut ctx, &recs).unwrap();
        let before = ps.read_page(&mut ctx, page, tail).unwrap();
        for r in ps.replicas_of(key) {
            let replayed = r.restart(&mut ctx).unwrap();
            assert_eq!(replayed, 6, "all durable records replay on restart");
            assert_eq!(r.applied_lsn(key), tail);
        }
        let after = ps.read_page(&mut ctx, page, tail).unwrap();
        assert_eq!(before, after, "restart must rebuild byte-identical pages");
    }

    #[test]
    fn restore_to_lsn_is_point_in_time() {
        let (_env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 25);
        let key = ps.cfg().segment_of(page);
        // Format @100, inserts @110..150.
        ps.ship(&mut ctx, &make_records(page, 100, 5)).unwrap();
        ps.restore_to_lsn(&mut ctx, 120).unwrap();
        for r in ps.replicas_of(key) {
            assert_eq!(r.applied_lsn(key), 120);
            assert_eq!(r.retained_count(key), 3, "redo beyond 120 is discarded");
        }
        let bytes = ps.read_page(&mut ctx, page, 120).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 2);
        // The ship chain re-anchors at the restored tail: new writes land.
        ps.ship(&mut ctx, &more_inserts(page, 500, 1, 2)).unwrap();
        let bytes = ps.read_page(&mut ctx, page, 500).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 3);
    }

    #[test]
    fn restore_below_truncation_horizon_fails_cleanly() {
        let (_env, ps) = setup_with(ApplyConfig {
            workers: 4,
            checkpoint_every_records: 8,
        });
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 27);
        let key = ps.cfg().segment_of(page);
        ps.ship(&mut ctx, &make_records(page, 100, 9)).unwrap();
        ps.ship(&mut ctx, &more_inserts(page, 300, 9, 9)).unwrap();
        // Redo below checkpoint #1 (lsn 190) is truncated; a restore point
        // inside the truncated range cannot be reached any more.
        let server = &ps.replicas_of(key)[0];
        assert!(matches!(
            server.restore_to_lsn(&mut ctx, 150),
            Err(PageStoreError::NotYetApplied { .. })
        ));
        // The failed restore must leave the segment untouched.
        assert_eq!(server.applied_lsn(key), 380);
        let bytes = ps.read_page(&mut ctx, page, 380).unwrap();
        assert_eq!(Page::from_bytes(&bytes).unwrap().n_slots(), 18);
    }

    #[test]
    fn watermark_bounds_wal_truncation_to_lagging_quorum() {
        let (env, ps) = setup();
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 29);
        let key = ps.cfg().segment_of(page);
        let replicas = ps.replicas_of(key);
        ps.ship(&mut ctx, &make_records(page, 100, 2)).unwrap(); // tail 120
        env.faults.crash(replicas[0].node());
        ps.ship(&mut ctx, &more_inserts(page, 300, 3, 2)).unwrap(); // tail 320
        env.faults.restore(replicas[0].node());
        // Quorum (2 of 3) holds the full tail: nothing bounds truncation.
        assert_eq!(ps.truncation_watermark(&mut ctx), Lsn::MAX);
        // Losing one up-to-date replica degrades the quorum watermark to
        // the straggler's durable point.
        env.faults.crash(replicas[1].node());
        assert_eq!(ps.truncation_watermark(&mut ctx), 120);
        env.faults.restore(replicas[1].node());
    }

    #[test]
    fn gossip_installs_checkpoint_beyond_truncation_horizon() {
        let (env, ps) = setup_with(ApplyConfig {
            workers: 4,
            checkpoint_every_records: 4,
        });
        let mut ctx = SimCtx::new(1, 7);
        let page = PageId::new(1, 31);
        let key = ps.cfg().segment_of(page);
        let replicas = ps.replicas_of(key);

        ps.ship(&mut ctx, &make_records(page, 100, 4)).unwrap(); // ckpt #1 @140
        env.faults.crash(replicas[0].node());
        // Two more checkpoints on the peers truncate every record replica 0
        // could pull: its hole now predates the truncation horizon.
        ps.ship(&mut ctx, &more_inserts(page, 300, 5, 4)).unwrap(); // ckpt #2 @340
        ps.ship(&mut ctx, &more_inserts(page, 500, 5, 9)).unwrap(); // ckpt #3 @540
        env.faults.restore(replicas[0].node());
        ps.ship(&mut ctx, &more_inserts(page, 700, 1, 14)).unwrap();
        assert!(
            replicas[0].gap_count(key) > 0,
            "replica 0 must park the gap"
        );

        let rpc = RpcFabric::new(env.model.clone(), Arc::clone(&env.faults));
        let peers: Vec<_> = replicas.clone();
        let recovered = replicas[0].gossip_fill_until(&mut ctx, &rpc, key, &peers, 700);
        assert!(recovered > 0, "checkpoint install must make progress");
        assert_eq!(
            replicas[0].checkpoint_lsn(key),
            540,
            "peer snapshot installed wholesale"
        );
        replicas[0].apply_pending(&mut ctx, key).unwrap();
        assert_eq!(replicas[0].applied_lsn(key), 700);
        let p = replicas[0]
            .local_page(&mut ctx, ps.cfg(), page, 700)
            .unwrap();
        assert_eq!(p.n_slots(), 15);
    }

    #[test]
    fn segment_mapping_is_stable() {
        let cfg = PageStoreConfig::default();
        let a = cfg.segment_of(PageId::new(1, 0));
        let b = cfg.segment_of(PageId::new(1, 255));
        let c = cfg.segment_of(PageId::new(1, 256));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(cfg.segment_of(PageId::new(2, 0)), a);
    }
}
