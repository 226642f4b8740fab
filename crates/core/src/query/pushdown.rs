//! The query push-down framework (§VI).
//!
//! Eligible plan fragments — single-table scans with simple filters and/or
//! aggregation, no joins or subqueries — are serialized and executed *where
//! the pages live*:
//!
//! * pages cached in the **EBP** run on their AStore server, reading local
//!   PMem and using the CPU cores that one-sided RDMA leaves idle (§VI-B);
//! * the remaining pages run on their **PageStore** server, reading local
//!   SSD (§VI-A).
//!
//! The engine splits the fragment into per-server tasks from the EBP index
//! and the PageStore routing, dispatches them in parallel, and performs
//! secondary aggregation over the returned partials. The decision to push
//! down is a page-count threshold plus a session flag, exactly as in the
//! paper (cost-based selection is listed as future work).

use std::collections::{BTreeMap, HashMap};

use vedb_astore::{Lsn, PageId};
use vedb_pagestore::page::{Page, PageType};
use vedb_sim::fault::NodeId;
use vedb_sim::{SimCtx, VTime};

use crate::btree::parse_leaf_cell;
use crate::db::Db;
use crate::ebp::EbpLoc;
use crate::query::exec::{group_key, AggState, QuerySession};
use crate::query::expr::{decode_expr, encode_expr, Expr};
use crate::query::plan::{AggExpr, AggFunc};
use crate::row::{decode_row, Row, Value};
use crate::{EngineError, Result};

/// Aggregation part of a fragment.
pub type FragAgg = (Vec<usize>, Vec<AggExpr>);

/// A serialized-and-shipped plan fragment (§VI-A): scan of one table space
/// with optional filter, projection, and partial aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment {
    /// Tablespace to scan.
    pub space: u32,
    /// Filter over the raw table row.
    pub filter: Option<Expr>,
    /// Projection over the raw table row.
    pub project: Option<Vec<Expr>>,
    /// Partial aggregation: (group-by column indexes, aggregates).
    pub agg: Option<FragAgg>,
}

/// Encode a fragment for shipping.
pub fn encode_fragment(f: &Fragment, out: &mut Vec<u8>) {
    out.extend_from_slice(&f.space.to_le_bytes());
    match &f.filter {
        Some(e) => {
            out.push(1);
            encode_expr(e, out);
        }
        None => out.push(0),
    }
    match &f.project {
        Some(exprs) => {
            out.push(1);
            out.extend_from_slice(&(exprs.len() as u32).to_le_bytes());
            for e in exprs {
                encode_expr(e, out);
            }
        }
        None => out.push(0),
    }
    match &f.agg {
        Some((group_by, aggs)) => {
            out.push(1);
            out.extend_from_slice(&(group_by.len() as u32).to_le_bytes());
            for g in group_by {
                out.extend_from_slice(&(*g as u32).to_le_bytes());
            }
            out.extend_from_slice(&(aggs.len() as u32).to_le_bytes());
            for a in aggs {
                out.push(a.func as u8);
                encode_expr(&a.expr, out);
            }
        }
        None => out.push(0),
    }
}

/// Decode a fragment.
pub fn decode_fragment(buf: &[u8]) -> Result<Fragment> {
    let err = || EngineError::Codec("fragment truncated".into());
    let space = u32::from_le_bytes(buf.get(0..4).ok_or_else(err)?.try_into().unwrap());
    let mut pos = 4;
    let take_u8 = |pos: &mut usize| -> Result<u8> {
        let b = *buf.get(*pos).ok_or_else(err)?;
        *pos += 1;
        Ok(b)
    };
    let filter = if take_u8(&mut pos)? == 1 {
        Some(decode_expr(buf, &mut pos)?)
    } else {
        None
    };
    let project = if take_u8(&mut pos)? == 1 {
        let n = u32::from_le_bytes(buf.get(pos..pos + 4).ok_or_else(err)?.try_into().unwrap());
        pos += 4;
        let mut exprs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            exprs.push(decode_expr(buf, &mut pos)?);
        }
        Some(exprs)
    } else {
        None
    };
    let agg = if take_u8(&mut pos)? == 1 {
        let n = u32::from_le_bytes(buf.get(pos..pos + 4).ok_or_else(err)?.try_into().unwrap());
        pos += 4;
        let mut group_by = Vec::with_capacity(n as usize);
        for _ in 0..n {
            group_by.push(u32::from_le_bytes(
                buf.get(pos..pos + 4).ok_or_else(err)?.try_into().unwrap(),
            ) as usize);
            pos += 4;
        }
        let m = u32::from_le_bytes(buf.get(pos..pos + 4).ok_or_else(err)?.try_into().unwrap());
        pos += 4;
        let mut aggs = Vec::with_capacity(m as usize);
        for _ in 0..m {
            let func = match *buf.get(pos).ok_or_else(err)? {
                0 => AggFunc::CountStar,
                1 => AggFunc::Count,
                2 => AggFunc::Sum,
                3 => AggFunc::Avg,
                4 => AggFunc::Min,
                5 => AggFunc::Max,
                t => return Err(EngineError::Codec(format!("bad agg func {t}"))),
            };
            pos += 1;
            aggs.push(AggExpr {
                func,
                expr: decode_expr(buf, &mut pos)?,
            });
        }
        Some((group_by, aggs))
    } else {
        None
    };
    Ok(Fragment {
        space,
        filter,
        project,
        agg,
    })
}

/// Which server a task runs on and which pages it covers.
enum TaskPages {
    /// Pages cached in the EBP on an AStore node.
    Ebp(Vec<EbpLoc>),
    /// Pages served by a PageStore node: (page, required LSN).
    PageStore(Vec<(PageId, Lsn)>),
}

struct Task {
    node: NodeId,
    pages: TaskPages,
}

/// Is this table's scan worth pushing down under the session settings?
///
/// The evaluated system uses the paper's simple rule — a page-count
/// threshold plus the session flag (§VI-A). With
/// [`QuerySession::cost_based`] set, the §VIII extension applies instead:
/// see [`cost_decision`].
pub fn eligible(
    db: &Db,
    session: &QuerySession,
    table: &str,
    reduces_rows: bool,
    has_agg: bool,
) -> Result<bool> {
    if !session.pushdown {
        return Ok(false);
    }
    let space = db.with_table(table, |t| t.space_no)?;
    let pages = db.space_pages(space);
    if session.cost_based {
        return Ok(cost_decision(db, space, pages, reduces_rows, has_agg));
    }
    Ok(pages >= session.pushdown_min_pages)
}

/// The §VIII "cost-based strategy" extension: estimate the engine-local
/// cost of the scan (page sourcing through BP/EBP/PageStore at their
/// modelled latencies) against the push-down cost (fragment round trip +
/// storage-local page reads + shipping the result rows), and push down
/// only when it wins.
pub fn cost_decision(db: &Db, space: u32, pages: u32, reduces_rows: bool, has_agg: bool) -> bool {
    if pages == 0 {
        return false;
    }
    let model = &db.env().model;
    // Where would local execution source each page? Count EBP-resident
    // pages; the rest come from PageStore (BP residency is negligible for
    // the large scans this decision concerns).
    let mut ebp_pages = 0u64;
    for page_no in 1..=pages {
        let pid = PageId::new(space, page_no);
        if db.ebp().and_then(|e| e.locate(pid)).is_some() {
            ebp_pages += 1;
        }
    }
    let ps_pages = pages as u64 - ebp_pages;
    let page_sz = vedb_pagestore::PAGE_SIZE;
    // Local: EBP pages at one-sided read latency, PageStore pages at the
    // RPC path amortized by linear read-ahead.
    let local_ns = ebp_pages as f64 * model.pmem_read_svc(page_sz).as_nanos() as f64
        + ps_pages as f64
            * (model.rpc_rtt().as_nanos() + model.ssd_read_svc(page_sz).as_nanos()) as f64
            / crate::btree::BTree::READ_AHEAD as f64;
    // Push-down: one RPC per involved server + local media reads there +
    // the result transfer. Aggregations return tiny results; plain scans
    // without a filter/projection return everything (no win).
    let servers = 3.0f64;
    let result_factor = if has_agg {
        0.01
    } else if reduces_rows {
        0.3
    } else {
        1.0
    };
    let pq_ns = servers * model.rpc_rtt().as_nanos() as f64
        + ebp_pages as f64 * model.pmem_read_svc(page_sz).as_nanos() as f64 / servers
        + ps_pages as f64 * model.ssd_read_svc(page_sz).as_nanos() as f64 / servers
        + pages as f64 * page_sz as f64 * result_factor * model.wire_per_kb_ns as f64 / 1024.0;
    pq_ns < local_ns
}

/// Split a fragment into per-server tasks by page location (§VI-B: "the
/// original request gets split up into parallel tasks by looking up the
/// requested pages in the EBP index").
fn split_tasks(db: &Db, space: u32) -> Vec<Task> {
    let n_pages = db.space_pages(space);
    // Node order fixes the dispatch order, and with it the RNG seed each
    // task's forked context draws and the order partials are merged in.
    let mut ebp_groups: BTreeMap<NodeId, Vec<EbpLoc>> = BTreeMap::new();
    let mut ps_groups: BTreeMap<NodeId, Vec<(PageId, Lsn)>> = BTreeMap::new();
    for page_no in 1..=n_pages {
        let pid = PageId::new(space, page_no);
        let need_lsn = db.page_lsn(pid);
        let ebp_hit = db
            .ebp()
            .and_then(|e| e.locate(pid))
            .filter(|loc| loc.lsn >= need_lsn);
        match ebp_hit {
            Some(loc) => ebp_groups.entry(loc.node).or_default().push(loc),
            None => {
                let key = db.pagestore().cfg().segment_of(pid);
                let node = db.pagestore().replicas_of(key)[0].node();
                ps_groups.entry(node).or_default().push((pid, need_lsn));
            }
        }
    }
    let mut tasks: Vec<Task> = ebp_groups
        .into_iter()
        .map(|(node, pages)| Task {
            node,
            pages: TaskPages::Ebp(pages),
        })
        .collect();
    tasks.extend(ps_groups.into_iter().map(|(node, pages)| Task {
        node,
        pages: TaskPages::PageStore(pages),
    }));
    tasks
}

/// Run the fragment over one page image, updating rows/groups.
fn process_page(
    page: &Page,
    frag: &Fragment,
    rows_out: &mut Vec<Row>,
    groups: &mut HashMap<Vec<u8>, (Vec<Value>, Vec<AggState>)>,
    rows_scanned: &mut usize,
) -> Result<()> {
    if page.page_type() != PageType::BTreeLeaf {
        return Ok(()); // internal node: no rows
    }
    for cell in page.iter() {
        let (_key, payload) = parse_leaf_cell(cell);
        let row = decode_row(payload)?;
        *rows_scanned += 1;
        if let Some(f) = &frag.filter {
            if !f.eval_bool(&row)? {
                continue;
            }
        }
        match &frag.agg {
            Some((group_by, aggs)) => {
                let key_vals: Vec<Value> = group_by.iter().map(|i| row[*i].clone()).collect();
                let key = group_key(&key_vals);
                let entry = groups.entry(key).or_insert_with(|| {
                    (
                        key_vals.clone(),
                        aggs.iter().map(|a| AggState::new(a.func)).collect(),
                    )
                });
                for (state, agg) in entry.1.iter_mut().zip(aggs) {
                    state.update(agg.func, agg.expr.eval(&row)?);
                }
            }
            None => match &frag.project {
                Some(exprs) => {
                    let mut projected = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        projected.push(e.eval(&row)?);
                    }
                    rows_out.push(projected);
                }
                None => rows_out.push(row),
            },
        }
    }
    Ok(())
}

/// Encode partial aggregate states as transferable rows:
/// `[group vals..., per-agg state columns...]`.
fn states_to_rows(groups: HashMap<Vec<u8>, (Vec<Value>, Vec<AggState>)>) -> Vec<Row> {
    groups
        .into_values()
        .map(|(mut vals, states)| {
            for s in states {
                match s {
                    AggState::Count(c) => vals.push(Value::Int(c)),
                    AggState::Sum(s, any) => {
                        vals.push(Value::Double(s));
                        vals.push(Value::Int(any as i64));
                    }
                    AggState::Avg(s, c) => {
                        vals.push(Value::Double(s));
                        vals.push(Value::Int(c));
                    }
                    AggState::Min(m) | AggState::Max(m) => vals.push(m.unwrap_or(Value::Null)),
                }
            }
            vals
        })
        .collect()
}

fn state_arity(func: AggFunc) -> usize {
    match func {
        AggFunc::CountStar | AggFunc::Count | AggFunc::Min | AggFunc::Max => 1,
        AggFunc::Sum | AggFunc::Avg => 2,
    }
}

/// Rebuild states from a partial row (inverse of [`states_to_rows`]).
fn row_to_states(row: &Row, n_groups: usize, aggs: &[AggExpr]) -> (Vec<Value>, Vec<AggState>) {
    let key_vals = row[..n_groups].to_vec();
    let mut pos = n_groups;
    let mut states = Vec::with_capacity(aggs.len());
    for a in aggs {
        let s = match a.func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(row[pos].as_int()),
            AggFunc::Sum => AggState::Sum(row[pos].as_f64(), row[pos + 1].as_int() != 0),
            AggFunc::Avg => AggState::Avg(row[pos].as_f64(), row[pos + 1].as_int()),
            AggFunc::Min => AggState::Min(match &row[pos] {
                Value::Null => None,
                v => Some(v.clone()),
            }),
            AggFunc::Max => AggState::Max(match &row[pos] {
                Value::Null => None,
                v => Some(v.clone()),
            }),
        };
        pos += state_arity(a.func);
        states.push(s);
    }
    (key_vals, states)
}

/// Execute one task on its server, charging that server's resources.
fn run_task(
    ctx: &mut SimCtx,
    db: &Db,
    frag: &Fragment,
    frag_bytes: usize,
    task: &Task,
) -> Result<Vec<Row>> {
    let mut rows_out = Vec::new();
    let mut groups = HashMap::new();
    let mut rows_scanned = 0usize;
    match &task.pages {
        TaskPages::Ebp(locs) => {
            let client = db
                .astore_client()
                .ok_or_else(|| EngineError::Query("EBP task without AStore".into()))?;
            let server = client
                .server(task.node)
                .ok_or_else(|| EngineError::Query(format!("no AStore server {}", task.node)))?;
            let result: Result<()> = db.rpc().call(
                ctx,
                task.node,
                server.res(),
                frag_bytes + locs.len() * 16,
                0,
                |c| {
                    // The storage-side scan pipelines: reads stream across
                    // the PMem lanes (issued back-to-back, the device queue
                    // models the parallelism) while the idle cores process
                    // pages as they arrive (§VI-B). The task finishes when
                    // both the last read and the operator work complete.
                    let pmem = server.res().pmem.as_ref().expect("astore node pmem");
                    let issue = c.now();
                    let mut io_done = issue;
                    let mut cpu_done = issue;
                    for loc in locs {
                        let Some(seg_off) = server.segment_offset(loc.seg.id) else {
                            continue;
                        };
                        // Local PMem read (no network).
                        let done =
                            pmem.acquire(issue, db.env().model.pmem_read_svc(loc.len as usize));
                        io_done = io_done.max(done);
                        let Ok(bytes) =
                            server.device().peek(seg_off + loc.offset, loc.len as usize)
                        else {
                            continue;
                        };
                        let Ok(page) = Page::from_bytes(&bytes) else {
                            continue;
                        };
                        let before = rows_scanned;
                        process_page(&page, frag, &mut rows_out, &mut groups, &mut rows_scanned)?;
                        // Operator work on the idle cores: each page is
                        // handed to a core as its read completes.
                        let page_rows = (rows_scanned - before) as u64;
                        if page_rows > 0 {
                            let cpu = server
                                .res()
                                .cpu
                                .acquire(done, VTime::from_nanos(page_rows * 200));
                            cpu_done = cpu_done.max(cpu);
                        }
                    }
                    c.wait_until(io_done.max(cpu_done));
                    Ok(())
                },
            )?;
            result?;
        }
        TaskPages::PageStore(pages) => {
            let server = db
                .pagestore()
                .servers()
                .iter()
                .find(|s| s.node() == task.node)
                .cloned()
                .ok_or_else(|| EngineError::Query(format!("no PageStore server {}", task.node)))?;
            let cfg = db.pagestore().cfg().clone();
            let result: Result<()> = db.rpc().call(
                ctx,
                task.node,
                server.res(),
                frag_bytes + pages.len() * 12,
                0,
                |c| {
                    let mut cpu_done = c.now();
                    for (pid, min_lsn) in pages {
                        match server.local_page(c, &cfg, *pid, *min_lsn) {
                            Ok(page) => {
                                let before = rows_scanned;
                                process_page(
                                    &page,
                                    frag,
                                    &mut rows_out,
                                    &mut groups,
                                    &mut rows_scanned,
                                )?;
                                // Pages are handed to idle cores as they
                                // come off the SSD, overlapping the
                                // remaining reads.
                                let page_rows = (rows_scanned - before) as u64;
                                if page_rows > 0 {
                                    let cpu = server
                                        .res()
                                        .cpu
                                        .acquire(c.now(), VTime::from_nanos(page_rows * 250));
                                    cpu_done = cpu_done.max(cpu);
                                }
                            }
                            Err(vedb_pagestore::PageStoreError::UnknownPage(_)) => continue,
                            Err(e) => return Err(e.into()),
                        }
                    }
                    c.wait_until(cpu_done);
                    Ok(())
                },
            )?;
            result?;
        }
    }
    let mut partials = if frag.agg.is_some() {
        states_to_rows(groups)
    } else {
        rows_out
    };
    // Response streaming back to the engine: charge the transfer size.
    let resp_bytes: usize = partials.len() * 48;
    ctx.advance(VTime::from_nanos(
        (resp_bytes as u64).div_ceil(1024) * db.env().model.wire_per_kb_ns,
    ));
    partials.shrink_to_fit();
    Ok(partials)
}

/// Orchestrate a pushed-down scan (optionally with partial aggregation):
/// split → parallel dispatch → collect → secondary aggregation (§VI-B).
pub fn pushdown_scan(
    ctx: &mut SimCtx,
    db: &Db,
    table: &str,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
    agg: Option<FragAgg>,
) -> Result<Vec<Row>> {
    let space = db.with_table(table, |t| t.space_no)?;
    // PageStore must be able to serve every logged page version.
    db.flush_ship(ctx, true);
    let frag = Fragment {
        space,
        filter: clone_opt(filter),
        project: clone_opt_vec(project),
        agg,
    };
    let mut frag_buf = Vec::with_capacity(128);
    encode_fragment(&frag, &mut frag_buf);
    // Serialization cost on the engine.
    let done = db.env().engine_cpu.acquire(
        ctx.now(),
        VTime::from_nanos(db.env().model.cpu_fragment_codec_ns),
    );
    ctx.wait_until(done);

    let tasks = split_tasks(db, space);
    let mut partial_sets = Vec::with_capacity(tasks.len());
    let mut done_max = ctx.now();
    for task in &tasks {
        let mut task_ctx = ctx.fork();
        partial_sets.push(run_task(&mut task_ctx, db, &frag, frag_buf.len(), task)?);
        done_max = done_max.max(task_ctx.now());
    }
    ctx.wait_until(done_max);

    match &frag.agg {
        Some((group_by, aggs)) => {
            // Secondary aggregation over the partial states.
            let mut merged: HashMap<Vec<u8>, (Vec<Value>, Vec<AggState>)> = HashMap::new();
            for rows in partial_sets {
                for row in &rows {
                    let (key_vals, states) = row_to_states(row, group_by.len(), aggs);
                    let key = group_key(&key_vals);
                    match merged.get_mut(&key) {
                        Some((_, existing)) => {
                            for (e, s) in existing.iter_mut().zip(&states) {
                                e.merge(s);
                            }
                        }
                        None => {
                            merged.insert(key, (key_vals, states));
                        }
                    }
                }
            }
            let mut out: Vec<Row> = merged
                .into_values()
                .map(|(mut vals, states)| {
                    vals.extend(states.into_iter().map(AggState::finalize));
                    vals
                })
                .collect();
            out.sort_by_key(|r| group_key(r));
            Ok(out)
        }
        None => Ok(partial_sets.into_iter().flatten().collect()),
    }
}

fn clone_opt(e: &Option<Expr>) -> Option<Expr> {
    e.clone()
}

fn clone_opt_vec(e: &Option<Vec<Expr>>) -> Option<Vec<Expr>> {
    e.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::expr::CmpOp;

    #[test]
    fn fragment_codec_roundtrip() {
        let frag = Fragment {
            space: 7,
            filter: Some(Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::int(100))),
            project: Some(vec![Expr::col(0), Expr::mul(Expr::col(1), Expr::col(2))]),
            agg: Some((
                vec![0, 1],
                vec![
                    AggExpr::count_star(),
                    AggExpr::sum(Expr::col(2)),
                    AggExpr::avg(Expr::col(3)),
                    AggExpr::min(Expr::col(4)),
                    AggExpr::max(Expr::col(4)),
                ],
            )),
        };
        let mut buf = Vec::new();
        encode_fragment(&frag, &mut buf);
        assert_eq!(decode_fragment(&buf).unwrap(), frag);

        let bare = Fragment {
            space: 1,
            filter: None,
            project: None,
            agg: None,
        };
        let mut buf2 = Vec::new();
        encode_fragment(&bare, &mut buf2);
        assert_eq!(decode_fragment(&buf2).unwrap(), bare);
    }

    #[test]
    fn partial_state_rows_roundtrip() {
        let aggs = vec![
            AggExpr::count_star(),
            AggExpr::sum(Expr::col(1)),
            AggExpr::avg(Expr::col(1)),
            AggExpr::min(Expr::col(1)),
        ];
        let mut groups = HashMap::new();
        let key_vals = vec![Value::Int(5)];
        let mut states: Vec<AggState> = aggs.iter().map(|a| AggState::new(a.func)).collect();
        for v in [10i64, 20, 30] {
            states[0].update(AggFunc::CountStar, Value::Int(0));
            states[1].update(AggFunc::Sum, Value::Int(v));
            states[2].update(AggFunc::Avg, Value::Int(v));
            states[3].update(AggFunc::Min, Value::Int(v));
        }
        groups.insert(group_key(&key_vals), (key_vals.clone(), states));
        let rows = states_to_rows(groups);
        assert_eq!(rows.len(), 1);
        let (kv, states2) = row_to_states(&rows[0], 1, &aggs);
        assert_eq!(kv, key_vals);
        let finals: Vec<Value> = states2.into_iter().map(AggState::finalize).collect();
        assert_eq!(finals[0], Value::Int(3));
        assert_eq!(finals[1], Value::Double(60.0));
        assert_eq!(finals[2], Value::Double(20.0));
        assert_eq!(finals[3], Value::Int(10));
    }
}
