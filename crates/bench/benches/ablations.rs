//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. chained-WR persistent write (2×WRITE + READ-flush, one doorbell) vs
//!    separate work requests vs a two-sided RPC write;
//! 2. SegmentRing appends vs BlobGroup appends for the log;
//! 3. EBP priority vs flat policy under a scan-heavy eviction storm;
//! 4. log-segment replication factor 3 vs 1.
//!
//! Each ablation prints a small table of virtual-time costs.

use std::collections::HashMap;
use std::sync::Arc;

use vedb_astore::layout::SegmentClass;
use vedb_astore::{AppendOpts, SegmentOpts};
use vedb_bench::print_table;
use vedb_blobstore::{BlobGroup, BlobGroupConfig};
use vedb_core::db::StorageFabric;
use vedb_core::ebp::{Ebp, EbpConfig};
use vedb_pagestore::page::{Page, PageType};
use vedb_sim::{ClusterSpec, SimCtx, VTime};

fn fabric() -> StorageFabric {
    StorageFabric::build(ClusterSpec::paper_default(), 256 << 20, 4 << 20)
}

fn astore_client(f: &StorageFabric, ctx: &mut SimCtx, id: u64) -> Arc<vedb_astore::AStoreClient> {
    let ep = vedb_rdma::RdmaEndpoint::new(
        f.env.model.clone(),
        Arc::clone(&f.env.faults),
        Arc::clone(&f.env.engine_nic),
    );
    vedb_astore::AStoreClient::connect(
        ctx,
        Arc::clone(&f.cm),
        ep,
        Arc::clone(&f.env.engine_cpu),
        f.env.model.clone(),
        id,
        VTime::from_millis(50),
    )
}

/// Ablation 1: the write chain vs alternatives, 4KB persistent writes.
fn ablate_write_chain(f: &StorageFabric) {
    const N: usize = 500;
    let data = vec![7u8; 4096];
    let meta = [0u8; 8];

    let mut ctx = SimCtx::new(1, 3);
    let server = &f.astore_servers[0];
    let mr = server.mr();
    let ep = vedb_rdma::RdmaEndpoint::new(
        f.env.model.clone(),
        Arc::clone(&f.env.faults),
        Arc::clone(&f.env.engine_nic),
    );
    // Reserve scratch space straight on the device for the ablation.
    let mut alloc_ctx = SimCtx::new(9, 3);
    let off = server
        .handle_alloc(&mut alloc_ctx, 900_001, SegmentClass::Log)
        .unwrap();
    let meta_off = server.io_meta_offset(off);

    // (a) chained: one doorbell, 2 WRITEs + flush READ.
    let t0 = ctx.now();
    for _ in 0..N {
        ep.write_chain(&mut ctx, &mr, &[(off, &data), (meta_off, &meta)])
            .unwrap();
    }
    let chained = (ctx.now() - t0) / N as u64;

    // (b) separate one-sided WRs + explicit flush read.
    let t0 = ctx.now();
    for _ in 0..N {
        ep.write(&mut ctx, &mr, off, &data).unwrap();
        ep.write(&mut ctx, &mr, meta_off, &meta).unwrap();
        let _ = ep.read(&mut ctx, &mr, off, 64).unwrap();
    }
    let separate = (ctx.now() - t0) / N as u64;

    // (c) two-sided RPC write through the server CPU.
    let t0 = ctx.now();
    for _ in 0..N {
        f.rpc
            .call(&mut ctx, server.node(), server.res(), data.len(), 16, |c| {
                let done = server
                    .res()
                    .pmem
                    .as_ref()
                    .unwrap()
                    .acquire(c.now(), f.env.model.pmem_write_svc(data.len()));
                c.wait_until(done);
            })
            .unwrap();
    }
    let rpc = (ctx.now() - t0) / N as u64;

    print_table(
        "Ablation: 4KB persistent write to AStore",
        &["method", "avg latency (us)"],
        &[
            vec![
                "chained 2xWRITE + READ (one doorbell)".into(),
                format!("{:.1}", chained.as_micros_f64()),
            ],
            vec![
                "separate WRs + flush READ".into(),
                format!("{:.1}", separate.as_micros_f64()),
            ],
            vec![
                "two-sided RPC write".into(),
                format!("{:.1}", rpc.as_micros_f64()),
            ],
        ],
    );
    assert!(chained < separate && separate < rpc);
}

/// Ablation 2: SegmentRing vs BlobGroup appends (the §V-A comparison).
fn ablate_ring_vs_bloggroup(f: &StorageFabric) {
    const N: usize = 300;
    let mut ctx = SimCtx::new(2, 3);
    let client = astore_client(f, &mut ctx, 910);
    let ring = vedb_astore::SegmentRing::create(&mut ctx, client, 8, 0).unwrap();
    let payload = vec![5u8; 8 * 1024];

    let t0 = ctx.now();
    for _ in 0..N {
        ring.append(&mut ctx, &payload).unwrap();
    }
    let ring_avg = (ctx.now() - t0) / N as u64;

    let group = BlobGroup::create(
        &mut ctx,
        BlobGroupConfig::default(),
        &f.blob_servers,
        Arc::clone(&f.rpc),
    )
    .unwrap();
    let t0 = ctx.now();
    for _ in 0..N {
        group.append(&mut ctx, &payload).unwrap();
    }
    let blob_avg = (ctx.now() - t0) / N as u64;

    print_table(
        "Ablation: 8KB log append, SegmentRing vs BlobGroup",
        &["container", "avg latency (us)"],
        &[
            vec![
                "SegmentRing (PMem, one-sided)".into(),
                format!("{:.1}", ring_avg.as_micros_f64()),
            ],
            vec![
                "BlobGroup (SSD, RPC)".into(),
                format!("{:.1}", blob_avg.as_micros_f64()),
            ],
        ],
    );
    assert!(ring_avg.as_nanos() * 3 < blob_avg.as_nanos());
}

/// Ablation 3: EBP priority vs flat policy under an eviction storm.
fn ablate_ebp_policy(f: &StorageFabric) {
    let mut rows = Vec::new();
    let mut survival = Vec::new();
    // Space 7 = the push-down table; the flat arm ranks every space alike.
    for (name, client_id, space_priority) in [
        ("flat", 920, HashMap::new()),
        ("priority", 921, HashMap::from([(7, 10)])),
    ] {
        let mut ctx = SimCtx::new(3, 3);
        let client = astore_client(f, &mut ctx, client_id);
        let cfg = EbpConfig {
            capacity_bytes: 64 * 16 * 1024, // 64 pages
            shards: 1,
            space_priority,
            ..Default::default()
        };
        let ebp = Ebp::new(client, cfg);
        let mut page = Page::new();
        page.format(PageType::BTreeLeaf, 0);
        // Cache 32 hot push-down pages, then storm 200 cold pages through.
        for i in 0..32 {
            ebp.write_page(&mut ctx, vedb_astore::PageId::new(7, i), &page, 10)
                .unwrap();
        }
        for i in 0..200 {
            ebp.write_page(&mut ctx, vedb_astore::PageId::new(1, i), &page, 10)
                .unwrap();
        }
        let survived = (0..32)
            .filter(|i| ebp.contains(vedb_astore::PageId::new(7, *i)))
            .count();
        survival.push(survived);
        rows.push(vec![name.to_string(), format!("{survived}/32")]);
    }
    print_table(
        "Ablation: hot push-down pages surviving an eviction storm",
        &["EBP policy", "hot pages retained"],
        &rows,
    );
    assert!(
        survival[1] > survival[0],
        "priority policy must protect hot pages"
    );
}

/// Ablation 4: log replication factor 3 vs 1 (latency cost of safety).
fn ablate_replication(f: &StorageFabric) {
    const N: usize = 300;
    let mut ctx = SimCtx::new(4, 3);
    let client = astore_client(f, &mut ctx, 930);
    let payload = vec![9u8; 4096];
    let mut rows = Vec::new();
    let mut lat = Vec::new();
    for replication in [1usize, 3] {
        let seg = client
            .create_segment_with(
                &mut ctx,
                SegmentOpts::new(SegmentClass::Log).with_replication(replication),
            )
            .unwrap();
        let t0 = ctx.now();
        for _ in 0..N {
            if client.segment_len(seg) + payload.len() as u64 > client.segment_capacity(seg) {
                break;
            }
            client
                .append_with(&mut ctx, seg, &payload, AppendOpts::new())
                .unwrap();
        }
        let avg = (ctx.now() - t0) / N as u64;
        lat.push(avg);
        rows.push(vec![
            format!("{replication} replica(s)"),
            format!("{:.1}", avg.as_micros_f64()),
        ]);
    }
    print_table(
        "Ablation: 4KB AStore append latency vs replication factor",
        &["replication", "avg latency (us)"],
        &rows,
    );
    assert!(lat[1] >= lat[0], "triplicated writes cannot be cheaper");
}

fn main() {
    let f = fabric();
    ablate_write_chain(&f);
    ablate_ring_vs_bloggroup(&f);
    ablate_ebp_policy(&f);
    ablate_replication(&f);
    println!("\nablations: OK");
}
