//! Criterion microbenchmarks for the substrate operations the paper's
//! costs decompose into, plus the ablations DESIGN.md §5 calls out:
//!
//! * `spt_build/*` — Skippy vs linear Maplog scan (the n log n claim);
//! * `cache_keying/*` — Pagelog-offset vs per-snapshot cache keys
//!   (cross-snapshot sharing);
//! * `cow_commit/*` — commit overhead with and without a declared
//!   snapshot (the COW capture cost);
//! * `result_table/*` — blind inserts vs probe+update on an indexed
//!   result table (Figure 12's explanation);
//! * `engine/*` — parser and executor hot paths.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use rql_pagestore::{CacheKeying, PageId, PagerConfig};
use rql_retro::{RetroConfig, RetroStore};
use rql_sqlengine::{parse_statements, Database, Value};

fn config(keying: CacheKeying, use_skippy: bool) -> RetroConfig {
    RetroConfig {
        pager: PagerConfig {
            page_size: 4096,
            cache_capacity: 1 << 14,
            wal_sync_on_commit: false,
        },
        use_skippy,
        keying,
        pagelog_format: rql_retro::PagelogFormat::Raw,
    }
}

/// A store with `pages` pages and `snapshots` snapshots, each snapshot
/// followed by `writes_per_snapshot` page writes.
fn store_with_history(
    cfg: RetroConfig,
    pages: u64,
    snapshots: u64,
    writes_per_snapshot: u64,
) -> Arc<RetroStore> {
    let store = RetroStore::in_memory(cfg);
    let mut txn = store.begin().unwrap();
    for _ in 0..pages {
        txn.allocate_page();
    }
    store.commit(txn).unwrap();
    let mut cursor = 0u64;
    for _ in 0..snapshots {
        let t = store.begin().unwrap();
        store.commit_with_snapshot(t).unwrap();
        let mut txn = store.begin().unwrap();
        for _ in 0..writes_per_snapshot {
            let pid = PageId(cursor % pages);
            cursor += 1;
            let mut page = txn.page_for_update(pid).unwrap();
            page.write_u64(0, cursor);
            txn.write_page(pid, page).unwrap();
        }
        store.commit(txn).unwrap();
    }
    store
}

fn bench_spt_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("spt_build");
    for (label, use_skippy) in [("skippy", true), ("linear", false)] {
        let store = store_with_history(
            config(CacheKeying::ByPagelogOffset, use_skippy),
            256,
            200,
            64,
        );
        group.bench_function(format!("{label}/oldest_snapshot"), |b| {
            b.iter(|| store.build_spt(1).unwrap());
        });
        group.bench_function(format!("{label}/recent_snapshot"), |b| {
            b.iter(|| store.build_spt(190).unwrap());
        });
    }
    group.finish();
}

fn bench_cache_keying(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_keying");
    for (label, keying) in [
        ("pagelog_offset", CacheKeying::ByPagelogOffset),
        ("per_snapshot", CacheKeying::PerSnapshot),
    ] {
        let store = store_with_history(config(keying, true), 128, 20, 8);
        group.bench_function(format!("{label}/two_consecutive_snapshots"), |b| {
            b.iter(|| {
                store.cache().clear();
                for sid in [1u64, 2u64] {
                    let reader = store.open_snapshot(sid).unwrap();
                    for p in 0..reader.page_count() {
                        reader.page(PageId(p)).unwrap();
                    }
                }
            });
        });
    }
    group.finish();
}

fn bench_cow_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("cow_commit");
    for (label, declare) in [("plain_commit", false), ("after_snapshot", true)] {
        group.bench_function(format!("{label}/64_page_txn"), |b| {
            b.iter_batched(
                || {
                    let store =
                        store_with_history(config(CacheKeying::ByPagelogOffset, true), 128, 0, 0);
                    if declare {
                        let t = store.begin().unwrap();
                        store.commit_with_snapshot(t).unwrap();
                    }
                    store
                },
                |store| {
                    let mut txn = store.begin().unwrap();
                    for p in 0..64 {
                        let pid = PageId(p);
                        let mut page = txn.page_for_update(pid).unwrap();
                        page.write_u64(0, p);
                        txn.write_page(pid, page).unwrap();
                    }
                    store.commit(txn).unwrap();
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_result_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("result_table");
    // Figure 12's cost explanation: blind inserts (CollateData, no key)
    // vs probe+update through an index (AggregateDataInTable).
    group.bench_function("blind_insert_1k", |b| {
        b.iter_batched(
            || {
                let db = Database::default_in_memory();
                db.execute("CREATE TABLE r (k INTEGER, v INTEGER)").unwrap();
                db
            },
            |db| {
                db.with_table_writer("r", |w| {
                    for i in 0..1000 {
                        w.insert(vec![Value::Integer(i), Value::Integer(i)])?;
                    }
                    Ok(())
                })
                .unwrap();
            },
            BatchSize::SmallInput,
        );
    });
    group.bench_function("probe_update_1k", |b| {
        b.iter_batched(
            || {
                let db = Database::default_in_memory();
                db.execute("CREATE TABLE r (k INTEGER, v INTEGER)").unwrap();
                db.execute("CREATE INDEX r_k ON r (k)").unwrap();
                db.with_table_writer("r", |w| {
                    for i in 0..1000 {
                        w.insert(vec![Value::Integer(i), Value::Integer(i)])?;
                    }
                    Ok(())
                })
                .unwrap();
                db
            },
            |db| {
                db.with_table_writer("r", |w| {
                    for i in 0..1000 {
                        let hits = w.probe(0, &[Value::Integer(i)])?;
                        let (rid, old) = hits.into_iter().next().unwrap();
                        let mut new_row = old.clone();
                        new_row[1] = Value::Integer(i + 1);
                        w.update(rid, &old, new_row)?;
                    }
                    Ok(())
                })
                .unwrap();
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.bench_function("parse_qq_agg", |b| {
        b.iter(|| {
            parse_statements(
                "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av \
                 FROM orders GROUP BY o_custkey",
            )
            .unwrap()
        });
    });
    let db = Database::default_in_memory();
    db.execute("CREATE TABLE t (a INTEGER, b TEXT)").unwrap();
    db.with_table_writer("t", |w| {
        for i in 0..5000 {
            w.insert(vec![Value::Integer(i), Value::text(format!("row{i}"))])?;
        }
        Ok(())
    })
    .unwrap();
    group.bench_function("scan_filter_5k", |b| {
        b.iter(|| db.query("SELECT COUNT(*) FROM t WHERE a % 7 = 0").unwrap());
    });
    group.bench_function("group_by_5k", |b| {
        b.iter(|| {
            db.query("SELECT a % 10, COUNT(*) FROM t GROUP BY a % 10")
                .unwrap()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spt_build,
    bench_cache_keying,
    bench_cow_commit,
    bench_result_table,
    bench_engine
);
criterion_main!(benches);
