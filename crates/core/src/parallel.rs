//! Parallel snapshot iteration — the paper's future work, implemented
//! as a per-snapshot source of the shared driver ([`crate::mechanism`]).
//!
//! "Our future work includes performance optimizations for RQL programs
//! exploring how computations can be shared across multiple snapshots and
//! whether parallelization can be applied" (paper §7).
//!
//! Parallelization is natural in this architecture: snapshot readers are
//! read-only MVCC transactions over immutable SPTs and `Arc`-published
//! pages, so any number of iterations can execute Qq concurrently. Only
//! the fold into the result table is serialized (the auxiliary store is
//! single-writer): workers run the sequential per-snapshot function and
//! the driver folds their results in Qs order, so every mechanism's
//! output is byte-identical to the sequential run.
//!
//! The shared buffer cache makes this *cooperative*: threads working on
//! nearby snapshots warm each other's shared pre-states, so the total
//! Pagelog I/O stays close to the sequential run's.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rql_sqlengine::{Database, QueryResult, Result, SqlError};

use crate::mechanism::Qq;

/// One snapshot's outcome: Qq's output and whether the memo served it,
/// plus the wall time the worker spent producing it.
pub(crate) type Gathered = (Result<(QueryResult, bool)>, Duration);

/// Run Qq at every snapshot in `ids` on `threads` worker threads and
/// return the outcomes in Qs order.
pub(crate) fn gather(snap: &Database, qq: &Qq, ids: &[u64], threads: usize) -> Vec<Gathered> {
    let threads = threads.max(1).min(ids.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Gathered>>> = ids.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&sid) = ids.get(i) else { break };
                let started = Instant::now();
                // Cancellation checkpoint between Qq executions: once the
                // token trips, remaining snapshots fail fast instead of
                // running their queries to completion. A panic inside Qq
                // execution must not poison the scope (which would abort
                // the whole process via the scoped thread's unwind):
                // surface it as a per-snapshot error.
                let outcome = snap.cancel_token().check().and_then(|()| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| qq.execute(snap, sid)))
                        .unwrap_or_else(|payload| {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| (*s).to_owned())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic payload".to_owned());
                            Err(SqlError::Invalid(format!(
                                "Qq panicked on snapshot {sid}: {msg}"
                            )))
                        })
                });
                *slots[i]
                    .lock()
                    .expect("Qq panics are caught before the slot lock") =
                    Some((outcome, started.elapsed()));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("Qq panics are caught before the slot lock")
                .expect("worker filled every slot")
        })
        .collect()
}
