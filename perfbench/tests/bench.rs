//! The benchmark's own checks: seeded streams are reproducible and
//! seed-dependent, printed metric names match `BENCHMARK.json`, and in
//! the single-client short mode the counted quantities repeat exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use perfbench::drive::next_program;
use perfbench::gen::{commit_orders, join_statements, refresh_statements, Rng};
use perfbench::setup::Workload;
use perfbench::{counted, run, Args};

/// Everything one seed sends on one workload, as text: each connection's
/// first programs and the writer's first commits.
fn stream(workload: Workload, seed: u64) -> Vec<String> {
    let config = workload.config();
    let shape = config.shape();
    let latest = config.snapshots + 7;
    let root = Rng::new(seed);
    let mut out = Vec::new();
    for conn in 1..=2 {
        let mut rng = root.fork(conn);
        for i in 0..200 {
            let spec = next_program(workload, &config, &mut rng);
            out.push(spec.program(&shape, latest, &format!("t{i}")));
        }
    }
    let mut commits = root.fork(3);
    let (mut del, mut ins) = (1i64, 10_000i64);
    for _ in 0..20 {
        let n = commit_orders(&mut commits);
        let (statements, _) = refresh_statements(&config.tpch(), del..del + n, ins..ins + n);
        out.push(join_statements(&statements));
        del += n;
        ins += n;
    }
    out
}

#[test]
fn same_seed_gives_the_same_stream() {
    for workload in Workload::ALL {
        assert_eq!(stream(workload, 42), stream(workload, 42), "{workload:?}");
    }
}

#[test]
fn another_seed_gives_another_stream() {
    for workload in Workload::ALL {
        assert_ne!(stream(workload, 42), stream(workload, 43), "{workload:?}");
    }
}

fn scratch(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{tag}-{}", std::process::id()))
}

/// `(end_to_end, per_layer)` metric names declared in `BENCHMARK.json`.
fn declared() -> (BTreeSet<String>, BTreeSet<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let section = |key: &str| -> BTreeSet<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let end = text[start..].find(']').expect("section closes") + start;
        text[start..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("a quoted name").to_owned())
            .collect()
    };
    (section("end_to_end"), section("per_layer"))
}

#[test]
fn printed_metrics_match_the_declaration() {
    let (end_to_end, per_layer) = declared();
    for workload in Workload::ALL {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let args = Args {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                work_dir: scratch(&format!("names-{}-{trace}", workload.name())),
                rev: "test".into(),
            };
            let outcome = run(&args).expect("short run");
            // Short traced runs start with a cold cache, so only failures
            // are checked here, not the reconciliation bound.
            assert_eq!(
                outcome.failed, 0,
                "{workload:?} trace={trace}: {:?}",
                outcome.notes
            );
            let printed: BTreeSet<String> =
                outcome.metrics.0.iter().map(|m| m.name.clone()).collect();
            assert_eq!(&printed, want, "{workload:?} trace={trace}");
        }
    }
}

#[test]
fn counted_quantities_repeat_in_short_mode() {
    for workload in Workload::ALL {
        let args = |n: u32| Args {
            workload,
            seed: 5,
            seconds: 1.0,
            trace: false,
            work_dir: scratch(&format!("count-{}-{n}", workload.name())),
            rev: "test".into(),
        };
        let first = counted(&args(1), 12).expect("first short run");
        let second = counted(&args(2), 12).expect("second short run");
        assert_eq!(first, second, "{workload:?}");
        assert!(
            first.iter().any(|(_, v)| *v > 0),
            "{workload:?} counted nothing"
        );
    }
}
