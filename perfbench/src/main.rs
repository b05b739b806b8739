//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>] [--rev <rev>]`
//!
//! Prints the run config and every metric by name and unit, then, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero without a result line on a usage or set-up
//! error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::setup::Workload;
use perfbench::stats::result_line;
use perfbench::{run, Args};

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut rev = "unknown".to_owned();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            "--work-dir" => work_dir = PathBuf::from(value),
            "--rev" => rev = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        work_dir,
        rev,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let _ = std::fs::remove_dir_all(&args.work_dir);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics.0 {
        println!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
