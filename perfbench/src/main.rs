//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-count|star-read|write-mix> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each workload replays one fixed operation sequence, generated from
//! the seed, with two closed-loop clients, starting every replay from
//! freshly built (uncracked) engines, until the time is up. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates untraced and
//! traced replays and reports the per-layer metrics. Every answer is
//! checked; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`, and a wrong answer
//! makes the exit code non-zero.

mod driver;
mod metrics;
mod paper_count;
mod rng;
mod runner;
mod star;
mod stats;
mod trace;

use aidx_obs::Json;
use runner::{Summary, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <paper-count|star-read|write-mix> --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|c| c.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn counts(pairs: Vec<(&'static str, u64)>) -> Json {
    Json::obj(pairs.into_iter().map(|(k, v)| (k, Json::UInt(v))).collect())
}

fn execute<W: Workload>(w: W, args: &Args) -> (Summary, Json) {
    let summary = runner::run(&w, args.seconds, args.trace);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stamp = Json::obj(vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::UInt(nproc as u64)),
        ("clients", Json::UInt(driver::CLIENTS as u64)),
        ("rows", counts(w.sizes())),
        ("ops_per_replay", counts(w.op_counts())),
        ("replays", Json::UInt(summary.replays as u64)),
        ("git_commit", Json::str(git_commit())),
    ]);
    (summary, stamp)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut summary, stamp) = match args.workload.as_str() {
        "paper-count" => execute(paper_count::PaperCount::generate(args.seed), &args),
        "star-read" => execute(star::StarRead::generate(args.seed), &args),
        "write-mix" => execute(star::WriteMix::generate(args.seed), &args),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(log) = &summary.spans {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| log.write_jsonl(&path)) {
            Ok(()) => println!("# spans of the last traced replay: {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    println!("# stamp {}", stamp.render());
    let failed_ratio = summary.failed as f64 / summary.attempted.max(1) as f64;
    summary
        .report
        .set("failed_op_ratio", failed_ratio, summary.attempted);
    let declared = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for name in summary.report.missing(declared) {
        if args.trace {
            // A layer the workload does not exercise (no owner thread on
            // paper-count, no join on write-mix, ...) measured nothing, and
            // a percentile short of samples was refused above.
            println!("# {name}: not measured on this workload, reported as 0");
            summary.report.set(name, 0.0, 0);
        } else {
            summary.report.print_table();
            eprintln!("end-to-end metric {name} was not measured; no result line");
            return ExitCode::FAILURE;
        }
    }
    summary.report.print_table();
    let result = Json::obj(vec![
        ("correct", Json::Bool(summary.correct)),
        ("attempted", Json::UInt(summary.attempted)),
        ("failed", Json::UInt(summary.failed)),
        ("metrics", summary.report.to_json(declared)),
    ]);
    println!("{}", result.render());
    if summary.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
