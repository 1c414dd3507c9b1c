//! `perfbench`: the end-to-end and per-layer benchmark of `mcheck` and
//! `mcheckd`. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <seed_batch|seed_edit|fleet_batch> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`). A readable summary goes to standard error.

mod daemon;
mod inputs;
mod measure;
mod trace;
mod verify;
mod workloads;

use mc_json::Json;
use measure::{median, Host};
use workloads::{Metric, Outcome, Params, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <seed_batch|seed_edit|fleet_batch> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    params: Params,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = mc_corpus::DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let (mut smoke, mut tamper) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            // Tiny inputs, for the benchmark's own tests.
            "--smoke" => smoke = true,
            // Corrupts every reference, to show the check catches it.
            "--tamper-reference" => tamper = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| USAGE.to_string())?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        params: Params {
            seed,
            seconds,
            smoke,
            tamper,
            host: Host::probe(),
        },
        trace,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(out: &Outcome) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Object(vec![
                    ("value".into(), Json::Float(median(&m.samples))),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(out.tally.failed == 0)),
        ("attempted".into(), Json::Int(out.tally.attempted as i64)),
        ("failed".into(), Json::Int(out.tally.failed as i64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .to_compact()
}

fn describe(m: &Metric) -> String {
    let lo = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "  {:<34} {:>14.4} {:<6} (median of n={}, min {:.4}, max {:.4})",
        m.name,
        median(&m.samples),
        m.unit,
        m.samples.len(),
        lo,
        hi
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(daemon::SERVE_FLAG) => {
            std::process::exit(i32::from(daemon::serve_main(argv[1..].to_vec())))
        }
        Some(verify::MCHECK_FLAG) => {
            std::process::exit(i32::from(verify::mcheck_main(argv[1..].to_vec())))
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let p = &args.params;
    eprintln!("{}", p.host.describe());
    eprintln!(
        "workload={} seed={} seconds={} trace={}{}",
        args.workload,
        p.seed,
        p.seconds,
        u8::from(args.trace),
        if p.smoke { " (smoke inputs)" } else { "" }
    );
    let outcome = if args.trace {
        trace::run(&args.workload, p)
    } else {
        workloads::run(&args.workload, p)
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &out.notes {
        eprintln!("{note}");
    }
    for m in &out.metrics {
        eprintln!("{}", describe(m));
    }
    eprintln!(
        "  {:<34} {:>14.4} ratio  ({} of {} checked outputs wrong)",
        "error_rate",
        out.tally.error_rate(),
        out.tally.failed,
        out.tally.attempted
    );
    eprintln!(
        "  {:<34} {:>14} count",
        "bugs_missed", out.tally.bugs_missed
    );
    println!("{}", result_line(&out));
}
