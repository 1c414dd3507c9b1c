//! Front-end cost of checking a fleet: lex, parse, unit fingerprint, CFG
//! build, CFG teardown and AST teardown, on one thread, plus resident
//! memory once every unit is parsed and once every CFG exists.
//!
//! `cargo run --release -p mc-bench --bin frontend [-- --scale N --reps R]`
//! generates the `--scale` fleet (default 10) and prints one line per
//! phase: the median over `--reps` passes (default 5) in milliseconds.
//! Memory figures are from `/proc/self/status` (Linux only; 0 elsewhere).

use mc_ast::{parse_translation_unit, Fingerprint, Lexer, TranslationUnit};
use mc_driver::CheckedUnit;
use std::time::Instant;

/// A `/proc/self/status` field in megabytes (`VmRSS`, `VmHWM`).
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn arg(args: &[String], flag: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

const PHASES: [&str; 6] = [
    "lex",
    "parse",
    "fingerprint",
    "cfg_build",
    "cfg_teardown",
    "ast_teardown",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = arg(&args, "--scale", 10);
    let reps = arg(&args, "--reps", 5).max(1);
    let sources: Vec<(String, String)> = mc_corpus::generate_fleet(mc_corpus::DEFAULT_SEED, scale)
        .into_iter()
        .flat_map(|p| {
            let name = p.name;
            p.files
                .into_iter()
                .map(move |f| (f.source, format!("{name}/{}", f.name)))
        })
        .collect();
    let bytes: usize = sources.iter().map(|(s, _)| s.len()).sum();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let (mut parsed_mb, mut cfg_mb) = (0.0, 0.0);
    for rep in 0..reps {
        let (_, lex) = timed(|| {
            for (src, _) in &sources {
                drop(Lexer::new(src).tokenize().expect("fleet lexes"));
            }
        });
        let (units, parse): (Vec<TranslationUnit>, f64) = timed(|| {
            sources
                .iter()
                .map(|(src, file)| parse_translation_unit(src, file).expect("fleet parses"))
                .collect()
        });
        let rss_parsed = status_mb("VmRSS");
        let (_, fingerprint) = timed(|| {
            for unit in &units {
                std::hint::black_box(Fingerprint::of_unit(unit));
            }
        });
        let (mut checked, cfg_build): (Vec<CheckedUnit>, f64) =
            timed(|| units.into_iter().map(CheckedUnit::new).collect());
        let rss_cfg = status_mb("VmRSS");
        let cfgs: Vec<_> = checked
            .iter_mut()
            .map(|u| std::mem::take(&mut u.cfgs))
            .collect();
        let (_, cfg_teardown) = timed(|| drop(cfgs));
        let (_, ast_teardown) = timed(|| drop(checked));
        let row = [
            lex,
            parse,
            fingerprint,
            cfg_build,
            cfg_teardown,
            ast_teardown,
        ];
        for (t, v) in times.iter_mut().zip(row) {
            t.push(v);
        }
        if rep == 0 {
            (parsed_mb, cfg_mb) = (rss_parsed, rss_cfg);
        }
    }
    println!(
        "fleet scale {scale}: {} files, {:.1} MB of C, median of {reps} pass(es)",
        sources.len(),
        bytes as f64 / 1e6
    );
    for (name, t) in PHASES.iter().zip(times) {
        println!("{name:<14} {:>9.1} ms", median(t));
    }
    println!("rss_parsed     {parsed_mb:>9.0} MB");
    println!("rss_cfgs       {cfg_mb:>9.0} MB");
    println!("peak_rss       {:>9.0} MB", status_mb("VmHWM"));
}
