//! Differential test of confirmation replay: the engine's per-component,
//! cached confirmation step against the whole-program post-pass it
//! replaced, kept here as the oracle.
//!
//! The oracle loads every source into one simulator program and replays
//! each `sat` report against it. The engine replays per call-graph
//! component, on programs lowered from already-parsed units, and caches
//! outcomes by component and constant table. The two must agree on every
//! verdict: cold, warm from disk, after edits that the cache keys must
//! notice, and at any worker count.

use flash_mc::checkers::all_checkers;
use flash_mc::checkers::flash::FlashSpec;
use flash_mc::corpus::{generate_fleet, DEFAULT_SEED};
use flash_mc::driver::cache::DiskCache;
use flash_mc::driver::{call_components, call_info, CheckEngine, Driver, Report, Verdict};
use flash_mc::sim;

/// The whole-program confirmation post-pass, as `mcheck` ran it after
/// checking: load every source, replay each replayable `sat` report's
/// model, promote the ones that reproduce.
fn oracle(reports: &mut [Report], sources: &[(String, String)]) {
    if !reports.iter().any(|r| r.verdict == Verdict::Sat) {
        return;
    }
    let Ok(program) = sim::Program::from_sources(sources) else {
        return;
    };
    for r in reports.iter_mut() {
        if r.verdict != Verdict::Sat || !sim::replayable_checker(&r.checker) {
            continue;
        }
        if sim::replay(program.clone(), &r.checker, &r.function, &r.model) {
            r.verdict = Verdict::Confirmed;
            r.confidence = r.confidence.saturating_add(10).min(100);
        }
    }
}

/// Asserts that `reports` carry exactly the verdicts and confidences the
/// oracle assigns. The oracle's input is `reports` before confirmation:
/// confirmed reports go back to `sat` at the confidence the same report
/// has without refutation (a `sat` decision leaves confidence alone).
fn assert_agrees(case: &str, reports: &[Report], sources: &[(String, String)], spec: &FlashSpec) {
    let mut plain = driver(spec, 1);
    plain.refute(false);
    let before: std::collections::HashMap<(String, u32, u32), u8> = plain
        .check_sources(sources)
        .unwrap()
        .into_iter()
        .map(|r| ((r.fingerprint(), r.span.line, r.span.col), r.confidence))
        .collect();
    let mut redone = reports.to_vec();
    for r in &mut redone {
        if r.verdict == Verdict::Confirmed {
            r.verdict = Verdict::Sat;
            r.confidence = before[&(r.fingerprint(), r.span.line, r.span.col)];
        }
    }
    oracle(&mut redone, sources);
    assert_eq!(reports, redone.as_slice(), "{case}: engine vs oracle");
    assert!(
        reports.iter().any(|r| r.verdict == Verdict::Confirmed)
            && reports.iter().any(|r| r.verdict == Verdict::Sat),
        "{case}: the inputs exercise both outcomes"
    );
}

/// A handler whose replay reads `PROBE_ON`, declared in a unit of its own:
/// the read happens only when the constant is non-zero, and the symbolic
/// pass cannot see the value, so only replay decides the verdict.
const FLAG: &str = "enum probe_modes { PROBE_OFF, PROBE_ON = 1 };\n";
const PROBE: &str = "void PIProbeRead(void)\n\
                     {\n\
                     \x20   HANDLER_DEFS();\n\
                     \x20   HANDLER_PROLOGUE();\n\
                     \x20   if (PROBE_ON) {\n\
                     \x20       MISCBUS_READ_DB(addr, buf);\n\
                     \x20   }\n\
                     \x20   DB_FREE();\n\
                     }\n";

/// A handler whose replay depends on a callee in another unit: the read
/// happens only when `probe_gate` leaves `gGate` set. The callee is opaque
/// to the symbolic pass, so only replay decides the verdict.
const GATE: &str = "void probe_gate(void)\n{\n    gGate = 0;\n}\n";
const GATED: &str = "void PIProbeGated(void)\n\
                     {\n\
                     \x20   HANDLER_DEFS();\n\
                     \x20   HANDLER_PROLOGUE();\n\
                     \x20   probe_gate();\n\
                     \x20   if (gGate) {\n\
                     \x20       MISCBUS_READ_DB(addr, buf);\n\
                     \x20   }\n\
                     \x20   DB_FREE();\n\
                     }\n";

/// The sci protocol plus the two probe pairs (last four units: flag.c,
/// probe.c, gate.c, gated.c), and sci's spec.
fn inputs() -> (Vec<(String, String)>, FlashSpec) {
    let sci = generate_fleet(DEFAULT_SEED, 1)
        .into_iter()
        .find(|p| p.name == "sci")
        .expect("sci protocol");
    let mut sources = sci.sources();
    for (src, file) in [
        (FLAG, "flag.c"),
        (PROBE, "probe.c"),
        (GATE, "gate.c"),
        (GATED, "gated.c"),
    ] {
        sources.push((src.into(), file.into()));
    }
    (sources, sci.spec)
}

fn driver(spec: &FlashSpec, jobs: usize) -> Driver {
    let mut d = Driver::new();
    d.jobs(jobs).refute(true);
    all_checkers(&mut d, spec).expect("suite registers");
    d
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-confirm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The call-graph component of every unit.
fn component_of(sources: &[(String, String)]) -> Vec<usize> {
    let infos: Vec<_> = sources
        .iter()
        .map(|(src, file)| call_info(&flash_mc::ast::parse_translation_unit(src, file).unwrap()))
        .collect();
    let mut of = vec![0; sources.len()];
    for (c, comp) in call_components(&infos).iter().enumerate() {
        for &i in comp {
            of[i] = c;
        }
    }
    of
}

/// The verdict of `handler`'s `wait_for_db` report.
fn verdict_of(reports: &[Report], handler: &str) -> Verdict {
    reports
        .iter()
        .find(|r| r.function == handler && r.checker == "wait_for_db")
        .expect("probe report")
        .verdict
}

#[test]
fn cold_batch_and_warm_disk_runs_match_the_oracle() {
    let (sources, spec) = inputs();
    let d = driver(&spec, 1);
    let batch = d.check_sources(&sources).unwrap();
    assert_agrees("cold batch", &batch, &sources, &spec);

    let dir = scratch("warm");
    let mut cold = CheckEngine::with_disk(DiskCache::open(&dir).unwrap());
    let (filled, stats) = cold.check_sources(&d, &sources).unwrap();
    assert_eq!(filled, batch, "cold engine == batch");
    assert!(stats.replays_run > 0);

    let mut warm = CheckEngine::with_disk(DiskCache::open(&dir).unwrap());
    let (reports, stats) = warm.check_sources(&d, &sources).unwrap();
    assert!(stats.program_hit);
    assert_eq!(stats.replays_run, 0, "a warm disk run replays nothing");
    assert_agrees("warm disk", &reports, &sources, &spec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_and_four_workers_match_the_oracle() {
    let (sources, spec) = inputs();
    let one = CheckEngine::in_memory()
        .check_sources(&driver(&spec, 1), &sources)
        .unwrap()
        .0;
    let four = CheckEngine::in_memory()
        .check_sources(&driver(&spec, 4), &sources)
        .unwrap()
        .0;
    assert_eq!(one, four);
    assert_agrees("--jobs 1", &one, &sources, &spec);
    assert_eq!(driver(&spec, 4).check_sources(&sources).unwrap(), one);
}

#[test]
fn callee_body_edit_in_the_same_component_matches_the_oracle() {
    let (mut sources, spec) = inputs();
    let gate = sources.len() - 2;
    let comp = component_of(&sources);
    assert_eq!(comp[gate], comp[gate + 1], "gate.c and gated.c are joined");

    let d = driver(&spec, 1);
    let mut engine = CheckEngine::in_memory();
    let (before, _) = engine.check_sources(&d, &sources).unwrap();
    assert_eq!(verdict_of(&before, "PIProbeGated"), Verdict::Sat);

    // The caller's unit, its report and that report's replay inputs are
    // unchanged; only the callee's body moved.
    sources[gate].0 = GATE.replace("gGate = 0", "gGate = 1");
    let (after, stats) = engine.check_sources(&d, &sources).unwrap();
    assert_eq!(stats.units_checked, 1);
    assert!(
        stats.replays_cached > 0,
        "other components answer from cache"
    );
    assert_eq!(verdict_of(&after, "PIProbeGated"), Verdict::Confirmed);
    assert_eq!(after, d.check_sources(&sources).unwrap());
    assert_agrees("callee body edit", &after, &sources, &spec);
}

#[test]
fn constant_edit_in_another_component_replays_and_matches_the_oracle() {
    let (mut sources, spec) = inputs();
    let flag = sources.len() - 4;
    let comp = component_of(&sources);
    assert_ne!(comp[flag], comp[flag + 1], "flag.c and probe.c are apart");

    let d = driver(&spec, 1);
    let dir = scratch("const");
    let mut engine = CheckEngine::with_disk(DiskCache::open(&dir).unwrap());
    let (before, _) = engine.check_sources(&d, &sources).unwrap();
    assert_eq!(verdict_of(&before, "PIProbeRead"), Verdict::Confirmed);

    sources[flag].0 = FLAG.replace("PROBE_ON = 1", "PROBE_ON = 0");
    let (after, stats) = engine.check_sources(&d, &sources).unwrap();
    assert!(stats.replays_run > 0, "a constant edit re-replays");
    assert_eq!(verdict_of(&after, "PIProbeRead"), Verdict::Sat);
    assert_eq!(after, d.check_sources(&sources).unwrap());
    assert_agrees("constant edit", &after, &sources, &spec);
    let _ = std::fs::remove_dir_all(&dir);
}
