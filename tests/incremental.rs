//! Incremental engine equivalence: warm, disk-warm, and touched re-runs
//! must reproduce the cold report vector exactly — same reports, same
//! order — at every worker count, and an incremental re-check after an
//! edit must match a from-scratch run on the edited sources.
//!
//! Together with `tests/determinism.rs` this pins the property that makes
//! caching safe to leave on: output never depends on what happens to be in
//! the cache or on thread scheduling.

use flash_mc::checkers::all_checkers;
use flash_mc::corpus::plan::PLANS;
use flash_mc::corpus::{generate, DEFAULT_SEED};
use flash_mc::driver::cache::DiskCache;
use flash_mc::driver::{CheckEngine, CheckSink, Checker, Driver, FunctionContext, Report};

fn corpus_sources(
    plan_idx: usize,
) -> (Vec<(String, String)>, flash_mc::checkers::flash::FlashSpec) {
    let proto = generate(&PLANS[plan_idx], DEFAULT_SEED.wrapping_add(plan_idx as u64));
    (proto.sources(), proto.spec.clone())
}

fn driver_for(spec: &flash_mc::checkers::flash::FlashSpec, jobs: usize) -> Driver {
    let mut driver = Driver::new();
    driver.jobs(jobs);
    all_checkers(&mut driver, spec).expect("suite registers");
    driver
}

/// Renders reports the way `mcheck` prints them, so "identical" means
/// byte-identical user-visible output, not just structural equality.
fn rendered(reports: &[Report]) -> String {
    reports
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mc-incr-test-{tag}-{}", std::process::id()))
}

#[test]
fn cold_warm_disk_and_touch_identical_across_worker_counts() {
    let (sources, spec) = corpus_sources(0);
    let baseline = driver_for(&spec, 1)
        .check_sources(&sources)
        .expect("corpus parses");

    let dir = scratch_dir("jobs");
    let _ = std::fs::remove_dir_all(&dir);

    // One shared cache directory across every worker count: the first run
    // is cold and populates it, each later engine replays from disk.
    let mut first = true;
    for jobs in [1usize, 4, 8] {
        let driver = driver_for(&spec, jobs);
        let disk = DiskCache::open(&dir).expect("cache dir");
        let mut engine = CheckEngine::with_disk(disk);

        let (cold, stats) = engine.check_sources(&driver, &sources).expect("parses");
        assert_eq!(cold, baseline, "jobs={jobs} cold run diverged");
        assert_eq!(rendered(&cold), rendered(&baseline));
        if first {
            assert!(!stats.program_hit, "first run cannot be a cache hit");
            first = false;
        } else {
            assert!(
                stats.program_hit,
                "jobs={jobs} should replay the program record from the shared dir"
            );
        }

        // Warm: same engine, same sources.
        let (warm, stats) = engine.check_sources(&driver, &sources).expect("parses");
        assert_eq!(warm, baseline, "jobs={jobs} warm run diverged");
        assert!(stats.program_hit && stats.parses == 0);

        // "Touch": re-presenting the same bytes (what a watch poll sees
        // after a timestamp-only change) must also be a pure replay.
        let touched: Vec<(String, String)> = sources.clone();
        let (after_touch, stats) = engine.check_sources(&driver, &touched).expect("parses");
        assert_eq!(after_touch, baseline, "jobs={jobs} touched run diverged");
        assert!(stats.program_hit && stats.units_checked == 0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_dirty_warm_run_equals_fresh_cold_run() {
    let (sources, spec) = corpus_sources(1);
    let driver = driver_for(&spec, 4);

    let mut engine = CheckEngine::in_memory();
    engine.check_sources(&driver, &sources).expect("parses");

    // Edit one file: a new helper the local checkers flag (it reads the
    // data buffer without the simulator hooks), so the edit changes reports.
    let mut edited = sources.clone();
    edited[0]
        .0
        .push_str("\nvoid incr_probe(void) { long m; m = MISCBUS_READ_DB(a, b); }\n");

    let (incremental, stats) = engine.check_sources(&driver, &edited).expect("parses");
    assert!(!stats.program_hit);
    assert_eq!(
        stats.units_checked, 1,
        "exactly the edited unit should re-check, got {stats:?}"
    );
    assert_eq!(
        stats.source_hits,
        sources.len() - 1,
        "every other unit should replay, got {stats:?}"
    );

    let (from_scratch, _) = CheckEngine::in_memory()
        .check_sources(&driver, &edited)
        .expect("parses");
    let batch = driver.check_sources(&edited).expect("parses");
    assert_eq!(incremental, from_scratch, "incremental diverged from cold");
    assert_eq!(incremental, batch, "engine diverged from the batch driver");
    assert_eq!(rendered(&incremental), rendered(&batch));
}

/// One edit step of the invalidation matrix: a probe callee/caller pair
/// appended to the first corpus file, each field independently editable so
/// a step can change exactly one invalidation-relevant dimension.
#[derive(Clone, Copy)]
struct ProbeEdit {
    /// Body of `mtx_callee` — editing it changes the callee's summary.
    callee_body: &'static str,
    /// Full signature of the caller — editing it flips the signature hash.
    caller_sig: &'static str,
    /// Body of `mtx_caller` after the `mtx_callee()` call site.
    caller_body: &'static str,
    /// Trailing whitespace after everything: a layout-only edit that
    /// displaces no token.
    trailing_pad: &'static str,
}

const PROBE_BASE: ProbeEdit = ProbeEdit {
    callee_body: "PROC_DEFS();",
    caller_sig: "void mtx_caller(void)",
    caller_body: "PROC_DEFS();",
    trailing_pad: "",
};

/// The matrix: each step differs from its predecessor in exactly one
/// dimension, and the final step reverts to the primed base.
const MATRIX: [(&str, ProbeEdit); 5] = [
    (
        "body-only",
        ProbeEdit {
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            ..PROBE_BASE
        },
    ),
    (
        "signature",
        ProbeEdit {
            caller_sig: "void mtx_caller(int pad)",
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            ..PROBE_BASE
        },
    ),
    (
        "layout-only",
        ProbeEdit {
            caller_sig: "void mtx_caller(int pad)",
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            trailing_pad: "   \n",
            ..PROBE_BASE
        },
    ),
    (
        "callee-summary",
        ProbeEdit {
            callee_body: "PROC_DEFS(); DB_FREE();",
            caller_sig: "void mtx_caller(int pad)",
            caller_body: "PROC_DEFS(); PROC_PROLOGUE();",
            trailing_pad: "   \n",
        },
    ),
    ("revert", PROBE_BASE),
];

fn with_probes(sources: &[(String, String)], e: &ProbeEdit) -> Vec<(String, String)> {
    let mut out = sources.to_vec();
    out[0].0.push_str(&format!(
        "\nvoid mtx_callee(void) {{ {} }}\n{} {{ mtx_callee(); {} }}\n{}",
        e.callee_body, e.caller_sig, e.caller_body, e.trailing_pad
    ));
    out
}

fn interproc_driver(spec: &flash_mc::checkers::flash::FlashSpec, jobs: usize) -> Driver {
    let mut driver = driver_for(spec, jobs);
    driver.interproc(true);
    driver
}

/// The full invalidation matrix, at every worker count: every step's
/// incremental output is byte-identical to a from-scratch batch run on the
/// same sources, and the per-step stats show the intended tier answered —
/// function replay for a body edit, the AST key for a layout edit, a
/// red caller for a callee-summary change, a program replay for a revert.
#[test]
fn invalidation_matrix_byte_identical_across_jobs() {
    let (sources, spec) = corpus_sources(0);

    // Batch output is jobs-independent by contract, so one jobs=1 baseline
    // per step also pins cross-job byte identity for the engines below.
    let baseline_driver = interproc_driver(&spec, 1);
    let base_sources = with_probes(&sources, &PROBE_BASE);
    let prime_baseline = baseline_driver
        .check_sources(&base_sources)
        .expect("probes parse");
    let baselines: Vec<Vec<Report>> = MATRIX
        .iter()
        .map(|(_, e)| {
            baseline_driver
                .check_sources(&with_probes(&sources, e))
                .expect("probes parse")
        })
        .collect();

    for jobs in [1usize, 4, 8] {
        let driver = interproc_driver(&spec, jobs);
        let mut engine = CheckEngine::in_memory();
        let (prime, _) = engine
            .check_sources(&driver, &base_sources)
            .expect("parses");
        assert_eq!(prime, prime_baseline, "jobs={jobs} prime diverged");

        for ((label, edit), baseline) in MATRIX.iter().zip(&baselines) {
            let step = with_probes(&sources, edit);
            let (got, stats) = engine.check_sources(&driver, &step).expect("parses");
            assert_eq!(got, *baseline, "jobs={jobs} step={label} diverged");
            assert_eq!(
                rendered(&got),
                rendered(baseline),
                "jobs={jobs} step={label} rendering diverged"
            );
            match *label {
                "body-only" => {
                    // Under interproc the edited unit's whole component is
                    // demoted (its callee summaries changed), so the unit
                    // counters reflect the component — the function tier is
                    // where the edit stays small.
                    assert!(
                        stats.functions_replayed >= 10,
                        "{label}: the unchanged functions of the dirty \
                         component should replay green, got {stats:?}"
                    );
                    assert!(
                        stats.functions_rechecked >= 1 && stats.functions_rechecked <= 4,
                        "{label}: only the edited caller (and its red \
                         neighbourhood) should re-check, got {stats:?}"
                    );
                    assert!(
                        stats.functions_rechecked * 10 < stats.functions_replayed,
                        "{label}: a body-only edit must re-check under 10% \
                         of the replayed functions, got {stats:?}"
                    );
                }
                "signature" => {
                    assert!(
                        stats.functions_rechecked >= 1,
                        "{label}: a signature edit must redden the function, \
                         got {stats:?}"
                    );
                }
                "layout-only" => {
                    assert_eq!(stats.ast_hits, 1, "{label}: {stats:?}");
                    assert_eq!(stats.units_checked, 0, "{label}: {stats:?}");
                }
                "callee-summary" => {
                    assert!(
                        stats.functions_rechecked >= 2,
                        "{label}: the callee AND its summary-dependent \
                         caller must both re-check, got {stats:?}"
                    );
                }
                "revert" => {
                    assert!(
                        stats.program_hit,
                        "{label}: the primed program record should replay, \
                         got {stats:?}"
                    );
                    assert_eq!(
                        got, prime,
                        "{label}: revert must restore the primed reports"
                    );
                }
                other => unreachable!("unknown matrix step {other}"),
            }
        }
    }
}

/// A native checker that reports nothing but declares itself
/// [`unit_sensitive`](Checker::unit_sensitive): registering it turns the
/// engine's function-granular tier off, so dirty units re-check whole.
struct UnitSensitive;

impl Checker for UnitSensitive {
    fn name(&self) -> &str {
        "unit_sensitive_probe"
    }

    fn check_function(&self, _ctx: &FunctionContext<'_>, _sink: &mut CheckSink) {}

    fn unit_sensitive(&self) -> bool {
        true
    }
}

/// The whole-unit oracle — the same suite plus a unit-sensitive checker
/// that emits nothing — walks the same matrix and must agree with
/// function-granular invalidation step for step, replaying no function on
/// any step that re-checks a unit.
#[test]
fn component_oracle_matches_function_invalidation_step_for_step() {
    let (sources, spec) = corpus_sources(0);
    let driver = interproc_driver(&spec, 4);
    let mut oracle_driver = interproc_driver(&spec, 4);
    oracle_driver.add_checker(Box::new(UnitSensitive));
    let base_sources = with_probes(&sources, &PROBE_BASE);

    let mut fine = CheckEngine::in_memory();
    let mut oracle = CheckEngine::in_memory();

    let (a, _) = fine.check_sources(&driver, &base_sources).expect("parses");
    let (b, _) = oracle
        .check_sources(&oracle_driver, &base_sources)
        .expect("parses");
    assert_eq!(a, b, "prime diverged between invalidation modes");

    for (label, edit) in &MATRIX {
        let step = with_probes(&sources, edit);
        let (fine_reports, fine_stats) = fine.check_sources(&driver, &step).expect("parses");
        let (oracle_reports, oracle_stats) =
            oracle.check_sources(&oracle_driver, &step).expect("parses");
        assert_eq!(
            fine_reports, oracle_reports,
            "step={label}: function-granular and whole-unit invalidation \
             disagreed ({fine_stats:?} vs {oracle_stats:?})"
        );
        assert_eq!(rendered(&fine_reports), rendered(&oracle_reports));
        if matches!(*label, "body-only" | "signature" | "callee-summary") {
            assert!(
                oracle_stats.units_checked >= 1 && oracle_stats.functions_replayed == 0,
                "step={label}: the oracle must re-check whole units, got {oracle_stats:?}"
            );
            assert!(
                fine_stats.functions_replayed > 0,
                "step={label}: the fast path must replay functions, got {fine_stats:?}"
            );
        }
    }
}

/// Changing a metal program is a suite change: every cached artifact is
/// scoped out, and the next run matches a from-scratch run under the new
/// program.
#[test]
fn metal_program_change_invalidates_and_matches_cold() {
    const SM_V1: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Buffer not synchronized"); }
            ;
        }
    "#;
    // Same machine, different diagnostic text: a one-token program edit.
    const SM_V2: &str = r#"
        sm wait_for_db {
            decl { scalar } addr, buf;
            start:
                { WAIT_FOR_DB_FULL(addr); } ==> stop
              | { MISCBUS_READ_DB(addr, buf); } ==> { err("Raw read of unsynchronized buffer"); }
            ;
        }
    "#;

    let srcs: Vec<(String, String)> = vec![
        (
            "void raw(void) { MISCBUS_READ_DB(x, y); }".into(),
            "raw.c".into(),
        ),
        (
            "void synced(void) { WAIT_FOR_DB_FULL(x); MISCBUS_READ_DB(x, y); }".into(),
            "synced.c".into(),
        ),
    ];

    let mut d1 = Driver::new();
    d1.add_metal_source(SM_V1).expect("v1 compiles");
    let mut d2 = Driver::new();
    d2.add_metal_source(SM_V2).expect("v2 compiles");
    assert_ne!(
        d1.suite_key(),
        d2.suite_key(),
        "a metal edit must change the suite key"
    );

    let mut engine = CheckEngine::in_memory();
    engine.check_sources(&d1, &srcs).expect("parses");

    let (under_v2, stats) = engine.check_sources(&d2, &srcs).expect("parses");
    assert!(!stats.program_hit, "old metal program must not replay");
    assert_eq!(stats.units_checked, srcs.len(), "{stats:?}");
    assert_eq!(
        under_v2,
        d2.check_sources(&srcs).expect("parses"),
        "post-edit engine output diverged from cold"
    );
    assert!(
        rendered(&under_v2).contains("Raw read of unsynchronized buffer"),
        "the new diagnostic text should surface: {}",
        rendered(&under_v2)
    );
}

#[test]
fn reverting_an_edit_restores_the_original_reports_from_cache() {
    let (sources, spec) = corpus_sources(2);
    let driver = driver_for(&spec, 2);

    let dir = scratch_dir("revert");
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = CheckEngine::with_disk(DiskCache::open(&dir).expect("cache dir"));

    let (original, _) = engine.check_sources(&driver, &sources).expect("parses");

    let mut edited = sources.clone();
    edited[0].0.push_str("\nvoid transient(void) { }\n");
    engine.check_sources(&driver, &edited).expect("parses");

    // Undo: the original program record is still on disk and in memory, so
    // the revert is a whole-program replay.
    let (reverted, stats) = engine.check_sources(&driver, &sources).expect("parses");
    assert!(stats.program_hit, "revert should hit the program cache");
    assert_eq!(reverted, original);
    let _ = std::fs::remove_dir_all(&dir);
}
