//! Engine-equivalence guarantee: the compiled metal engine is an
//! optimization, never a behavior change. For every function of every
//! corpus protocol, under every traversal configuration, the compiled
//! machine (with the candidate plans the driver builds) must produce the
//! reference interpreter's `MetalReport`s exactly — same diagnostics,
//! same witness paths, same order — and, under interprocedural
//! resolution, the same call-site state transfers.
//!
//! The comparison sits at the only layer where the engines differ: the
//! driver ranks, refutes, confirms and renders whatever `MetalReport`s the
//! engine hands it, the same way whichever engine produced them.

use flash_mc::cfg::{run_traversal_with, SummaryLookup};
use flash_mc::checkers::{all_checkers, MSGLEN_METAL, REFCOUNT_BUMP_METAL, WAIT_FOR_DB_METAL};
use flash_mc::corpus::plan::PLANS;
use flash_mc::corpus::{generate, DEFAULT_SEED};
use flash_mc::driver::{CheckedUnit, Driver, Summaries};
use flash_mc::metal::{
    compute_transfers, compute_transfers_compiled, CandidatePlan, CompiledMachine, CompiledProgram,
    MetalMachine, MetalProgram,
};
use proptest::prelude::*;

/// The built-in metal programs, parsed for the interpreter and lowered
/// for the compiled engine, index-aligned.
fn builtin_programs() -> (Vec<MetalProgram>, Vec<CompiledProgram>) {
    let progs: Vec<MetalProgram> = [WAIT_FOR_DB_METAL, MSGLEN_METAL, REFCOUNT_BUMP_METAL]
        .iter()
        .map(|src| MetalProgram::parse(src).expect("built-in metal parses"))
        .collect();
    let compiled = progs
        .iter()
        .map(|p| CompiledProgram::compile(p).expect("built-in metal compiles"))
        .collect();
    (progs, compiled)
}

/// Runs both engines over every function CFG of one protocol with the
/// driver's traversal settings and returns how many metal reports they
/// agreed on, or a description of the first divergence.
fn compare_protocol(
    plan_idx: usize,
    seed: u64,
    prune: bool,
    interproc: bool,
) -> Result<usize, String> {
    let proto = generate(&PLANS[plan_idx], seed);
    let mut driver = Driver::new();
    driver.jobs(1);
    driver.prune(prune);
    driver.interproc(interproc);
    all_checkers(&mut driver, &proto.spec).expect("suite registers");
    let units = driver.parse_units(&proto.sources()).expect("corpus parses");
    let refs: Vec<&CheckedUnit> = units.iter().collect();
    let store = interproc.then(|| Summaries::compute(&driver, &refs, true));
    let oracle = store.as_ref().map(|s| s as &dyn SummaryLookup);
    let traversal = driver.traversal();

    let (progs, compiled) = builtin_programs();
    let compiled_refs: Vec<&CompiledProgram> = compiled.iter().collect();
    let mut agreed = 0;
    for unit in &units {
        for (function, cfg) in unit.unit.functions().zip(&unit.cfgs) {
            let at = format!("{}:{}", unit.unit.file, function.name);
            let plans = CandidatePlan::build_many(&compiled_refs, cfg);
            for ((prog, cp), plan) in progs.iter().zip(&compiled).zip(&plans) {
                let mut interp = MetalMachine::new(prog);
                let init = interp.start_state();
                run_traversal_with(cfg, &mut interp, init, traversal, oracle);
                let mut comp = CompiledMachine::with_plan(cp, plan);
                let init = comp.start_state();
                run_traversal_with(cfg, &mut comp, init, traversal, oracle);
                if comp.reports != interp.reports {
                    return Err(format!(
                        "{at} [{}]: reports diverged\n compiled: {:?}\n interp:   {:?}",
                        prog.name, comp.reports, interp.reports
                    ));
                }
                if comp.applications != interp.applications {
                    return Err(format!(
                        "{at} [{}]: {} rule applications compiled vs {} interpreted",
                        prog.name, comp.applications, interp.applications
                    ));
                }
                agreed += comp.reports.len();
                if interproc {
                    let want = compute_transfers(prog, cfg, traversal, oracle);
                    let got = compute_transfers_compiled(cp, cfg, traversal, oracle);
                    if got != want {
                        return Err(format!(
                            "{at} [{}]: transfers diverged\n compiled: {got:?}\n interp:   {want:?}",
                            prog.name
                        ));
                    }
                }
            }
        }
    }
    Ok(agreed)
}

#[test]
fn full_corpus_identical_across_engines() {
    // Every built-in protocol at the canonical corpus seed, under every
    // prune/interproc combination.
    let mut reports = 0;
    for (i, _) in PLANS.iter().enumerate() {
        let seed = DEFAULT_SEED.wrapping_add(i as u64);
        for (prune, interproc) in [(true, false), (false, false), (true, true)] {
            reports += compare_protocol(i, seed, prune, interproc).unwrap_or_else(|e| {
                panic!("protocol #{i} (prune={prune}, interproc={interproc}): {e}")
            });
        }
    }
    assert!(reports > 0, "no metal report was compared");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_protocols_identical_across_engines(
        (plan_idx, seed_offset, prune) in (0usize..6, 0u64..1024, any::<bool>())
    ) {
        let seed = DEFAULT_SEED.wrapping_add(seed_offset);
        let outcome = compare_protocol(plan_idx, seed, prune, false);
        prop_assert!(
            outcome.is_ok(),
            "plan {} seed {:#x} prune {}: {}",
            plan_idx,
            seed,
            prune,
            outcome.unwrap_err()
        );
    }
}
