//! Confirmation replay: the concrete half of witness refutation.
//!
//! A report the symbolic pass left at [`Verdict::Sat`] carries a solver
//! model. Replaying that model in the `mc-sim` interpreter and watching
//! for the checker's dynamic event promotes the report to
//! [`Verdict::Confirmed`] (confidence +10, capped at 100). Promotion is
//! best-effort and never demotes.
//!
//! Replay runs once per call-graph component, on a simulator program
//! lowered from the component's already-parsed units. That program holds
//! exactly the definitions a whole-program load would resolve for the
//! component's handlers: components join callers, callees and units
//! defining the same name, and members keep input order, so the last
//! definition of a name wins in both. Constants are the exception —
//! `mc-sim` resolves enum and `const` globals from every unit — so the
//! component program shares one run-wide [`ConstTable`].

use crate::cache::ReplayKey;
use crate::driver::{CheckedUnit, Driver};
use crate::report::{Report, Verdict};
use mc_ast::Fnv1a;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// The run-wide constant table replay resolves names against: every
/// unit's constant declarations folded in input order, the last
/// declaration of a name winning.
#[derive(Debug, Clone)]
pub(crate) struct ConstTable {
    map: Arc<HashMap<String, i64>>,
    fp: u64,
}

impl ConstTable {
    /// Folds per-unit declaration lists, in input order.
    pub(crate) fn new<'a>(units: impl IntoIterator<Item = &'a [(String, i64)]>) -> ConstTable {
        let map: HashMap<String, i64> = units.into_iter().flatten().cloned().collect();
        let mut entries: Vec<(&String, &i64)> = map.iter().collect();
        entries.sort_unstable();
        let mut h = Fnv1a::new();
        for (name, value) in entries {
            h.write_str(name).write_u64(*value as u64);
        }
        ConstTable {
            map: Arc::new(map),
            fp: h.finish(),
        }
    }

    /// Content hash of the resolved table (what a replay can read), not of
    /// the declarations that produced it.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fp
    }
}

/// Whether `r` is a report replay can decide.
fn replayable(r: &Report) -> bool {
    r.verdict == Verdict::Sat && mc_sim::replayable_checker(&r.checker)
}

fn cmp_key(k: &ReplayKey, r: &Report) -> Ordering {
    (k.checker.as_str(), k.function.as_str(), k.model.as_slice()).cmp(&(
        r.checker.as_str(),
        r.function.as_str(),
        r.model.as_slice(),
    ))
}

/// The outcome recorded for `r` in `outcomes` (sorted by key), if any.
fn outcome_of(outcomes: &[(ReplayKey, bool)], r: &Report) -> Option<bool> {
    outcomes
        .binary_search_by(|(k, _)| cmp_key(k, r))
        .ok()
        .map(|i| outcomes[i].1)
}

/// The replays `reports` call for, sorted: one per distinct (checker,
/// function, model) among replayable `sat` reports — a replay reads
/// nothing else of the report, so equal keys share one run.
pub(crate) fn replay_keys(reports: &[Report]) -> Vec<ReplayKey> {
    let mut keys: Vec<ReplayKey> = reports
        .iter()
        .filter(|r| replayable(r))
        .map(|r| ReplayKey {
            checker: r.checker.clone(),
            function: r.function.clone(),
            model: r.model.clone(),
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// The outcome recorded for `key` in `outcomes` (sorted by key), if any.
fn known_outcome(outcomes: &[(ReplayKey, bool)], key: &ReplayKey) -> Option<bool> {
    outcomes
        .binary_search_by(|(k, _)| k.cmp(key))
        .ok()
        .map(|i| outcomes[i].1)
}

/// Whether `outcomes` decides every one of `keys`.
pub(crate) fn covers(outcomes: &[(ReplayKey, bool)], keys: &[ReplayKey]) -> bool {
    keys.iter().all(|k| known_outcome(outcomes, k).is_some())
}

/// Promotes every replayable `sat` report whose replay reproduced.
pub(crate) fn promote(reports: &mut [Report], outcomes: &[(ReplayKey, bool)]) {
    for r in reports.iter_mut() {
        if replayable(r) && outcome_of(outcomes, r) == Some(true) {
            r.verdict = Verdict::Confirmed;
            r.confidence = r.confidence.saturating_add(10).min(100);
        }
    }
}

/// What one component's confirmation step did.
#[derive(Debug, Default)]
pub(crate) struct Confirmation {
    /// Every replay the component's reports call for with its outcome,
    /// sorted by key — the content of its confirmation record.
    pub(crate) outcomes: Vec<(ReplayKey, bool)>,
    /// Replays run now.
    pub(crate) replayed: usize,
    /// Replays answered by `known`.
    pub(crate) cached: usize,
}

/// The simulator program of one component: its units' function
/// definitions, shared with the parsed units, plus the run-wide constants.
fn component_program(units: &[&CheckedUnit], consts: &ConstTable) -> mc_sim::Program {
    mc_sim::Program::from_parts(
        units.iter().flat_map(|u| u.unit.shared_functions()),
        consts.map.clone(),
    )
}

impl Driver {
    /// Confirms one call-graph component's reports in place: replays every
    /// distinct replayable `sat` witness that `known` (outcomes from an
    /// earlier run of the same component) does not decide, on a simulator
    /// program lowered from `units` plus the run-wide `consts`, across the
    /// worker pool; then promotes.
    pub(crate) fn confirm_component(
        &self,
        units: &[&CheckedUnit],
        consts: &ConstTable,
        reports: &mut [Report],
        known: &[(ReplayKey, bool)],
    ) -> Confirmation {
        let keys = replay_keys(reports);
        let mut out = Confirmation::default();
        if keys.is_empty() {
            return out;
        }
        let missing: Vec<&ReplayKey> = keys
            .iter()
            .filter(|k| known_outcome(known, k).is_none())
            .collect();
        let fresh: Vec<bool> = if missing.is_empty() {
            Vec::new()
        } else {
            let program = component_program(units, consts);
            self.pool_map(missing.len(), |i| {
                let k = missing[i];
                mc_sim::replay(program.clone(), &k.checker, &k.function, &k.model)
            })
        };
        out.replayed = missing.len();
        out.cached = keys.len() - missing.len();
        let mut fresh = fresh.into_iter();
        for k in keys {
            let hit = match known_outcome(known, &k) {
                Some(hit) => hit,
                None => fresh.next().expect("one outcome per missing key"),
            };
            out.outcomes.push((k, hit));
        }
        promote(reports, &out.outcomes);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::parse_translation_unit;

    #[test]
    fn component_program_shares_the_units_functions() {
        let units: Vec<CheckedUnit> = [
            (
                "enum E { A = 3 };\nvoid h(void) { g(); }\nint g(void) { return A; }",
                "a.c",
            ),
            ("void k(void) { h(); }", "b.c"),
        ]
        .iter()
        .map(|(src, file)| CheckedUnit::new(parse_translation_unit(src, file).unwrap()))
        .collect();
        let refs: Vec<&CheckedUnit> = units.iter().collect();
        let consts = ConstTable::new(units.iter().map(|u| u.constants()));
        let program = component_program(&refs, &consts);
        assert_eq!(program.len(), 3);
        assert_eq!(program.constant("A"), Some(3));
        for f in units.iter().flat_map(|u| u.unit.shared_functions()) {
            let held = program
                .shared_function(&f.name)
                .expect("function in program");
            assert!(Arc::ptr_eq(&held, f), "{} is copied", f.name);
        }
    }
}
