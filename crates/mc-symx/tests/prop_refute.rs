//! Soundness property for the refutation pipeline: on random loop-free
//! paths over a small linear language, a `Refuted` verdict implies that
//! exhaustive concrete enumeration over a bounded input box finds no
//! witness, and a `Sat` model (when one is produced) concretely realizes
//! the path.
//!
//! The enumeration bound does not weaken the property: `Refuted` claims
//! infeasibility over *all* integers, so any box is a valid search space
//! for a counterexample.

use mc_symx::{analyze_ops, EmptyWorld, PathOp, Scope, Verdict};
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use proptest::test_runner::TestRng;

/// Number of global variables (`g0`..`g{NV-1}`).
const NV: usize = 3;
/// Concrete enumeration box per variable.
const DOMAIN: std::ops::RangeInclusive<i128> = -3..=3;

const CMPS: [&str; 6] = ["==", "!=", "<", "<=", ">", ">="];

/// One operation of a generated path, in a shape we can both render to C
/// (for the symbolic pipeline) and interpret concretely.
#[derive(Debug, Clone)]
enum OpDesc {
    /// `g{t} = a*g{y} + b*g{z} + c;`
    Assign {
        t: usize,
        a: i128,
        y: usize,
        b: i128,
        z: usize,
        c: i128,
    },
    /// Path took (`taken`) or avoided the guard `g{x} cmp rhs`.
    Guard {
        x: usize,
        cmp: usize,
        rhs: RhsDesc,
        taken: bool,
    },
}

#[derive(Debug, Clone)]
enum RhsDesc {
    Var(usize),
    Const(i128),
}

fn gen_ops(rng: &mut TestRng) -> Vec<OpDesc> {
    let n = 1 + rng.next_below(10) as usize;
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                OpDesc::Assign {
                    t: rng.next_below(NV as u64) as usize,
                    a: rng.next_below(7) as i128 - 3,
                    y: rng.next_below(NV as u64) as usize,
                    b: rng.next_below(7) as i128 - 3,
                    z: rng.next_below(NV as u64) as usize,
                    c: rng.next_below(11) as i128 - 5,
                }
            } else {
                OpDesc::Guard {
                    x: rng.next_below(NV as u64) as usize,
                    cmp: rng.next_below(CMPS.len() as u64) as usize,
                    rhs: if rng.gen_bool(0.5) {
                        RhsDesc::Var(rng.next_below(NV as u64) as usize)
                    } else {
                        RhsDesc::Const(rng.next_below(11) as i128 - 5)
                    },
                    taken: rng.gen_bool(0.5),
                }
            }
        })
        .collect()
}

/// Renders the descriptors into real AST path operations.
fn to_path_ops(ops: &[OpDesc]) -> Vec<PathOp> {
    ops.iter()
        .map(|op| match op {
            OpDesc::Assign { t, a, y, b, z, c } => {
                let src = format!("g{t} = ({a}) * g{y} + ({b}) * g{z} + ({c});");
                PathOp::Stmt(mc_ast::parse_stmt(&src).expect("stmt"))
            }
            OpDesc::Guard { x, cmp, rhs, taken } => {
                let rhs = match rhs {
                    RhsDesc::Var(v) => format!("g{v}"),
                    RhsDesc::Const(c) => format!("({c})"),
                };
                let src = format!("g{x} {} {rhs}", CMPS[*cmp]);
                PathOp::Branch {
                    cond: std::sync::Arc::new(mc_ast::parse_expr(&src).expect("cond")),
                    taken: *taken,
                }
            }
        })
        .collect()
}

/// Runs the path concretely from `init`. `true` when every guard decision
/// matches the path.
fn realizes(ops: &[OpDesc], init: &[i128; NV]) -> bool {
    let mut env = *init;
    for op in ops {
        match op {
            OpDesc::Assign { t, a, y, b, z, c } => {
                env[*t] = a * env[*y] + b * env[*z] + c;
            }
            OpDesc::Guard { x, cmp, rhs, taken } => {
                let l = env[*x];
                let r = match rhs {
                    RhsDesc::Var(v) => env[*v],
                    RhsDesc::Const(c) => *c,
                };
                let holds = match CMPS[*cmp] {
                    "==" => l == r,
                    "!=" => l != r,
                    "<" => l < r,
                    "<=" => l <= r,
                    ">" => l > r,
                    _ => l >= r,
                };
                if holds != *taken {
                    return false;
                }
            }
        }
    }
    true
}

fn enumerate_witness(ops: &[OpDesc]) -> Option<[i128; NV]> {
    for v0 in DOMAIN {
        for v1 in DOMAIN {
            for v2 in DOMAIN {
                let init = [v0, v1, v2];
                if realizes(ops, &init) {
                    return Some(init);
                }
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn unsat_paths_have_no_concrete_witness(ops in BoxedStrategy::from_fn(gen_ops)) {
        let path_ops = to_path_ops(&ops);
        let analysis = analyze_ops(&path_ops, &Scope::default(), &EmptyWorld);
        match analysis.verdict {
            Verdict::Refuted => {
                let witness = enumerate_witness(&ops);
                prop_assert!(
                    witness.is_none(),
                    "refuted path has concrete witness {witness:?}: {ops:?}"
                );
            }
            Verdict::Sat { model } if !model.is_empty() => {
                // The replayable model must concretely realize the path.
                let mut init = [0i128; NV];
                for (name, v) in &model {
                    let idx: usize = name[1..].parse().expect("g<idx>");
                    init[idx] = i128::from(*v);
                }
                prop_assert!(
                    realizes(&ops, &init),
                    "sat model {model:?} does not realize the path: {ops:?}"
                );
            }
            // Sat with no integer model found, or Unknown: nothing to check
            // (neither is ever used to drop a report).
            _ => {}
        }
    }
}
