//! Witness-path reconstruction: turn a report's rendered [`PathStep`] chain
//! back into the sequence of statements, branch decisions, and switch
//! dispatches it took through the function's CFG.
//!
//! The traversal engine records witness steps as `(span, note)` pairs (see
//! `mc-cfg/src/witness.rs`); the CFG itself is not serialized with them. The
//! reconstruction re-walks [`Cfg::build`]'s graph and matches steps
//! one-to-one against what the engine would have emitted:
//!
//! - every block node emits a `"statement"` step at the statement's span;
//! - summarized calls emit ``"call `f`"`` steps right after their containing
//!   statement (or right before the terminator step, for calls inside the
//!   terminator expression) — they are consumed as markers, since the
//!   executor rediscovers calls in the expressions themselves;
//! - `Branch` terminators emit `"branch taken"`/`"branch not taken"` at the
//!   condition's span, which makes the reconstruction deterministic;
//! - `Switch` terminators emit `"switch case"` at the scrutinee's span
//!   *without naming the arm* — the only nondeterminism, resolved by
//!   backtracking over the labeled targets under a small budget; when
//!   more than one labeled arm reconstructs (multi-label fall-through),
//!   the dispatching value is ambiguous and recorded without an arm
//!   equality;
//! - `Jump` terminators emit nothing and are followed silently.
//!
//! Anything that does not reconstruct exactly — foreign-file steps from an
//! interprocedural splice, lane-counter trace notes, a span mismatch, a
//! budget blow-up — yields `None`, which the caller maps to
//! [`Verdict::Unknown`]: a path we cannot replay symbolically is never
//! refuted.
//!
//! [`Verdict::Unknown`]: crate::Verdict::Unknown

use mc_ast::{Expr, Span, Stmt};
use mc_cfg::{BlockId, Cfg, PathStep, Terminator};
use std::sync::Arc;

/// One operation of the reconstructed path, in execution order. Statements
/// and expressions are the CFG's (and so the parsed function's) own nodes,
/// shared.
#[derive(Debug, Clone)]
pub enum PathOp {
    /// A straight-line statement was executed.
    Stmt(Stmt),
    /// `cond` was evaluated and the `taken` edge followed.
    Branch {
        /// The branch condition.
        cond: Arc<Expr>,
        /// `true` for the then-edge.
        taken: bool,
    },
    /// A switch dispatched on `scrutinee`.
    Case {
        /// The switched expression.
        scrutinee: Arc<Expr>,
        /// `Some(v)` when exactly one labeled arm reconstructs the rest of
        /// the witness (implies `scrutinee == v`). `None` either for the
        /// default/fallthrough edge (see `excluded`) or when *several*
        /// labeled arms reconstruct — multi-label fall-through like
        /// `case 1: case 2: body;` chains the arms to the same block, so
        /// the step chain cannot say which value dispatched and no arm
        /// equality may be asserted.
        arm: Option<Arc<Expr>>,
        /// For the default edge: the labeled values that did *not* match
        /// (each implies `scrutinee != v`). Empty for labeled arms,
        /// ambiguous or not.
        excluded: Vec<Arc<Expr>>,
    },
    /// The function returned.
    Return,
}

/// Parsed form of one witness step note.
enum Ev {
    Stmt(Span),
    Branch(Span, bool),
    Case(Span),
    CaseDefault(Span),
    Return(Span),
    Call,
}

/// Parses rendered steps back into events. `None` when any step is foreign
/// (non-empty file: interprocedural splice into another unit) or carries a
/// note the traversal engine does not emit (lane-counter traces).
fn parse_steps(steps: &[PathStep]) -> Option<Vec<Ev>> {
    steps
        .iter()
        .map(|s| {
            if !s.file.is_empty() {
                return None;
            }
            Some(match s.note.as_str() {
                "statement" => Ev::Stmt(s.span),
                "branch taken" => Ev::Branch(s.span, true),
                "branch not taken" => Ev::Branch(s.span, false),
                "switch case" => Ev::Case(s.span),
                "switch default" => Ev::CaseDefault(s.span),
                "return" => Ev::Return(s.span),
                note if note.starts_with("call `") && note.ends_with('`') => Ev::Call,
                _ => return None,
            })
        })
        .collect()
}

/// Node-visit budget for the backtracking walk. Witness paths are a few
/// hundred steps; the budget only matters for adversarial switch nests.
const BUDGET: usize = 100_000;

struct Recon<'a> {
    cfg: &'a Cfg,
    evs: Vec<Ev>,
    budget: usize,
}

/// Reconstructs `steps` through `cfg`. `None` means the path cannot be
/// replayed symbolically (foreign steps, mismatch, or budget exhausted).
pub fn reconstruct(cfg: &Cfg, steps: &[PathStep]) -> Option<Vec<PathOp>> {
    let evs = parse_steps(steps)?;
    let mut r = Recon {
        cfg,
        evs,
        budget: BUDGET,
    };
    let mut ops = Vec::new();
    if r.walk(cfg.entry, 0, &mut ops) {
        Some(ops)
    } else {
        None
    }
}

impl Recon<'_> {
    /// Consumes `"call"` marker events at `pos`. Returns the next position.
    fn skip_calls(&self, mut pos: usize) -> usize {
        while matches!(self.evs.get(pos), Some(Ev::Call)) {
            pos += 1;
        }
        pos
    }

    /// Matches events from `pos` onward starting at `block`. On success the
    /// consumed operations are appended to `ops`; on failure `ops` is
    /// restored to its incoming length.
    fn walk(&mut self, block: BlockId, mut pos: usize, ops: &mut Vec<PathOp>) -> bool {
        let mark = ops.len();
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        // The witness ends at the violation event, anywhere in the graph.
        if pos >= self.evs.len() {
            return true;
        }
        let b = &self.cfg.blocks[block.0];
        for node in &b.nodes {
            match self.evs.get(pos) {
                Some(Ev::Stmt(span)) if *span == node.stmt.span => {
                    ops.push(PathOp::Stmt(node.stmt.clone()));
                    pos += 1;
                }
                Some(_) => {
                    ops.truncate(mark);
                    return false;
                }
                None => return true,
            }
            // Summarized calls inside the statement fire right after it.
            pos = self.skip_calls(pos);
            if pos >= self.evs.len() {
                return true;
            }
        }
        // Calls inside the terminator expression fire before its step.
        pos = self.skip_calls(pos);
        if pos >= self.evs.len() {
            return true;
        }
        let ok = match &b.term {
            Terminator::Jump(t) => self.walk(*t, pos, ops),
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => match self.evs.get(pos) {
                Some(Ev::Branch(span, taken)) if *span == cond.span => {
                    let taken = *taken;
                    ops.push(PathOp::Branch {
                        cond: cond.clone(),
                        taken,
                    });
                    let next = if taken { *then_to } else { *else_to };
                    self.walk(next, pos + 1, ops)
                }
                _ => false,
            },
            Terminator::Switch {
                scrutinee,
                targets,
                fallthrough,
            } => match self.evs.get(pos) {
                Some(Ev::Case(span)) if *span == scrutinee.span => {
                    // The arm is not recorded in the step: try each labeled
                    // target. If exactly one reconstructs, the arm equality
                    // holds; if several do (multi-label fall-through arms
                    // chain to the same block, so their step chains are
                    // identical), the dispatching value is ambiguous and no
                    // equality may be asserted — committing to the first
                    // match could refute a path that actually dispatched on
                    // a later label.
                    let mut matched: Vec<(Arc<Expr>, Vec<PathOp>)> = Vec::new();
                    for (value, target) in targets {
                        let Some(value) = value else { continue };
                        let mut arm_ops = Vec::new();
                        if self.walk(*target, pos + 1, &mut arm_ops) {
                            matched.push((value.clone(), arm_ops));
                            if matched.len() > 1 {
                                break;
                            }
                        }
                    }
                    match matched.len() {
                        0 => false,
                        n => {
                            let (value, arm_ops) = matched.swap_remove(0);
                            ops.push(PathOp::Case {
                                scrutinee: scrutinee.clone(),
                                arm: (n == 1).then_some(value),
                                excluded: Vec::new(),
                            });
                            ops.extend(arm_ops);
                            true
                        }
                    }
                }
                Some(Ev::CaseDefault(span)) if *span == scrutinee.span => {
                    let target = targets
                        .iter()
                        .find(|(v, _)| v.is_none())
                        .map(|(_, t)| *t)
                        .unwrap_or(*fallthrough);
                    ops.push(PathOp::Case {
                        scrutinee: scrutinee.clone(),
                        arm: None,
                        excluded: targets.iter().filter_map(|(v, _)| v.clone()).collect(),
                    });
                    self.walk(target, pos + 1, ops)
                }
                _ => false,
            },
            Terminator::Return { span, .. } => match self.evs.get(pos) {
                Some(Ev::Return(s)) if s == span => {
                    ops.push(PathOp::Return);
                    // Nothing executes after the return.
                    pos + 1 >= self.evs.len()
                }
                _ => false,
            },
        };
        if !ok {
            ops.truncate(mark);
        }
        ok
    }
}

/// Renders the steps the traversal engine would emit along one concrete
/// path: `dirs` is consumed at each `Branch` (0 = else, 1 = then) and
/// `Switch` (labeled-arm index, or -1 for the default edge); the walk stops
/// when `dirs` runs out or the function returns. Test-only: production
/// witnesses come from the engine itself.
#[cfg(test)]
pub(crate) fn trace(cfg: &Cfg, dirs: &[isize]) -> Vec<PathStep> {
    use mc_cfg::StepKind;
    let mut out = Vec::new();
    let mut block = cfg.entry;
    let mut di = 0;
    loop {
        let b = &cfg.blocks[block.0];
        for n in &b.nodes {
            out.push(PathStep::new(n.stmt.span, StepKind::Stmt.note()));
        }
        match &b.term {
            Terminator::Jump(t) => block = *t,
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => {
                if di >= dirs.len() {
                    return out;
                }
                let taken = dirs[di] != 0;
                di += 1;
                out.push(PathStep::new(cond.span, StepKind::Branch(taken).note()));
                block = if taken { *then_to } else { *else_to };
            }
            Terminator::Switch {
                scrutinee,
                targets,
                fallthrough,
            } => {
                if di >= dirs.len() {
                    return out;
                }
                let d = dirs[di];
                di += 1;
                if d < 0 {
                    out.push(PathStep::new(scrutinee.span, StepKind::CaseDefault.note()));
                    block = targets
                        .iter()
                        .find(|(v, _)| v.is_none())
                        .map(|(_, t)| *t)
                        .unwrap_or(*fallthrough);
                } else {
                    let labeled: Vec<&(Option<Arc<Expr>>, BlockId)> =
                        targets.iter().filter(|(v, _)| v.is_some()).collect();
                    out.push(PathStep::new(scrutinee.span, StepKind::Case.note()));
                    block = labeled[d as usize].1;
                }
            }
            Terminator::Return { span, .. } => {
                out.push(PathStep::new(*span, StepKind::Return.note()));
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn cfg_of(src: &str, name: &str) -> Cfg {
        let unit = mc_ast::parse_translation_unit(src, "test.c").expect("parse");
        let f = unit.function(name).expect("function");
        Cfg::build(f)
    }

    fn steps(evs: &[(u32, u32, &str)]) -> Vec<PathStep> {
        evs.iter()
            .map(|(l, c, n)| PathStep::new(Span { line: *l, col: *c }, *n))
            .collect()
    }

    #[test]
    fn straight_line_path_reconstructs() {
        let cfg = cfg_of("void f(void) {\n  int x;\n  x = 1;\n}\n", "f");
        // Spans: decl at 2:3, assignment at 3:3.
        let ops = reconstruct(&cfg, &steps(&[(2, 3, "statement"), (3, 3, "statement")]))
            .expect("reconstruct");
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], PathOp::Stmt(_)));
    }

    #[test]
    fn branch_steps_select_the_edge() {
        let src = "void f(void) {\n  int x;\n  if (x > 0) {\n    x = 1;\n  } else {\n    x = 2;\n  }\n}\n";
        let cfg = cfg_of(src, "f");
        let taken = reconstruct(&cfg, &trace(&cfg, &[1])).expect("taken edge");
        assert!(matches!(taken[1], PathOp::Branch { taken: true, .. }));
        let not_taken = reconstruct(&cfg, &trace(&cfg, &[0])).expect("else edge");
        assert!(matches!(not_taken[1], PathOp::Branch { taken: false, .. }));
        // Corrupting a statement span after the edge is a mismatch.
        let mut bad = trace(&cfg, &[1]);
        let idx = bad.len() - 2; // the then-block statement
        assert_eq!(bad[idx].note, "statement");
        bad[idx].span = Span { line: 6, col: 5 };
        assert!(reconstruct(&cfg, &bad).is_none());
    }

    #[test]
    fn switch_arms_resolve_by_backtracking() {
        let src = "void f(int m) {\n  switch (m) {\n  case 1:\n    m = 10;\n    break;\n  case 2:\n    m = 20;\n    break;\n  }\n}\n";
        let cfg = cfg_of(src, "f");
        let ops = reconstruct(&cfg, &steps(&[(2, 11, "switch case"), (7, 5, "statement")]))
            .expect("case 2 arm");
        match &ops[0] {
            PathOp::Case { arm: Some(v), .. } => {
                assert!(matches!(v.kind, mc_ast::ExprKind::IntLit(2, _)));
            }
            other => panic!("expected labeled case, got {other:?}"),
        }
        // The default edge of a default-less switch excludes both labels.
        let ops = reconstruct(&cfg, &steps(&[(2, 11, "switch default")])).expect("fallthrough");
        match &ops[0] {
            PathOp::Case {
                arm: None,
                excluded,
                ..
            } => assert_eq!(excluded.len(), 2),
            other => panic!("expected default case, got {other:?}"),
        }
    }

    #[test]
    fn multi_label_fallthrough_arms_are_ambiguous() {
        // `case 1:` has an empty body chained by Jump into `case 2:`'s, so
        // both arms reconstruct the same step chain — the dispatching
        // value cannot be recovered and no arm equality may be asserted.
        let src = "void f(int m) {\n  switch (m) {\n  case 1:\n  case 2:\n    m = 20;\n    break;\n  }\n}\n";
        let cfg = cfg_of(src, "f");
        let ops = reconstruct(&cfg, &steps(&[(2, 11, "switch case"), (5, 5, "statement")]))
            .expect("fall-through arms");
        match &ops[0] {
            PathOp::Case {
                arm: None,
                excluded,
                ..
            } => assert!(excluded.is_empty(), "ambiguous case excludes nothing"),
            other => panic!("expected ambiguous case, got {other:?}"),
        }
    }

    #[test]
    fn foreign_and_unknown_steps_bail() {
        let cfg = cfg_of("void f(void) {\n  int x;\n}\n", "f");
        let mut foreign = steps(&[(2, 3, "statement")]);
        foreign[0].file = "other.c".into();
        assert!(reconstruct(&cfg, &foreign).is_none());
        assert!(reconstruct(&cfg, &steps(&[(2, 3, "gBuf in f")])).is_none());
    }

    #[test]
    fn call_markers_are_consumed() {
        let src = "void f(void) {\n  helper();\n  if (helper()) {\n    return;\n  }\n}\n";
        let cfg = cfg_of(src, "f");
        // The engine fires summarized-call steps after their containing
        // statement and before the terminator step; splice them in the way
        // `fire_calls` would.
        let mut with_calls = trace(&cfg, &[1]);
        assert_eq!(with_calls.len(), 3); // stmt, branch, return
        let branch_span = with_calls[1].span;
        with_calls.insert(1, PathStep::new(with_calls[0].span, "call `helper`"));
        with_calls.insert(2, PathStep::new(branch_span, "call `helper`"));
        let ops = reconstruct(&cfg, &with_calls).expect("reconstruct with call markers");
        assert_eq!(ops.len(), 3);
        assert!(matches!(ops[2], PathOp::Return));
    }
}
