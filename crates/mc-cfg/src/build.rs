//! CFG construction from an AST function body.

use mc_ast::{Expr, Function, Span, Stmt, StmtKind};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a basic block within its [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// An atomic, straight-line unit of execution inside a block: an expression
/// statement, a declaration, or an empty statement. Checker state machines
/// observe these in path order.
///
/// The statement's payload is the function body's own node: building the
/// graph shares it rather than copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The statement (always one of the atomic kinds).
    pub stmt: Stmt,
}

/// How a block ends. Condition, scrutinee, case-value and return
/// expressions are the function body's own nodes, shared.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional edge.
    Jump(BlockId),
    /// Two-way branch on `cond`.
    Branch {
        /// Branch condition (observed by checkers as a path event).
        cond: Arc<Expr>,
        /// Successor when the condition is true.
        then_to: BlockId,
        /// Successor when the condition is false.
        else_to: BlockId,
    },
    /// Multi-way branch from a `switch`.
    Switch {
        /// The switched expression.
        scrutinee: Arc<Expr>,
        /// `(case value, target)` pairs; `None` value is `default`.
        targets: Vec<(Option<Arc<Expr>>, BlockId)>,
        /// Where control flows when no case matches and there is no
        /// `default` (the block after the switch).
        fallthrough: BlockId,
    },
    /// Function return. The paper's path counting treats every `return` as
    /// a distinct exit.
    Return {
        /// Returned value, if any.
        value: Option<Arc<Expr>>,
        /// Location of the `return` (or of the closing brace for the
        /// implicit return at the end of a `void` function).
        span: Span,
    },
}

impl Terminator {
    /// All successor block ids, in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                then_to, else_to, ..
            } => vec![*then_to, *else_to],
            Terminator::Switch {
                targets,
                fallthrough,
                ..
            } => {
                let mut v: Vec<BlockId> = targets.iter().map(|(_, t)| *t).collect();
                if !targets.iter().any(|(val, _)| val.is_none()) {
                    v.push(*fallthrough);
                }
                v
            }
            Terminator::Return { .. } => vec![],
        }
    }
}

/// A basic block: a run of atomic nodes ending in a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Straight-line statements, in execution order.
    pub nodes: Vec<Node>,
    /// How the block ends.
    pub term: Terminator,
}

/// A control-flow graph for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg {
    /// The function's name (for diagnostics).
    pub name: String,
    /// All blocks; `blocks[entry.0]` is the entry block.
    pub blocks: Vec<Block>,
    /// Entry block id (always `BlockId(0)`).
    pub entry: BlockId,
    /// Keys of every address-taken lvalue in the function, scanned once at
    /// build time; pruning traversals seed their escape set from it.
    pub(crate) escapes: std::sync::Arc<std::collections::BTreeSet<String>>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    ///
    /// `goto` targets that do not exist in the function body jump to the
    /// synthetic exit instead of failing: protocol code sometimes contains
    /// dead labels, and a checker must degrade gracefully rather than refuse
    /// the whole file.
    pub fn build(func: &Function) -> Cfg {
        let mut b = Builder::new(func.name.clone());
        let entry = b.new_block();
        let last = b.lower_stmts(&func.body, entry, &Frames::default());
        // Implicit return at the end of the body.
        if let Some(last) = last {
            b.set_term(
                last,
                Terminator::Return {
                    value: None,
                    span: func.span,
                },
            );
        }
        b.patch_gotos();
        b.finish()
    }

    /// The block with the given id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0]
    }

    /// Iterates over `(id, block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i), b))
    }

    /// Ids of blocks ending in `return`.
    pub fn exits(&self) -> Vec<BlockId> {
        self.iter()
            .filter(|(_, b)| matches!(b.term, Terminator::Return { .. }))
            .map(|(id, _)| id)
            .collect()
    }
}

/// Loop/label context during lowering.
#[derive(Debug, Clone, Default)]
struct Frames {
    /// Where `break` goes.
    break_to: Option<BlockId>,
    /// Where `continue` goes.
    continue_to: Option<BlockId>,
}

struct Builder {
    name: String,
    blocks: Vec<BlockState>,
    labels: HashMap<String, BlockId>,
    pending_gotos: Vec<(BlockId, String)>,
}

enum BlockState {
    Open(Vec<Node>),
    Done(Block),
}

impl Builder {
    fn new(name: String) -> Self {
        Builder {
            name,
            blocks: Vec::new(),
            labels: HashMap::new(),
            pending_gotos: Vec::new(),
        }
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BlockState::Open(Vec::new()));
        BlockId(self.blocks.len() - 1)
    }

    fn push_node(&mut self, id: BlockId, stmt: Stmt) {
        match &mut self.blocks[id.0] {
            BlockState::Open(nodes) => nodes.push(Node { stmt }),
            BlockState::Done(_) => {
                // Unreachable code after a terminator (e.g. statements after
                // `return`): attach to a fresh dangling block so checkers can
                // still inspect it if they want; we simply drop it, matching
                // compiler behavior of ignoring unreachable code.
            }
        }
    }

    fn set_term(&mut self, id: BlockId, term: Terminator) {
        if let BlockState::Open(nodes) = &mut self.blocks[id.0] {
            let nodes = std::mem::take(nodes);
            self.blocks[id.0] = BlockState::Done(Block { nodes, term });
        }
    }

    fn is_open(&self, id: BlockId) -> bool {
        matches!(self.blocks[id.0], BlockState::Open(_))
    }

    /// Lowers a statement list starting in `cur`; returns the id of the
    /// block control falls out of, or `None` if all paths terminated.
    fn lower_stmts(
        &mut self,
        stmts: &[Stmt],
        mut cur: BlockId,
        frames: &Frames,
    ) -> Option<BlockId> {
        for s in stmts {
            match self.lower_stmt(s, cur, frames) {
                Some(next) => cur = next,
                None => return None,
            }
        }
        Some(cur)
    }

    fn lower_stmt(&mut self, s: &Stmt, cur: BlockId, frames: &Frames) -> Option<BlockId> {
        if !self.is_open(cur) {
            return None;
        }
        match &s.kind {
            StmtKind::Expr(_) | StmtKind::Decl(_) | StmtKind::Empty => {
                self.push_node(cur, s.clone());
                Some(cur)
            }
            StmtKind::Block(body) => self.lower_stmts(body, cur, frames),
            StmtKind::If { cond, then, els } => {
                let then_b = self.new_block();
                let join = self.new_block();
                let else_b = if els.is_some() {
                    self.new_block()
                } else {
                    join
                };
                self.set_term(
                    cur,
                    Terminator::Branch {
                        cond: cond.clone(),
                        then_to: then_b,
                        else_to: else_b,
                    },
                );
                if let Some(end) = self.lower_stmt(then, then_b, frames) {
                    self.set_term(end, Terminator::Jump(join));
                }
                if let Some(els) = els {
                    if let Some(end) = self.lower_stmt(els, else_b, frames) {
                        self.set_term(end, Terminator::Jump(join));
                    }
                }
                Some(join)
            }
            StmtKind::While { cond, body } => {
                let head = self.new_block();
                let body_b = self.new_block();
                let after = self.new_block();
                self.set_term(cur, Terminator::Jump(head));
                self.set_term(
                    head,
                    Terminator::Branch {
                        cond: cond.clone(),
                        then_to: body_b,
                        else_to: after,
                    },
                );
                let inner = Frames {
                    break_to: Some(after),
                    continue_to: Some(head),
                };
                if let Some(end) = self.lower_stmt(body, body_b, &inner) {
                    self.set_term(end, Terminator::Jump(head));
                }
                Some(after)
            }
            StmtKind::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let head = self.new_block(); // condition check
                let after = self.new_block();
                self.set_term(cur, Terminator::Jump(body_b));
                let inner = Frames {
                    break_to: Some(after),
                    continue_to: Some(head),
                };
                if let Some(end) = self.lower_stmt(body, body_b, &inner) {
                    self.set_term(end, Terminator::Jump(head));
                }
                self.set_term(
                    head,
                    Terminator::Branch {
                        cond: cond.clone(),
                        then_to: body_b,
                        else_to: after,
                    },
                );
                Some(after)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut cur = cur;
                if let Some(init) = init {
                    cur = self.lower_stmt(init, cur, frames)?;
                }
                let head = self.new_block();
                let body_b = self.new_block();
                let step_b = self.new_block();
                let after = self.new_block();
                self.set_term(cur, Terminator::Jump(head));
                match cond {
                    Some(c) => self.set_term(
                        head,
                        Terminator::Branch {
                            cond: c.clone(),
                            then_to: body_b,
                            else_to: after,
                        },
                    ),
                    None => self.set_term(head, Terminator::Jump(body_b)),
                }
                let inner = Frames {
                    break_to: Some(after),
                    continue_to: Some(step_b),
                };
                if let Some(end) = self.lower_stmt(body, body_b, &inner) {
                    self.set_term(end, Terminator::Jump(step_b));
                }
                if let Some(step) = step {
                    self.push_node(step_b, Stmt::new(StmtKind::Expr(step.clone()), step.span));
                }
                self.set_term(step_b, Terminator::Jump(head));
                Some(after)
            }
            StmtKind::Switch { scrutinee, cases } => {
                let after = self.new_block();
                // One block per case arm; fallthrough chains arm i -> i+1.
                let arm_blocks: Vec<BlockId> = cases.iter().map(|_| self.new_block()).collect();
                let targets = cases
                    .iter()
                    .zip(&arm_blocks)
                    .map(|(case, block)| (case.value.clone(), *block))
                    .collect();
                self.set_term(
                    cur,
                    Terminator::Switch {
                        scrutinee: scrutinee.clone(),
                        targets,
                        fallthrough: after,
                    },
                );
                let inner = Frames {
                    break_to: Some(after),
                    continue_to: frames.continue_to,
                };
                for (i, case) in cases.iter().enumerate() {
                    if let Some(end) = self.lower_stmts(&case.body, arm_blocks[i], &inner) {
                        // Fall through to the next arm, or out of the switch.
                        let next = arm_blocks.get(i + 1).copied().unwrap_or(after);
                        self.set_term(end, Terminator::Jump(next));
                    }
                }
                Some(after)
            }
            StmtKind::Break => {
                let target = frames.break_to;
                match target {
                    Some(t) => self.set_term(cur, Terminator::Jump(t)),
                    None => self.set_term(
                        cur,
                        Terminator::Return {
                            value: None,
                            span: s.span,
                        },
                    ),
                }
                None
            }
            StmtKind::Continue => {
                let target = frames.continue_to;
                match target {
                    Some(t) => self.set_term(cur, Terminator::Jump(t)),
                    None => self.set_term(
                        cur,
                        Terminator::Return {
                            value: None,
                            span: s.span,
                        },
                    ),
                }
                None
            }
            StmtKind::Return(value) => {
                self.set_term(
                    cur,
                    Terminator::Return {
                        value: value.clone(),
                        span: s.span,
                    },
                );
                None
            }
            StmtKind::Label(name, inner) => {
                let labeled = self.new_block();
                self.set_term(cur, Terminator::Jump(labeled));
                self.labels.insert(name.clone(), labeled);
                self.lower_stmt(inner, labeled, frames)
            }
            StmtKind::Goto(label) => {
                self.pending_gotos.push((cur, label.clone()));
                // Terminator patched later; mark as return placeholder so
                // the block is closed.
                self.set_term(
                    cur,
                    Terminator::Return {
                        value: None,
                        span: s.span,
                    },
                );
                None
            }
        }
    }

    fn patch_gotos(&mut self) {
        let gotos = std::mem::take(&mut self.pending_gotos);
        for (block, label) in gotos {
            if let Some(&target) = self.labels.get(&label) {
                if let BlockState::Done(b) = &mut self.blocks[block.0] {
                    b.term = Terminator::Jump(target);
                }
            }
            // Unknown label: leave the placeholder return (degrade
            // gracefully; see `Cfg::build` docs).
        }
    }

    fn finish(mut self) -> Cfg {
        // Close any still-open blocks (possible for unreachable joins) with
        // an implicit return.
        for i in 0..self.blocks.len() {
            if self.is_open(BlockId(i)) {
                self.set_term(
                    BlockId(i),
                    Terminator::Return {
                        value: None,
                        span: Span::default(),
                    },
                );
            }
        }
        let blocks = self
            .blocks
            .into_iter()
            .map(|b| match b {
                BlockState::Done(b) => b,
                BlockState::Open(_) => unreachable!("all blocks closed above"),
            })
            .collect();
        let mut cfg = Cfg {
            name: self.name,
            blocks,
            entry: BlockId(0),
            escapes: Default::default(),
        };
        // One function-wide scan for address-taken lvalues; every pruning
        // traversal starts from this set (see `FactSet::seed_escapes_stmt`
        // for why the seed covers the whole function, not just a path).
        let mut seed = crate::FactSet::new();
        for block in &cfg.blocks {
            for node in &block.nodes {
                seed.seed_escapes_stmt(&node.stmt);
            }
            match &block.term {
                Terminator::Jump(_) => {}
                Terminator::Branch { cond, .. } => seed.seed_escapes_expr(cond),
                Terminator::Switch { scrutinee, .. } => seed.seed_escapes_expr(scrutinee),
                Terminator::Return { value, .. } => {
                    if let Some(v) = value {
                        seed.seed_escapes_expr(v);
                    }
                }
            }
        }
        cfg.escapes = seed.into_escapes();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_ast::parse_translation_unit;

    fn cfg_of(body: &str) -> Cfg {
        let src = format!("void f(void) {{ {body} }}");
        let tu = parse_translation_unit(&src, "t.c").unwrap();
        Cfg::build(tu.function("f").unwrap())
    }

    #[test]
    fn straight_line_single_block_exit() {
        let cfg = cfg_of("a(); b(); c();");
        assert_eq!(cfg.exits().len(), 1);
        let entry = cfg.block(cfg.entry);
        assert_eq!(entry.nodes.len(), 3);
        assert!(matches!(entry.term, Terminator::Return { .. }));
    }

    #[test]
    fn if_produces_diamond() {
        let cfg = cfg_of("if (x) { a(); } else { b(); } c();");
        let entry = cfg.block(cfg.entry);
        match &entry.term {
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                assert_ne!(then_to, else_to);
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn if_without_else_branches_to_join() {
        let cfg = cfg_of("if (x) a(); b();");
        let entry = cfg.block(cfg.entry);
        match &entry.term {
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                // else edge goes straight to the join block
                let join = cfg.block(*else_to);
                assert_eq!(join.nodes.len(), 1); // b();
                let then_block = cfg.block(*then_to);
                assert_eq!(then_block.nodes.len(), 1); // a();
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn while_loop_has_back_edge() {
        let cfg = cfg_of("while (x) { a(); } b();");
        // find the head block (branch)
        let heads: Vec<_> = cfg
            .iter()
            .filter(|(_, b)| matches!(b.term, Terminator::Branch { .. }))
            .collect();
        assert_eq!(heads.len(), 1);
        let (head_id, head) = heads[0];
        if let Terminator::Branch { then_to, .. } = &head.term {
            // loop body jumps back to head
            let body = cfg.block(*then_to);
            assert_eq!(body.term, Terminator::Jump(head_id));
        }
    }

    #[test]
    fn do_while_executes_body_first() {
        let cfg = cfg_of("do { a(); } while (x); b();");
        // entry jumps into the body, not the condition
        let entry = cfg.block(cfg.entry);
        if let Terminator::Jump(t) = entry.term {
            assert_eq!(cfg.block(t).nodes.len(), 1); // a();
        } else {
            panic!("expected jump");
        }
    }

    #[test]
    fn for_loop_structure() {
        let cfg = cfg_of("for (i = 0; i < 4; i++) { a(); } b();");
        // entry contains init
        assert_eq!(cfg.block(cfg.entry).nodes.len(), 1);
        let branches = cfg
            .iter()
            .filter(|(_, b)| matches!(b.term, Terminator::Branch { .. }))
            .count();
        assert_eq!(branches, 1);
    }

    #[test]
    fn early_return_creates_two_exits() {
        let cfg = cfg_of("if (x) { return; } a();");
        assert_eq!(cfg.exits().len(), 2);
    }

    #[test]
    fn break_leaves_loop() {
        let cfg = cfg_of("while (1) { if (x) break; a(); } b();");
        // The break block must jump to the after-loop block containing b().
        let after_blocks: Vec<_> = cfg
            .iter()
            .filter(|(_, b)| {
                b.nodes
                    .iter()
                    .any(|n| mc_ast::print_stmt(&n.stmt).contains("b()"))
            })
            .collect();
        assert_eq!(after_blocks.len(), 1);
    }

    #[test]
    fn continue_goes_to_step_in_for() {
        let cfg = cfg_of("for (i = 0; i < 4; i++) { if (x) continue; a(); }");
        // Some block must jump to the step block (which contains i++).
        let step_blocks: Vec<_> = cfg
            .iter()
            .filter(|(_, b)| {
                b.nodes
                    .iter()
                    .any(|n| mc_ast::print_stmt(&n.stmt).contains("i++"))
            })
            .map(|(id, _)| id)
            .collect();
        assert_eq!(step_blocks.len(), 1);
        let step = step_blocks[0];
        let jumpers = cfg
            .iter()
            .filter(|(_, b)| b.term.successors().contains(&step))
            .count();
        assert!(jumpers >= 2, "body end and continue should both reach step");
    }

    #[test]
    fn switch_targets_and_fallthrough() {
        let cfg = cfg_of("switch (op) { case 1: a(); break; case 2: b(); default: c(); } d();");
        let (_, sw) = cfg
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Switch { .. }))
            .unwrap();
        if let Terminator::Switch { targets, .. } = &sw.term {
            assert_eq!(targets.len(), 3);
            // case 2 falls through to default: block of case2 jumps to block of default
            let case2 = targets[1].1;
            let default_b = targets[2].1;
            assert_eq!(cfg.block(case2).term, Terminator::Jump(default_b));
        }
    }

    #[test]
    fn switch_without_default_can_skip() {
        let cfg = cfg_of("switch (op) { case 1: a(); break; } d();");
        let (_, sw) = cfg
            .iter()
            .find(|(_, b)| matches!(b.term, Terminator::Switch { .. }))
            .unwrap();
        // successors include the fallthrough
        assert_eq!(sw.term.successors().len(), 2);
    }

    #[test]
    fn goto_jumps_to_label() {
        let cfg = cfg_of("retry: a(); if (x) goto retry; b();");
        // Some block's terminator jumps back to the labeled block.
        let labeled: Vec<_> = cfg
            .iter()
            .filter(|(_, b)| {
                b.nodes
                    .iter()
                    .any(|n| mc_ast::print_stmt(&n.stmt).contains("a()"))
            })
            .map(|(id, _)| id)
            .collect();
        assert_eq!(labeled.len(), 1);
        let target = labeled[0];
        let jumpers = cfg
            .iter()
            .filter(|(_, b)| matches!(b.term, Terminator::Jump(t) if t == target))
            .count();
        assert!(jumpers >= 2, "entry and goto both jump to label block");
    }

    #[test]
    fn unreachable_code_after_return_is_dropped() {
        let cfg = cfg_of("return; a();");
        let total_nodes: usize = cfg.blocks.iter().map(|b| b.nodes.len()).sum();
        assert_eq!(total_nodes, 0);
    }

    #[test]
    fn nested_loops_break_binds_to_inner() {
        let cfg = cfg_of("while (x) { while (y) { if (z) break; a(); } b(); } c();");
        // b() must be reachable from the inner break: find block with b()
        let has_b = cfg.iter().any(|(_, blk)| {
            blk.nodes
                .iter()
                .any(|n| mc_ast::print_stmt(&n.stmt).contains("b()"))
        });
        assert!(has_b);
    }
}
