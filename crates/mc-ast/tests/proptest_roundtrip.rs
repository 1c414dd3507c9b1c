//! Property tests: printing an AST and re-parsing it yields a structurally
//! identical AST (modulo spans), for randomly generated expressions and
//! statements.

use mc_ast::{
    parse_expr, parse_stmt, print_expr, print_stmt, BinaryOp, Expr, ExprKind, Initializer, Span,
    Stmt, StmtKind, Type, UnaryOp,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy for identifier names that cannot collide with keywords.
fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_map(|s| format!("v_{s}"))
}

fn leaf_expr() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0i64..100_000).prop_map(|v| Expr::synth(ExprKind::IntLit(v, v.to_string()))),
        ident().prop_map(|s| Expr::synth(ExprKind::Ident(s))),
        "[a-zA-Z ]{0,8}".prop_map(|s| Expr::synth(ExprKind::StrLit(s))),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::Div),
        Just(BinaryOp::Shl),
        Just(BinaryOp::Lt),
        Just(BinaryOp::Eq),
        Just(BinaryOp::BitAnd),
        Just(BinaryOp::BitOr),
        Just(BinaryOp::LogAnd),
        Just(BinaryOp::LogOr),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::Neg),
        Just(UnaryOp::Not),
        Just(UnaryOp::BitNot),
        Just(UnaryOp::Deref),
        Just(UnaryOp::AddrOf),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    leaf_expr().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (arb_binop(), inner.clone(), inner.clone()).prop_map(|(op, lhs, rhs)| Expr::synth(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs)
                }
            )),
            (arb_unop(), inner.clone()).prop_map(|(op, operand)| Expr::synth(ExprKind::Unary {
                op,
                operand: Box::new(operand)
            })),
            (ident(), prop::collection::vec(inner.clone(), 0..4)).prop_map(|(name, args)| {
                Expr::synth(ExprKind::Call {
                    callee: Box::new(Expr::synth(ExprKind::Ident(name))),
                    args,
                })
            }),
            (inner.clone(), inner.clone()).prop_map(|(base, index)| Expr::synth(ExprKind::Index {
                base: Box::new(base),
                index: Box::new(index)
            })),
            (inner.clone(), ident(), any::<bool>()).prop_map(|(base, field, arrow)| Expr::synth(
                ExprKind::Member {
                    base: Box::new(base),
                    field,
                    arrow
                }
            )),
            (inner.clone(), inner.clone()).prop_map(|(lhs, rhs)| Expr::synth(ExprKind::Assign {
                op: None,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs)
            })),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::synth(
                ExprKind::Ternary {
                    cond: Box::new(c),
                    then: Box::new(t),
                    els: Box::new(e)
                }
            )),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = Stmt> {
    let leaf = prop_oneof![
        arb_expr().prop_map(|e| Stmt::synth(StmtKind::Expr(Arc::new(e)))),
        Just(Stmt::synth(StmtKind::Empty)),
        Just(Stmt::synth(StmtKind::Break)),
        Just(Stmt::synth(StmtKind::Continue)),
        Just(Stmt::synth(StmtKind::Return(None))),
        arb_expr().prop_map(|e| Stmt::synth(StmtKind::Return(Some(Arc::new(e))))),
        (ident(), prop::option::of(arb_expr())).prop_map(|(name, init)| {
            Stmt::synth(StmtKind::Decl(Arc::new(mc_ast::Declaration {
                storage: Default::default(),
                ty: Type::int(),
                name,
                init: init.map(Initializer::Expr),
                span: Span::default(),
            })))
        }),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4)
                .prop_map(|body| Stmt::synth(StmtKind::Block(body))),
            (arb_expr(), inner.clone(), prop::option::of(inner.clone())).prop_map(
                |(cond, then, els)| Stmt::synth(StmtKind::If {
                    cond: Arc::new(cond),
                    then: Box::new(then),
                    els: els.map(Box::new)
                })
            ),
            (arb_expr(), inner.clone()).prop_map(|(cond, body)| Stmt::synth(StmtKind::While {
                cond: Arc::new(cond),
                body: Box::new(body)
            })),
            (inner.clone(), arb_expr()).prop_map(|(body, cond)| Stmt::synth(StmtKind::DoWhile {
                body: Box::new(body),
                cond: Arc::new(cond)
            })),
        ]
    })
}

/// Structural equality ignoring spans and literal text spelling.
fn normalize_expr(e: &Expr) -> String {
    // Printing is itself a normal form: compare by second-print.
    print_expr(e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn expr_roundtrip(e in arb_expr()) {
        let printed = print_expr(&e);
        let reparsed = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("re-parse failed for `{printed}`: {err}"));
        // parse . print must be a fixed point
        prop_assert_eq!(normalize_expr(&reparsed), printed);
    }

    #[test]
    fn stmt_roundtrip(s in arb_stmt()) {
        let printed = print_stmt(&s);
        let reparsed = parse_stmt(&printed)
            .unwrap_or_else(|err| panic!("re-parse failed for:\n{printed}\nerror: {err}"));
        prop_assert_eq!(print_stmt(&reparsed), printed);
    }

    #[test]
    fn parser_never_panics_on_random_input(src in "[ -~\\n]{0,200}") {
        // Arbitrary printable input must produce Ok or Err, never a panic.
        let _ = mc_ast::parse_translation_unit(&src, "fuzz.c");
    }
}
