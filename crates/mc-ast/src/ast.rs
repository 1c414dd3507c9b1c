//! Abstract syntax tree for the C subset.
//!
//! The tree is deliberately plain: passive data with public fields, `Box`ed
//! children, and a [`Span`] on every node. Checkers and the metal pattern
//! matcher consume it read-only; the corpus generator builds it and prints
//! it back to text with [`crate::printer`].
//!
//! The payloads later layers hold on to sit behind [`Arc`]: expression and
//! declaration statements, the condition, scrutinee, step, case-value and
//! return expressions, and whole function definitions. A control-flow
//! graph node, a branch terminator, a symbolic path step or a simulator
//! program then shares the parsed node (a reference-count bump) instead of
//! deep-copying it. The tree is immutable once parsed, so sharing is never
//! observable except through [`Arc::ptr_eq`].

use crate::token::Span;
use std::fmt;
use std::sync::Arc;

/// A binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinaryOp {
    /// The C token for this operator.
    pub fn symbol(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitXor => "^",
            BitOr => "|",
            LogAnd => "&&",
            LogOr => "||",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A prefix unary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `~`
    BitNot,
    /// `*`
    Deref,
    /// `&`
    AddrOf,
    /// `++` (prefix)
    PreInc,
    /// `--` (prefix)
    PreDec,
}

impl UnaryOp {
    /// The C token for this operator.
    pub fn symbol(self) -> &'static str {
        use UnaryOp::*;
        match self {
            Neg => "-",
            Not => "!",
            BitNot => "~",
            Deref => "*",
            AddrOf => "&",
            PreInc => "++",
            PreDec => "--",
        }
    }
}

/// A C type in the subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void`
    Void,
    /// `char` / `short` / `int` / `long` with optional `unsigned`.
    Int {
        /// `true` for `unsigned` variants.
        unsigned: bool,
        /// Width keyword as written: "char", "short", "int", "long".
        width: &'static str,
    },
    /// `float`
    Float,
    /// `double`
    Double,
    /// `struct Name` (or `union Name`; the distinction does not matter to
    /// any checker, so unions are folded in with `is_union` set).
    Struct {
        /// Tag name.
        name: String,
        /// `true` when declared with `union`.
        is_union: bool,
    },
    /// `enum Name`
    Enum(String),
    /// A typedef name registered in the parser, e.g. `DirEntry`.
    Named(String),
    /// Pointer to another type.
    Ptr(Box<Type>),
    /// Fixed-size array. `None` for unsized `[]`.
    Array(Box<Type>, Option<i64>),
}

impl Type {
    /// Convenience constructor for plain `int`.
    pub fn int() -> Type {
        Type::Int {
            unsigned: false,
            width: "int",
        }
    }

    /// Convenience constructor for `unsigned`/`unsigned int`.
    pub fn unsigned() -> Type {
        Type::Int {
            unsigned: true,
            width: "int",
        }
    }

    /// Returns `true` if this type is, or contains, a floating-point type —
    /// the property the execution-restriction checker forbids in handlers.
    pub fn contains_float(&self) -> bool {
        match self {
            Type::Float | Type::Double => true,
            Type::Ptr(inner) | Type::Array(inner, _) => inner.contains_float(),
            _ => false,
        }
    }

    /// A conservative size in bits, used by the no-stack checker's
    /// "aggregates larger than 64 bits must not be declared" rule.
    /// Named/struct types are treated as large (128) since their layout is
    /// unknown without a full type environment.
    pub fn size_bits(&self) -> u64 {
        match self {
            Type::Void => 0,
            Type::Int { width, .. } => match *width {
                "char" => 8,
                "short" => 16,
                "long" => 64,
                _ => 32,
            },
            Type::Float => 32,
            Type::Double => 64,
            Type::Struct { .. } | Type::Named(_) => 128,
            Type::Enum(_) => 32,
            Type::Ptr(_) => 64,
            Type::Array(inner, len) => inner.size_bits() * len.unwrap_or(2).max(0) as u64,
        }
    }

    /// Returns `true` for scalar (integer/enum/pointer) types — the class
    /// matched by a metal `decl { scalar }` wildcard.
    pub fn is_scalar(&self) -> bool {
        matches!(
            self,
            Type::Int { .. } | Type::Enum(_) | Type::Ptr(_) | Type::Named(_)
        )
    }
}

/// Storage-class / qualifier flags on a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StorageClass {
    /// `static`
    pub is_static: bool,
    /// `extern`
    pub is_extern: bool,
    /// `const`
    pub is_const: bool,
    /// `volatile`
    pub is_volatile: bool,
    /// `inline`
    pub is_inline: bool,
    /// `register`
    pub is_register: bool,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What kind of expression.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression with a span.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Creates an expression with a default (zero) span — handy in tests and
    /// in the corpus generator, where positions are assigned by printing and
    /// re-parsing.
    pub fn synth(kind: ExprKind) -> Self {
        Expr {
            kind,
            span: Span::default(),
        }
    }

    /// If this expression is a call to a named function/macro, returns the
    /// callee name and arguments. Checkers use this constantly: FLASH
    /// operations (`PI_SEND`, `WAIT_FOR_DB_FULL`, …) are all call forms.
    pub fn as_call(&self) -> Option<(&str, &[Expr])> {
        if let ExprKind::Call { callee, args } = &self.kind {
            if let ExprKind::Ident(name) = &callee.kind {
                return Some((name.as_str(), args.as_slice()));
            }
        }
        None
    }

    /// Returns the identifier name if this is a plain identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(name) => Some(name),
            _ => None,
        }
    }
}

/// The different expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal (value, original text).
    IntLit(i64, String),
    /// Floating literal (value, original text).
    FloatLit(f64, String),
    /// Character literal.
    CharLit(char),
    /// String literal.
    StrLit(String),
    /// Identifier reference.
    Ident(String),
    /// Function or macro call: `callee(args...)`.
    Call {
        /// The called expression (almost always an identifier).
        callee: Box<Expr>,
        /// Arguments, in order.
        args: Vec<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Prefix unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Postfix `++` / `--`. `inc` is `true` for `++`.
    Postfix {
        /// Operand.
        operand: Box<Expr>,
        /// `true` for `++`, `false` for `--`.
        inc: bool,
    },
    /// Assignment. `op` is `None` for plain `=`, or the compound operator
    /// for `+=` etc.
    Assign {
        /// Compound operator, if any.
        op: Option<BinaryOp>,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// Ternary conditional `cond ? then : els`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
    },
    /// Array index `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Member access `base.field` (`arrow` false) or `base->field` (true).
    Member {
        /// Accessed expression.
        base: Box<Expr>,
        /// Field name.
        field: String,
        /// `true` for `->`.
        arrow: bool,
    },
    /// Cast `(type) expr`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `sizeof(type)` or `sizeof expr` (only the type form is supported).
    SizeofType(Type),
    /// Comma expression `a, b`.
    Comma(Box<Expr>, Box<Expr>),
    /// A metal wildcard variable occurrence. Never produced when parsing
    /// plain C; only when parsing metal patterns, where `decl`-declared
    /// names become wildcards.
    Wildcard(String),
}

/// A local or global variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Qualifiers.
    pub storage: StorageClass,
    /// Declared type (after applying pointer/array derivations).
    pub ty: Type,
    /// Variable name.
    pub name: String,
    /// Optional initializer.
    pub init: Option<Initializer>,
    /// Source location.
    pub span: Span,
}

/// An initializer: a single expression or a brace list.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`
    Expr(Expr),
    /// `= { a, b, ... }`
    List(Vec<Initializer>),
}

/// One `case`/`default` arm of a `switch`.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCase {
    /// `Some(expr)` for `case expr:`, `None` for `default:`.
    pub value: Option<Arc<Expr>>,
    /// Statements in the arm (up to the next label), in order.
    pub body: Vec<Stmt>,
    /// Location of the `case`/`default` label.
    pub span: Span,
}

/// A statement node.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What kind of statement.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Creates a statement with a span.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }

    /// Creates a statement with a default span (tests / synthesis).
    pub fn synth(kind: StmtKind) -> Self {
        Stmt {
            kind,
            span: Span::default(),
        }
    }
}

/// The different statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Expression statement `expr;`.
    Expr(Arc<Expr>),
    /// Local declaration(s). One `Stmt` per declarator — the parser splits
    /// `int a, b;` into two nodes for simpler downstream handling.
    Decl(Arc<Declaration>),
    /// Empty statement `;`.
    Empty,
    /// Block `{ ... }`.
    Block(Vec<Stmt>),
    /// `if (cond) then [else els]`.
    If {
        /// Condition.
        cond: Arc<Expr>,
        /// True branch.
        then: Box<Stmt>,
        /// Optional false branch.
        els: Option<Box<Stmt>>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Arc<Expr>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `do body while (cond);`.
    DoWhile {
        /// Loop body.
        body: Box<Stmt>,
        /// Loop condition.
        cond: Arc<Expr>,
    },
    /// `for (init; cond; step) body`. All three headers optional; `init`
    /// may be a declaration or expression statement.
    For {
        /// Initializer.
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Option<Arc<Expr>>,
        /// Step expression.
        step: Option<Arc<Expr>>,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// `switch (scrutinee) { cases }`.
    Switch {
        /// Switched expression.
        scrutinee: Arc<Expr>,
        /// The arms in order.
        cases: Vec<SwitchCase>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return;` or `return expr;`
    Return(Option<Arc<Expr>>),
    /// `label:` (attached to the following statement).
    Label(String, Box<Stmt>),
    /// `goto label;`
    Goto(String),
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter type.
    pub ty: Type,
    /// Parameter name (empty for unnamed prototype parameters).
    pub name: String,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Qualifiers (`static`, `inline`, …).
    pub storage: StorageClass,
    /// Return type.
    pub return_type: Type,
    /// Function name.
    pub name: String,
    /// Parameters. An explicit `(void)` list parses as empty.
    pub params: Vec<Param>,
    /// The body block statements.
    pub body: Vec<Stmt>,
    /// Source location of the definition.
    pub span: Span,
}

impl Function {
    /// Returns `true` if this function takes no parameters and returns
    /// `void` — the required shape for FLASH handlers.
    pub fn is_handler_shaped(&self) -> bool {
        self.params.is_empty() && self.return_type == Type::Void
    }
}

/// A struct/union definition at file scope.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// Tag name.
    pub name: String,
    /// `true` when declared with `union`.
    pub is_union: bool,
    /// Fields as (type, name).
    pub fields: Vec<(Type, String)>,
    /// Source location.
    pub span: Span,
}

/// A file-scope item other than a function definition.
#[derive(Debug, Clone, PartialEq)]
pub enum ExternalDecl {
    /// Global variable declaration.
    Var(Declaration),
    /// Function prototype (no body).
    Proto(Function),
    /// Struct/union definition.
    Struct(StructDef),
    /// `typedef existing NewName;`
    Typedef {
        /// The aliased type.
        ty: Type,
        /// The new name.
        name: String,
        /// Source location.
        span: Span,
    },
    /// `enum Name { A, B = 3, ... };` — constants recorded as names with
    /// optional explicit values.
    EnumDef {
        /// Tag name (may be empty for anonymous enums).
        name: String,
        /// Enumerators.
        variants: Vec<(String, Option<i64>)>,
        /// Source location.
        span: Span,
    },
}

/// A top-level item in a translation unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function with a body.
    Function(Arc<Function>),
    /// Everything else at file scope.
    Decl(ExternalDecl),
}

/// A parsed source file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// The file name used in diagnostics.
    pub file: String,
    /// Preprocessor lines, in order of appearance.
    pub preprocessor_lines: Vec<String>,
    /// All top-level items, in order.
    pub items: Vec<Item>,
}

impl TranslationUnit {
    /// Iterates over the function definitions in this unit.
    pub fn functions(&self) -> impl Iterator<Item = &Function> {
        self.shared_functions().map(|f| f.as_ref())
    }

    /// Iterates over the function definitions as shared handles, for
    /// consumers that keep a function beyond a borrow of the unit.
    pub fn shared_functions(&self) -> impl Iterator<Item = &Arc<Function>> {
        self.items.iter().filter_map(|item| match item {
            Item::Function(f) => Some(f),
            Item::Decl(_) => None,
        })
    }

    /// Finds a function definition by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_float_detection() {
        assert!(Type::Float.contains_float());
        assert!(Type::Ptr(Box::new(Type::Double)).contains_float());
        assert!(Type::Array(Box::new(Type::Float), Some(4)).contains_float());
        assert!(!Type::int().contains_float());
        assert!(!Type::Ptr(Box::new(Type::Void)).contains_float());
    }

    #[test]
    fn type_sizes() {
        assert_eq!(Type::int().size_bits(), 32);
        assert_eq!(Type::Array(Box::new(Type::int()), Some(4)).size_bits(), 128);
        assert_eq!(Type::Ptr(Box::new(Type::Void)).size_bits(), 64);
    }

    #[test]
    fn scalar_classification() {
        assert!(Type::unsigned().is_scalar());
        assert!(Type::Ptr(Box::new(Type::int())).is_scalar());
        assert!(!Type::Void.is_scalar());
        assert!(!Type::Struct {
            name: "S".into(),
            is_union: false
        }
        .is_scalar());
    }

    #[test]
    fn expr_as_call() {
        let call = Expr::synth(ExprKind::Call {
            callee: Box::new(Expr::synth(ExprKind::Ident("PI_SEND".into()))),
            args: vec![Expr::synth(ExprKind::Ident("F_DATA".into()))],
        });
        let (name, args) = call.as_call().unwrap();
        assert_eq!(name, "PI_SEND");
        assert_eq!(args.len(), 1);
        assert!(Expr::synth(ExprKind::IntLit(1, "1".into()))
            .as_call()
            .is_none());
    }

    #[test]
    fn handler_shape() {
        let f = Function {
            storage: StorageClass::default(),
            return_type: Type::Void,
            name: "H".into(),
            params: vec![],
            body: vec![],
            span: Span::default(),
        };
        assert!(f.is_handler_shaped());
        let g = Function {
            return_type: Type::int(),
            ..f.clone()
        };
        assert!(!g.is_handler_shaped());
    }

    #[test]
    fn translation_unit_lookup() {
        let mut tu = TranslationUnit::default();
        tu.items.push(Item::Function(Arc::new(Function {
            storage: StorageClass::default(),
            return_type: Type::Void,
            name: "PILocalGet".into(),
            params: vec![],
            body: vec![],
            span: Span::default(),
        })));
        assert!(tu.function("PILocalGet").is_some());
        assert!(tu.function("missing").is_none());
        assert_eq!(tu.functions().count(), 1);
    }
}
