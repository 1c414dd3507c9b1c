//! Recursive-descent parser for the C subset.
//!
//! The grammar is classic C89 minus the features FLASH protocol code never
//! uses (K&R declarations, bitfields, function pointers in full generality).
//! Two extensions matter to the rest of the workspace:
//!
//! * **Typedef tracking** — `typedef` items register names so later
//!   declarations can use them; callers may also pre-register names with
//!   [`Parser::add_typedef`] (the driver does this with the FLASH header
//!   types, mirroring how xg++ saw the real headers).
//! * **Wildcards** — when constructed with [`Parser::with_wildcards`],
//!   identifiers in the given set parse as [`ExprKind::Wildcard`]. The metal
//!   pattern compiler uses this so patterns are "written in the base
//!   language", exactly as the paper describes.

use crate::ast::*;
use crate::lexer::Lexer;
use crate::token::{is_type_keyword, Span, Token, TokenKind};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// The deepest nesting the parser accepts. Each nested statement (block,
/// `if`/loop/`switch` body, label) and each nested expression
/// (parentheses, call argument, subscript, prefix operator or cast operand,
/// assignment or conditional right-hand side, initializer list) is one
/// level, and an expression counts on top of the statements around it.
/// Deeper input is a [`ParseError`] rather than a stack overflow, in the
/// parser or in any of the recursive tree walks that run after it: at this
/// depth the whole pipeline fits a 2 MiB thread stack, even unoptimized.
pub const MAX_NESTING: usize = 256;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Location of the offending token.
    pub span: Span,
    /// File the error occurred in (empty when parsing fragments).
    pub file: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file.is_empty() {
            write!(f, "parse error at {}: {}", self.span, self.message)
        } else {
            write!(
                f,
                "{}:{}: parse error: {}",
                self.file, self.span, self.message
            )
        }
    }
}

impl std::error::Error for ParseError {}

impl From<crate::lexer::LexError> for ParseError {
    fn from(e: crate::lexer::LexError) -> Self {
        ParseError {
            message: e.message,
            span: e.span,
            file: String::new(),
        }
    }
}

/// Parses a complete source file.
///
/// # Errors
///
/// Returns [`ParseError`] on the first syntax error.
pub fn parse_translation_unit(src: &str, file: &str) -> Result<TranslationUnit, ParseError> {
    let (tokens, pp) = Lexer::new(src).tokenize().map_err(|e| ParseError {
        file: file.to_string(),
        ..ParseError::from(e)
    })?;
    let mut parser = Parser::new(tokens, file);
    parser.preprocessor_lines = pp;
    parser.translation_unit()
}

/// Parses a single expression (used for metal patterns and tests).
///
/// # Errors
///
/// Returns [`ParseError`] if `src` is not exactly one expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let (tokens, _) = Lexer::new(src).tokenize()?;
    let mut parser = Parser::new(tokens, "");
    let e = parser.expr()?;
    parser.expect_eof()?;
    Ok(e)
}

/// Parses a single statement (used for metal patterns and tests).
///
/// # Errors
///
/// Returns [`ParseError`] if `src` is not exactly one statement.
pub fn parse_stmt(src: &str) -> Result<Stmt, ParseError> {
    let (tokens, _) = Lexer::new(src).tokenize()?;
    let mut parser = Parser::new(tokens, "");
    let s = parser.stmt()?;
    parser.expect_eof()?;
    Ok(s)
}

/// The parser state.
#[derive(Debug)]
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    file: String,
    typedefs: HashSet<String>,
    wildcards: HashSet<String>,
    /// Current nesting depth (see [`MAX_NESTING`]).
    depth: usize,
    /// Preprocessor lines captured by the lexer, stored into the resulting
    /// [`TranslationUnit`].
    pub preprocessor_lines: Vec<String>,
}

impl Parser {
    /// Creates a parser over a token stream.
    pub fn new(tokens: Vec<Token>, file: &str) -> Self {
        Parser {
            tokens,
            pos: 0,
            file: file.to_string(),
            typedefs: HashSet::new(),
            wildcards: HashSet::new(),
            depth: 0,
            preprocessor_lines: Vec::new(),
        }
    }

    /// Creates a parser whose identifiers in `wildcards` parse as
    /// [`ExprKind::Wildcard`] — the mechanism behind metal `decl` variables.
    pub fn with_wildcards(tokens: Vec<Token>, wildcards: HashSet<String>) -> Self {
        Parser {
            wildcards,
            ..Parser::new(tokens, "")
        }
    }

    /// Registers a typedef name so subsequent declarations can use it.
    pub fn add_typedef(&mut self, name: &str) {
        self.typedefs.insert(name.to_string());
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            span: self.peek_span(),
            file: self.file.clone(),
        })
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    /// Steps past the current token.
    fn bump(&mut self) {
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// Steps past the current token and moves its kind out. The parser
    /// never looks back, so the consumed slot keeps only its span.
    fn take(&mut self) -> TokenKind {
        let at = self.pos.min(self.tokens.len() - 1);
        self.bump();
        std::mem::replace(&mut self.tokens[at].kind, TokenKind::Eof)
    }

    /// Enters one nesting level, or fails past [`MAX_NESTING`]. Every
    /// successful call is paired with a `self.depth -= 1` once the nested
    /// step returns.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_NESTING {
            return self.err(format!("nested deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found `{}`", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            TokenKind::Ident(s) if !crate::token::is_keyword(s) => Ok(self.take_ident()),
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    /// Moves the current identifier token's text out; the caller has
    /// checked that the current token is an identifier.
    fn take_ident(&mut self) -> String {
        match self.take() {
            TokenKind::Ident(s) => s,
            other => unreachable!("take_ident on `{other}`"),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        // Allow one trailing semicolon in fragments.
        self.eat_punct(";");
        if *self.peek() == TokenKind::Eof {
            Ok(())
        } else {
            self.err(format!("expected end of input, found `{}`", self.peek()))
        }
    }

    // ----- types and declarations -------------------------------------

    fn at_type(&self) -> bool {
        match self.peek() {
            TokenKind::Ident(s) => {
                is_type_keyword(s)
                    || self.typedefs.contains(s)
                    || matches!(
                        s.as_str(),
                        "static" | "extern" | "const" | "volatile" | "inline" | "register"
                    )
            }
            _ => false,
        }
    }

    fn storage_class(&mut self) -> StorageClass {
        let mut sc = StorageClass::default();
        while let TokenKind::Ident(word) = self.peek() {
            match word.as_str() {
                "static" => sc.is_static = true,
                "extern" => sc.is_extern = true,
                "const" => sc.is_const = true,
                "volatile" => sc.is_volatile = true,
                "inline" => sc.is_inline = true,
                "register" => sc.is_register = true,
                _ => break,
            }
            self.bump();
        }
        sc
    }

    /// Parses a type specifier (no declarator): `unsigned long`,
    /// `struct Foo`, a typedef name, etc.
    fn type_specifier(&mut self) -> Result<Type, ParseError> {
        if self.eat_kw("void") {
            return Ok(self.pointered(Type::Void));
        }
        if self.eat_kw("float") {
            return Ok(self.pointered(Type::Float));
        }
        if self.eat_kw("double") {
            return Ok(self.pointered(Type::Double));
        }
        if self.eat_kw("struct") || {
            if self.peek().is_kw("union") {
                self.bump();
                let name = self.expect_ident()?;
                return Ok(self.pointered(Type::Struct {
                    name,
                    is_union: true,
                }));
            }
            false
        } {
            let name = self.expect_ident()?;
            return Ok(self.pointered(Type::Struct {
                name,
                is_union: false,
            }));
        }
        if self.eat_kw("enum") {
            let name = self.expect_ident()?;
            return Ok(self.pointered(Type::Enum(name)));
        }
        // Integer family: any sequence of signed/unsigned/char/short/int/long.
        let mut unsigned = false;
        let mut width: Option<&'static str> = None;
        let mut saw_int_kw = false;
        while let TokenKind::Ident(word) = self.peek() {
            match word.as_str() {
                "unsigned" => {
                    unsigned = true;
                    saw_int_kw = true;
                }
                "signed" => {
                    saw_int_kw = true;
                }
                "char" => {
                    width = Some("char");
                    saw_int_kw = true;
                }
                "short" => {
                    width = Some("short");
                    saw_int_kw = true;
                }
                "long" => {
                    width = Some("long");
                    saw_int_kw = true;
                }
                "int" => {
                    width = width.or(Some("int"));
                    saw_int_kw = true;
                }
                _ => break,
            }
            self.bump();
        }
        if saw_int_kw {
            return Ok(self.pointered(Type::Int {
                unsigned,
                width: width.unwrap_or("int"),
            }));
        }
        // Typedef name.
        if let TokenKind::Ident(s) = self.peek() {
            if self.typedefs.contains(s) {
                let name = self.take_ident();
                return Ok(self.pointered(Type::Named(name)));
            }
        }
        self.err(format!("expected type, found `{}`", self.peek()))
    }

    fn pointered(&mut self, mut ty: Type) -> Type {
        while self.peek().is_punct("*") {
            self.bump();
            // `const` after `*` is allowed and ignored.
            while self.eat_kw("const") || self.eat_kw("volatile") {}
            ty = Type::Ptr(Box::new(ty));
        }
        ty
    }

    /// Parses array suffixes on a declarator: `x[10][2]`.
    fn array_suffixes(&mut self, mut ty: Type) -> Result<Type, ParseError> {
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            if self.eat_punct("]") {
                dims.push(None);
            } else {
                let e = self.expr()?;
                let n = const_eval(&e);
                self.expect_punct("]")?;
                dims.push(n);
            }
        }
        for d in dims.into_iter().rev() {
            ty = Type::Array(Box::new(ty), d);
        }
        Ok(ty)
    }

    // ----- top level ----------------------------------------------------

    /// Parses the whole token stream as a translation unit.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on the first syntax error.
    pub fn translation_unit(&mut self) -> Result<TranslationUnit, ParseError> {
        let mut items = Vec::new();
        while *self.peek() != TokenKind::Eof {
            items.push(self.external_item()?);
        }
        Ok(TranslationUnit {
            file: self.file.clone(),
            preprocessor_lines: std::mem::take(&mut self.preprocessor_lines),
            items,
        })
    }

    fn external_item(&mut self) -> Result<Item, ParseError> {
        let span = self.peek_span();
        // typedef
        if self.peek().is_kw("typedef") {
            self.bump();
            let ty = self.type_specifier()?;
            let name = self.expect_ident()?;
            let ty = self.array_suffixes(ty)?;
            self.expect_punct(";")?;
            self.typedefs.insert(name.clone());
            return Ok(Item::Decl(ExternalDecl::Typedef { ty, name, span }));
        }
        // struct/union definition `struct S { ... };`
        if (self.peek().is_kw("struct") || self.peek().is_kw("union"))
            && self.peek_at(2).is_punct("{")
        {
            let is_union = self.peek().is_kw("union");
            self.bump();
            let name = self.expect_ident()?;
            self.expect_punct("{")?;
            let mut fields = Vec::new();
            while !self.eat_punct("}") {
                let _sc = self.storage_class();
                let base = self.type_specifier()?;
                loop {
                    let fname = self.expect_ident()?;
                    let fty = self.array_suffixes(base.clone())?;
                    fields.push((fty, fname));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(";")?;
            }
            self.expect_punct(";")?;
            return Ok(Item::Decl(ExternalDecl::Struct(StructDef {
                name,
                is_union,
                fields,
                span,
            })));
        }
        // enum definition `enum E { ... };`
        if self.peek().is_kw("enum") && self.peek_at(2).is_punct("{") {
            self.bump();
            let name = self.expect_ident()?;
            self.expect_punct("{")?;
            let mut variants = Vec::new();
            while !self.eat_punct("}") {
                let vname = self.expect_ident()?;
                let value = if self.eat_punct("=") {
                    // Not `expr()`: a comma here separates enumerators.
                    let e = self.assignment_expr()?;
                    const_eval(&e)
                } else {
                    None
                };
                variants.push((vname, value));
                if !self.eat_punct(",") {
                    // allow trailing `}` after last variant
                    self.expect_punct("}")?;
                    break;
                }
            }
            self.expect_punct(";")?;
            return Ok(Item::Decl(ExternalDecl::EnumDef {
                name,
                variants,
                span,
            }));
        }

        let storage = self.storage_class();
        let base = self.type_specifier()?;
        let name = self.expect_ident()?;

        if self.peek().is_punct("(") {
            // Function definition or prototype.
            self.bump();
            let params = self.param_list()?;
            self.expect_punct(")")?;
            let func = Function {
                storage,
                return_type: base,
                name,
                params,
                body: Vec::new(),
                span,
            };
            if self.eat_punct(";") {
                return Ok(Item::Decl(ExternalDecl::Proto(func)));
            }
            self.expect_punct("{")?;
            let body = self.block_body()?;
            return Ok(Item::Function(Arc::new(Function { body, ..func })));
        }

        // Global variable (only the first declarator may be followed by
        // others, which we split into separate items is unnecessary at file
        // scope — FLASH globals are one per line; keep the first and require
        // `;` or `= init ;`).
        let ty = self.array_suffixes(base)?;
        let init = if self.eat_punct("=") {
            Some(self.initializer()?)
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(Item::Decl(ExternalDecl::Var(Declaration {
            storage,
            ty,
            name,
            init,
            span,
        })))
    }

    fn param_list(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        if self.peek().is_punct(")") {
            return Ok(params);
        }
        if self.peek().is_kw("void") && self.peek_at(1).is_punct(")") {
            self.bump();
            return Ok(params);
        }
        loop {
            let _sc = self.storage_class();
            let base = self.type_specifier()?;
            let name = match self.peek() {
                TokenKind::Ident(s) if !crate::token::is_keyword(s) => self.take_ident(),
                _ => String::new(),
            };
            let ty = self.array_suffixes(base)?;
            params.push(Param { ty, name });
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(params)
    }

    fn initializer(&mut self) -> Result<Initializer, ParseError> {
        if self.eat_punct("{") {
            let mut list = Vec::new();
            while !self.eat_punct("}") {
                self.enter()?;
                let item = self.initializer();
                self.depth -= 1;
                list.push(item?);
                if !self.eat_punct(",") {
                    self.expect_punct("}")?;
                    break;
                }
            }
            Ok(Initializer::List(list))
        } else {
            Ok(Initializer::Expr(self.assignment_expr()?))
        }
    }

    // ----- statements ---------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if *self.peek() == TokenKind::Eof {
                return self.err("unexpected end of file inside block");
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    /// Parses one statement.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let s = self.stmt_inner();
        self.depth -= 1;
        s
    }

    // Statement and expression parsing recurse once per nesting level, so
    // the functions on that path stay small: each construct's work lives
    // in its own function, and only the one being parsed holds a frame.

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        // Label: `ident :` not followed by another colon-ish construct.
        if let TokenKind::Ident(s) = self.peek() {
            if !crate::token::is_keyword(s) && self.peek_at(1).is_punct(":") {
                return self.label_stmt(span);
            }
        }
        if self.eat_punct(";") {
            return Ok(Stmt::new(StmtKind::Empty, span));
        }
        if self.eat_punct("{") {
            return Ok(Stmt::new(StmtKind::Block(self.block_body()?), span));
        }
        if self.eat_kw("if") {
            return self.if_stmt(span);
        }
        if self.eat_kw("while") {
            return self.while_stmt(span);
        }
        if self.eat_kw("do") {
            return self.do_while_stmt(span);
        }
        if self.eat_kw("for") {
            return self.for_stmt(span);
        }
        if self.eat_kw("switch") {
            return self.switch_stmt(span);
        }
        if self.eat_kw("break") {
            return self.jump_stmt(StmtKind::Break, span);
        }
        if self.eat_kw("continue") {
            return self.jump_stmt(StmtKind::Continue, span);
        }
        if self.eat_kw("return") {
            return self.return_stmt(span);
        }
        if self.eat_kw("goto") {
            return self.goto_stmt(span);
        }
        if self.at_type() {
            return self.decl_stmt();
        }
        self.expr_stmt(span)
    }

    fn label_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let label = self.take_ident();
        self.bump();
        let inner = self.stmt()?;
        Ok(Stmt::new(StmtKind::Label(label, Box::new(inner)), span))
    }

    /// `( expr )` around a statement's condition or scrutinee.
    fn paren_cond(&mut self) -> Result<Arc<Expr>, ParseError> {
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        Ok(Arc::new(cond))
    }

    fn if_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let cond = self.paren_cond()?;
        let then = Box::new(self.stmt()?);
        let els = if self.eat_kw("else") {
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt::new(StmtKind::If { cond, then, els }, span))
    }

    fn while_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let cond = self.paren_cond()?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::new(StmtKind::While { cond, body }, span))
    }

    fn do_while_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let body = Box::new(self.stmt()?);
        if !self.eat_kw("while") {
            return self.err("expected `while` after `do` body");
        }
        let cond = self.paren_cond()?;
        self.expect_punct(";")?;
        Ok(Stmt::new(StmtKind::DoWhile { body, cond }, span))
    }

    fn for_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        self.expect_punct("(")?;
        let init = if self.eat_punct(";") {
            None
        } else if self.at_type() {
            Some(Box::new(self.decl_stmt()?))
        } else {
            Some(Box::new(self.expr_stmt(span)?))
        };
        let cond = if self.peek().is_punct(";") {
            None
        } else {
            Some(Arc::new(self.expr()?))
        };
        self.expect_punct(";")?;
        let step = if self.peek().is_punct(")") {
            None
        } else {
            Some(Arc::new(self.expr()?))
        };
        self.expect_punct(")")?;
        let body = Box::new(self.stmt()?);
        Ok(Stmt::new(
            StmtKind::For {
                init,
                cond,
                step,
                body,
            },
            span,
        ))
    }

    fn switch_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let scrutinee = self.paren_cond()?;
        self.expect_punct("{")?;
        let mut cases = Vec::new();
        while !self.eat_punct("}") {
            cases.push(self.switch_case()?);
        }
        Ok(Stmt::new(StmtKind::Switch { scrutinee, cases }, span))
    }

    fn switch_case(&mut self) -> Result<SwitchCase, ParseError> {
        let span = self.peek_span();
        let value = if self.eat_kw("case") {
            let e = self.expr()?;
            self.expect_punct(":")?;
            Some(Arc::new(e))
        } else if self.eat_kw("default") {
            self.expect_punct(":")?;
            None
        } else {
            return self.err("expected `case` or `default` in switch body");
        };
        let mut body = Vec::new();
        while !self.peek().is_kw("case")
            && !self.peek().is_kw("default")
            && !self.peek().is_punct("}")
        {
            if *self.peek() == TokenKind::Eof {
                return self.err("unexpected end of file inside switch");
            }
            body.push(self.stmt()?);
        }
        Ok(SwitchCase { value, body, span })
    }

    fn jump_stmt(&mut self, kind: StmtKind, span: Span) -> Result<Stmt, ParseError> {
        self.expect_punct(";")?;
        Ok(Stmt::new(kind, span))
    }

    fn return_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        if self.eat_punct(";") {
            return Ok(Stmt::new(StmtKind::Return(None), span));
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::new(StmtKind::Return(Some(Arc::new(e))), span))
    }

    fn goto_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let label = self.expect_ident()?;
        self.expect_punct(";")?;
        Ok(Stmt::new(StmtKind::Goto(label), span))
    }

    fn expr_stmt(&mut self, span: Span) -> Result<Stmt, ParseError> {
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::new(StmtKind::Expr(Arc::new(e)), span))
    }

    /// Parses a local declaration statement. Multiple declarators become a
    /// block of single-declaration statements.
    fn decl_stmt(&mut self) -> Result<Stmt, ParseError> {
        let span = self.peek_span();
        let storage = self.storage_class();
        let base = self.type_specifier()?;
        let mut decls = Vec::new();
        loop {
            // Each declarator may add its own pointer stars.
            let mut ty = base.clone();
            while self.eat_punct("*") {
                ty = Type::Ptr(Box::new(ty));
            }
            let name = self.expect_ident()?;
            let ty = self.array_suffixes(ty)?;
            let init = if self.eat_punct("=") {
                Some(self.initializer()?)
            } else {
                None
            };
            decls.push(Stmt::new(
                StmtKind::Decl(Arc::new(Declaration {
                    storage,
                    ty,
                    name,
                    init,
                    span,
                })),
                span,
            ));
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        if decls.len() == 1 {
            Ok(decls.pop().expect("one declaration"))
        } else {
            Ok(Stmt::new(StmtKind::Block(decls), span))
        }
    }

    // ----- expressions ----------------------------------------------------

    /// Parses a full (comma-level) expression.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input.
    pub fn expr(&mut self) -> Result<Expr, ParseError> {
        let e = self.assignment_expr()?;
        if self.peek().is_punct(",") {
            return self.comma_tail(e);
        }
        Ok(e)
    }

    fn comma_tail(&mut self, mut e: Expr) -> Result<Expr, ParseError> {
        while self.peek().is_punct(",") {
            // Comma only binds inside parens/statements; call-argument
            // parsing never enters here.
            let span = self.peek_span();
            self.bump();
            let rhs = self.assignment_expr()?;
            e = Expr::new(ExprKind::Comma(Box::new(e), Box::new(rhs)), span);
        }
        Ok(e)
    }

    fn assignment_expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let e = self.assignment_inner();
        self.depth -= 1;
        e
    }

    /// A prefix operator's or cast's operand, one level deeper.
    fn operand_expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let e = self.unary_expr();
        self.depth -= 1;
        e
    }

    fn assignment_inner(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.ternary_expr()?;
        let op = match self.peek() {
            TokenKind::Punct("=") => None,
            TokenKind::Punct("+=") => Some(BinaryOp::Add),
            TokenKind::Punct("-=") => Some(BinaryOp::Sub),
            TokenKind::Punct("*=") => Some(BinaryOp::Mul),
            TokenKind::Punct("/=") => Some(BinaryOp::Div),
            TokenKind::Punct("%=") => Some(BinaryOp::Rem),
            TokenKind::Punct("&=") => Some(BinaryOp::BitAnd),
            TokenKind::Punct("|=") => Some(BinaryOp::BitOr),
            TokenKind::Punct("^=") => Some(BinaryOp::BitXor),
            TokenKind::Punct("<<=") => Some(BinaryOp::Shl),
            TokenKind::Punct(">>=") => Some(BinaryOp::Shr),
            _ => return Ok(lhs),
        };
        self.assignment_tail(op, lhs)
    }

    fn assignment_tail(&mut self, op: Option<BinaryOp>, lhs: Expr) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        self.bump();
        let rhs = self.assignment_expr()?;
        Ok(Expr::new(
            ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        ))
    }

    fn ternary_expr(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary_expr(0)?;
        if self.eat_punct("?") {
            return self.ternary_tail(cond);
        }
        Ok(cond)
    }

    fn ternary_tail(&mut self, cond: Expr) -> Result<Expr, ParseError> {
        let span = cond.span;
        let then = self.expr()?;
        self.expect_punct(":")?;
        let els = self.assignment_expr()?;
        Ok(Expr::new(
            ExprKind::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            },
            span,
        ))
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let lhs = self.unary_expr()?;
        self.binary_tail(lhs, min_prec)
    }

    fn binary_tail(&mut self, mut lhs: Expr, min_prec: u8) -> Result<Expr, ParseError> {
        loop {
            let (op, prec) = match self.peek() {
                TokenKind::Punct("||") => (BinaryOp::LogOr, 1),
                TokenKind::Punct("&&") => (BinaryOp::LogAnd, 2),
                TokenKind::Punct("|") => (BinaryOp::BitOr, 3),
                TokenKind::Punct("^") => (BinaryOp::BitXor, 4),
                TokenKind::Punct("&") => (BinaryOp::BitAnd, 5),
                TokenKind::Punct("==") => (BinaryOp::Eq, 6),
                TokenKind::Punct("!=") => (BinaryOp::Ne, 6),
                TokenKind::Punct("<") => (BinaryOp::Lt, 7),
                TokenKind::Punct(">") => (BinaryOp::Gt, 7),
                TokenKind::Punct("<=") => (BinaryOp::Le, 7),
                TokenKind::Punct(">=") => (BinaryOp::Ge, 7),
                TokenKind::Punct("<<") => (BinaryOp::Shl, 8),
                TokenKind::Punct(">>") => (BinaryOp::Shr, 8),
                TokenKind::Punct("+") => (BinaryOp::Add, 9),
                TokenKind::Punct("-") => (BinaryOp::Sub, 9),
                TokenKind::Punct("*") => (BinaryOp::Mul, 10),
                TokenKind::Punct("/") => (BinaryOp::Div, 10),
                TokenKind::Punct("%") => (BinaryOp::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.peek_span();
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            TokenKind::Punct("-") => Some(UnaryOp::Neg),
            TokenKind::Punct("!") => Some(UnaryOp::Not),
            TokenKind::Punct("~") => Some(UnaryOp::BitNot),
            TokenKind::Punct("*") => Some(UnaryOp::Deref),
            TokenKind::Punct("&") => Some(UnaryOp::AddrOf),
            TokenKind::Punct("++") => Some(UnaryOp::PreInc),
            TokenKind::Punct("--") => Some(UnaryOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            return self.prefix_expr(op);
        }
        if self.peek().is_kw("sizeof") {
            return self.sizeof_expr();
        }
        // Cast: `(` type `)` unary — only when what follows `(` is a type.
        if self.peek().is_punct("(") && self.lookahead_is_type() {
            return self.cast_expr();
        }
        self.postfix_expr()
    }

    fn prefix_expr(&mut self, op: UnaryOp) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        self.bump();
        let operand = self.operand_expr()?;
        Ok(Expr::new(
            ExprKind::Unary {
                op,
                operand: Box::new(operand),
            },
            span,
        ))
    }

    fn sizeof_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        self.bump();
        self.expect_punct("(")?;
        let ty = self.type_specifier()?;
        self.expect_punct(")")?;
        Ok(Expr::new(ExprKind::SizeofType(ty), span))
    }

    fn cast_expr(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        self.bump();
        let ty = self.type_specifier()?;
        self.expect_punct(")")?;
        let inner = self.operand_expr()?;
        Ok(Expr::new(
            ExprKind::Cast {
                ty,
                expr: Box::new(inner),
            },
            span,
        ))
    }

    fn lookahead_is_type(&self) -> bool {
        match self.peek_at(1) {
            TokenKind::Ident(s) => is_type_keyword(s) || self.typedefs.contains(s),
            _ => false,
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let e = self.primary_expr()?;
        self.postfix_tail(e)
    }

    fn postfix_tail(&mut self, mut e: Expr) -> Result<Expr, ParseError> {
        loop {
            let span = self.peek_span();
            let suffix = match self.peek() {
                TokenKind::Punct("(") => Self::call_suffix,
                TokenKind::Punct("[") => Self::index_suffix,
                TokenKind::Punct(".") => Self::field_suffix,
                TokenKind::Punct("->") => Self::arrow_suffix,
                TokenKind::Punct("++") => Self::inc_suffix,
                TokenKind::Punct("--") => Self::dec_suffix,
                _ => return Ok(e),
            };
            self.bump();
            e = Expr::new(suffix(self, e)?, span);
        }
    }

    fn call_suffix(&mut self, callee: Expr) -> Result<ExprKind, ParseError> {
        let mut args = Vec::new();
        if !self.peek().is_punct(")") {
            loop {
                args.push(self.assignment_expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        Ok(ExprKind::Call {
            callee: Box::new(callee),
            args,
        })
    }

    fn index_suffix(&mut self, base: Expr) -> Result<ExprKind, ParseError> {
        let index = self.expr()?;
        self.expect_punct("]")?;
        Ok(ExprKind::Index {
            base: Box::new(base),
            index: Box::new(index),
        })
    }

    fn field_suffix(&mut self, base: Expr) -> Result<ExprKind, ParseError> {
        self.member_suffix(base, false)
    }

    fn arrow_suffix(&mut self, base: Expr) -> Result<ExprKind, ParseError> {
        self.member_suffix(base, true)
    }

    fn member_suffix(&mut self, base: Expr, arrow: bool) -> Result<ExprKind, ParseError> {
        let field = self.expect_ident()?;
        Ok(ExprKind::Member {
            base: Box::new(base),
            field,
            arrow,
        })
    }

    fn inc_suffix(&mut self, operand: Expr) -> Result<ExprKind, ParseError> {
        Ok(ExprKind::Postfix {
            operand: Box::new(operand),
            inc: true,
        })
    }

    fn dec_suffix(&mut self, operand: Expr) -> Result<ExprKind, ParseError> {
        Ok(ExprKind::Postfix {
            operand: Box::new(operand),
            inc: false,
        })
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("(") {
            let e = self.expr()?;
            self.expect_punct(")")?;
            return Ok(e);
        }
        self.atom()
    }

    /// A literal or identifier.
    fn atom(&mut self) -> Result<Expr, ParseError> {
        let span = self.peek_span();
        let kind = match self.take() {
            TokenKind::Int(v, text) => ExprKind::IntLit(v, text),
            TokenKind::Float(v, text) => ExprKind::FloatLit(v, text),
            TokenKind::Char(c) => ExprKind::CharLit(c),
            TokenKind::Str(s) => ExprKind::StrLit(s),
            TokenKind::Ident(name) => {
                if crate::token::is_keyword(&name) {
                    return self.err(format!("unexpected keyword `{name}` in expression"));
                }
                if self.wildcards.contains(&name) {
                    ExprKind::Wildcard(name)
                } else {
                    ExprKind::Ident(name)
                }
            }
            other => return self.err(format!("expected expression, found `{other}`")),
        };
        Ok(Expr::new(kind, span))
    }
}

/// Best-effort constant evaluation for array dimensions and enum values.
fn const_eval(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v, _) => Some(*v),
        ExprKind::Unary {
            op: UnaryOp::Neg,
            operand,
        } => const_eval(operand).map(|v| -v),
        ExprKind::Binary { op, lhs, rhs } => {
            let l = const_eval(lhs)?;
            let r = const_eval(rhs)?;
            match op {
                BinaryOp::Add => Some(l + r),
                BinaryOp::Sub => Some(l - r),
                BinaryOp::Mul => Some(l * r),
                BinaryOp::Div => (r != 0).then(|| l / r),
                BinaryOp::Shl => Some(l << (r & 63)),
                BinaryOp::Shr => Some(l >> (r & 63)),
                BinaryOp::BitOr => Some(l | r),
                BinaryOp::BitAnd => Some(l & r),
                BinaryOp::BitXor => Some(l ^ r),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_function() {
        let tu = parse_translation_unit("void PILocalGet(void) { int x; x = 1 + 2 * 3; }", "t.c")
            .unwrap();
        let f = tu.function("PILocalGet").unwrap();
        assert!(f.is_handler_shaped());
        assert_eq!(f.body.len(), 2);
    }

    #[test]
    fn precedence_mul_over_add() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e.kind {
            ExprKind::Binary {
                op: BinaryOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(
                    rhs.kind,
                    ExprKind::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn assignment_right_associative() {
        let e = parse_expr("a = b = 1").unwrap();
        match e.kind {
            ExprKind::Assign { rhs, .. } => {
                assert!(matches!(rhs.kind, ExprKind::Assign { .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn flash_macro_call_forms() {
        let e = parse_expr("HANDLER_GLOBALS(header.nh.len) = LEN_NODATA").unwrap();
        match e.kind {
            ExprKind::Assign { lhs, rhs, .. } => {
                let (callee, args) = lhs.as_call().unwrap();
                assert_eq!(callee, "HANDLER_GLOBALS");
                assert!(matches!(&args[0].kind, ExprKind::Member { .. }));
                assert_eq!(rhs.as_ident(), Some("LEN_NODATA"));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn if_else_chain() {
        let s = parse_stmt("if (a) { f(); } else if (b) g(); else h();").unwrap();
        match s.kind {
            StmtKind::If { els, .. } => {
                assert!(matches!(els.unwrap().kind, StmtKind::If { .. }));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn switch_statement() {
        let s =
            parse_stmt("switch (op) { case 1: f(); break; case 2: default: g(); break; }").unwrap();
        match s.kind {
            StmtKind::Switch { cases, .. } => {
                assert_eq!(cases.len(), 3);
                assert!(cases[0].value.is_some());
                assert!(cases[1].body.is_empty()); // fallthrough case
                assert!(cases[2].value.is_none());
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn loops() {
        assert!(matches!(
            parse_stmt("while (x) x--;").unwrap().kind,
            StmtKind::While { .. }
        ));
        assert!(matches!(
            parse_stmt("do { x--; } while (x);").unwrap().kind,
            StmtKind::DoWhile { .. }
        ));
        assert!(matches!(
            parse_stmt("for (i = 0; i < 10; i++) f(i);").unwrap().kind,
            StmtKind::For { .. }
        ));
        assert!(matches!(
            parse_stmt("for (int i = 0; i < 10; i++) f(i);")
                .unwrap()
                .kind,
            StmtKind::For { .. }
        ));
    }

    #[test]
    fn multi_declarator_splits() {
        let s = parse_stmt("int a, b = 2;").unwrap();
        match s.kind {
            StmtKind::Block(decls) => {
                assert_eq!(decls.len(), 2);
                assert!(matches!(&decls[1].kind, StmtKind::Decl(d) if d.init.is_some()));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn struct_definition_and_use() {
        let tu = parse_translation_unit(
            "struct Dir { unsigned state; unsigned vector[4]; };\n\
             struct Dir gDir;\n\
             void h(void) { struct Dir* d; d = &gDir; d->state = 1; }",
            "t.c",
        )
        .unwrap();
        assert_eq!(tu.items.len(), 3);
    }

    #[test]
    fn typedefs_enable_named_types() {
        let tu = parse_translation_unit(
            "typedef unsigned long DirEntry;\nvoid h(void) { DirEntry e; e = 0; }",
            "t.c",
        )
        .unwrap();
        let f = tu.function("h").unwrap();
        assert!(matches!(
            &f.body[0].kind,
            StmtKind::Decl(d) if d.ty == Type::Named("DirEntry".into())
        ));
    }

    #[test]
    fn enum_definition() {
        let tu = parse_translation_unit("enum State { IDLE, BUSY = 5, DONE };", "t.c").unwrap();
        match &tu.items[0] {
            Item::Decl(ExternalDecl::EnumDef { variants, .. }) => {
                assert_eq!(variants.len(), 3);
                assert_eq!(variants[1], ("BUSY".into(), Some(5)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn casts_and_sizeof() {
        let e = parse_expr("(unsigned) sizeof(struct Dir)").unwrap();
        assert!(matches!(e.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn cast_vs_paren_disambiguation() {
        // `(a) + b` is addition, not a cast.
        let e = parse_expr("(a) + b").unwrap();
        assert!(matches!(
            e.kind,
            ExprKind::Binary {
                op: BinaryOp::Add,
                ..
            }
        ));
    }

    #[test]
    fn ternary_and_comma() {
        let e = parse_expr("a ? b : c").unwrap();
        assert!(matches!(e.kind, ExprKind::Ternary { .. }));
        let e = parse_expr("(a = 1, b = 2)").unwrap();
        assert!(matches!(e.kind, ExprKind::Comma(..)));
    }

    #[test]
    fn address_of_and_deref() {
        let e = parse_expr("*p = &x").unwrap();
        match e.kind {
            ExprKind::Assign { lhs, rhs, .. } => {
                assert!(matches!(
                    lhs.kind,
                    ExprKind::Unary {
                        op: UnaryOp::Deref,
                        ..
                    }
                ));
                assert!(matches!(
                    rhs.kind,
                    ExprKind::Unary {
                        op: UnaryOp::AddrOf,
                        ..
                    }
                ));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }

    #[test]
    fn goto_and_labels() {
        let tu = parse_translation_unit(
            "void f(void) { int x; retry: x = g(); if (!x) goto retry; }",
            "t.c",
        )
        .unwrap();
        let f = tu.function("f").unwrap();
        assert!(matches!(&f.body[1].kind, StmtKind::Label(l, _) if l == "retry"));
    }

    #[test]
    fn wildcard_parsing() {
        let (tokens, _) = Lexer::new("WAIT_FOR_DB_FULL(addr)").tokenize().unwrap();
        let mut wc = HashSet::new();
        wc.insert("addr".to_string());
        let mut p = Parser::with_wildcards(tokens, wc);
        let e = p.expr().unwrap();
        let (_, args) = e.as_call().unwrap();
        assert!(matches!(&args[0].kind, ExprKind::Wildcard(w) if w == "addr"));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_translation_unit("void f(void) { int ; }", "bad.c").unwrap_err();
        assert_eq!(err.file, "bad.c");
        assert!(err.span.line >= 1);
    }

    #[test]
    fn prototypes_vs_definitions() {
        let tu = parse_translation_unit("void f(void);\nvoid f(void) { }", "t.c").unwrap();
        assert!(matches!(&tu.items[0], Item::Decl(ExternalDecl::Proto(_))));
        assert!(matches!(&tu.items[1], Item::Function(_)));
    }

    #[test]
    fn float_literals_parse() {
        // The no-float checker must be able to see these, so they must parse.
        let tu = parse_translation_unit("void f(void) { float r; r = 0.5; r = r * 2.0; }", "t.c")
            .unwrap();
        assert_eq!(tu.functions().count(), 1);
    }

    #[test]
    fn compound_assignment_ops() {
        for op in ["+=", "-=", "|=", "&=", "^=", "<<=", ">>="] {
            let e = parse_expr(&format!("a {op} 1")).unwrap();
            assert!(
                matches!(e.kind, ExprKind::Assign { op: Some(_), .. }),
                "{op}"
            );
        }
    }

    /// `n` parentheses around an assignment's right-hand side. The
    /// statement, the expression and the right-hand side take three more
    /// levels.
    fn nested_parens(n: usize) -> String {
        format!(
            "void f(void) {{ int x; x = {}1{}; }}",
            "(".repeat(n),
            ")".repeat(n)
        )
    }

    /// `n` nested blocks: `n` levels.
    fn nested_braces(n: usize) -> String {
        format!("void f(void) {{ {}{} }}", "{".repeat(n), "}".repeat(n))
    }

    fn depth_error(src: &str) -> ParseError {
        let err = parse_translation_unit(src, "deep.c").unwrap_err();
        assert!(err.message.contains("nested deeper than"), "{err}");
        err
    }

    #[test]
    fn nesting_at_the_limit_parses() {
        parse_translation_unit(&nested_parens(MAX_NESTING - 3), "deep.c").unwrap();
        parse_translation_unit(&nested_braces(MAX_NESTING), "deep.c").unwrap();
        // Statement, expression and call argument, then one per `!`.
        let bangs = format!("void f(void) {{ g({}x); }}", "!".repeat(MAX_NESTING - 3));
        parse_translation_unit(&bangs, "deep.c").unwrap();
        // Expressions count on top of the statements around them.
        let half = MAX_NESTING / 2;
        let mixed = format!(
            "void f(void) {{ {}x = {}1{}; }}",
            "if (a) ".repeat(half),
            "(".repeat(MAX_NESTING - half - 3),
            ")".repeat(MAX_NESTING - half - 3)
        );
        parse_translation_unit(&mixed, "deep.c").unwrap();
        depth_error(&mixed.replacen("x = ", "x = (", 1).replacen(";", ");", 1));
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        depth_error(&nested_parens(MAX_NESTING - 2));
        depth_error(&nested_braces(MAX_NESTING + 1));
        let err = depth_error(&nested_parens(5000));
        assert_eq!(err.file, "deep.c");
        assert_eq!(err.span.line, 1);
        depth_error(&nested_braces(100_000));
        // Right-recursive chains and non-paren nesting are charged too.
        let chain = format!("void f(void) {{ a{} = 1; }}", " = a".repeat(5000));
        depth_error(&chain);
        let bangs = format!("void f(void) {{ g({}x); }}", "!".repeat(5000));
        depth_error(&bangs);
        let labels = format!("void f(void) {{ {} ; }}", "l: ".repeat(5000));
        depth_error(&labels);
        let init = format!("int g = {}1{};", "{".repeat(5000), "}".repeat(5000));
        depth_error(&init);
    }

    #[test]
    fn depth_unwinds_between_statements() {
        let limit = nested_braces(MAX_NESTING);
        let src = format!(
            "{}\n{}\n{}",
            nested_parens(MAX_NESTING - 3),
            limit.replace("void f", "void g"),
            limit.replace("void f", "void h")
        );
        assert_eq!(
            parse_translation_unit(&src, "deep.c").unwrap().items.len(),
            3
        );
    }

    #[test]
    fn const_eval_dimensions() {
        let tu =
            parse_translation_unit("void f(void) { int buf[4 * 2]; buf[0] = 0; }", "t.c").unwrap();
        let f = tu.function("f").unwrap();
        match &f.body[0].kind {
            StmtKind::Decl(d) => {
                assert_eq!(d.ty, Type::Array(Box::new(Type::int()), Some(8)));
            }
            other => panic!("wrong shape: {other:?}"),
        }
    }
}
