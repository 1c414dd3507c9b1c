//! Hand-written lexer for the C subset.
//!
//! Preprocessor directives are not expanded: `#include` and friends are
//! skipped (recorded as raw lines by the parser when needed), and FLASH
//! macros such as `WAIT_FOR_DB_FULL(...)` are lexed as ordinary identifiers
//! so that they reach the AST as call expressions — exactly the view the
//! paper's checkers pattern-match against.

use crate::token::{Span, Token, TokenKind};
use std::fmt;

/// An error produced while lexing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Where the offending character is.
    pub span: Span,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Streaming lexer over source text.
///
/// Identifier and number tokens are sliced out of the source with one
/// allocation each, and punctuation is matched on bytes into `'static`
/// strings, so lexing allocates only for token texts the AST keeps.
#[derive(Debug)]
pub struct Lexer<'src> {
    text: &'src str,
    src: &'src [u8],
    pos: usize,
    line: u32,
    col: u32,
    /// Preprocessor lines encountered (e.g. `#include "flash.h"`), in order.
    pub preprocessor_lines: Vec<String>,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
            preprocessor_lines: Vec::new(),
        }
    }

    /// Lexes the entire input into a token vector terminated by
    /// [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns a [`LexError`] on malformed literals or unknown characters.
    pub fn tokenize(mut self) -> Result<(Vec<Token>, Vec<String>), LexError> {
        // Protocol code averages about three and a half bytes per token.
        let mut out = Vec::with_capacity(self.src.len() / 3 + 1);
        loop {
            let tok = self.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                break;
            }
        }
        Ok((out, self.preprocessor_lines))
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek2(&self) -> u8 {
        *self.src.get(self.pos + 1).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let c = self.peek();
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        c
    }

    /// Advances over `n` bytes that contain no newline.
    fn skip_inline(&mut self, n: usize) {
        self.pos += n;
        self.col += n as u32;
    }

    /// Advances while `pred` holds for the current byte (which must never
    /// hold for a newline) and returns the text passed over.
    fn eat_while(&mut self, pred: impl Fn(u8) -> bool) -> &'src str {
        let start = self.pos;
        let n = self.src[start..].iter().take_while(|&&c| pred(c)).count();
        self.skip_inline(n);
        &self.text[start..self.pos]
    }

    fn span(&self) -> Span {
        Span::new(self.line, self.col)
    }

    fn skip_trivia(&mut self) -> Result<(), LexError> {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\r' => {
                    self.eat_while(|c| matches!(c, b' ' | b'\t' | b'\r'));
                }
                b'\n' => {
                    self.bump();
                }
                b'/' if self.peek2() == b'/' => {
                    self.eat_while(|c| c != b'\n' && c != 0);
                }
                b'/' if self.peek2() == b'*' => {
                    let start = self.span();
                    self.skip_inline(2);
                    loop {
                        if self.peek() == 0 {
                            return Err(LexError {
                                message: "unterminated block comment".into(),
                                span: start,
                            });
                        }
                        if self.peek() == b'*' && self.peek2() == b'/' {
                            self.skip_inline(2);
                            break;
                        }
                        self.bump();
                    }
                }
                b'#' if self.col == 1 || self.at_line_start() => {
                    // Preprocessor directive: record the raw line and skip it
                    // (including backslash continuations).
                    let mut text = String::new();
                    loop {
                        let c = self.peek();
                        if c == 0 {
                            break;
                        }
                        if c == b'\\' && self.peek2() == b'\n' {
                            self.bump();
                            self.bump();
                            continue;
                        }
                        if c == b'\n' {
                            self.bump();
                            break;
                        }
                        text.push(self.bump() as char);
                    }
                    self.preprocessor_lines.push(text);
                }
                _ => return Ok(()),
            }
        }
    }

    fn at_line_start(&self) -> bool {
        let mut i = self.pos;
        while i > 0 {
            match self.src[i - 1] {
                b' ' | b'\t' => i -= 1,
                b'\n' => return true,
                _ => return false,
            }
        }
        true
    }

    fn next_token(&mut self) -> Result<Token, LexError> {
        self.skip_trivia()?;
        let span = self.span();
        let c = self.peek();
        if c == 0 {
            return Ok(Token::new(TokenKind::Eof, span));
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let name = self.eat_while(|c| c.is_ascii_alphanumeric() || c == b'_');
            return Ok(Token::new(TokenKind::Ident(name.to_string()), span));
        }
        if c.is_ascii_digit() {
            return self.lex_number(span);
        }
        match c {
            b'"' => self.lex_string(span),
            b'\'' => self.lex_char(span),
            _ => self.lex_punct(span),
        }
    }

    fn lex_number(&mut self, span: Span) -> Result<Token, LexError> {
        let start = self.pos;
        if self.peek() == b'0' && (self.peek2() == b'x' || self.peek2() == b'X') {
            self.skip_inline(2);
            let digits = self.eat_while(|c| c.is_ascii_hexdigit());
            let value = i64::from_str_radix(digits, 16).map_err(|_| LexError {
                message: format!("invalid hex literal `{}`", &self.text[start..self.pos]),
                span,
            })?;
            self.eat_int_suffix();
            let text = self.text[start..self.pos].to_string();
            return Ok(Token::new(TokenKind::Int(value, text), span));
        }
        self.eat_while(|c| c.is_ascii_digit());
        let is_float = self.peek() == b'.' && self.peek2().is_ascii_digit()
            || self.peek() == b'e'
            || self.peek() == b'E'
            || (self.peek() == b'.'
                && !self.peek2().is_ascii_alphanumeric()
                && self.peek2() != b'.');
        if is_float || self.peek() == b'f' || self.peek() == b'F' {
            if self.peek() == b'.' {
                self.skip_inline(1);
                self.eat_while(|c| c.is_ascii_digit());
            }
            if self.peek() == b'e' || self.peek() == b'E' {
                self.skip_inline(1);
                if self.peek() == b'+' || self.peek() == b'-' {
                    self.skip_inline(1);
                }
                self.eat_while(|c| c.is_ascii_digit());
            }
            let text = &self.text[start..self.pos];
            if self.peek() == b'f' || self.peek() == b'F' {
                self.skip_inline(1);
            }
            let value: f64 = text.parse().map_err(|_| LexError {
                message: format!("invalid float literal `{text}`"),
                span,
            })?;
            let display = self.text[start..self.pos].to_string();
            return Ok(Token::new(TokenKind::Float(value, display), span));
        }
        let digits = &self.text[start..self.pos];
        let value: i64 = digits.parse().map_err(|_| LexError {
            message: format!("invalid integer literal `{digits}`"),
            span,
        })?;
        self.eat_int_suffix();
        let text = self.text[start..self.pos].to_string();
        Ok(Token::new(TokenKind::Int(value, text), span))
    }

    fn eat_int_suffix(&mut self) {
        self.eat_while(|c| matches!(c, b'u' | b'U' | b'l' | b'L'));
    }

    fn lex_string(&mut self, span: Span) -> Result<Token, LexError> {
        self.bump(); // opening quote
        let mut s = String::new();
        loop {
            match self.peek() {
                0 | b'\n' => {
                    return Err(LexError {
                        message: "unterminated string literal".into(),
                        span,
                    })
                }
                b'"' => {
                    self.bump();
                    break;
                }
                b'\\' => {
                    self.bump();
                    s.push(unescape(self.bump()));
                }
                _ => s.push(self.bump() as char),
            }
        }
        Ok(Token::new(TokenKind::Str(s), span))
    }

    fn lex_char(&mut self, span: Span) -> Result<Token, LexError> {
        self.bump(); // opening quote
        let c = match self.peek() {
            b'\\' => {
                self.bump();
                unescape(self.bump())
            }
            0 => {
                return Err(LexError {
                    message: "unterminated char literal".into(),
                    span,
                })
            }
            _ => self.bump() as char,
        };
        if self.peek() != b'\'' {
            return Err(LexError {
                message: "unterminated char literal".into(),
                span,
            });
        }
        self.bump();
        Ok(Token::new(TokenKind::Char(c), span))
    }

    fn lex_punct(&mut self, span: Span) -> Result<Token, LexError> {
        match punct(&self.src[self.pos..]) {
            Some(p) => {
                self.skip_inline(p.len());
                Ok(Token::new(TokenKind::Punct(p), span))
            }
            None => {
                let c = self.text.get(self.pos..).and_then(|r| r.chars().next());
                let c = c.unwrap_or(self.peek() as char);
                Err(LexError {
                    message: format!("unexpected character `{c}`"),
                    span,
                })
            }
        }
    }
}

/// The longest punctuation token `rest` starts with.
///
/// `==>` is not C: it is the metal transition arrow. The metal DSL parser
/// reuses this lexer, so it is lexed here as one token.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let three = match rest {
        [b'<', b'<', b'=', ..] => "<<=",
        [b'>', b'>', b'=', ..] => ">>=",
        [b'.', b'.', b'.', ..] => "...",
        [b'=', b'=', b'>', ..] => "==>",
        _ => "",
    };
    if !three.is_empty() {
        return Some(three);
    }
    let two = match rest {
        [b'=', b'=', ..] => "==",
        [b'!', b'=', ..] => "!=",
        [b'<', b'=', ..] => "<=",
        [b'>', b'=', ..] => ">=",
        [b'&', b'&', ..] => "&&",
        [b'|', b'|', ..] => "||",
        [b'<', b'<', ..] => "<<",
        [b'>', b'>', ..] => ">>",
        [b'+', b'=', ..] => "+=",
        [b'-', b'=', ..] => "-=",
        [b'*', b'=', ..] => "*=",
        [b'/', b'=', ..] => "/=",
        [b'%', b'=', ..] => "%=",
        [b'&', b'=', ..] => "&=",
        [b'|', b'=', ..] => "|=",
        [b'^', b'=', ..] => "^=",
        [b'-', b'>', ..] => "->",
        [b'+', b'+', ..] => "++",
        [b'-', b'-', ..] => "--",
        _ => "",
    };
    if !two.is_empty() {
        return Some(two);
    }
    Some(match rest.first()? {
        b'+' => "+",
        b'-' => "-",
        b'*' => "*",
        b'/' => "/",
        b'%' => "%",
        b'=' => "=",
        b'<' => "<",
        b'>' => ">",
        b'!' => "!",
        b'~' => "~",
        b'&' => "&",
        b'|' => "|",
        b'^' => "^",
        b'?' => "?",
        b':' => ":",
        b';' => ";",
        b',' => ",",
        b'.' => ".",
        b'(' => "(",
        b')' => ")",
        b'[' => "[",
        b']' => "]",
        b'{' => "{",
        b'}' => "}",
        _ => return None,
    })
}

fn unescape(c: u8) -> char {
    match c {
        b'n' => '\n',
        b't' => '\t',
        b'r' => '\r',
        b'0' => '\0',
        other => other as char,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        let (toks, _) = Lexer::new(src).tokenize().unwrap();
        toks.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lex_identifiers_and_ints() {
        let k = kinds("foo bar_1 42 0x2a");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("foo".into()),
                TokenKind::Ident("bar_1".into()),
                TokenKind::Int(42, "42".into()),
                TokenKind::Int(42, "0x2a".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lex_floats() {
        let k = kinds("1.5 2e3 7.0f");
        assert!(matches!(k[0], TokenKind::Float(v, _) if v == 1.5));
        assert!(matches!(k[1], TokenKind::Float(v, _) if v == 2000.0));
        assert!(matches!(k[2], TokenKind::Float(v, _) if v == 7.0));
    }

    #[test]
    fn lex_operators_longest_match() {
        let k = kinds("a <<= b == c << d");
        assert!(k.contains(&TokenKind::Punct("<<=")));
        assert!(k.contains(&TokenKind::Punct("==")));
        assert!(k.contains(&TokenKind::Punct("<<")));
    }

    #[test]
    fn lex_strings_and_chars() {
        let k = kinds(r#""hello\n" 'x' '\t'"#);
        assert_eq!(k[0], TokenKind::Str("hello\n".into()));
        assert_eq!(k[1], TokenKind::Char('x'));
        assert_eq!(k[2], TokenKind::Char('\t'));
    }

    #[test]
    fn comments_are_skipped() {
        let k = kinds("a // line\n b /* block\n comment */ c");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn preprocessor_lines_recorded() {
        let (toks, pp) = Lexer::new("#include \"flash.h\"\nint x;")
            .tokenize()
            .unwrap();
        assert_eq!(pp, vec!["#include \"flash.h\"".to_string()]);
        assert_eq!(toks[0].kind, TokenKind::Ident("int".into()));
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let (toks, _) = Lexer::new("a\n  b").tokenize().unwrap();
        assert_eq!(toks[0].span, Span::new(1, 1));
        assert_eq!(toks[1].span, Span::new(2, 3));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(Lexer::new("\"oops").tokenize().is_err());
    }

    #[test]
    fn unterminated_comment_is_error() {
        assert!(Lexer::new("/* never closed").tokenize().is_err());
    }

    #[test]
    fn unknown_character_is_error() {
        assert!(Lexer::new("int x = @;").tokenize().is_err());
    }

    #[test]
    fn int_suffixes_are_consumed() {
        let k = kinds("10UL 0xffU 7u 3l 0X1fLL");
        assert!(matches!(&k[0], TokenKind::Int(10, t) if t == "10UL"));
        assert!(matches!(&k[1], TokenKind::Int(255, t) if t == "0xffU"));
        assert!(matches!(&k[2], TokenKind::Int(7, t) if t == "7u"));
        assert!(matches!(&k[3], TokenKind::Int(3, t) if t == "3l"));
        assert!(matches!(&k[4], TokenKind::Int(31, t) if t == "0X1fLL"));
        assert_eq!(k[5], TokenKind::Eof);
    }

    #[test]
    fn punctuation_at_end_of_input() {
        assert_eq!(
            kinds("a;"),
            [ident("a"), TokenKind::Punct(";"), TokenKind::Eof]
        );
        assert_eq!(
            kinds("x<<="),
            [ident("x"), TokenKind::Punct("<<="), TokenKind::Eof]
        );
        assert_eq!(
            kinds("p->"),
            [ident("p"), TokenKind::Punct("->"), TokenKind::Eof]
        );
        // A prefix of a longer operator cut off by the end of input.
        assert_eq!(
            kinds(".."),
            [TokenKind::Punct("."), TokenKind::Punct("."), TokenKind::Eof]
        );
        assert_eq!(kinds("<"), [TokenKind::Punct("<"), TokenKind::Eof]);
    }

    #[test]
    fn metal_arrow_is_one_token() {
        assert_eq!(
            kinds("a ==> b == c"),
            [
                ident("a"),
                TokenKind::Punct("==>"),
                ident("b"),
                TokenKind::Punct("=="),
                ident("c"),
                TokenKind::Eof
            ]
        );
        assert_eq!(kinds("==>"), [TokenKind::Punct("==>"), TokenKind::Eof]);
    }

    #[test]
    fn identifier_and_numbers_at_end_of_input() {
        assert_eq!(kinds("foo_9"), [ident("foo_9"), TokenKind::Eof]);
        assert_eq!(
            kinds("= 12"),
            [TokenKind::Punct("="), int(12, "12"), TokenKind::Eof]
        );
        assert_eq!(kinds("0x1F"), [int(31, "0x1F"), TokenKind::Eof]);
        let k = kinds("2.5f");
        assert!(matches!(&k[0], TokenKind::Float(v, t) if *v == 2.5 && t == "2.5f"));
        let (toks, _) = Lexer::new("ab\n  cd").tokenize().unwrap();
        assert_eq!(toks[1].span, Span::new(2, 3));
        assert_eq!(toks[2].span, Span::new(2, 5));
    }

    #[test]
    fn unknown_non_ascii_character_is_named_in_the_error() {
        let err = Lexer::new("int x = \u{e9};").tokenize().unwrap_err();
        assert_eq!(err.message, "unexpected character `\u{e9}`");
        assert_eq!(err.span, Span::new(1, 9));
        let err = Lexer::new("a \u{2192} b").tokenize().unwrap_err();
        assert_eq!(err.message, "unexpected character `\u{2192}`");
    }

    fn ident(s: &str) -> TokenKind {
        TokenKind::Ident(s.into())
    }

    fn int(v: i64, text: &str) -> TokenKind {
        TokenKind::Int(v, text.into())
    }
}
