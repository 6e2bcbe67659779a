//! A recursive-descent parser for a textual LTL syntax.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! formula    := implies
//! implies    := or ( ("->" | "=>") implies )?
//! or         := and ( ("||" | "|") and )*
//! and        := until ( ("&&" | "&") until )*
//! until      := unary ( ("U" | "R" | "W") unary )*        (left associative)
//! unary      := ("!" | "X" | "F" | "G" | "<>" | "[]") unary | primary
//! primary    := "true" | "false" | ident | "(" formula ")"
//! ident      := [A-Za-z_][A-Za-z0-9_.]*
//! ```
//!
//! Identifiers following the `P<k>.<name>` convention are automatically assigned to
//! process `k` in the [`AtomRegistry`]; other identifiers default to process 0.
//! `W` (weak until) is expanded as `a W b = (a U b) || G a`.

use crate::atoms::AtomRegistry;
use crate::syntax::Formula;
use std::fmt;

/// Error produced by [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error occurred.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses `input` into a [`Formula`], interning atoms into `registry`.
pub fn parse(input: &str, registry: &mut AtomRegistry) -> Result<Formula, ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        registry,
    };
    let formula = parser.parse_formula()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError {
            position: parser.tokens[parser.pos].1,
            message: format!(
                "unexpected trailing token {:?}",
                parser.tokens[parser.pos].0
            ),
        });
    }
    Ok(formula)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    True,
    False,
    Ident(String),
    Not,
    And,
    Or,
    Implies,
    Next,
    Finally,
    Globally,
    Until,
    Release,
    WeakUntil,
    LParen,
    RParen,
}

fn tokenize(input: &str) -> Result<Vec<(Token, usize)>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push((Token::LParen, i));
                i += 1;
            }
            ')' => {
                out.push((Token::RParen, i));
                i += 1;
            }
            '!' | '~' => {
                out.push((Token::Not, i));
                i += 1;
            }
            '&' => {
                out.push((Token::And, i));
                i += if input[i..].starts_with("&&") { 2 } else { 1 };
            }
            '|' => {
                out.push((Token::Or, i));
                i += if input[i..].starts_with("||") { 2 } else { 1 };
            }
            '-' | '=' if input[i..].starts_with("->") || input[i..].starts_with("=>") => {
                out.push((Token::Implies, i));
                i += 2;
            }
            '<' => {
                if input[i..].starts_with("<>") {
                    out.push((Token::Finally, i));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '<>'".to_string(),
                    });
                }
            }
            '[' => {
                if input[i..].starts_with("[]") {
                    out.push((Token::Globally, i));
                    i += 2;
                } else {
                    return Err(ParseError {
                        position: i,
                        message: "expected '[]'".to_string(),
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' || d == '.' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[start..i];
                let tok = match word {
                    "true" | "TRUE" => Token::True,
                    "false" | "FALSE" => Token::False,
                    "U" => Token::Until,
                    "R" | "V" => Token::Release,
                    "W" => Token::WeakUntil,
                    "X" => Token::Next,
                    "F" => Token::Finally,
                    "G" => Token::Globally,
                    _ => Token::Ident(word.to_string()),
                };
                out.push((tok, start));
            }
            _ => {
                return Err(ParseError {
                    position: i,
                    message: format!("unexpected character '{c}'"),
                })
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    registry: &'a mut AtomRegistry,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let position = self
            .tokens
            .get(self.pos)
            .map(|(_, p)| *p)
            .unwrap_or_else(|| self.tokens.last().map(|(_, p)| *p + 1).unwrap_or(0));
        ParseError {
            position,
            message: message.into(),
        }
    }

    fn parse_formula(&mut self) -> Result<Formula, ParseError> {
        self.parse_implies()
    }

    fn parse_implies(&mut self) -> Result<Formula, ParseError> {
        let lhs = self.parse_or()?;
        if matches!(self.peek(), Some(Token::Implies)) {
            self.bump();
            let rhs = self.parse_implies()?;
            Ok(Formula::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek(), Some(Token::Or)) {
            self.bump();
            let rhs = self.parse_and()?;
            lhs = Formula::or(lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_until()?;
        while matches!(self.peek(), Some(Token::And)) {
            self.bump();
            let rhs = self.parse_until()?;
            lhs = Formula::and(lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_until(&mut self) -> Result<Formula, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            match self.peek() {
                Some(Token::Until) => {
                    self.bump();
                    let rhs = self.parse_unary()?;
                    lhs = Formula::until(lhs, rhs);
                }
                Some(Token::Release) => {
                    self.bump();
                    let rhs = self.parse_unary()?;
                    lhs = Formula::release(lhs, rhs);
                }
                Some(Token::WeakUntil) => {
                    self.bump();
                    let rhs = self.parse_unary()?;
                    // a W b = (a U b) || G a
                    lhs = Formula::or(Formula::until(lhs.clone(), rhs), Formula::globally(lhs));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Token::Not) => {
                self.bump();
                Ok(Formula::not(self.parse_unary()?))
            }
            Some(Token::Next) => {
                self.bump();
                Ok(Formula::next(self.parse_unary()?))
            }
            Some(Token::Finally) => {
                self.bump();
                Ok(Formula::eventually(self.parse_unary()?))
            }
            Some(Token::Globally) => {
                self.bump();
                Ok(Formula::globally(self.parse_unary()?))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Formula, ParseError> {
        match self.bump() {
            Some(Token::True) => Ok(Formula::True),
            Some(Token::False) => Ok(Formula::False),
            Some(Token::Ident(name)) => {
                let id = self.registry.intern_auto(&name);
                Ok(Formula::Atom(id))
            }
            Some(Token::LParen) => {
                let inner = self.parse_formula()?;
                match self.bump() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(self.err("expected ')'")),
                }
            }
            Some(other) => Err(self.err(format!("unexpected token {other:?}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(input: &str) -> (Formula, AtomRegistry) {
        let mut reg = AtomRegistry::new();
        let f = parse(input, &mut reg).expect("parse");
        (f, reg)
    }

    #[test]
    fn parses_atoms_with_process_prefix() {
        let (_f, reg) = p("G (P0.p -> F P1.q)");
        assert_eq!(reg.owner(reg.lookup("P0.p").unwrap()), 0);
        assert_eq!(reg.owner(reg.lookup("P1.q").unwrap()), 1);
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let (f, _) = p("a && b || c");
        match f {
            Formula::Or(lhs, _) => match &*lhs {
                Formula::And(_, _) => {}
                other => panic!("expected And on the left, got {other}"),
            },
            other => panic!("expected Or at the top, got {other}"),
        }
    }

    #[test]
    fn implication_is_right_associative() {
        let (f, reg) = p("a -> b -> c");
        // a -> (b -> c) == !a || (!b || c)
        let a = Formula::Atom(reg.lookup("a").unwrap());
        let b = Formula::Atom(reg.lookup("b").unwrap());
        let c = Formula::Atom(reg.lookup("c").unwrap());
        assert_eq!(f, Formula::implies(a, Formula::implies(b, c)));
    }

    #[test]
    fn temporal_operators_parse() {
        let (f, _) = p("[] (req -> <> grant)");
        assert!(format!("{f}").contains("R"));
        let (f2, _) = p("X X a");
        assert_eq!(f2.size(), 3);
        let (f3, _) = p("a U b U c");
        // left associative: (a U b) U c
        match f3 {
            Formula::Until(lhs, _) => assert!(matches!(&*lhs, Formula::Until(_, _))),
            other => panic!("expected Until, got {other}"),
        }
    }

    #[test]
    fn weak_until_expansion() {
        let (f, reg) = p("a W b");
        let a = Formula::Atom(reg.lookup("a").unwrap());
        let b = Formula::Atom(reg.lookup("b").unwrap());
        assert_eq!(
            f,
            Formula::or(Formula::until(a.clone(), b), Formula::globally(a))
        );
    }

    #[test]
    fn errors_on_garbage() {
        let mut reg = AtomRegistry::new();
        assert!(parse("a &&", &mut reg).is_err());
        assert!(parse("(a", &mut reg).is_err());
        assert!(parse("a b", &mut reg).is_err());
        assert!(parse("#", &mut reg).is_err());
        assert!(parse("a < b", &mut reg).is_err());
    }

    #[test]
    fn alternative_symbols() {
        let (f1, _) = p("<> a");
        let (f2, _) = p("F a");
        assert_eq!(format!("{f1}"), format!("{f2}"));
        let (g1, _) = p("[] a");
        let (g2, _) = p("G a");
        assert_eq!(format!("{g1}"), format!("{g2}"));
        let (h1, _) = p("~a");
        let (h2, _) = p("!a");
        assert_eq!(format!("{h1}"), format!("{h2}"));
    }

    #[test]
    fn paper_property_a_parses() {
        // Property A of the evaluation chapter for 4 processes.
        let (f, reg) = p("G ((P0.p && P1.p) U (P2.p && P3.p))");
        assert_eq!(f.atoms().len(), 4);
        assert_eq!(reg.process_count(), 4);
    }
}
