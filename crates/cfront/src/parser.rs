//! Recursive-descent parser for the IGen C subset.
//!
//! Type names drive the usual C ambiguities (declaration vs. expression,
//! cast vs. parenthesized expression); the parser seeds its type-name set
//! with the builtin scalars, the Intel vector types, and the IGen runtime
//! types, and extends it at every `typedef`.
//!
//! Nesting is bounded: each statement and each sub-expression (a
//! parenthesis, a prefix operator or cast, an index, a call argument, the
//! right side of an assignment, either arm of a `?:`) is one level, and a
//! source nested deeper than [`MAX_NESTING`] levels is a [`ParseError`]
//! rather than a stack overflow in the parser or in any recursive pass
//! after it.

use crate::ast::*;
use crate::token::{lex, LexError, Token, TokenKind};
use std::collections::HashSet;

/// Parse error with location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Description.
    pub msg: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError { line: e.line, col: e.col, msg: e.msg }
    }
}

/// Parses a complete translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax problem.
///
/// # Example
///
/// ```
/// let tu = igen_cfront::parse("double foo(double a) { return a + 0.1; }").unwrap();
/// assert!(tu.function("foo").is_some());
/// ```
pub fn parse(src: &str) -> Result<TranslationUnit, ParseError> {
    let toks = lex(src)?;
    Parser::new(toks).translation_unit()
}

/// Type names known a priori: C scalars plus the Intel SIMD types plus the
/// IGen runtime types (so that IGen *output* parses too — needed when the
/// generated intrinsics are themselves compiled, Fig. 4).
const BUILTIN_TYPENAMES: &[&str] = &[
    "void", "int", "unsigned", "long", "float", "double", "char", "size_t", "int32_t", "int64_t",
    "uint32_t", "uint64_t", "__m128", "__m128d", "__m128i", "__m256", "__m256d", "__m256i", "f32i",
    "f64i", "ddi", "ddi_2", "ddi_4", "ddi_8", "tbool", "acc_f64", "acc_dd", "m256di_1", "m256di_2",
    "m256di_4",
];

/// Deepest statement/expression nesting [`parse`] accepts. Every later
/// pass (transformation, printing, IR, lowering, the interpreter) recurses
/// over the tree too; at this depth the whole pipeline runs within a 2 MiB
/// thread stack (the default for the service's workers) even in a debug
/// build.
pub const MAX_NESTING: usize = 100;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    typenames: HashSet<String>,
    /// Current nesting level (see [`MAX_NESTING`]).
    depth: usize,
}

impl Parser {
    fn new(toks: Vec<Token>) -> Parser {
        Parser {
            toks,
            pos: 0,
            typenames: BUILTIN_TYPENAMES.iter().map(|s| s.to_string()).collect(),
            depth: 0,
        }
    }

    /// Runs `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek_at(&self, n: usize) -> &Token {
        &self.toks[(self.pos + n).min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        let t = self.peek();
        ParseError { line: t.line, col: t.col, msg: msg.into() }
    }

    fn eat_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if self.peek().kind.is_punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek().kind)))
        }
    }

    fn at_punct(&self, p: &str) -> bool {
        self.peek().kind.is_punct(p)
    }

    fn eat_ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn loc(&self) -> Loc {
        let t = self.peek();
        Loc { line: t.line, col: t.col }
    }

    // --- types ---------------------------------------------------------

    fn at_type_start(&self) -> bool {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                s == "const" || s == "static" || self.typenames.contains(s.as_str())
            }
            _ => false,
        }
    }

    /// Parses a base type with qualifiers and pointer suffixes.
    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let mut ty = self.parse_base_type()?;
        while self.at_punct("*") {
            self.bump();
            ty = Type::Ptr(Box::new(ty));
            while matches!(&self.peek().kind, TokenKind::Ident(s) if s == "const" || s == "restrict")
            {
                self.bump();
            }
        }
        Ok(ty)
    }

    /// Parses a base type (no pointer declarators).
    fn parse_base_type(&mut self) -> Result<Type, ParseError> {
        // Skip qualifiers.
        while matches!(&self.peek().kind, TokenKind::Ident(s) if s == "const" || s == "static") {
            self.bump();
        }
        let name = self.eat_ident()?;
        let ty = match name.as_str() {
            "void" => Type::Void,
            "int" => Type::Int,
            "char" => Type::Named("char".into()),
            "float" => Type::Float,
            "double" => Type::Double,
            "long" => {
                // long, long long, long double
                if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "long" || s == "int") {
                    self.bump();
                }
                Type::Long
            }
            "unsigned" => {
                if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "int") {
                    self.bump();
                    Type::UInt
                } else if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "long") {
                    self.bump();
                    if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "long") {
                        self.bump();
                    }
                    Type::ULong
                } else {
                    Type::UInt
                }
            }
            "int64_t" => Type::Long,
            "uint64_t" | "size_t" => Type::ULong,
            "int32_t" => Type::Int,
            "uint32_t" => Type::UInt,
            _ if self.typenames.contains(&name) => Type::Named(name),
            _ => return Err(self.err(format!("unknown type `{name}`"))),
        };
        // Skip a second `const` (e.g. `double const`).
        while matches!(&self.peek().kind, TokenKind::Ident(s) if s == "const") {
            self.bump();
        }
        Ok(ty)
    }

    /// Array suffixes on a declarator: `a[10][20]`.
    fn parse_array_suffix(&mut self, mut ty: Type) -> Result<Type, ParseError> {
        let mut dims = Vec::new();
        while self.at_punct("[") {
            self.bump();
            let size = if self.at_punct("]") {
                None
            } else {
                match &self.peek().kind {
                    TokenKind::Int(v, _) => {
                        let v = *v as usize;
                        self.bump();
                        Some(v)
                    }
                    _ => return Err(self.err("array size must be an integer constant")),
                }
            };
            self.eat_punct("]")?;
            dims.push(size);
        }
        for size in dims.into_iter().rev() {
            ty = Type::Array(Box::new(ty), size);
        }
        Ok(ty)
    }

    // --- top level -----------------------------------------------------

    fn translation_unit(&mut self) -> Result<TranslationUnit, ParseError> {
        let mut items = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::Eof => break,
                TokenKind::Include(_) => {
                    let TokenKind::Include(s) = self.bump().kind else { unreachable!() };
                    items.push(Item::Include(s));
                }
                TokenKind::Pragma(_) => {
                    let TokenKind::Pragma(s) = self.bump().kind else { unreachable!() };
                    items.push(Item::Pragma(parse_pragma(&s)));
                }
                TokenKind::Ident(s) if s == "typedef" => {
                    items.push(Item::Typedef(self.parse_typedef()?));
                }
                _ => items.push(self.parse_global_or_function()?),
            }
        }
        Ok(TranslationUnit { items })
    }

    fn parse_typedef(&mut self) -> Result<Typedef, ParseError> {
        self.bump(); // typedef
        if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "union" || s == "struct") {
            let _kw = self.bump();
            self.eat_punct("{")?;
            let mut fields = Vec::new();
            while !self.at_punct("}") {
                let ty = self.parse_type()?;
                let name = self.eat_ident()?;
                let ty = self.parse_array_suffix(ty)?;
                self.eat_punct(";")?;
                fields.push((ty, name));
            }
            self.eat_punct("}")?;
            let name = self.eat_ident()?;
            self.eat_punct(";")?;
            self.typenames.insert(name.clone());
            Ok(Typedef::Union { name, fields })
        } else {
            let ty = self.parse_type()?;
            let name = self.eat_ident()?;
            self.eat_punct(";")?;
            self.typenames.insert(name.clone());
            Ok(Typedef::Alias { name, ty })
        }
    }

    fn parse_global_or_function(&mut self) -> Result<Item, ParseError> {
        let ty = self.parse_type()?;
        let name = self.eat_ident()?;
        if self.at_punct("(") {
            let f = self.parse_function_rest(ty, name)?;
            Ok(Item::Function(f))
        } else {
            let ty = self.parse_array_suffix(ty)?;
            let init = if self.at_punct("=") {
                self.bump();
                Some(self.parse_assignment()?)
            } else {
                None
            };
            self.eat_punct(";")?;
            Ok(Item::Global(VarDecl { ty, name, init }))
        }
    }

    fn parse_function_rest(&mut self, ret: Type, name: String) -> Result<Function, ParseError> {
        self.eat_punct("(")?;
        let mut params = Vec::new();
        if !self.at_punct(")") {
            // `void` parameter list.
            if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "void")
                && self.peek_at(1).kind.is_punct(")")
            {
                self.bump();
            } else {
                loop {
                    params.push(self.parse_param()?);
                    if self.at_punct(",") {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        self.eat_punct(")")?;
        if self.at_punct(";") {
            self.bump();
            return Ok(Function { ret, name, params, body: None });
        }
        self.eat_punct("{")?;
        let body = self.parse_block_stmts()?;
        self.eat_punct("}")?;
        Ok(Function { ret, name, params, body: Some(body) })
    }

    fn parse_param(&mut self) -> Result<Param, ParseError> {
        let ty = self.parse_type()?;
        // IGen extension: `double:0.125 a`.
        let tol = if self.at_punct(":") {
            self.bump();
            match self.bump().kind {
                TokenKind::Float { value, .. } => Some(value),
                TokenKind::Int(v, _) => Some(v as f64),
                other => return Err(self.err(format!("expected tolerance literal, got {other:?}"))),
            }
        } else {
            None
        };
        let name = self.eat_ident()?;
        let ty = {
            // `double a[]` parameter decays to pointer.
            let t = self.parse_array_suffix(ty)?;
            match t {
                Type::Array(inner, _) => Type::Ptr(inner),
                other => other,
            }
        };
        Ok(Param { ty, name, tol })
    }

    // --- statements ----------------------------------------------------

    /// Parses statements until `}`; declaration statements may carry
    /// multiple comma-separated declarators (`vec256d dst, a, b;` in the
    /// generated intrinsics) and expand to one [`Stmt::Decl`] each.
    fn parse_block_stmts(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        while !self.at_punct("}") {
            if matches!(&self.peek().kind, TokenKind::Ident(_))
                && self.at_type_start()
                && !matches!(&self.peek().kind, TokenKind::Ident(s)
                    if s == "if" || s == "for" || s == "while" || s == "do" || s == "return")
            {
                for d in self.parse_decl_group()? {
                    out.push(Stmt::Decl(d));
                }
            } else {
                out.push(self.parse_stmt()?);
            }
        }
        Ok(out)
    }

    /// Parses `base decl1, decl2, …;` with per-declarator pointers, array
    /// suffixes and initializers.
    fn parse_decl_group(&mut self) -> Result<Vec<VarDecl>, ParseError> {
        let base = self.parse_base_type()?;
        let mut out = Vec::new();
        loop {
            let mut ty = base.clone();
            while self.at_punct("*") {
                self.bump();
                ty = Type::Ptr(Box::new(ty));
            }
            let name = self.eat_ident()?;
            let ty = self.parse_array_suffix(ty)?;
            let init = if self.at_punct("=") {
                self.bump();
                Some(self.parse_assignment()?)
            } else {
                None
            };
            out.push(VarDecl { ty, name, init });
            if self.at_punct(",") {
                self.bump();
            } else {
                break;
            }
        }
        self.eat_punct(";")?;
        Ok(out)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Parser::parse_stmt_at)
    }

    fn parse_stmt_at(&mut self) -> Result<Stmt, ParseError> {
        match &self.peek().kind {
            TokenKind::Pragma(_) => {
                let TokenKind::Pragma(s) = self.bump().kind else { unreachable!() };
                Ok(Stmt::Pragma(parse_pragma(&s)))
            }
            TokenKind::Punct("{") => {
                self.bump();
                let body = self.parse_block_stmts()?;
                self.eat_punct("}")?;
                Ok(Stmt::Block(body))
            }
            TokenKind::Punct(";") => {
                self.bump();
                Ok(Stmt::Empty)
            }
            TokenKind::Ident(kw) => match kw.as_str() {
                "if" => self.parse_if(),
                "for" => self.parse_for(),
                "while" => self.parse_while(),
                "do" => self.parse_do_while(),
                "switch" => self.parse_switch(),
                "return" => {
                    self.bump();
                    if self.at_punct(";") {
                        self.bump();
                        Ok(Stmt::Return(None))
                    } else {
                        let e = self.parse_expr()?;
                        self.eat_punct(";")?;
                        Ok(Stmt::Return(Some(e)))
                    }
                }
                "break" => {
                    self.bump();
                    self.eat_punct(";")?;
                    Ok(Stmt::Break)
                }
                "continue" => {
                    self.bump();
                    self.eat_punct(";")?;
                    Ok(Stmt::Continue)
                }
                _ if self.at_type_start() => {
                    let d = self.parse_var_decl()?;
                    self.eat_punct(";")?;
                    Ok(Stmt::Decl(d))
                }
                _ => {
                    let e = self.parse_expr()?;
                    self.eat_punct(";")?;
                    Ok(Stmt::Expr(e))
                }
            },
            _ => {
                let e = self.parse_expr()?;
                self.eat_punct(";")?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn parse_var_decl(&mut self) -> Result<VarDecl, ParseError> {
        let ty = self.parse_type()?;
        let name = self.eat_ident()?;
        let ty = self.parse_array_suffix(ty)?;
        let init = if self.at_punct("=") {
            self.bump();
            Some(self.parse_assignment()?)
        } else {
            None
        };
        Ok(VarDecl { ty, name, init })
    }

    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // if
        self.eat_punct("(")?;
        let cond = self.parse_expr()?;
        self.eat_punct(")")?;
        let then_branch = Box::new(self.parse_stmt()?);
        let else_branch = if matches!(&self.peek().kind, TokenKind::Ident(s) if s == "else") {
            self.bump();
            Some(Box::new(self.parse_stmt()?))
        } else {
            None
        };
        Ok(Stmt::If { cond, then_branch, else_branch })
    }

    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // for
        self.eat_punct("(")?;
        let init = if self.at_punct(";") {
            self.bump();
            None
        } else if self.at_type_start() {
            let d = self.parse_var_decl()?;
            self.eat_punct(";")?;
            Some(Box::new(Stmt::Decl(d)))
        } else {
            let e = self.parse_expr()?;
            self.eat_punct(";")?;
            Some(Box::new(Stmt::Expr(e)))
        };
        let cond = if self.at_punct(";") { None } else { Some(self.parse_expr()?) };
        self.eat_punct(";")?;
        let step = if self.at_punct(")") { None } else { Some(self.parse_expr()?) };
        self.eat_punct(")")?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::For { init, cond, step, body })
    }

    fn parse_while(&mut self) -> Result<Stmt, ParseError> {
        self.bump();
        self.eat_punct("(")?;
        let cond = self.parse_expr()?;
        self.eat_punct(")")?;
        let body = Box::new(self.parse_stmt()?);
        Ok(Stmt::While { cond, body })
    }

    /// `switch (expr) { case N: …; default: …; }` — arms kept in source
    /// order; fallthrough is represented, not resolved.
    fn parse_switch(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // switch
        self.eat_punct("(")?;
        let cond = self.parse_expr()?;
        self.eat_punct(")")?;
        self.eat_punct("{")?;
        let mut arms: Vec<SwitchArm> = Vec::new();
        loop {
            match &self.peek().kind {
                TokenKind::Punct("}") => {
                    self.bump();
                    break;
                }
                TokenKind::Ident(s) if s == "case" => {
                    self.bump();
                    let neg = if self.at_punct("-") {
                        self.bump();
                        true
                    } else {
                        false
                    };
                    let v = match &self.peek().kind {
                        TokenKind::Int(v, _) => {
                            let v = *v;
                            self.bump();
                            if neg {
                                -v
                            } else {
                                v
                            }
                        }
                        other => {
                            return Err(
                                self.err(format!("expected integer case label, found {other:?}"))
                            )
                        }
                    };
                    self.eat_punct(":")?;
                    arms.push(SwitchArm { label: Some(v), body: Vec::new() });
                }
                TokenKind::Ident(s) if s == "default" => {
                    self.bump();
                    self.eat_punct(":")?;
                    arms.push(SwitchArm { label: None, body: Vec::new() });
                }
                _ => {
                    let stmt = self.parse_stmt()?;
                    match arms.last_mut() {
                        Some(arm) => arm.body.push(stmt),
                        None => {
                            return Err(
                                self.err("statement before the first case label".to_string())
                            )
                        }
                    }
                }
            }
        }
        Ok(Stmt::Switch { cond, arms })
    }

    fn parse_do_while(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // do
        let body = Box::new(self.parse_stmt()?);
        match &self.peek().kind {
            TokenKind::Ident(s) if s == "while" => {
                self.bump();
            }
            _ => return Err(self.err("expected `while` after do-body")),
        }
        self.eat_punct("(")?;
        let cond = self.parse_expr()?;
        self.eat_punct(")")?;
        self.eat_punct(";")?;
        Ok(Stmt::DoWhile { body, cond })
    }

    // --- expressions ---------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_assignment()
    }

    fn parse_assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.parse_conditional()?;
        let op = match &self.peek().kind {
            TokenKind::Punct("=") => AssignOp::Assign,
            TokenKind::Punct("+=") => AssignOp::AddAssign,
            TokenKind::Punct("-=") => AssignOp::SubAssign,
            TokenKind::Punct("*=") => AssignOp::MulAssign,
            TokenKind::Punct("/=") => AssignOp::DivAssign,
            _ => return Ok(lhs),
        };
        let loc = self.loc();
        self.bump();
        let rhs = self.nested(Parser::parse_assignment)?;
        Ok(Expr::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs), loc })
    }

    fn parse_conditional(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(0)?;
        if self.at_punct("?") {
            self.bump();
            let t = self.parse_expr()?;
            self.eat_punct(":")?;
            let e = self.nested(Parser::parse_conditional)?;
            Ok(Expr::Cond(Box::new(cond), Box::new(t), Box::new(e)))
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        let op = match &self.peek().kind {
            TokenKind::Punct("||") => (BinOp::Or, 1),
            TokenKind::Punct("&&") => (BinOp::And, 2),
            TokenKind::Punct("|") => (BinOp::BitOr, 3),
            TokenKind::Punct("^") => (BinOp::BitXor, 4),
            TokenKind::Punct("&") => (BinOp::BitAnd, 5),
            TokenKind::Punct("==") => (BinOp::Eq, 6),
            TokenKind::Punct("!=") => (BinOp::Ne, 6),
            TokenKind::Punct("<") => (BinOp::Lt, 7),
            TokenKind::Punct("<=") => (BinOp::Le, 7),
            TokenKind::Punct(">") => (BinOp::Gt, 7),
            TokenKind::Punct(">=") => (BinOp::Ge, 7),
            TokenKind::Punct("<<") => (BinOp::Shl, 8),
            TokenKind::Punct(">>") => (BinOp::Shr, 8),
            TokenKind::Punct("+") => (BinOp::Add, 9),
            TokenKind::Punct("-") => (BinOp::Sub, 9),
            TokenKind::Punct("*") => (BinOp::Mul, 10),
            TokenKind::Punct("/") => (BinOp::Div, 10),
            TokenKind::Punct("%") => (BinOp::Rem, 10),
            _ => return None,
        };
        Some(op)
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec {
                break;
            }
            let loc = self.loc();
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), loc };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::parse_unary_at)
    }

    fn parse_unary_at(&mut self) -> Result<Expr, ParseError> {
        let op = match &self.peek().kind {
            TokenKind::Punct("-") => Some(UnOp::Neg),
            TokenKind::Punct("+") => Some(UnOp::Plus),
            TokenKind::Punct("!") => Some(UnOp::Not),
            TokenKind::Punct("~") => Some(UnOp::BitNot),
            TokenKind::Punct("*") => Some(UnOp::Deref),
            TokenKind::Punct("&") => Some(UnOp::Addr),
            TokenKind::Punct("++") => Some(UnOp::PreInc),
            TokenKind::Punct("--") => Some(UnOp::PreDec),
            TokenKind::Punct("(") => {
                // Cast if the parenthesis opens a type.
                if let TokenKind::Ident(s) = &self.peek_at(1).kind {
                    if self.typenames.contains(s.as_str()) || s == "const" {
                        // Lookahead to ensure `)` follows a type (not a
                        // parenthesized expression like `(x) + 1` where x
                        // could shadow — names are unambiguous here).
                        self.bump(); // (
                        let ty = self.parse_type()?;
                        self.eat_punct(")")?;
                        let inner = self.parse_unary()?;
                        return Ok(Expr::Cast(ty, Box::new(inner)));
                    }
                }
                None
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary(op, Box::new(inner)));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        loop {
            match &self.peek().kind {
                TokenKind::Punct("[") => {
                    self.bump();
                    let idx = self.parse_expr()?;
                    self.eat_punct("]")?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                TokenKind::Punct(".") => {
                    self.bump();
                    let field = self.eat_ident()?;
                    e = Expr::Member { base: Box::new(e), field, arrow: false };
                }
                TokenKind::Punct("->") => {
                    self.bump();
                    let field = self.eat_ident()?;
                    e = Expr::Member { base: Box::new(e), field, arrow: true };
                }
                TokenKind::Punct("++") => {
                    self.bump();
                    e = Expr::PostIncDec(Box::new(e), true);
                }
                TokenKind::Punct("--") => {
                    self.bump();
                    e = Expr::PostIncDec(Box::new(e), false);
                }
                TokenKind::Punct("(") => {
                    // Calls only on bare identifiers in this subset.
                    let Expr::Ident(name, loc) = e else {
                        return Err(self.err("call target must be a function name"));
                    };
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(")") {
                        loop {
                            args.push(self.parse_assignment()?);
                            if self.at_punct(",") {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat_punct(")")?;
                    e = Expr::Call { name, args, loc };
                }
                _ => return Ok(e),
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let loc = self.loc();
        match self.peek().kind.clone() {
            TokenKind::Int(v, text) => {
                self.bump();
                Ok(Expr::IntLit { value: v, text })
            }
            TokenKind::Float { value, text, f32, tol } => {
                self.bump();
                Ok(Expr::FloatLit { value, text, f32, tol })
            }
            TokenKind::Ident(s) => {
                self.bump();
                Ok(Expr::Ident(s, loc))
            }
            TokenKind::Punct("(") => {
                self.bump();
                let e = self.parse_expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parses a pragma payload string.
fn parse_pragma(s: &str) -> Pragma {
    let words: Vec<&str> = s.split_whitespace().collect();
    if words.len() >= 3 && words[0] == "igen" && words[1] == "reduce" {
        let vars = words[2..]
            .join(" ")
            .split(',')
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .collect();
        Pragma::IgenReduce(vars)
    } else {
        Pragma::Other(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig2_input() {
        let src = r#"
            double foo(double a, double b) {
                double c;
                c = a + b + 0.1;
                if (c > a) {
                    c = a * c;
                }
                return c;
            }
        "#;
        let tu = parse(src).unwrap();
        let f = tu.function("foo").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.body.as_ref().unwrap().len(), 4);
        assert!(matches!(&f.body.as_ref().unwrap()[2], Stmt::If { .. }));
    }

    #[test]
    fn parses_fig3_extensions() {
        let src = r#"
            double read_sensor(double:0.125 a) {
                double c = 5.0 + 0.25t;
                return a + c;
            }
        "#;
        let tu = parse(src).unwrap();
        let f = tu.function("read_sensor").unwrap();
        assert_eq!(f.params[0].tol, Some(0.125));
        let Stmt::Decl(d) = &f.body.as_ref().unwrap()[0] else { panic!() };
        let Some(Expr::Binary { rhs, .. }) = &d.init else { panic!() };
        assert!(matches!(**rhs, Expr::FloatLit { tol: true, value: 0.25, .. }));
    }

    #[test]
    fn parses_fig7_mvm_with_pragma() {
        let src = r#"
            void mvm(double* A, double* x, double* y) {
                #pragma igen reduce y
                for (int i = 0; i < 100; i++)
                    for (int j = 0; j < 500; j++)
                        y[i] = y[i] + A[i*500+j]*x[j];
            }
        "#;
        let tu = parse(src).unwrap();
        let f = tu.function("mvm").unwrap();
        let body = f.body.as_ref().unwrap();
        assert!(matches!(&body[0], Stmt::Pragma(Pragma::IgenReduce(v)) if v == &["y".to_string()]));
        assert!(matches!(&body[1], Stmt::For { .. }));
        assert_eq!(f.params[0].ty, Type::Ptr(Box::new(Type::Double)));
    }

    #[test]
    fn parses_simd_intrinsics_code() {
        let src = r#"
            typedef union {
                __m256d v;
                uint64_t i[4];
                double f[4];
            } vec256d;

            __m256d _c_mm256_add_pd(__m256d _a, __m256d _b) {
                vec256d dst, a, b;
                int i, j;
                for (j = 0; j <= 3; ++j) {
                    i = j * 64;
                    dst.f[i/64] = a.f[i/64] + b.f[i/64];
                }
                return dst.v;
            }
        "#;
        let tu = parse(src).unwrap();
        assert!(matches!(&tu.items[0], Item::Typedef(Typedef::Union { name, fields })
            if name == "vec256d" && fields.len() == 3));
        let f = tu.function("_c_mm256_add_pd").unwrap();
        assert_eq!(f.ret, Type::Named("__m256d".into()));
    }

    #[test]
    fn multiple_declarators_unsupported_but_single_work() {
        // The subset uses one declarator per statement except in generated
        // code like `vec256d dst, a, b;` — wait, that IS multiple. Check:
        let src = "int foo(void) { int a; int b = 2; return b; }";
        let tu = parse(src).unwrap();
        assert!(tu.function("foo").is_some());
    }

    #[test]
    fn henon_map_parses() {
        let src = r#"
            double henon_map(double x, double y, int iterations) {
                double a = 1.05;
                double b = 0.3;
                for (int i = 0; i < iterations; i++) {
                    double xi = x;
                    double yi = y;
                    x = 1 - a*xi*xi + yi;
                    y = b*xi;
                }
                return x;
            }
        "#;
        let tu = parse(src).unwrap();
        assert!(tu.function("henon_map").is_some());
    }

    #[test]
    fn precedence_is_c_like() {
        let tu = parse("int f(void) { return 1 + 2 * 3 < 4 == 0; }").unwrap();
        let f = tu.function("f").unwrap();
        let Stmt::Return(Some(e)) = &f.body.as_ref().unwrap()[0] else { panic!() };
        // ((1 + (2*3)) < 4) == 0
        let Expr::Binary { op: BinOp::Eq, lhs, .. } = e else { panic!("{e:?}") };
        let Expr::Binary { op: BinOp::Lt, lhs: l2, .. } = &**lhs else { panic!() };
        assert!(matches!(&**l2, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn casts_and_calls() {
        let tu = parse("double f(int n) { return (double)n + sin(0.5); }").unwrap();
        let f = tu.function("f").unwrap();
        let Stmt::Return(Some(Expr::Binary { lhs, rhs, .. })) = &f.body.as_ref().unwrap()[0] else {
            panic!()
        };
        assert!(matches!(&**lhs, Expr::Cast(Type::Double, _)));
        assert!(matches!(&**rhs, Expr::Call { name, .. } if name == "sin"));
    }

    #[test]
    fn error_reporting() {
        let e = parse("double f( { }").unwrap_err();
        assert!(e.line >= 1);
        assert!(parse("int f(void) { return 1 + ; }").is_err());
        assert!(parse("unknown_t f(void);").is_err());
    }

    #[test]
    fn while_and_do_while() {
        let src =
            "int f(int n) { while (n > 0) { n = n - 1; } do { n++; } while (n < 3); return n; }";
        let tu = parse(src).unwrap();
        let body = tu.function("f").unwrap().body.as_ref().unwrap();
        assert!(matches!(&body[0], Stmt::While { .. }));
        assert!(matches!(&body[1], Stmt::DoWhile { .. }));
    }

    #[test]
    fn ternary_and_compound_assign() {
        let src = "int f(int a) { a += 2; a *= 3; return a > 0 ? a : -a; }";
        let tu = parse(src).unwrap();
        let body = tu.function("f").unwrap().body.as_ref().unwrap();
        assert!(matches!(&body[0], Stmt::Expr(Expr::Assign { op: AssignOp::AddAssign, .. })));
        assert!(matches!(&body[2], Stmt::Return(Some(Expr::Cond(..)))));
    }

    #[test]
    fn array_declarations() {
        let src = "void f(void) { double A[4][8]; A[1][2] = 3.0; }";
        let tu = parse(src).unwrap();
        let body = tu.function("f").unwrap().body.as_ref().unwrap();
        let Stmt::Decl(d) = &body[0] else { panic!() };
        assert_eq!(
            d.ty,
            Type::Array(Box::new(Type::Array(Box::new(Type::Double), Some(8))), Some(4))
        );
    }

    #[test]
    fn nesting_past_the_limit_is_a_parse_error() {
        let too_deep = format!("nesting deeper than {MAX_NESTING} levels");
        let at = |src: String, ok: bool| match parse(&src) {
            Ok(_) => assert!(ok, "accepted past the limit: {src}"),
            Err(e) => {
                assert!(!ok, "rejected at the limit: {e}");
                assert_eq!(e.msg, too_deep);
            }
        };
        // The `return` statement and the outermost operand take a level each.
        let parens =
            |n| format!("double f(double x) {{ return {}x{}; }}", "(".repeat(n), ")".repeat(n));
        at(parens(MAX_NESTING - 2), true);
        at(parens(MAX_NESTING - 1), false);
        at(parens(20_000), false);
        let blocks = |n| format!("void f(void) {{ {}{} }}", "{ ".repeat(n), "} ".repeat(n));
        at(blocks(MAX_NESTING), true);
        at(blocks(MAX_NESTING + 1), false);
        let ifs = |n| format!("int f(int k) {{ {}return k; }}", "if (k) ".repeat(n));
        at(ifs(MAX_NESTING - 2), true);
        at(ifs(MAX_NESTING - 1), false);
        // Right-recursive chains nest as deeply as parentheses do.
        let assigns = |n| format!("int f(int k) {{ k = {}1; return k; }}", "k = ".repeat(n));
        at(assigns(MAX_NESTING - 3), true);
        at(assigns(MAX_NESTING - 2), false);
        let conds = |n| format!("int f(int k) {{ return {}1; }}", "k ? 1 : ".repeat(n));
        at(conds(MAX_NESTING - 2), true);
        at(conds(MAX_NESTING - 1), false);
        let negs = |n| format!("int f(int k) {{ return {}k; }}", "- ".repeat(n));
        at(negs(MAX_NESTING - 2), true);
        at(negs(MAX_NESTING - 1), false);
        // The limit is per nesting path, not per program.
        at(format!("int f(int k) {{ {}return k; }}", "{ k = ((k)); } ".repeat(10_000)), true);
    }
}
