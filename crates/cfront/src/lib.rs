//! `igen-cfront`: lexer, parser, AST and printer for the C subset the
//! IGen interval compiler supports.
//!
//! The paper uses Clang LibTooling to obtain the AST (Section III); this
//! crate is the from-scratch substitute, covering the subset IGen
//! transforms — declarations, expressions, statements, loops, branches,
//! function definitions, SIMD vector types and intrinsic calls — plus the
//! two IGen language extensions of Section IV-C (`double:0.125` parameter
//! tolerances and `0.25t` tolerance literals) and the
//! `#pragma igen reduce` annotation of Section VI-B.
//!
//! # Example
//!
//! ```
//! use igen_cfront::{parse, print_unit};
//!
//! let tu = parse("double sq(double x) { return x * x; }").unwrap();
//! let f = tu.function("sq").unwrap();
//! assert_eq!(f.params.len(), 1);
//! // Printing is stable: parse(print(x)) prints identically (the ASTs
//! // differ only in source locations).
//! let printed = print_unit(&tu);
//! assert_eq!(print_unit(&parse(&printed).unwrap()), printed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
mod parser;
mod printer;
mod token;

pub use ast::{
    AssignOp, BinOp, Expr, Function, Item, Loc, Param, Pragma, Stmt, SwitchArm, TranslationUnit,
    Type, Typedef, UnOp, VarDecl,
};
pub use parser::{parse, ParseError, MAX_NESTING};
pub use printer::{
    fmt_f64, print_decl_ty, print_expr, print_function, print_stmt, print_unit, type_str,
};
pub use token::{lex, LexError, Token, TokenKind};
