//! Rule 5 — `panic-in-hot-path`.
//!
//! The serving/fleet hot paths handle peer-controlled bytes: a panic
//! there is a remote crash, and under the reactor it takes every
//! connection on the thread down with it. Inside the hot files the rule
//! flags `unwrap()`/`expect()` calls, `panic!`/`unreachable!`/`todo!`
//! invocations, and direct indexing/slicing of protocol-input buffers
//! (`header[0]`, `&buf[a..b]` — anything a malformed frame can push out
//! of bounds; `.get()` is the structured alternative). Internal buffers
//! whose indices are kernel- or self-maintained invariants (`chunk` from
//! `read(2)`, the write buffer) are deliberately not in the protocol
//! ident list. The evaluator is a hot file too: every served job goes
//! through its shared cache, so a panic there fails the job's worker.

use super::{function_at, Finding, Rule, Severity};
use crate::lexer::{Delim, TokenKind};
use crate::model::SourceFile;

/// Hot files: the reactor, fleet coordinator, server accept loop, v1
/// line session, client, all of `crates/net`'s connection handling, and
/// the shared evaluator cache every served job goes through.
fn is_hot_file(path: &str) -> bool {
    path.starts_with("crates/net/src/")
        || path.ends_with("/reactor.rs")
        || path.ends_with("/fleet.rs")
        || path.ends_with("/server.rs")
        || path.ends_with("/session.rs")
        || path.ends_with("/client.rs")
        || path == "crates/circuit/src/evaluator.rs"
}

/// Identifiers that name peer-controlled input in the hot files.
const PROTOCOL_IDENTS: &[&str] = &[
    "payload", "header", "buf", "rbuf", "line", "bytes", "frame", "body", "input", "wire",
    "request",
];

/// Macros that abort the thread.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented", "assert"];

pub struct PanicInHotPath;

impl Rule for PanicInHotPath {
    fn name(&self) -> &'static str {
        "panic-in-hot-path"
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn check(&self, files: &[SourceFile], out: &mut Vec<Finding>) {
        for file in files {
            if !is_hot_file(&file.path) {
                continue;
            }
            let toks = &file.tokens;
            for func in file.functions.iter().filter(|f| !f.is_test) {
                for i in func.body.clone() {
                    let tok = &toks[i];
                    if tok.kind != TokenKind::Ident {
                        continue;
                    }
                    // `.unwrap()` / `.expect(` — exact method names, so
                    // `unwrap_or_else` stays legal.
                    if (tok.text == "unwrap" || tok.text == "expect")
                        && i >= 1
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Open(Delim::Paren))
                    {
                        self.flag(out, file, i, format!("`.{}()` in a hot path", tok.text));
                        continue;
                    }
                    // `panic!(` and friends.
                    if PANIC_MACROS.contains(&tok.text.as_str())
                        && toks.get(i + 1).map(|t| t.is_punct('!')).unwrap_or(false)
                    {
                        self.flag(out, file, i, format!("`{}!` in a hot path", tok.text));
                        continue;
                    }
                    // `header[..]`-style indexing of protocol input.
                    if PROTOCOL_IDENTS.contains(&tok.text.as_str())
                        && toks.get(i + 1).map(|t| t.kind) == Some(TokenKind::Open(Delim::Bracket))
                    {
                        self.flag(
                            out,
                            file,
                            i,
                            format!(
                                "direct indexing of protocol input `{}` (out-of-bounds panics on malformed frames)",
                                tok.text
                            ),
                        );
                    }
                }
            }
        }
    }
}

impl PanicInHotPath {
    fn flag(&self, out: &mut Vec<Finding>, file: &SourceFile, idx: usize, message: String) {
        let tok = &file.tokens[idx];
        out.push(Finding {
            rule: self.name(),
            severity: self.severity(),
            file: file.path.clone(),
            line: tok.line,
            col: tok.col,
            function: function_at(file, idx),
            message,
            note: Some(
                "return a structured error (or use `.get()`) — a panic here is a peer-triggerable crash"
                    .to_string(),
            ),
            suppressed: None,
            baselined: false,
        });
    }
}
