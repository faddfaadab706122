//! Pass 1 of the two-pass engine: a lightweight recursive-descent *item*
//! parser over the [`crate::lexer`] token stream.
//!
//! This is not a Rust parser. It recovers exactly the structure the
//! flow rules ([`crate::rules::flow`]) need:
//!
//! * which `fn` items exist, with their enclosing impl/trait type and
//!   inline module, span and `#[cfg(test)]`-ness;
//! * the rule-relevant *sites* inside each body — call sites (the
//!   call-edge approximation the symbol graph resolves), atomic
//!   operations with their `Ordering` argument, thread spawns, durability
//!   I/O (`write_all`/`sync_all`/`sync_data`/`rename`), and unguarded
//!   `as usize` slice indexing for the wire-safety rule.
//!
//! Robustness contract (pinned by `tests/parser_robustness.rs`): parsing
//! never panics on any input, every recorded span/line stays in bounds,
//! and the output is deterministic. On malformed or truncated input the
//! parser degrades to recovering fewer items, never to diverging.

use crate::lexer::{Lexed, Token};
use std::collections::HashMap;

/// Keywords that can precede `(`/`[` without forming a call/index, and
/// that can never be a fn name, a cast source or a receiver.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "true", "type", "union", "unsafe",
    "use", "where", "while", "yield",
];

fn is_keyword(text: &str) -> bool {
    KEYWORDS.contains(&text)
}

/// Atomic methods that take an `Ordering` argument. A matching name is
/// only recorded as an atomic site when an `Ordering` variant actually
/// appears in the argument list, which keeps `Vec::swap`/`Iterator::...`
/// collisions out.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Call contexts whose argument position is bounds-safe by construction,
/// so a raw cast inside them is not a wire-safety finding.
fn is_safe_index_ctx(callee: &str) -> bool {
    matches!(
        callee,
        "get"
            | "get_mut"
            | "min"
            | "clamp"
            | "checked_add"
            | "checked_sub"
            | "checked_mul"
            | "saturating_add"
            | "saturating_sub"
            | "take"
            | "resize"
            | "with_capacity"
            | "reserve"
            | "truncate"
            | "split_at"
            | "split_at_checked"
            | "chunks"
            | "windows"
    )
}

/// One generic site: what fired and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub what: String,
    pub line: usize,
}

/// A call-edge approximation: `name(…)`, `recv.name(…)` or
/// `Qual::name(…)`. The symbol graph resolves these to fn items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    pub name: String,
    /// `Qual` in `Qual::name(…)` (type, module or file-stem candidate).
    pub qual: Option<String>,
    /// True for `recv.name(…)` method syntax.
    pub method: bool,
    pub line: usize,
}

/// An atomic operation with an explicit `Ordering` argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    /// The receiver identifier (`THREADS` in `THREADS.store(…)`,
    /// `panicked` in `self.panicked.store(…)`), or `"<expr>"`.
    pub receiver: String,
    pub op: String,
    /// First `Ordering` variant in the argument list (the success
    /// ordering for `compare_exchange`).
    pub ordering: String,
    pub line: usize,
}

/// Durability-relevant file I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    Write,
    SyncAll,
    SyncData,
    Rename,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoSite {
    pub op: IoOp,
    pub line: usize,
}

/// Everything rule-relevant found inside one fn body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sites {
    pub calls: Vec<CallSite>,
    pub atomics: Vec<AtomicSite>,
    /// Lines of `…::spawn(`/`….spawn(` calls.
    pub spawns: Vec<usize>,
    pub io: Vec<IoSite>,
    /// `as usize` casts (or values let-bound from one) used as a slice
    /// index without a preceding bounds guard — the W1 raw material.
    pub wire_casts: Vec<Site>,
}

/// One recovered `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub qual: Option<String>,
    /// Enclosing inline-module path (`["wire"]` for `mod wire { fn f }`).
    pub modpath: Vec<String>,
    /// Inside a `#[cfg(test)]` region.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the closing `}`.
    pub end_line: usize,
    /// Token-index span, `fn` keyword to closing `}`, inclusive.
    pub span: (usize, usize),
    pub sites: Sites,
}

/// Parses the token stream into fn items, sorted by source position.
pub fn parse(lexed: &Lexed<'_>) -> Vec<FnItem> {
    let mut p = ItemParser {
        toks: &lexed.tokens,
        fns: Vec::new(),
    };
    let end = p.toks.len();
    let root = Ctx {
        qual: None,
        modpath: Vec::new(),
    };
    p.items(0, end, &root);
    p.fns.sort_by_key(|f| f.span.0);
    p.fns
}

#[derive(Clone)]
struct Ctx {
    qual: Option<String>,
    modpath: Vec<String>,
}

struct ItemParser<'l, 'a> {
    toks: &'l [Token<'a>],
    fns: Vec<FnItem>,
}

impl ItemParser<'_, '_> {
    /// Scans `toks[i..end]` for item keywords; everything else is
    /// skipped (expressions are revisited later by `collect_sites`).
    fn items(&mut self, mut i: usize, end: usize, ctx: &Ctx) {
        while i < end {
            let next = match self.toks[i].text {
                "impl" => self.impl_block(i, end, ctx),
                "trait" => self.trait_block(i, end, ctx),
                "mod" => self.mod_block(i, end, ctx),
                "fn" => self.fn_item(i, end, ctx),
                _ => i + 1,
            };
            // Forward progress even on malformed input.
            i = next.max(i + 1);
        }
    }

    /// The matching `}` for the `{` at `open` (both carry `depth`), or
    /// the last token when the source is truncated.
    fn matching_brace(&self, open: usize, end: usize, depth: usize) -> usize {
        let mut k = open + 1;
        while k < end {
            let t = &self.toks[k];
            if t.text == "}" && t.depth == depth {
                return k;
            }
            k += 1;
        }
        end.saturating_sub(1).max(open)
    }

    fn impl_block(&mut self, i: usize, end: usize, ctx: &Ctx) -> usize {
        let depth = self.toks[i].depth;
        // Header scan: the implemented type is the first ident at
        // angle-depth 0 — after `for` when present (`impl Trait for
        // Type`), otherwise right after the generics. `where` ends the
        // region where `for`/type names are meaningful (HRTB bounds).
        let mut angle = 0i32;
        let mut type_name: Option<&str> = None;
        let mut saw_where = false;
        let mut open = None;
        let mut j = i + 1;
        while j < end {
            let t = &self.toks[j];
            match t.text {
                "<" => angle += 1,
                // `>` closing generics; `->`'s `>` is not an angle close.
                ">" if !(j >= 1 && self.toks[j - 1].text == "-") => angle = (angle - 1).max(0),
                "{" if t.depth == depth => {
                    open = Some(j);
                    break;
                }
                ";" if t.depth == depth && angle == 0 => return j + 1,
                "where" if angle == 0 => saw_where = true,
                "for" if angle == 0 && !saw_where => type_name = None,
                text if angle == 0
                    && !saw_where
                    && t.is_ident()
                    && !is_keyword(text)
                    && type_name.is_none() =>
                {
                    type_name = Some(text);
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else { return end };
        let close = self.matching_brace(open, end, depth);
        let inner = Ctx {
            qual: type_name.map(str::to_string),
            modpath: ctx.modpath.clone(),
        };
        self.items(open + 1, close, &inner);
        close + 1
    }

    fn trait_block(&mut self, i: usize, end: usize, ctx: &Ctx) -> usize {
        let depth = self.toks[i].depth;
        let name = self
            .toks
            .get(i + 1)
            .filter(|t| t.is_ident() && !is_keyword(t.text))
            .map(|t| t.text.to_string());
        let mut open = None;
        let mut j = i + 1;
        while j < end {
            let t = &self.toks[j];
            if t.depth == depth && t.text == ";" {
                return j + 1;
            }
            if t.depth == depth && t.text == "{" {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else { return end };
        let close = self.matching_brace(open, end, depth);
        let inner = Ctx {
            qual: name,
            modpath: ctx.modpath.clone(),
        };
        self.items(open + 1, close, &inner);
        close + 1
    }

    fn mod_block(&mut self, i: usize, end: usize, ctx: &Ctx) -> usize {
        let depth = self.toks[i].depth;
        let name = self
            .toks
            .get(i + 1)
            .filter(|t| t.is_ident() && !is_keyword(t.text))
            .map(|t| t.text.to_string());
        let mut open = None;
        let mut j = i + 1;
        while j < end {
            let t = &self.toks[j];
            if t.depth == depth && t.text == ";" {
                return j + 1; // out-of-line module
            }
            if t.depth == depth && t.text == "{" {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else { return end };
        let close = self.matching_brace(open, end, depth);
        let mut modpath = ctx.modpath.clone();
        if let Some(n) = name {
            modpath.push(n);
        }
        let inner = Ctx {
            qual: None,
            modpath,
        };
        self.items(open + 1, close, &inner);
        close + 1
    }

    fn fn_item(&mut self, i: usize, end: usize, ctx: &Ctx) -> usize {
        let toks = self.toks;
        let ft = &toks[i];
        // `fn(` with no name is a fn-pointer type, not an item.
        let Some(name_tok) = toks
            .get(i + 1)
            .filter(|t| t.is_ident() && !is_keyword(t.text))
        else {
            return i + 1;
        };
        let depth = ft.depth;
        let mut open = None;
        let mut j = i + 2;
        while j < end {
            let t = &toks[j];
            if t.depth == depth && t.text == ";" {
                return j + 1; // bodyless declaration
            }
            if t.depth == depth && t.text == "{" {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else { return end };
        let close = self.matching_brace(open, end, depth);

        // Parse nested items first so their spans can be excluded from
        // this fn's site collection.
        let fns_before = self.fns.len();
        let body_ctx = Ctx {
            qual: None,
            modpath: ctx.modpath.clone(),
        };
        self.items(open + 1, close, &body_ctx);
        let mut nested: Vec<(usize, usize)> =
            self.fns[fns_before..].iter().map(|f| f.span).collect();
        nested.sort_unstable();
        let sites = collect_sites(toks, open + 1, close, &nested);

        self.fns.push(FnItem {
            name: name_tok.text.to_string(),
            qual: ctx.qual.clone(),
            modpath: ctx.modpath.clone(),
            is_test: ft.in_test,
            line: ft.line,
            end_line: toks[close].line,
            span: (i, close),
            sites,
        });
        close + 1
    }
}

/// Collects rule-relevant sites from `toks[start..end]`, skipping the
/// (sorted, possibly overlapping) nested-item token spans.
pub fn collect_sites(
    toks: &[Token<'_>],
    start: usize,
    end: usize,
    skip: &[(usize, usize)],
) -> Sites {
    let mut scan = SiteScan {
        toks,
        end: end.min(toks.len()),
        sites: Sites::default(),
        parens: Vec::new(),
        brackets: Vec::new(),
        guarded: HashMap::new(),
        tainted: HashMap::new(),
    };
    let mut sp = 0usize;
    let mut i = start;
    while i < scan.end {
        while sp < skip.len() && skip[sp].1 < i {
            sp += 1;
        }
        if sp < skip.len() && skip[sp].0 <= i {
            // A nested item's span is internally balanced, so jumping
            // over it keeps the paren/bracket stacks consistent.
            i = skip[sp].1 + 1;
            sp += 1;
            continue;
        }
        scan.token(i);
        i += 1;
    }
    scan.sites
}

struct SiteScan<'l, 'a> {
    toks: &'l [Token<'a>],
    end: usize,
    sites: Sites,
    /// Call context per open paren: the callee name when the paren is a
    /// call's argument list.
    parens: Vec<Option<&'a str>>,
    /// Per open bracket: true when it is an index expression.
    brackets: Vec<bool>,
    /// Identifiers that passed a bounds guard (comparison, `.min`,
    /// `.clamp`), by token index of the guard.
    guarded: HashMap<&'a str, usize>,
    /// Let-bound names holding a raw `as usize` value, awaiting either a
    /// guard or an index use.
    tainted: HashMap<&'a str, usize>,
}

impl<'a> SiteScan<'_, 'a> {
    fn text(&self, i: usize) -> &'a str {
        self.toks.get(i).map_or("", |t| t.text)
    }

    fn ident_at(&self, i: usize) -> Option<&'a str> {
        self.toks
            .get(i)
            .filter(|t| t.is_ident() && !is_keyword(t.text))
            .map(|t| t.text)
    }

    fn token(&mut self, i: usize) {
        let t = &self.toks[i];
        match t.text {
            "(" => {
                let callee = (i > 0).then(|| self.ident_at(i - 1)).flatten();
                self.parens.push(callee);
            }
            ")" => {
                self.parens.pop();
            }
            "[" => {
                // Indexing follows a value (ident, call or index); a
                // `#[attr]`, slice type or array literal does not.
                let is_index = i > 0
                    && (self.ident_at(i - 1).is_some() || matches!(self.text(i - 1), ")" | "]"));
                self.brackets.push(is_index);
            }
            "]" => {
                self.brackets.pop();
            }
            "as" if self.text(i + 1) == "usize" => self.cast_site(i),
            _ if t.is_ident() && !is_keyword(t.text) => self.ident_site(i),
            _ => {}
        }
    }

    fn ident_site(&mut self, i: usize) {
        let t = &self.toks[i];
        let name = t.text;
        let line = t.line;
        let nx = self.text(i + 1);
        let nx2 = self.text(i + 2);

        // A macro invocation is neither a guard, an index use nor a call.
        if nx == "!" && matches!(nx2, "(" | "[" | "{") {
            return;
        }

        let prev = if i >= 1 { self.text(i - 1) } else { "" };
        let prev2 = if i >= 2 { self.text(i - 2) } else { "" };

        // Bounds-guard events for the wire-safety taint tracking.
        let cmp_after =
            matches!(nx, "<" | ">") || (nx == "=" && nx2 == "=") || (nx == "!" && nx2 == "=");
        let cmp_before = (matches!(prev, "<" | ">")
            && !(prev == ">" && matches!(prev2, "-" | "=")))
            || (prev == "=" && matches!(prev2, "<" | ">" | "=" | "!"));
        let min_after = nx == "." && matches!(nx2, "min" | "clamp") && self.text(i + 3) == "(";
        if cmp_after || cmp_before || min_after {
            self.guarded.insert(name, i);
            self.tainted.remove(name);
        } else if self.tainted.contains_key(name)
            && self.brackets.iter().any(|&b| b)
            && !self.in_safe_call()
        {
            self.sites.wire_casts.push(Site {
                what: name.to_string(),
                line,
            });
            self.tainted.remove(name);
        }

        // Call sites.
        if nx != "(" {
            return;
        }
        let method = prev == ".";
        let qual = (prev == ":" && prev2 == ":" && i >= 3)
            .then(|| self.ident_at(i - 3))
            .flatten();
        self.sites.calls.push(CallSite {
            name: name.to_string(),
            qual: qual.map(str::to_string),
            method,
            line,
        });

        if name == "spawn" && matches!(prev, "." | ":") {
            self.sites.spawns.push(line);
        }
        if ATOMIC_OPS.contains(&name) {
            if let Some(ord) = self.ordering_arg(i + 1) {
                let receiver = (method && i >= 2)
                    .then(|| self.ident_at(i - 2))
                    .flatten()
                    .unwrap_or("<expr>");
                self.sites.atomics.push(AtomicSite {
                    receiver: receiver.to_string(),
                    op: name.to_string(),
                    ordering: ord.to_string(),
                    line,
                });
            }
        }
        let io_op = match name {
            "write_all" if method => Some(IoOp::Write),
            "write" if qual == Some("fs") => Some(IoOp::Write),
            "sync_all" => Some(IoOp::SyncAll),
            "sync_data" => Some(IoOp::SyncData),
            "rename" => Some(IoOp::Rename),
            _ => None,
        };
        if let Some(op) = io_op {
            self.sites.io.push(IoSite { op, line });
        }
    }

    /// Handles `… as usize` with `i` at the `as` token: records a
    /// wire-cast site for an unguarded index use, a guard event when the
    /// cast itself feeds a comparison/`.min`/`.clamp`, or a taint when a
    /// raw cast is let-bound for later use.
    fn cast_site(&mut self, i: usize) {
        let src = (i >= 1).then(|| self.ident_at(i - 1)).flatten();

        // Trailing context: skip closing parens, then look for a
        // comparison or `.min`/`.clamp` — the cast is being guarded.
        let mut j = i + 2;
        while j < self.end && self.text(j) == ")" {
            j += 1;
        }
        let jn = self.text(j);
        let jn2 = self.text(j + 1);
        let guard_after = matches!(jn, "<" | ">")
            || (jn == "=" && jn2 == "=")
            || (jn == "!" && jn2 == "=")
            || (jn == "." && matches!(jn2, "min" | "clamp"));
        // Preceding context: the cast sits on the right of a comparison.
        let guard_before = src.is_some() && i >= 2 && {
            let p2 = self.text(i - 2);
            let p3 = if i >= 3 { self.text(i - 3) } else { "" };
            (matches!(p2, "<" | ">") && !(p2 == ">" && matches!(p3, "-" | "=")))
                || (p2 == "=" && matches!(p3, "<" | ">" | "=" | "!"))
        };
        if guard_after || guard_before {
            if let Some(n) = src {
                self.guarded.insert(n, i);
                self.tainted.remove(n);
            }
            return;
        }

        // Compile-time constants are not wire data.
        let all_caps = src.is_some_and(|n| {
            n.len() > 1
                && n.chars()
                    .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        });
        let pre_guarded = src.is_some_and(|n| self.guarded.contains_key(n));
        if all_caps || pre_guarded {
            return;
        }

        if self.brackets.iter().any(|&b| b) {
            if !self.in_safe_call() {
                self.sites.wire_casts.push(Site {
                    what: src.unwrap_or("<expr>").to_string(),
                    line: self.toks[i].line,
                });
            }
        } else if src.is_some() {
            if let Some(bind) = self.let_binding_name(i) {
                self.tainted.insert(bind, i);
            }
        }
    }

    fn in_safe_call(&self) -> bool {
        self.parens.iter().any(|c| c.is_some_and(is_safe_index_ctx))
    }

    /// For a cast at token `i`, the `let [mut] NAME` binding of the
    /// current statement, if the cast is part of one (bounded walk-back,
    /// stopping at statement boundaries).
    fn let_binding_name(&self, i: usize) -> Option<&'a str> {
        let lo = i.saturating_sub(24);
        let mut k = i;
        while k > lo {
            k -= 1;
            match self.text(k) {
                ";" | "{" | "}" => return None,
                "let" => {
                    let mut n = k + 1;
                    if self.text(n) == "mut" {
                        n += 1;
                    }
                    return self.ident_at(n);
                }
                _ => {}
            }
        }
        None
    }

    /// First `Ordering` variant inside the argument list opening at
    /// `open` (bounded scan), or `None` when the parens close first.
    fn ordering_arg(&self, open: usize) -> Option<&'a str> {
        let mut depth = 0usize;
        let limit = self.end.min(open + 48);
        for j in open..limit {
            let text = self.text(j);
            match text {
                "(" => depth += 1,
                ")" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return None;
                    }
                }
                _ if ORDERINGS.contains(&text) => return Some(text),
                _ => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<FnItem> {
        parse(&lex(src))
    }

    #[test]
    fn recovers_impl_trait_and_mod_structure() {
        let src = "\
pub fn free() {}
impl Widget {
    pub fn new() -> Widget { Widget }
    fn helper(&self) {}
}
impl Default for Widget {
    fn default() -> Widget { Widget::new() }
}
trait Greet {
    fn hi(&self);
    fn twice(&self) { self.hi(); self.hi(); }
}
mod wire {
    pub fn encode() {}
}
";
        let fns = parse_src(src);
        let by_name: Vec<(&str, Option<&str>)> = fns
            .iter()
            .map(|f| (f.name.as_str(), f.qual.as_deref()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("free", None),
                ("new", Some("Widget")),
                ("helper", Some("Widget")),
                ("default", Some("Widget")),
                ("twice", Some("Greet")),
                ("encode", None),
            ]
        );
        let encode = fns.iter().find(|f| f.name == "encode").unwrap();
        assert_eq!(encode.modpath, vec!["wire".to_string()]);
    }

    #[test]
    fn nested_fn_sites_are_not_attributed_to_the_outer_fn() {
        let fns = parse_src("fn outer() {\n    fn inner() { helper(); }\n    outer_call();\n}\n");
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        let outer_calls: Vec<&str> = outer.sites.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(outer_calls, vec!["outer_call"]);
        let inner_calls: Vec<&str> = inner.sites.calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(inner_calls, vec!["helper"]);
    }

    #[test]
    fn atomic_sites_need_an_ordering_argument() {
        let fns = parse_src(
            "fn f(v: &mut Vec<u32>) {\n\
                 v.swap(0, 1);\n\
                 FLAG.store(true, Ordering::Release);\n\
                 let x = self.done.load(Ordering::Acquire);\n\
             }\n",
        );
        let atomics = &fns[0].sites.atomics;
        assert_eq!(atomics.len(), 2);
        assert_eq!(atomics[0].receiver, "FLAG");
        assert_eq!(atomics[0].op, "store");
        assert_eq!(atomics[0].ordering, "Release");
        assert_eq!(atomics[1].receiver, "done");
        assert_eq!(atomics[1].ordering, "Acquire");
    }

    #[test]
    fn wire_casts_flag_unguarded_index_uses_only() {
        // Direct unguarded index.
        let bad = parse_src("fn f(b: &[u8], len: u32) -> u8 { b[len as usize] }\n");
        assert_eq!(bad[0].sites.wire_casts.len(), 1, "{:?}", bad[0].sites);

        // Guarded by a preceding comparison.
        let cmp = parse_src(
            "fn f(b: &[u8], len: u32) -> u8 {\n\
                 if (len as usize) > b.len() { return 0; }\n\
                 b[len as usize]\n\
             }\n",
        );
        assert!(cmp[0].sites.wire_casts.is_empty(), "{:?}", cmp[0].sites);

        // Safe `get` context.
        let get = parse_src("fn f(b: &[u8], len: u32) -> Option<&u8> { b.get(len as usize) }\n");
        assert!(get[0].sites.wire_casts.is_empty());

        // `.min` clamping at the cast.
        let min = parse_src("fn f(b: &[u8], k: u32) -> u8 { b[(k as usize).min(b.len() - 1)] }\n");
        assert!(min[0].sites.wire_casts.is_empty());

        // One-hop taint through a let binding.
        let taint =
            parse_src("fn f(b: &[u8], len: u32) -> u8 {\n    let n = len as usize;\n    b[n]\n}\n");
        assert_eq!(taint[0].sites.wire_casts.len(), 1);
        assert_eq!(taint[0].sites.wire_casts[0].line, 3);

        // Taint cleared by a guard before use.
        let guarded = parse_src(
            "fn f(b: &[u8], len: u32) -> u8 {\n\
                 let n = len as usize;\n\
                 if n > b.len() { return 0; }\n\
                 b[n]\n\
             }\n",
        );
        assert!(
            guarded[0].sites.wire_casts.is_empty(),
            "{:?}",
            guarded[0].sites
        );
    }

    #[test]
    fn io_spawn_and_panic_sites_are_recorded() {
        let fns = parse_src(
            "fn f(p: &Path) -> Result<(), E> {\n\
                 let mut file = File::create(p)?;\n\
                 file.write_all(b\"x\")?;\n\
                 file.sync_all()?;\n\
                 std::fs::rename(p, p)?;\n\
                 let v = vec![1, 2];\n\
                 let s = x.to_vec();\n\
                 std::thread::spawn(|| {});\n\
                 let g = m.lock();\n\
                 y.unwrap();\n\
                 Ok(())\n\
             }\n",
        );
        let s = &fns[0].sites;
        let ops: Vec<IoOp> = s.io.iter().map(|io| io.op).collect();
        assert_eq!(ops, vec![IoOp::Write, IoOp::SyncAll, IoOp::Rename]);
        assert_eq!(s.spawns.len(), 1);
        // Lock and panic sites are plain method-call sites: C2 scans its
        // locks token by token, and clippy checks the panics.
        for name in ["lock", "unwrap"] {
            assert!(
                s.calls.iter().any(|c| c.method && c.name == name),
                "{name}: {:?}",
                s.calls
            );
        }
    }

    #[test]
    fn truncated_input_degrades_without_panicking() {
        let src = "impl Foo { pub fn bar(&self) -> Result<(), E> { if x { y(";
        let fns = parse_src(src);
        for f in &fns {
            assert!(f.span.0 <= f.span.1);
        }
        // Determinism on the same input.
        assert_eq!(parse_src(src), parse_src(src));
    }
}
