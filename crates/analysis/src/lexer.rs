//! A lightweight Rust lexer for the lint rules.
//!
//! This is **not** a full Rust parser: the rules only need a token stream
//! with comments, string literals and char literals stripped, plus enough
//! structure to answer three questions —
//!
//! 1. *Where is this token?* (line number, brace depth)
//! 2. *Is it inside a `#[cfg(test)]` item?* (several rules exempt tests)
//! 3. *What comments surround it?* (the `// cae-lint: allow(...)`
//!    escape hatch is comment-driven)
//!
//! The scanner handles the lexical constructs that defeat naive regex
//! linting: line comments, nested block comments, string literals with
//! escapes, raw strings with arbitrary `#` fences (`r##"…"##`), byte and
//! C strings, char literals (including escaped quotes), and the
//! char-vs-lifetime ambiguity (`'a'` is a char, `'a` in `&'a str` is
//! not).

/// One code token: an identifier/keyword or a single punctuation
/// character. Numbers, strings, chars and comments are consumed but not
/// emitted — no rule needs them as tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text (identifier name, or a 1-character punct).
    pub text: &'a str,
    /// 1-based source line.
    pub line: usize,
    /// Brace depth *before* this token (a `{` and its matching `}` carry
    /// the same depth).
    pub depth: usize,
    /// True when the token sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
}

impl Token<'_> {
    /// Whether this token is an identifier or keyword (vs. punctuation).
    pub fn is_ident(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// Per-line facts the allow directives need.
#[derive(Debug, Clone, Default)]
pub struct LineInfo {
    /// Concatenated text of every comment (piece) on this line.
    pub comment: String,
    /// The line contains code tokens (or string/char/number literals).
    pub has_code: bool,
    /// The line is comment and/or whitespace only.
    pub pure_comment: bool,
}

/// Lexer output: the token stream plus per-line metadata.
///
/// `lines` is 1-indexed (`lines[0]` is unused padding) so rule code can
/// write `lexed.lines[token.line]` directly.
#[derive(Debug)]
pub struct Lexed<'a> {
    pub tokens: Vec<Token<'a>>,
    pub lines: Vec<LineInfo>,
}

/// Lexes `src`, recording tokens and per-line comment/code facts.
pub fn lex(src: &str) -> Lexed<'_> {
    let mut lx = Lexer::new(src);
    lx.run();
    let mut lexed = Lexed {
        tokens: lx.tokens,
        lines: lx.lines,
    };
    for info in &mut lexed.lines {
        info.pure_comment = !info.has_code && !info.comment.is_empty();
    }
    mark_test_regions(&mut lexed.tokens);
    lexed
}

struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    i: usize,
    line: usize,
    depth: usize,
    tokens: Vec<Token<'a>>,
    lines: Vec<LineInfo>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        let nlines = src.lines().count() + 2;
        Lexer {
            src,
            bytes: src.as_bytes(),
            i: 0,
            line: 1,
            depth: 0,
            tokens: Vec::new(),
            lines: vec![LineInfo::default(); nlines],
        }
    }

    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.i + ahead).unwrap_or(&0)
    }

    fn note_code(&mut self) {
        self.lines[self.line].has_code = true;
    }

    fn push_comment(&mut self, text: &str) {
        let slot = &mut self.lines[self.line].comment;
        if !slot.is_empty() {
            slot.push(' ');
        }
        slot.push_str(text);
    }

    fn run(&mut self) {
        while self.i < self.bytes.len() {
            let c = self.bytes[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'"' => {
                    self.note_code();
                    self.i += 1;
                    self.string_body(0);
                }
                b'\'' => self.char_or_lifetime(),
                b'{' => {
                    self.emit("{");
                    self.depth += 1;
                    self.i += 1;
                }
                b'}' => {
                    self.depth = self.depth.saturating_sub(1);
                    // Emit with the *inner* depth so `{`/`}` pairs match.
                    let line = self.line;
                    let depth = self.depth;
                    self.tokens.push(Token {
                        text: &self.src[self.i..self.i + 1],
                        line,
                        depth,
                        in_test: false,
                    });
                    self.note_code();
                    self.i += 1;
                }
                b'0'..=b'9' => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() || c >= 0x80 => self.ident(),
                c if c.is_ascii_whitespace() => self.i += 1,
                _ => {
                    self.emit(&self.src[self.i..self.i + 1]);
                    self.i += 1;
                }
            }
        }
    }

    fn emit(&mut self, text: &'a str) {
        self.tokens.push(Token {
            text,
            line: self.line,
            depth: self.depth,
            in_test: false,
        });
        self.note_code();
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\n' {
            self.i += 1;
        }
        let text = self.src[start..self.i].to_string();
        self.push_comment(&text);
    }

    fn block_comment(&mut self) {
        self.i += 2;
        let mut nest = 1usize;
        let mut piece_start = self.i;
        while self.i < self.bytes.len() && nest > 0 {
            match self.bytes[self.i] {
                b'\n' => {
                    let text = self.src[piece_start..self.i].to_string();
                    self.push_comment(text.trim());
                    self.line += 1;
                    self.i += 1;
                    piece_start = self.i;
                }
                b'/' if self.peek(1) == b'*' => {
                    nest += 1;
                    self.i += 2;
                }
                b'*' if self.peek(1) == b'/' => {
                    nest -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
        let end = self.i.saturating_sub(2).max(piece_start);
        let text = self.src[piece_start..end].to_string();
        self.push_comment(text.trim());
    }

    /// Consumes a (non-raw) string body; the opening quote is consumed.
    /// `hashes` > 0 means a raw string closed by `"` + that many `#`.
    fn string_body(&mut self, hashes: usize) {
        while self.i < self.bytes.len() {
            match self.bytes[self.i] {
                b'\\' if hashes == 0 => self.i += 2, // escape: skip next
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                b'"' => {
                    if hashes == 0 {
                        self.i += 1;
                        return;
                    }
                    let mut ok = true;
                    for h in 0..hashes {
                        if self.peek(1 + h) != b'#' {
                            ok = false;
                            break;
                        }
                    }
                    self.i += 1;
                    if ok {
                        self.i += hashes;
                        return;
                    }
                }
                _ => self.i += 1,
            }
        }
    }

    /// `'` starts either a char literal or a lifetime. A lifetime is `'`
    /// followed by an identifier **not** closed by another `'`.
    fn char_or_lifetime(&mut self) {
        self.note_code();
        let n1 = self.peek(1);
        if n1 == b'\\' {
            // Escaped char literal: skip to the closing quote.
            self.i += 2; // ' and backslash
            self.i += 1; // escaped char (or escape selector)
            while self.i < self.bytes.len() && self.bytes[self.i] != b'\'' {
                self.i += 1; // \u{…} payloads
            }
            self.i += 1;
            return;
        }
        let ident_start = n1 == b'_' || n1.is_ascii_alphabetic() || n1 >= 0x80;
        if ident_start && self.peek(2) != b'\'' {
            // Lifetime: consume the identifier, emit nothing.
            self.i += 2;
            while self.i < self.bytes.len() {
                let c = self.bytes[self.i];
                if c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80 {
                    self.i += 1;
                } else {
                    break;
                }
            }
            return;
        }
        // Plain char literal `'x'` (possibly multibyte).
        self.i += 1; // opening '
        while self.i < self.bytes.len() && self.bytes[self.i] != b'\'' {
            self.i += 1;
        }
        self.i += 1; // closing '
    }

    fn number(&mut self) {
        self.note_code();
        while self.i < self.bytes.len() {
            let c = self.bytes[self.i];
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' {
                // Stop a range expression `0..n` from being eaten.
                if c == b'.' && self.peek(1) == b'.' {
                    break;
                }
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.bytes.len() {
            let c = self.bytes[self.i];
            if c == b'_' || c.is_ascii_alphanumeric() || c >= 0x80 {
                self.i += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.i];
        // Raw/byte/C string and byte-char prefixes.
        let next = self.peek(0);
        match (text, next) {
            ("r" | "br" | "cr", b'"') => {
                self.note_code();
                self.i += 1;
                self.string_body(0); // raw, zero hashes: no escapes, ends at "
                return;
            }
            ("r" | "br" | "cr", b'#') => {
                // Count the hash fence, then the quote.
                let mut hashes = 0;
                while self.peek(hashes) == b'#' {
                    hashes += 1;
                }
                if self.peek(hashes) == b'"' {
                    self.note_code();
                    self.i += hashes + 1;
                    self.string_body(hashes);
                    return;
                }
            }
            ("b" | "c", b'"') => {
                self.note_code();
                self.i += 1;
                self.string_body(0);
                return;
            }
            ("b", b'\'') => {
                self.char_or_lifetime();
                return;
            }
            _ => {}
        }
        self.emit(text);
    }
}

/// Marks tokens inside `#[cfg(test)]`-gated items.
///
/// Pattern: the token sequence `# [ cfg ( test ) ]` arms a pending flag;
/// the next `{` opens a test region that ends at its matching `}` (same
/// recorded depth). A `;` before any `{` disarms the flag (the attribute
/// gated a braceless item such as a `use`).
fn mark_test_regions(tokens: &mut [Token<'_>]) {
    let mut pending = false;
    let mut region_depth: Option<usize> = None;
    let mut i = 0;
    while i < tokens.len() {
        if let Some(d) = region_depth {
            tokens[i].in_test = true;
            if tokens[i].text == "}" && tokens[i].depth == d {
                region_depth = None;
            }
            i += 1;
            continue;
        }
        if is_cfg_test_at(tokens, i) {
            pending = true;
            i += 7;
            continue;
        }
        if pending {
            match tokens[i].text {
                "{" => {
                    region_depth = Some(tokens[i].depth);
                    tokens[i].in_test = true;
                    pending = false;
                }
                ";" => pending = false,
                _ => {}
            }
        }
        i += 1;
    }
}

fn is_cfg_test_at(tokens: &[Token<'_>], i: usize) -> bool {
    let texts = ["#", "[", "cfg", "(", "test", ")", "]"];
    tokens.len() >= i + texts.len()
        && texts
            .iter()
            .enumerate()
            .all(|(k, t)| tokens[i + k].text == *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<&str> {
        lex(src)
            .tokens
            .iter()
            .filter(|t| t.is_ident())
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r##"
// unsafe in a line comment
/* unsafe in a /* nested */ block */
let s = "unsafe { transmute }";
let r = r#"unsafe"#;
let c = 'u'; let esc = '\''; let bc = b'x';
fn real_unsafe() { unsafe {} }
"##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|&&t| t == "unsafe").count(),
            1,
            "only the code `unsafe` must survive: {ids:?}"
        );
        assert!(!ids.contains(&"transmute"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A naive lexer treats `'a` as an unterminated char and eats the
        // rest of the file; the `unsafe` after it must still be seen.
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nunsafe fn g() {}";
        let ids = idents(src);
        assert!(ids.contains(&"unsafe"), "{ids:?}");
        assert_eq!(ids.iter().filter(|&&t| t == "str").count(), 2);
    }

    #[test]
    fn brace_depth_matches_pairs() {
        let lexed = lex("fn a() { if x { y(); } }");
        let opens: Vec<usize> = lexed
            .tokens
            .iter()
            .filter(|t| t.text == "{")
            .map(|t| t.depth)
            .collect();
        let closes: Vec<usize> = lexed
            .tokens
            .iter()
            .filter(|t| t.text == "}")
            .map(|t| t.depth)
            .collect();
        assert_eq!(opens, vec![0, 1]);
        assert_eq!(closes, vec![1, 0]);
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { spawn(); }\n}\nfn live2() {}";
        let lexed = lex(src);
        let spawn = lexed.tokens.iter().find(|t| t.text == "spawn").unwrap();
        assert!(spawn.in_test);
        let work = lexed.tokens.iter().find(|t| t.text == "work").unwrap();
        assert!(!work.in_test);
        let live2 = lexed.tokens.iter().find(|t| t.text == "live2").unwrap();
        assert!(!live2.in_test, "region must close at the matching brace");
    }

    #[test]
    fn cfg_test_on_braceless_item_is_disarmed() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { spawn(); }";
        let lexed = lex(src);
        let spawn = lexed.tokens.iter().find(|t| t.text == "spawn").unwrap();
        assert!(!spawn.in_test, "`;` must disarm the pending cfg(test)");
    }

    #[test]
    fn line_metadata_classifies_comments() {
        let src = "// SAFETY: fine\nlet x = 1; // trailing\n\nfn f() {}";
        let lexed = lex(src);
        assert!(lexed.lines[1].pure_comment);
        assert!(lexed.lines[1].comment.contains("SAFETY:"));
        assert!(lexed.lines[2].has_code && !lexed.lines[2].pure_comment);
        assert!(lexed.lines[2].comment.contains("trailing"));
    }
}
