//! Hand-rolled Rust tokenizer and block classifier for the lint pass.
//!
//! The container is offline and `xtask` stays dependency-free, so this is
//! a purpose-built lexer rather than `syn`: one pass over the source that
//! produces (a) a token stream — identifiers, lifetimes, literals,
//! single-character punctuation — with 1-based line numbers, and (b) a
//! *masked* copy of every line in which comments and literal interiors are
//! blanked to spaces (string/char delimiters survive). The masked lines
//! feed the legacy line-oriented rules (substring checks, brace counting)
//! without literals or comments producing false hits; the token stream
//! feeds the scope-aware rules in [`crate::guards`].
//!
//! The lexer understands everything the workspace actually writes: line
//! and *nested* block comments, string/byte-string literals with escapes,
//! raw strings (`r"…"`, `r#"…"#`, `br#"…"#`), char and byte-char
//! literals, lifetimes vs. chars (`'a` vs `'a'`), raw identifiers
//! (`r#match`), numeric literals including float dots (without eating
//! `..` ranges), and plain identifiers/punctuation. It does not build an
//! AST; block *kinds* are recovered heuristically by [`classify_block`]
//! from the tokens between the previous statement boundary and an opening
//! brace, which is exact for the forms the concurrency rules care about
//! (`fn`, `while`, `loop`, `for`, `if`, `else`, `match`) and degrades to
//! [`BlockKind::Other`] for struct literals, closures and expression
//! blocks.

use std::fmt;

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`sched`, `while`, `r#match` → `match`).
    Ident,
    /// Lifetime (`'a`, `'static`), without treating it as a char literal.
    Lifetime,
    /// String, byte-string or raw-string literal; `text` keeps the full
    /// literal including delimiters so rules can read its value.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Numeric literal (integer or float, any radix).
    Num,
    /// One punctuation character (`{`, `.`, `!`, …).
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Source text. For [`TokKind::Str`] this is the complete literal;
    /// for raw identifiers the `r#` prefix is stripped.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Token {
    /// True when the token is this exact punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True when the token is this exact identifier/keyword.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// The value of a plain (non-raw) string literal: the text between the
    /// delimiters, escapes left as written. `None` for other tokens.
    pub fn str_value(&self) -> Option<&str> {
        if self.kind != TokKind::Str {
            return None;
        }
        let inner = self.text.strip_prefix('b').unwrap_or(&self.text);
        let inner = inner.trim_start_matches('r').trim_matches('#');
        inner.strip_prefix('"').and_then(|s| s.strip_suffix('"'))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// A tokenized source file: the token stream plus raw and masked lines.
/// Produced once per file and shared by every rule family.
#[derive(Debug)]
pub struct SourceFile {
    /// The token stream in source order.
    pub tokens: Vec<Token>,
    /// The original lines, 0-indexed (line `n` of the file is `raw[n-1]`).
    pub raw_lines: Vec<String>,
    /// The masked lines: comments and literal interiors blanked to spaces,
    /// literal delimiters kept, code preserved byte-for-byte otherwise.
    pub code_lines: Vec<String>,
}

/// Accumulates the masked copy of the source, line by line.
struct Masker {
    lines: Vec<String>,
    cur: String,
}

impl Masker {
    /// Emits a character verbatim (code outside comments/literals).
    fn keep(&mut self, c: char) {
        if c == '\n' {
            self.lines.push(std::mem::take(&mut self.cur));
        } else {
            self.cur.push(c);
        }
    }

    /// Emits a space in place of a masked character, preserving columns.
    fn mask(&mut self, c: char) {
        if c == '\n' {
            self.lines.push(std::mem::take(&mut self.cur));
        } else {
            self.cur.push(' ');
        }
    }
}

impl SourceFile {
    /// Lexes `source` into tokens and masked lines. Never fails: malformed
    /// input (unterminated literals, stray bytes) degrades to masking the
    /// rest of the file rather than panicking, which is the right failure
    /// mode for a linter.
    pub fn parse(source: &str) -> SourceFile {
        let chars: Vec<char> = source.chars().collect();
        let n = chars.len();
        let mut tokens = Vec::new();
        let mut m = Masker { lines: Vec::new(), cur: String::new() };
        let mut line = 1usize;
        let mut i = 0usize;

        while i < n {
            let c = chars[i];
            if c == '\n' {
                m.keep(c);
                line += 1;
                i += 1;
                continue;
            }
            if c.is_whitespace() {
                m.keep(c);
                i += 1;
                continue;
            }
            // Line comment (also covers doc comments).
            if c == '/' && chars.get(i + 1) == Some(&'/') {
                while i < n && chars[i] != '\n' {
                    m.mask(chars[i]);
                    i += 1;
                }
                continue;
            }
            // Block comment, nesting like rustc.
            if c == '/' && chars.get(i + 1) == Some(&'*') {
                let mut depth = 1usize;
                m.mask('/');
                m.mask('*');
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        m.mask('/');
                        m.mask('*');
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        m.mask('*');
                        m.mask('/');
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        m.mask(chars[i]);
                        i += 1;
                    }
                }
                continue;
            }
            // Raw strings: r"…", r#"…"#, br#"…"# — and raw identifiers
            // (r#ident), which fall through to the ident path.
            if c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')) {
                let prefix = if c == 'b' { 2 } else { 1 };
                let mut j = i + prefix;
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if chars.get(j) == Some(&'"') {
                    let start_line = line;
                    let mut text = String::new();
                    // Emit prefix + hashes masked, delimiters kept.
                    for &pc in &chars[i..j] {
                        m.mask(pc);
                        text.push(pc);
                    }
                    m.keep('"');
                    text.push('"');
                    i = j + 1;
                    loop {
                        if i >= n {
                            break;
                        }
                        if chars[i] == '"'
                            && chars[i + 1..].iter().take(hashes).filter(|&&h| h == '#').count()
                                == hashes
                        {
                            m.keep('"');
                            text.push('"');
                            i += 1;
                            for _ in 0..hashes {
                                m.mask('#');
                                text.push('#');
                                i += 1;
                            }
                            break;
                        }
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        text.push(chars[i]);
                        m.mask(chars[i]);
                        i += 1;
                    }
                    tokens.push(Token { kind: TokKind::Str, text, line: start_line });
                    continue;
                }
                if c == 'r' && hashes > 0 && chars.get(j).is_some_and(|&x| is_ident_start(x)) {
                    // Raw identifier r#ident: mask the prefix, lex the rest
                    // as a plain identifier so `r#match` compares as "match".
                    m.mask('r');
                    m.mask('#');
                    i += 2;
                    let (text, len) = lex_ident(&chars[i..]);
                    for &pc in &chars[i..i + len] {
                        m.keep(pc);
                    }
                    tokens.push(Token { kind: TokKind::Ident, text, line });
                    i += len;
                    continue;
                }
                // else: plain identifier starting with r/b — fall through.
            }
            // Strings and byte strings with escapes.
            if c == '"' || (c == 'b' && chars.get(i + 1) == Some(&'"')) {
                let start_line = line;
                let mut text = String::new();
                if c == 'b' {
                    m.mask('b');
                    text.push('b');
                    i += 1;
                }
                m.keep('"');
                text.push('"');
                i += 1;
                while i < n {
                    match chars[i] {
                        '\\' => {
                            text.push('\\');
                            m.mask('\\');
                            i += 1;
                            if i < n {
                                if chars[i] == '\n' {
                                    line += 1;
                                }
                                text.push(chars[i]);
                                m.mask(chars[i]);
                                i += 1;
                            }
                        }
                        '"' => {
                            m.keep('"');
                            text.push('"');
                            i += 1;
                            break;
                        }
                        ch => {
                            if ch == '\n' {
                                line += 1;
                            }
                            text.push(ch);
                            m.mask(ch);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token { kind: TokKind::Str, text, line: start_line });
                continue;
            }
            // Chars, byte chars and lifetimes.
            if c == '\'' || (c == 'b' && chars.get(i + 1) == Some(&'\'')) {
                let byte = c == 'b';
                let q = if byte { i + 1 } else { i };
                // A lifetime is `'` + ident with no closing quote right
                // after the first character (`'a` vs `'a'`).
                let is_lifetime = !byte
                    && chars.get(q + 1).is_some_and(|&x| is_ident_start(x))
                    && chars.get(q + 2) != Some(&'\'');
                if is_lifetime {
                    m.keep('\'');
                    i += 1;
                    let (ident, len) = lex_ident(&chars[i..]);
                    for &pc in &chars[i..i + len] {
                        m.keep(pc);
                    }
                    i += len;
                    tokens.push(Token { kind: TokKind::Lifetime, text: format!("'{ident}"), line });
                } else {
                    if byte {
                        m.mask('b');
                        i += 1;
                    }
                    m.keep('\'');
                    i += 1;
                    while i < n {
                        match chars[i] {
                            '\\' => {
                                m.mask('\\');
                                i += 1;
                                if i < n {
                                    m.mask(chars[i]);
                                    i += 1;
                                }
                            }
                            '\'' => {
                                m.keep('\'');
                                i += 1;
                                break;
                            }
                            ch => {
                                if ch == '\n' {
                                    line += 1;
                                }
                                m.mask(ch);
                                i += 1;
                            }
                        }
                    }
                    tokens.push(Token { kind: TokKind::Char, text: "''".to_string(), line });
                }
                continue;
            }
            // Identifiers and keywords.
            if is_ident_start(c) {
                let (text, len) = lex_ident(&chars[i..]);
                for &pc in &chars[i..i + len] {
                    m.keep(pc);
                }
                tokens.push(Token { kind: TokKind::Ident, text, line });
                i += len;
                continue;
            }
            // Numbers: alnum + underscores, plus a decimal point only when
            // followed by a digit (so `0..n` keeps its range dots).
            if c.is_ascii_digit() {
                let mut text = String::new();
                while i < n {
                    let ch = chars[i];
                    let float_dot = ch == '.'
                        && chars.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                        && !text.contains('.');
                    if !(ch.is_ascii_alphanumeric() || ch == '_' || float_dot) {
                        break;
                    }
                    text.push(ch);
                    m.keep(ch);
                    i += 1;
                }
                tokens.push(Token { kind: TokKind::Num, text, line });
                continue;
            }
            // Everything else is one punctuation character.
            m.keep(c);
            tokens.push(Token { kind: TokKind::Punct, text: c.to_string(), line });
            i += 1;
        }
        if !m.cur.is_empty() {
            m.lines.push(std::mem::take(&mut m.cur));
        }
        let raw_lines: Vec<String> = source.lines().map(str::to_string).collect();
        // The masker splits on '\n' exactly like `str::lines`; a file
        // without a trailing newline leaves the last line pending, flushed
        // above. Pad defensively so indexing by line number stays in
        // bounds even on malformed input.
        let mut code_lines = m.lines;
        while code_lines.len() < raw_lines.len() {
            code_lines.push(String::new());
        }
        SourceFile { tokens, raw_lines, code_lines }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

/// Lexes one identifier from the head of `chars`; returns (text, length).
fn lex_ident(chars: &[char]) -> (String, usize) {
    let mut len = 0usize;
    while chars.get(len).is_some_and(|&c| c.is_alphanumeric() || c == '_') {
        len += 1;
    }
    (chars[..len].iter().collect(), len)
}

/// The kind of a brace-delimited block, recovered from the tokens between
/// the previous statement boundary (`;`, `{`, `}`) and the opening `{`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A function (or method) body: the intra-procedural analysis boundary.
    Fn,
    /// `while`/`while let` body — a predicate re-check loop.
    While,
    /// `loop` body — also counts as a predicate re-check loop (the
    /// predicate is re-tested inside before the next wait).
    Loop,
    /// `for` body. (Also matches `impl Trait for Type`, which is harmless:
    /// no analyzable statement sits directly in an impl block.)
    For,
    /// `if`/`if let` body — notably *not* a re-check loop.
    If,
    /// `else` body.
    Else,
    /// `match` body.
    Match,
    /// Anything else: expression blocks, closures, struct literals, mods.
    Other,
}

impl BlockKind {
    /// True for block kinds that re-run their body: a condvar wait inside
    /// one of these re-checks its predicate after waking.
    pub fn is_loop(self) -> bool {
        matches!(self, BlockKind::While | BlockKind::Loop | BlockKind::For)
    }
}

/// Classifies the block opened by a `{` from the tokens since the previous
/// statement boundary: the first control keyword wins (`while let` is a
/// `while`; `else if` is an `else`), `fn` anywhere marks a function body.
pub fn classify_block(recent: &[Token]) -> BlockKind {
    for tok in recent {
        if tok.kind != TokKind::Ident {
            continue;
        }
        match tok.text.as_str() {
            "fn" => return BlockKind::Fn,
            "while" => return BlockKind::While,
            "loop" => return BlockKind::Loop,
            "for" => return BlockKind::For,
            "if" => return BlockKind::If,
            "else" => return BlockKind::Else,
            "match" => return BlockKind::Match,
            _ => {}
        }
    }
    BlockKind::Other
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_literal_interiors() {
        let sf = SourceFile::parse("let a = \"x{y\"; // brace {\nlet b = 1;\n");
        assert_eq!(sf.code_lines[0], "let a = \"   \";           ");
        assert_eq!(sf.code_lines[1], "let b = 1;");
        // No brace leaks out of the string or the comment.
        assert!(!sf.code_lines[0].contains('{'));
    }

    #[test]
    fn raw_strings_do_not_leak_code() {
        let src = "let s = r#\"a \" b { \"#; s.len()\n";
        let sf = SourceFile::parse(src);
        assert!(!sf.code_lines[0].contains('{'), "{:?}", sf.code_lines[0]);
        assert!(sf.code_lines[0].contains("s.len()"));
        let strs: Vec<_> = sf.tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let sf = SourceFile::parse("fn f<'a>(x: &'a str) -> char { 'x' }\n");
        let lifetimes: Vec<_> =
            sf.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| &t.text).collect();
        assert_eq!(lifetimes, ["'a", "'a"]);
        assert_eq!(sf.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
    }

    #[test]
    fn nested_block_comments_terminate() {
        let sf = SourceFile::parse("/* outer /* inner */ still */ fn f() {}\n");
        assert!(sf.code_lines[0].contains("fn f()"));
        assert!(!sf.code_lines[0].contains("outer"));
    }

    #[test]
    fn numbers_keep_range_dots() {
        let sf = SourceFile::parse("let r = 0..n; let f = 1.5;\n");
        let nums: Vec<_> =
            sf.tokens.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text.as_str()).collect();
        assert_eq!(nums, ["0", "1.5"]);
    }

    #[test]
    fn str_value_reads_plain_literals() {
        let sf = SourceFile::parse("order!(SeqCst, \"steal-pending\")\n");
        let tag = sf.tokens.iter().find_map(Token::str_value);
        assert_eq!(tag, Some("steal-pending"));
    }

    #[test]
    fn classify_recognises_control_blocks() {
        let kinds: Vec<BlockKind> = [
            "fn f(a: u32, b: u32) -> u32",
            "while let Some(x) = it.next()",
            "'outer: loop",
            "for x in xs",
            "if let Some(j) = q.pick()",
            "else",
            "match op",
            "let j =",
        ]
        .iter()
        .map(|src| classify_block(&SourceFile::parse(src).tokens))
        .collect();
        use BlockKind::*;
        assert_eq!(kinds, vec![Fn, While, Loop, For, If, Else, Match, Other]);
    }
}
