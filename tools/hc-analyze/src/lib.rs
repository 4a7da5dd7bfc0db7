//! `hc-analyze`: a repo-native concurrency lint pass.
//!
//! A hand-written Rust lexer + scope tracker (tokens, brace nesting,
//! `let`-guard bindings — deliberately *not* a full parser: the build
//! has no registry access) that walks `crates/**/*.rs` and enforces the concurrency invariants the module docs otherwise only
//! describe in prose. Four rule families:
//!
//! * **lock-order** — a module declares its lock acquisition order with a
//!   header comment (`// hc-analyze: lock-order map=streams < stream=cell`);
//!   nested guard acquisitions that violate the declared order, or that
//!   involve a lock class the module never declared, are findings.
//! * **blocking-under-lock** — `sleep`, `recv`/`recv_timeout`, `join`,
//!   `send` (bounded channels deadlock against backpressure), `flush`,
//!   `sync_all`/`sync_data`, and `ChunkStore` IO (`read_chunk`/`write_chunk`)
//!   while a `let`-bound `MutexGuard`/`RwLock` guard is live in scope — the
//!   PR-7 `LatencyStore` sleep-under-lock bug class. Chained blocking calls
//!   on a temporary guard (`rx.lock().recv()`) are caught too.
//! * **atomic-ordering** — `Ordering::Relaxed` on an atomic whose name is
//!   both mutated and loaded in the same crate (a cross-thread-visible
//!   counter, not a private scratch value) must carry an
//!   `allow(relaxed) <reason>` justification.
//! * **panic-policy** — `unwrap()`/`expect()`/`panic!` in non-test code of
//!   the IO and restore hot-path trees (`crates/storage`, `crates/restore`,
//!   `crates/cachectl`, and the `tools/` gate binaries) require an
//!   `allow(panic) <reason>` annotation.
//!
//! Annotation grammar (one per line comment, same line as the finding or
//! the line directly above it):
//!
//! ```text
//! // hc-analyze: lock-order map=streams < stream=cell < job=core
//! // hc-analyze: allow(relaxed) monotonic metrics counter, no handoff
//! // hc-analyze: allow(panic) invariant: planned ranges are validated
//! // hc-analyze: allow(blocking_under_lock) journal write-ordering contract
//! // hc-analyze: allow(lock_order) probe lock, never held across the other
//! ```
//!
//! An `allow` annotation without a reason is itself a finding
//! (`bad-annotation`), so the justification cannot rot into a bare waiver.
//! `#[cfg(test)]` items, `tests/`, `benches/`, `examples/` and fixture
//! trees are exempt: the rules police production paths, not assertions.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule families (plus the annotation-hygiene meta rule).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Rule {
    /// Nested guard acquisition violating (or missing from) the module's
    /// declared lock order.
    LockOrder,
    /// Blocking call while a lock guard is live in scope.
    BlockingUnderLock,
    /// Unjustified `Ordering::Relaxed` on a shared counter.
    AtomicOrdering,
    /// `unwrap()`/`expect()`/`panic!` on a policed hot path.
    PanicPolicy,
    /// Malformed `hc-analyze:` annotation (unknown verb, missing reason,
    /// unparseable lock-order declaration).
    BadAnnotation,
}

impl Rule {
    /// Stable rule name used in findings and documentation.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LockOrder => "lock-order",
            Rule::BlockingUnderLock => "blocking-under-lock",
            Rule::AtomicOrdering => "atomic-ordering",
            Rule::PanicPolicy => "panic-policy",
            Rule::BadAnnotation => "bad-annotation",
        }
    }
}

/// One finding: a rule violation at a source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Path as given to the analyzer.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule family.
    pub rule: Rule,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.msg
        )
    }
}

/// A source file queued for analysis, with its policy classification.
pub struct SourceFile {
    /// Display path (used in findings).
    pub path: String,
    /// File contents.
    pub src: String,
    /// Whether the panic-policy rule applies (storage/restore/cachectl
    /// src trees and the `tools/` gate binaries).
    pub panic_policy: bool,
    /// Crate grouping key for the atomic-ordering shared-name analysis
    /// (e.g. `crates/storage`).
    pub crate_key: String,
}

impl SourceFile {
    /// Classifies `path` (workspace-relative or absolute) into policy
    /// flags and reads nothing — pair with the file's contents.
    pub fn classify(path: &Path, src: String) -> SourceFile {
        let p = path.to_string_lossy().replace('\\', "/");
        let panic_policy = [
            "crates/storage/src",
            "crates/restore/src",
            "crates/cachectl/src",
        ]
        .iter()
        .any(|t| p.contains(t))
            || (p.contains("tools/") && p.contains("/src/"));
        SourceFile {
            path: p.clone(),
            src,
            panic_policy,
            crate_key: crate_key_of(&p),
        }
    }
}

/// Crate grouping key: the path prefix up to and excluding `/src`
/// (`crates/storage/src/manager.rs` → `crates/storage`). Files outside a
/// `src` tree group by their parent directory.
fn crate_key_of(path: &str) -> String {
    if let Some(i) = path.find("/src/") {
        path[..i].to_string()
    } else {
        Path::new(path)
            .parent()
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.to_string())
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TokKind {
    Ident,
    Punct,
    Literal,
    Lifetime,
}

#[derive(Clone, Debug)]
struct Tok {
    kind: TokKind,
    text: String,
    line: u32,
}

impl Tok {
    fn is(&self, text: &str) -> bool {
        self.text == text
    }
    fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }
}

/// Lexes `src` into significant tokens, collecting `hc-analyze:` line
/// comments as annotations along the way. Strings, chars, lifetimes and
/// comments never produce spurious tokens, so brace/paren tracking over
/// the output is exact.
fn lex(src: &str, path: &str, anns: &mut Annotations, findings: &mut Vec<Finding>) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        // Raw (byte) strings start with an `r`/`b` prefix that would
        // otherwise lex as an identifier — peel them off first.
        if c == 'r' || c == 'b' {
            if let Some(j) = raw_string_start(&b, i) {
                i = lex_raw_string(&b, j, &mut line);
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("r\"\""),
                    line,
                });
                continue;
            }
        }
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                let comment: String = b[start..i].iter().collect();
                anns.note_comment(&comment, line, path, findings);
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                    }
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i = lex_string(&b, i, &mut line);
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("\"\""),
                    line,
                });
            }
            '\'' => {
                // Lifetime or char literal. A lifetime is `'ident` NOT
                // followed by a closing quote; everything else is a char.
                let mut j = i + 1;
                if j < b.len() && (b[j].is_alphabetic() || b[j] == '_') {
                    let mut k = j;
                    while k < b.len() && (b[k].is_alphanumeric() || b[k] == '_') {
                        k += 1;
                    }
                    if b.get(k) != Some(&'\'') {
                        // Lifetime.
                        toks.push(Tok {
                            kind: TokKind::Lifetime,
                            text: b[i..k].iter().collect(),
                            line,
                        });
                        i = k;
                        continue;
                    }
                }
                // Char literal: consume to the closing quote, honoring
                // escapes.
                j = i + 1;
                while j < b.len() {
                    if b[j] == '\\' {
                        j += 2;
                        continue;
                    }
                    if b[j] == '\'' {
                        break;
                    }
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("''"),
                    line,
                });
                i = (j + 1).min(b.len());
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: b[start..i].iter().collect(),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                // Numbers (including float/exponent/suffix forms) — the
                // analyzer never inspects their value.
                while i < b.len()
                    && (b[i].is_alphanumeric()
                        || b[i] == '_'
                        || (b[i] == '.' && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
                {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: String::from("0"),
                    line,
                });
            }
            _ => {
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

/// Consumes a `"..."` string starting at `i` (the opening quote); returns
/// the index just past the closing quote, tracking newlines.
fn lex_string(b: &[char], i: usize, line: &mut u32) -> usize {
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// If `i` starts a raw (byte) string (`r"`, `r#"`, `br#"`, ...), returns
/// the index of the `r`'s hash run start (i.e. past the prefix letters).
fn raw_string_start(b: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut k = j;
    while b.get(k) == Some(&'#') {
        k += 1;
    }
    if b.get(k) == Some(&'"') {
        Some(j)
    } else {
        None
    }
}

/// Consumes a raw string whose hash run starts at `j`; returns the index
/// past the closing delimiter.
fn lex_raw_string(b: &[char], j: usize, line: &mut u32) -> usize {
    let mut hashes = 0;
    let mut k = j;
    while b.get(k) == Some(&'#') {
        hashes += 1;
        k += 1;
    }
    // b[k] == '"'
    k += 1;
    while k < b.len() {
        if b[k] == '\n' {
            *line += 1;
            k += 1;
            continue;
        }
        if b[k] == '"' {
            let mut h = 0;
            while b.get(k + 1 + h) == Some(&'#') && h < hashes {
                h += 1;
            }
            if h == hashes {
                return k + 1 + hashes;
            }
        }
        k += 1;
    }
    k
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AllowKind {
    Relaxed,
    Panic,
    Blocking,
    LockOrder,
}

impl AllowKind {
    fn parse(s: &str) -> Option<AllowKind> {
        match s.replace('-', "_").as_str() {
            "relaxed" => Some(AllowKind::Relaxed),
            "panic" => Some(AllowKind::Panic),
            "blocking_under_lock" => Some(AllowKind::Blocking),
            "lock_order" => Some(AllowKind::LockOrder),
            _ => None,
        }
    }
}

/// Per-file annotation table: `allow(...)` waivers by line, plus the
/// module's lock-order declaration.
#[derive(Default)]
struct Annotations {
    /// line → allow kinds with a non-empty reason on that line.
    allows: HashMap<u32, Vec<AllowKind>>,
    /// Lock class name → rank, from the `lock-order` declaration.
    ranks: HashMap<String, u32>,
    /// Line of the declaration (for duplicate detection).
    decl_line: Option<u32>,
}

impl Annotations {
    /// Parses one line comment; `hc-analyze:` directives land in the
    /// table, malformed ones land in `findings`.
    fn note_comment(&mut self, comment: &str, line: u32, path: &str, findings: &mut Vec<Finding>) {
        let body = comment.trim_start_matches(['/', '!']).trim();
        let Some(rest) = body.strip_prefix("hc-analyze:") else {
            return;
        };
        let rest = rest.trim();
        let bad = |msg: String| Finding {
            file: path.to_string(),
            line,
            rule: Rule::BadAnnotation,
            msg,
        };
        if let Some(decl) = rest.strip_prefix("lock-order") {
            if self.decl_line.is_some() {
                findings.push(bad("duplicate lock-order declaration".into()));
                return;
            }
            match parse_lock_order(decl) {
                Ok(ranks) => {
                    self.ranks = ranks;
                    self.decl_line = Some(line);
                }
                Err(e) => findings.push(bad(format!("unparseable lock-order declaration: {e}"))),
            }
        } else if let Some(a) = rest.strip_prefix("allow(") {
            let Some(close) = a.find(')') else {
                findings.push(bad("allow(...) missing closing parenthesis".into()));
                return;
            };
            let Some(kind) = AllowKind::parse(a[..close].trim()) else {
                findings.push(bad(format!(
                    "unknown allow kind `{}` (expected relaxed, panic, \
                     blocking_under_lock or lock_order)",
                    a[..close].trim()
                )));
                return;
            };
            let reason = a[close + 1..].trim();
            if reason.is_empty() {
                findings.push(bad(
                    "allow annotation without a reason — justify the waiver".into(),
                ));
                return;
            }
            self.allows.entry(line).or_default().push(kind);
        } else {
            findings.push(bad(format!(
                "unknown hc-analyze directive `{}` (expected lock-order or allow(...))",
                rest.split_whitespace().next().unwrap_or("")
            )));
        }
    }

    /// True when a finding of `kind` at `line` is waived by an annotation
    /// on the same line or the line directly above.
    fn allowed(&self, kind: AllowKind, line: u32) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.allows.get(l).is_some_and(|ks| ks.contains(&kind)))
    }
}

/// Parses `a=b < c < d=e` into name → rank. Aliases (`=`) share a rank.
fn parse_lock_order(decl: &str) -> Result<HashMap<String, u32>, String> {
    let mut ranks = HashMap::new();
    let decl = decl.trim();
    if decl.is_empty() {
        return Err("empty declaration".into());
    }
    for (rank, group) in decl.split('<').enumerate() {
        for name in group.split('=') {
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(format!("bad lock class name `{name}`"));
            }
            if ranks.insert(name.to_string(), rank as u32).is_some() {
                return Err(format!("lock class `{name}` declared twice"));
            }
        }
    }
    Ok(ranks)
}

// ---------------------------------------------------------------------------
// Test-code stripping
// ---------------------------------------------------------------------------

/// Removes items behind `#[cfg(test)]` / `#[test]`-style attributes from
/// the token stream: the rules police production code, not assertions.
fn strip_test_items(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is("#") && toks.get(i + 1).is_some_and(|t| t.is("[")) {
            // Collect this attribute run; decide afterwards.
            let mut j = i;
            let mut test_attr = false;
            while j < toks.len() && toks[j].is("#") && toks.get(j + 1).is_some_and(|t| t.is("[")) {
                let close = match matching(&toks, j + 1, "[", "]") {
                    Some(c) => c,
                    None => break,
                };
                let attr = &toks[j + 2..close];
                let has = |name: &str| attr.iter().any(|t| t.is_ident(name));
                // `#[cfg(test)]`, `#[test]`, `#[bench]` strip the item;
                // `#[cfg(not(test))]` is production code and is kept.
                if (has("test") && !has("not")) || has("bench") {
                    test_attr = true;
                }
                j = close + 1;
            }
            if test_attr {
                i = skip_item(&toks, j);
                continue;
            }
            // Keep the attribute tokens: harmless to later passes.
            out.extend(toks[i..j].iter().cloned());
            i = j;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Returns the index of the token closing the group opened at `open`.
fn matching(toks: &[Tok], open: usize, l: &str, r: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is(l) {
            depth += 1;
        } else if t.is(r) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Skips one item starting at `i`: to the `;` ending a declaration, or
/// through the `{...}` body of a fn/mod/impl.
fn skip_item(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    while j < toks.len() {
        if toks[j].is(";") {
            return j + 1;
        }
        if toks[j].is("{") {
            return matching(toks, j, "{", "}").map_or(toks.len(), |c| c + 1);
        }
        if toks[j].is("(") {
            j = matching(toks, j, "(", ")").map_or(toks.len(), |c| c + 1);
            continue;
        }
        if toks[j].is("[") {
            j = matching(toks, j, "[", "]").map_or(toks.len(), |c| c + 1);
            continue;
        }
        j += 1;
    }
    j
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Guard-producing zero-arg methods.
const GUARD_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Calls that block (or perform IO) and therefore must not run while a
/// guard is live. `send` is included for bounded channels: a guard held
/// across a `send` deadlocks against backpressure the moment the channel
/// fills. Zero-arg members are only blocking when called with no
/// arguments — that separates `thread::JoinHandle::join()` and
/// `Receiver::recv()` from `Path::join(..)` and `slice::join(..)`.
const BLOCKING_ZERO_ARG: [&str; 5] = ["recv", "join", "flush", "sync_all", "sync_data"];
const BLOCKING_ANY_ARG: [&str; 4] = ["recv_timeout", "send", "read_chunk", "write_chunk"];

fn is_blocking_method(name: &str, zero_arg: bool) -> bool {
    BLOCKING_ANY_ARG.contains(&name) || (zero_arg && BLOCKING_ZERO_ARG.contains(&name))
}

/// Atomic RMW / access methods and which sides they touch.
fn atomic_sides(name: &str) -> Option<(bool, bool)> {
    // (store_side, load_side)
    match name {
        "load" => Some((false, true)),
        "store" => Some((true, false)),
        "swap"
        | "fetch_add"
        | "fetch_sub"
        | "fetch_max"
        | "fetch_min"
        | "fetch_and"
        | "fetch_or"
        | "fetch_xor"
        | "fetch_update"
        | "compare_exchange"
        | "compare_exchange_weak" => Some((true, true)),
        _ => None,
    }
}

/// One atomic-op occurrence, for the per-crate shared-name analysis.
struct AtomicUse {
    name: String,
    line: u32,
    relaxed: bool,
    store_side: bool,
    load_side: bool,
    allowed: bool,
    file: String,
}

/// A live `let`-bound guard.
struct Guard {
    binding: String,
    class: String,
    line: u32,
}

struct FileScan {
    findings: Vec<Finding>,
    atomics: Vec<AtomicUse>,
}

/// Scans one file: rules 1, 2 and 4 resolve immediately; atomic uses are
/// returned for the cross-file rule-3 resolution.
fn scan_file(sf: &SourceFile) -> FileScan {
    let mut findings = Vec::new();
    let mut anns = Annotations::default();
    let toks = lex(&sf.src, &sf.path, &mut anns, &mut findings);
    let toks = strip_test_items(toks);
    let mut atomics = Vec::new();

    // Scope stack: scopes[d] holds guards declared at brace depth d.
    let mut scopes: Vec<Vec<Guard>> = vec![Vec::new()];
    // Pending `let` binding per depth, consumed by a guard acquisition
    // that terminates the statement, cleared at the statement's `;`.
    let mut pending_let: HashMap<usize, String> = HashMap::new();

    let finding = |line: u32, rule: Rule, msg: String| Finding {
        file: sf.path.clone(),
        line,
        rule,
        msg,
    };

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is("{") {
            scopes.push(Vec::new());
            i += 1;
            continue;
        }
        if t.is("}") {
            if scopes.len() > 1 {
                scopes.pop();
            }
            pending_let.remove(&scopes.len());
            i += 1;
            continue;
        }
        if t.is(";") {
            pending_let.remove(&(scopes.len() - 1));
            i += 1;
            continue;
        }
        if t.is_ident("let") {
            // `let [mut] name = ...` — remember the binding; tuple and
            // struct patterns never bind guards in this codebase.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                j += 1;
            }
            if let (Some(name), Some(eq)) = (toks.get(j), toks.get(j + 1)) {
                if name.kind == TokKind::Ident && eq.is("=") && name.text != "_" {
                    pending_let.insert(scopes.len() - 1, name.text.clone());
                }
            }
            i += 1;
            continue;
        }
        // `drop(name)` ends a guard's life early.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|t| t.is("("))
            && toks.get(i + 3).is_some_and(|t| t.is(")"))
        {
            if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                for scope in scopes.iter_mut() {
                    scope.retain(|g| g.binding != name.text);
                }
            }
            i += 4;
            continue;
        }
        // Method calls: `.name(`.
        if t.is(".")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is("("))
        {
            let method = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            let close = matching(&toks, i + 2, "(", ")").unwrap_or(toks.len() - 1);
            let zero_arg = close == i + 3;

            // Rule 3 bookkeeping: any atomic access op.
            if let Some((store_side, load_side)) = atomic_sides(&method) {
                if let Some(recv) = receiver_ident(&toks, i) {
                    let relaxed = toks[i + 3..close].iter().any(|t| t.is_ident("Relaxed"));
                    atomics.push(AtomicUse {
                        name: recv,
                        line,
                        relaxed,
                        store_side,
                        load_side,
                        allowed: anns.allowed(AllowKind::Relaxed, line),
                        file: sf.path.clone(),
                    });
                }
            }

            // Rule 2: blocking call while any guard is live.
            if is_blocking_method(&method, zero_arg) {
                let live: Vec<&Guard> = scopes.iter().flatten().collect();
                if let Some(g) = live.last() {
                    if !anns.allowed(AllowKind::Blocking, line) {
                        findings.push(finding(
                            line,
                            Rule::BlockingUnderLock,
                            format!(
                                "`.{}()` while `{}` guards `{}` (acquired line {})",
                                method, g.binding, g.class, g.line
                            ),
                        ));
                    }
                }
            }

            // Rule 4: panic-policy methods.
            if sf.panic_policy
                && ((method == "unwrap" && zero_arg) || method == "expect")
                && !anns.allowed(AllowKind::Panic, line)
            {
                findings.push(finding(
                    line,
                    Rule::PanicPolicy,
                    format!(
                        "`.{method}()` on a policed hot path — return a typed error or annotate"
                    ),
                ));
            }

            // Guard acquisition: zero-arg lock()/read()/write().
            if zero_arg && GUARD_METHODS.contains(&method.as_str()) {
                let class = receiver_ident(&toks, i).unwrap_or_else(|| "<expr>".into());
                check_lock_order(&scopes, &class, line, &anns, &mut findings, &sf.path);
                // What follows the acquisition decides the guard's fate.
                let mut j = close + 1;
                loop {
                    if toks.get(j).is_some_and(|t| t.is("?")) {
                        j += 1;
                        continue;
                    }
                    if toks.get(j).is_some_and(|t| t.is("."))
                        && toks.get(j + 1).is_some_and(|t| {
                            t.is_ident("unwrap")
                                || t.is_ident("expect")
                                || t.is_ident("unwrap_or_else")
                        })
                        && toks.get(j + 2).is_some_and(|t| t.is("("))
                    {
                        j = matching(&toks, j + 2, "(", ")").map_or(toks.len(), |c| c + 1);
                        continue;
                    }
                    break;
                }
                let depth = scopes.len() - 1;
                if toks.get(j).is_some_and(|t| t.is(";")) {
                    // Final call of the statement: a live `let` guard.
                    if let Some(binding) = pending_let.remove(&depth) {
                        if let Some(scope) = scopes.last_mut() {
                            scope.push(Guard {
                                binding,
                                class,
                                line,
                            });
                        }
                    }
                } else if toks.get(j).is_some_and(|t| t.is("."))
                    && toks.get(j + 1).is_some_and(|t| t.kind == TokKind::Ident)
                    && toks.get(j + 2).is_some_and(|t| t.is("("))
                {
                    // `rx.lock().recv()`: the temporary guard is held
                    // across the chained blocking call.
                    let chained = &toks[j + 1].text;
                    let chain_zero_arg = matching(&toks, j + 2, "(", ")") == Some(j + 3);
                    if is_blocking_method(chained, chain_zero_arg) {
                        let bline = toks[j + 1].line;
                        if !anns.allowed(AllowKind::Blocking, bline) {
                            findings.push(finding(
                                bline,
                                Rule::BlockingUnderLock,
                                format!(
                                    "`.{}()` chained on a temporary `{}` guard — the lock is held across the call",
                                    chained, class
                                ),
                            ));
                        }
                    }
                }
                i = close + 1;
                continue;
            }
            i += 2; // past `.` and the method ident; args rescanned for nested calls
            continue;
        }
        // `panic!(...)` / bare `sleep(...)` paths like `thread::sleep(..)`.
        if t.kind == TokKind::Ident {
            if sf.panic_policy
                && t.is_ident("panic")
                && toks.get(i + 1).is_some_and(|t| t.is("!"))
                && !anns.allowed(AllowKind::Panic, t.line)
            {
                findings.push(finding(
                    t.line,
                    Rule::PanicPolicy,
                    "`panic!` on a policed hot path — return a typed error or annotate".into(),
                ));
            }
            if t.is_ident("sleep") && toks.get(i + 1).is_some_and(|t| t.is("(")) {
                let live: Vec<&Guard> = scopes.iter().flatten().collect();
                if let Some(g) = live.last() {
                    if !anns.allowed(AllowKind::Blocking, t.line) {
                        findings.push(finding(
                            t.line,
                            Rule::BlockingUnderLock,
                            format!(
                                "`sleep(...)` while `{}` guards `{}` (acquired line {})",
                                g.binding, g.class, g.line
                            ),
                        ));
                    }
                }
            }
        }
        i += 1;
    }

    FileScan { findings, atomics }
}

/// Rule 1: nested acquisition of `class` while guards are live must move
/// strictly down the declared order.
fn check_lock_order(
    scopes: &[Vec<Guard>],
    class: &str,
    line: u32,
    anns: &Annotations,
    findings: &mut Vec<Finding>,
    path: &str,
) {
    let live: Vec<&Guard> = scopes.iter().flatten().collect();
    let Some(outer) = live.last() else {
        return;
    };
    if anns.allowed(AllowKind::LockOrder, line) {
        return;
    }
    let finding = |msg: String| Finding {
        file: path.to_string(),
        line,
        rule: Rule::LockOrder,
        msg,
    };
    if anns.decl_line.is_none() {
        findings.push(finding(format!(
            "nested acquisition of `{}` while `{}` is held, but the module declares no \
             lock order (add `// hc-analyze: lock-order ...`)",
            class, outer.class
        )));
        return;
    }
    let Some(&inner_rank) = anns.ranks.get(class) else {
        findings.push(finding(format!(
            "acquisition of undeclared lock class `{}` while `{}` is held — add it to the \
             module's lock-order declaration",
            class, outer.class
        )));
        return;
    };
    for g in live {
        match anns.ranks.get(&g.class) {
            None => findings.push(finding(format!(
                "guard `{}` (class `{}`, line {}) held across acquisition of `{}` but its \
                 class is not in the lock-order declaration",
                g.binding, g.class, g.line, class
            ))),
            Some(&outer_rank) if inner_rank <= outer_rank => findings.push(finding(format!(
                "lock-order violation: acquiring `{}` (rank {}) while holding `{}` (rank {}, \
                 line {}) — declared order requires strictly increasing ranks",
                class, inner_rank, g.class, outer_rank, g.line
            ))),
            Some(_) => {}
        }
    }
}

/// Receiver class of the call whose `.` is at `dot`: the nearest ident
/// scanning left, skipping index/call groups (`machines[i].lock()` →
/// `machines`, `self.state.lock()` → `state`).
fn receiver_ident(toks: &[Tok], dot: usize) -> Option<String> {
    let mut i = dot;
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        match toks[i].text.as_str() {
            "]" => i = matching_back(toks, i, "[", "]")?,
            ")" => i = matching_back(toks, i, "(", ")")?,
            _ => {
                if toks[i].kind == TokKind::Ident {
                    return Some(toks[i].text.clone());
                }
                return None;
            }
        }
    }
}

/// Index of the token opening the group that closes at `close`.
fn matching_back(toks: &[Tok], close: usize, l: &str, r: &str) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close).rev() {
        if toks[k].is(r) {
            depth += 1;
        } else if toks[k].is(l) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Analyzes a set of classified sources; returns all findings, sorted by
/// file and line.
pub fn analyze_sources(sources: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut per_crate: HashMap<String, Vec<AtomicUse>> = HashMap::new();
    for sf in sources {
        let scan = scan_file(sf);
        findings.extend(scan.findings);
        per_crate
            .entry(sf.crate_key.clone())
            .or_default()
            .extend(scan.atomics);
    }
    // Rule 3: within a crate, names that are both mutated and loaded are
    // cross-thread-visible; every Relaxed access of such a name needs an
    // allow(relaxed) justification.
    for uses in per_crate.values() {
        let stored: HashSet<&str> = uses
            .iter()
            .filter(|u| u.store_side)
            .map(|u| u.name.as_str())
            .collect();
        let loaded: HashSet<&str> = uses
            .iter()
            .filter(|u| u.load_side)
            .map(|u| u.name.as_str())
            .collect();
        for u in uses {
            if u.relaxed
                && !u.allowed
                && stored.contains(u.name.as_str())
                && loaded.contains(u.name.as_str())
            {
                findings.push(Finding {
                    file: u.file.clone(),
                    line: u.line,
                    rule: Rule::AtomicOrdering,
                    msg: format!(
                        "`Ordering::Relaxed` on `{}`, which is both mutated and loaded in this \
                         crate — justify with `// hc-analyze: allow(relaxed) <reason>` or use \
                         Acquire/Release",
                        u.name
                    ),
                });
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Convenience: classify + analyze files on disk.
pub fn analyze_paths(paths: &[PathBuf]) -> std::io::Result<Vec<Finding>> {
    let mut sources = Vec::new();
    for p in paths {
        let src = std::fs::read_to_string(p)?;
        sources.push(SourceFile::classify(p, src));
    }
    Ok(analyze_sources(&sources))
}

/// Directory names never descended into: build output, VCS, vendored lock
/// shims (they *implement* the primitives the rules police the users of),
/// and every test/bench/fixture tree.
const SKIP_DIRS: [&str; 8] = [
    "target",
    ".git",
    "shims",
    "fixtures",
    "tests",
    "benches",
    "examples",
    "node_modules",
];

/// Collects `.rs` files under `roots` (files are taken as-is), skipping
/// [`SKIP_DIRS`]. Deterministic order.
pub fn collect_rs_files(roots: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for root in roots {
        if root.is_file() {
            out.push(root.clone());
            continue;
        }
        walk(root, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
