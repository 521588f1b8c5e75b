//! The repo-specific source lint: hand-rolled, std-only, in the style of
//! the old `tests/doc_links.rs` audit (which rule L06 absorbed).
//!
//! Each rule has a stable `Lxx` identifier documented in
//! `docs/ANALYZE.md`.  The rules encode discipline this repository's
//! architecture depends on but `rustc`/`clippy` cannot see:
//!
//! * **L01 server-unwrap** — no `unwrap()`/`expect()` in or-server
//!   request-handling paths: a panicking handler thread takes its
//!   connection down and (for lock poisoning) can wedge every later
//!   request.
//! * **L02 lock-order** — the registry `RwLock` (`state.dbs`) is never
//!   acquired while holding a per-db write mutex; the server's deadlock
//!   freedom is exactly this ordering.
//! * **L03 decode-boundary** — `Interner::decode` is called only in the
//!   designated result-boundary modules; everywhere else rows stay
//!   `InternId`s (the decode-once economics of `docs/ENGINE.md`).
//! * **L04 id-equality** — engine hot-path modules never key containers by
//!   `Value`: interning exists so row identity is a `u32` compare.
//! * **L05 forbid-unsafe** — every crate root carries
//!   `#![forbid(unsafe_code)]`, and no source introduces an `unsafe`
//!   block/fn/impl/trait anywhere.
//! * **L06 doc-links** — every relative markdown link in `README.md` and
//!   `docs/*.md` resolves to a real file.
//! * **L07 columnar-kernels** — the engine's columnar kernel module works
//!   on pre-resolved column slices only: no `Interner` table probes of any
//!   kind inside the kernel loops.  Operands are resolved to columns once
//!   per block *outside* the kernels; a per-row arena walk inside them
//!   would reintroduce the pointer chasing the columnar layout amortizes
//!   away.
//!
//! The matchers are substring heuristics over source lines (comments and
//! `#[cfg(test)]` regions excluded for the code rules), deliberately
//! simple enough to audit by eye.  Pattern literals are assembled with
//! `concat!` so this file does not flag itself.

use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding: which rule, where, and why it matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (`L01`…).
    pub rule: &'static str,
    /// File the finding is in, relative to the repository root.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

// Pattern literals, split so the lint does not flag its own source.
const UNWRAP: &str = concat!(".unw", "rap()");
const EXPECT: &str = concat!(".exp", "ect(");
const DECODE: &str = concat!(".dec", "ode(");
const DBS_READ: &str = concat!(".dbs.re", "ad(");
const DBS_WRITE: &str = concat!(".dbs.wr", "ite(");
const WRITE_LOCK: &str = concat!(".write.lo", "ck(");
const FORBID_UNSAFE: &str = concat!("#![forbid(un", "safe_code)]");
const UNSAFE_TOKENS: [&str; 4] = [
    concat!("un", "safe {"),
    concat!("un", "safe fn"),
    concat!("un", "safe impl"),
    concat!("un", "safe trait"),
];
const VALUE_KEYED: [&str; 4] = [
    concat!("HashMap<Va", "lue"),
    concat!("HashSet<Va", "lue"),
    concat!("BTreeMap<Va", "lue"),
    concat!("BTreeSet<Va", "lue"),
];

/// Modules allowed to call `Interner::decode` (rule L03): the interner
/// itself, the result boundary of the executor, and the two or-nra modules
/// whose fallback/counting paths are documented decode users.  No engine
/// operator re-enters value space.
const DECODE_ALLOWLIST: [&str; 4] = [
    "crates/or-object/src/intern.rs",
    "crates/or-engine/src/exec.rs",
    "crates/or-nra/src/rowprog.rs",
    "crates/or-nra/src/lazy.rs",
];

/// Engine hot-path modules where container keys must be `InternId`s, not
/// `Value`s (rule L04).
const ID_EQUALITY_SCOPE: [&str; 3] = [
    "crates/or-engine/src/ops.rs",
    "crates/or-engine/src/morsel.rs",
    "crates/or-engine/src/exec.rs",
];

/// Columnar kernel modules (rule L07): tight loops over pre-resolved
/// slices, with every arena access banned.
const COLUMNAR_KERNEL_SCOPE: [&str; 1] = ["crates/or-engine/src/kernels.rs"];

/// Arena-access tokens banned inside columnar kernels (rule L07): naming
/// the `Interner` type at all, plus every method that walks or grows the
/// node table.
const KERNEL_ARENA_TOKENS: [&str; 7] = [
    concat!("Inter", "ner"),
    concat!(".int", "ern("),
    concat!(".no", "de("),
    concat!(".dec", "ode("),
    concat!(".val", "ue("),
    concat!(".gather_", "path("),
    concat!(".resolve_", "ints("),
];

/// Crate roots that must carry the `forbid` attribute (rule L05).
const CRATE_ROOT_GLOBS: [&str; 3] = [
    "src/lib.rs",
    "crates/*/src/lib.rs",
    "crates/shims/*/src/lib.rs",
];

/// Run every lint rule over the repository at `root`.  Findings come back
/// in rule order; an empty vector means the repository is clean.
pub fn lint_repo(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sources = rust_sources(root);

    lint_server_rules(root, &sources, &mut findings);
    lint_decode_boundary(root, &sources, &mut findings);
    lint_id_equality(root, &sources, &mut findings);
    lint_forbid_unsafe(root, &sources, &mut findings);
    lint_doc_links(root, &mut findings);
    lint_columnar_kernels(root, &sources, &mut findings);

    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    findings
}

/// Every tracked `.rs` file under `src/`, `crates/`, `tests/`, `examples/`
/// and `benches/`, as repo-relative paths (build output excluded).
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["src", "crates", "tests", "examples", "benches"] {
        collect_rs(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// The lines of a source file up to its `#[cfg(test)]` module, paired with
/// 1-based line numbers and with comment lines dropped — the scope the
/// code rules (L01–L04) look at.  (Test modules sit at the end of files in
/// this repository, so "everything before the marker" is the non-test
/// code.)
fn code_lines(source: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    for (idx, line) in source.lines().enumerate() {
        if line.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        out.push((idx + 1, line));
    }
    out
}

fn path_str(p: &Path) -> String {
    // repo-relative paths with forward slashes, for matching and display
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Does `line` contain `pattern` at a position not immediately preceded by
/// `self`?  (The or-server JSON parser has a *method* named like the
/// panicking combinator; `self.`-qualified calls to it are fine.)
fn contains_unqualified(line: &str, pattern: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(pattern) {
        let abs = from + pos;
        if !line[..abs].ends_with("self") {
            return true;
        }
        from = abs + pattern.len();
    }
    false
}

/// L01 + L02: the or-server request-handling rules.
fn lint_server_rules(root: &Path, sources: &[PathBuf], findings: &mut Vec<Finding>) {
    for rel in sources {
        let rel_str = path_str(rel);
        if !rel_str.starts_with("crates/or-server/src/") || rel_str.contains("/bin/") {
            continue;
        }
        let Ok(source) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        // L02 state: does the current function hold a per-db write mutex?
        let mut holds_write_mutex = false;
        for (line_no, line) in code_lines(&source) {
            // L01: no panicking combinators in request-handling paths.
            if line.contains(UNWRAP) {
                findings.push(Finding {
                    rule: "L01",
                    file: rel.clone(),
                    line: line_no,
                    message: format!(
                        "panicking `{UNWRAP}` in an or-server request-handling path; \
                         return an error response instead"
                    ),
                });
            }
            if contains_unqualified(line, EXPECT) {
                findings.push(Finding {
                    rule: "L01",
                    file: rel.clone(),
                    line: line_no,
                    message: format!(
                        "panicking `{EXPECT}..)` in an or-server request-handling path; \
                         handle the failure (for locks: recover the poisoned guard)"
                    ),
                });
            }
            // L02: registry lock after per-db write mutex = deadlock order.
            if line.contains("fn ") && line.contains('(') {
                holds_write_mutex = false;
            }
            if line.contains(WRITE_LOCK) {
                holds_write_mutex = true;
            }
            if holds_write_mutex && (line.contains(DBS_READ) || line.contains(DBS_WRITE)) {
                findings.push(Finding {
                    rule: "L02",
                    file: rel.clone(),
                    line: line_no,
                    message: "registry lock (`state.dbs`) acquired while holding a per-db \
                              write mutex — the server's lock order is registry first, \
                              then per-db"
                        .to_string(),
                });
            }
        }
    }
}

/// L03: `Interner::decode` only at the designated result boundaries.
fn lint_decode_boundary(root: &Path, sources: &[PathBuf], findings: &mut Vec<Finding>) {
    for rel in sources {
        let rel_str = path_str(rel);
        if !rel_str.starts_with("crates/") && !rel_str.starts_with("src/") {
            continue;
        }
        if DECODE_ALLOWLIST.contains(&rel_str.as_str()) {
            continue;
        }
        let Ok(source) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        for (line_no, line) in code_lines(&source) {
            if line.contains(DECODE) {
                findings.push(Finding {
                    rule: "L03",
                    file: rel.clone(),
                    line: line_no,
                    message: format!(
                        "`{DECODE}..)` outside the result-boundary allowlist; rows must \
                         stay interned until the documented decode points"
                    ),
                });
            }
        }
    }
}

/// L04: no `Value`-keyed containers in engine hot paths.
fn lint_id_equality(root: &Path, sources: &[PathBuf], findings: &mut Vec<Finding>) {
    for rel in sources {
        let rel_str = path_str(rel);
        if !ID_EQUALITY_SCOPE.contains(&rel_str.as_str()) {
            continue;
        }
        let Ok(source) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        for (line_no, line) in code_lines(&source) {
            for pattern in VALUE_KEYED {
                if line.contains(pattern) {
                    findings.push(Finding {
                        rule: "L04",
                        file: rel.clone(),
                        line: line_no,
                        message: format!(
                            "`{pattern}…` in an engine hot path; key by `InternId` — \
                             interned identity is a u32 compare"
                        ),
                    });
                }
            }
        }
    }
}

/// L05: `#![forbid(unsafe_code)]` at every crate root; no unsafe anywhere.
fn lint_forbid_unsafe(root: &Path, sources: &[PathBuf], findings: &mut Vec<Finding>) {
    // crate roots must opt in to the forbid
    for glob in CRATE_ROOT_GLOBS {
        for lib in expand_one_star(root, glob) {
            let Ok(source) = fs::read_to_string(root.join(&lib)) else {
                continue;
            };
            if !source.contains(FORBID_UNSAFE) {
                findings.push(Finding {
                    rule: "L05",
                    file: lib,
                    line: 1,
                    message: format!("crate root is missing `{FORBID_UNSAFE}`"),
                });
            }
        }
    }
    // and no source may introduce unsafe code at all
    for rel in sources {
        let Ok(source) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        for (idx, line) in source.lines().enumerate() {
            if UNSAFE_TOKENS.iter().any(|t| line.contains(t)) {
                findings.push(Finding {
                    rule: "L05",
                    file: rel.clone(),
                    line: idx + 1,
                    message: "unsafe code is forbidden workspace-wide".to_string(),
                });
            }
        }
    }
}

/// L07: columnar kernels take pre-resolved slices; the arena stays out.
/// Resolution (`gather_path`/`resolve_ints`) happens once per block in the
/// operator layer — a per-row `Interner` probe inside a kernel loop defeats
/// the SoA layout's point.
fn lint_columnar_kernels(root: &Path, sources: &[PathBuf], findings: &mut Vec<Finding>) {
    for rel in sources {
        let rel_str = path_str(rel);
        if !COLUMNAR_KERNEL_SCOPE.contains(&rel_str.as_str()) {
            continue;
        }
        let Ok(source) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        for (line_no, line) in code_lines(&source) {
            for pattern in KERNEL_ARENA_TOKENS {
                if line.contains(pattern) {
                    findings.push(Finding {
                        rule: "L07",
                        file: rel.clone(),
                        line: line_no,
                        message: format!(
                            "`{pattern}…` inside a columnar kernel module; kernels work \
                             on pre-resolved column slices — resolve operands once per \
                             block in the operator layer instead"
                        ),
                    });
                }
            }
        }
    }
}

/// Expand a path pattern with at most one `*` component (e.g.
/// `crates/*/src/lib.rs`) against the filesystem.
fn expand_one_star(root: &Path, pattern: &str) -> Vec<PathBuf> {
    match pattern.split_once('*') {
        None => {
            let p = PathBuf::from(pattern);
            if root.join(&p).is_file() {
                vec![p]
            } else {
                Vec::new()
            }
        }
        Some((prefix, suffix)) => {
            let dir = root.join(prefix.trim_end_matches('/'));
            let suffix = suffix.trim_start_matches('/');
            let mut out = Vec::new();
            if let Ok(entries) = fs::read_dir(&dir) {
                for entry in entries.flatten() {
                    let candidate = entry.path().join(suffix);
                    if candidate.is_file() {
                        if let Ok(rel) = candidate.strip_prefix(root) {
                            out.push(rel.to_path_buf());
                        }
                    }
                }
            }
            out.sort();
            out
        }
    }
}

// ---------------------------------------------------------------------------
// L06: the markdown link audit (absorbed from tests/doc_links.rs)
// ---------------------------------------------------------------------------

/// Extract `(link target, byte offset)` pairs for every inline markdown
/// link `[text](target)` in `source`.  Reference-style links are not used
/// in this repository; images (`![..](..)`) share the inline syntax and
/// are audited the same way.
pub fn markdown_link_targets(source: &str) -> Vec<(String, usize)> {
    let bytes = source.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(rel_end) = source[start..].find(')') {
                let target = &source[start..start + rel_end];
                out.push((target.to_string(), i));
                i = start + rel_end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Is this link target in scope for the audit (a relative path into the
/// repository)?
pub fn is_relative_file_link(target: &str) -> bool {
    !(target.is_empty()
        || target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#'))
}

fn audit_markdown_file(root: &Path, doc: &Path, findings: &mut Vec<Finding>) {
    let Ok(source) = fs::read_to_string(doc) else {
        return;
    };
    let doc_dir = doc.parent().unwrap_or(root);
    let rel = doc.strip_prefix(root).unwrap_or(doc).to_path_buf();
    for (target, offset) in markdown_link_targets(&source) {
        if !is_relative_file_link(&target) {
            continue;
        }
        // strip an in-file anchor: FILE.md#section points at FILE.md
        let Some(path_part) = target.split('#').next() else {
            continue;
        };
        if path_part.is_empty() {
            continue;
        }
        if !doc_dir.join(path_part).exists() {
            let line = source[..offset].bytes().filter(|&b| b == b'\n').count() + 1;
            findings.push(Finding {
                rule: "L06",
                file: rel.clone(),
                line,
                message: format!("broken relative link `{target}`"),
            });
        }
    }
}

/// L06 on its own (also what the root `doc_links` test delegates to):
/// audit `README.md` and every `docs/*.md`.
pub fn lint_doc_links(root: &Path, findings: &mut Vec<Finding>) {
    let mut docs = vec![root.join("README.md")];
    if let Ok(entries) = fs::read_dir(root.join("docs")) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "md") {
                docs.push(path);
            }
        }
    }
    docs.sort();
    for doc in &docs {
        audit_markdown_file(root, doc, findings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_extractor_sees_inline_links() {
        let targets = markdown_link_targets("see [a](x.md) and ![img](y.png) but not http://z");
        let names: Vec<&str> = targets.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(names, vec!["x.md", "y.png"]);
        assert!(is_relative_file_link("docs/ENGINE.md"));
        assert!(!is_relative_file_link("https://example.com"));
        assert!(!is_relative_file_link("#anchor"));
    }

    #[test]
    fn unqualified_match_skips_self_methods() {
        let call = format!("    body{EXPECT}b'x')?;");
        assert!(contains_unqualified(&call, EXPECT));
        let method = format!("    self{EXPECT}b'x')?;");
        assert!(!contains_unqualified(&method, EXPECT));
        let both = format!("    self{EXPECT}x)?; guard{EXPECT}\"oops\");");
        assert!(contains_unqualified(&both, EXPECT));
    }

    #[test]
    fn code_lines_stop_at_test_modules_and_skip_comments() {
        let src = "fn a() {}\n// comment .unw\n#[cfg(test)]\nmod tests { }\n";
        let lines = code_lines(src);
        assert_eq!(lines, vec![(1, "fn a() {}")]);
    }

    #[test]
    fn planted_violations_are_caught() {
        // Build a fake repo in a temp dir and plant one violation per rule.
        let dir = std::env::temp_dir().join(format!("or-analyze-lint-{}", std::process::id()));
        let server = dir.join("crates/or-server/src");
        let engine = dir.join("crates/or-engine/src");
        fs::create_dir_all(&server).unwrap();
        fs::create_dir_all(&engine).unwrap();
        fs::create_dir_all(dir.join("docs")).unwrap();

        fs::write(
            server.join("server.rs"),
            format!(
                "fn handle() {{\n    let g = lock{EXPECT}\"poisoned\");\n    \
                 let _ = state{WRITE_LOCK});\n    let _ = state{DBS_READ});\n}}\n"
            ),
        )
        .unwrap();
        // ops.rs is in L04's hot-path scope, so plant the L04 violation
        // there, and the L03 violation in query.rs, outside the decode
        // allowlist.
        fs::write(
            engine.join("ops.rs"),
            format!(
                "fn hot() {{\n    let m: {}, u32> = Default::default();\n}}\n",
                VALUE_KEYED[0]
            ),
        )
        .unwrap();
        fs::write(
            engine.join("query.rs"),
            format!("fn out(arena: &I) {{\n    let v = arena{DECODE}id);\n}}\n"),
        )
        .unwrap();
        // a per-row arena probe inside the columnar kernel module
        fs::write(
            engine.join("kernels.rs"),
            format!(
                "fn kernel(arena: &I, ids: &[u32]) {{\n    \
                 for &id in ids {{ let _ = arena{}id); }}\n}}\n",
                KERNEL_ARENA_TOKENS[2]
            ),
        )
        .unwrap();
        fs::write(dir.join("README.md"), "[missing](docs/NOPE.md)\n").unwrap();

        let findings = lint_repo(&dir);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        for expected in ["L01", "L02", "L03", "L04", "L06", "L07"] {
            assert!(
                rules.contains(&expected),
                "expected {expected} in {findings:?}"
            );
        }

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_repository_itself_is_clean() {
        // The workspace root is two levels above this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let findings = lint_repo(&root);
        assert!(
            findings.is_empty(),
            "lint findings on the repository:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
