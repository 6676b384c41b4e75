//! Every backticked Rust-like name in DESIGN.md and README.md must name
//! something in the source: each `::`-separated segment of it has to
//! occur as a whole word in some `.rs` file under `crates`, `src`,
//! `tests`, `examples` or `benchmark/src`. A deleted type, field, test
//! or bin therefore cannot linger in the prose that describes the
//! system. A name is Rust-like when it is one identifier or a `::` path
//! of them, optionally followed by `()`; spans with spaces, dots, dashes
//! or slashes (commands, files, flags, expressions) are not checked, and
//! neither are fenced code blocks.

use std::collections::HashSet;
use std::path::Path;

const DOCS: [(&str, &str); 2] = [
    ("DESIGN.md", include_str!("../DESIGN.md")),
    ("README.md", include_str!("../README.md")),
];

const SOURCE_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "benchmark/src"];

/// Names that name no source identifier on purpose, and why.
const ALLOWED: [(&str, &str); 3] = [
    (
        "criterion",
        "a crate the dependency policy says the workspace does not use",
    ),
    (
        "serde",
        "a crate the dependency policy says the workspace does not use",
    ),
    (
        "parking_lot",
        "a shim crate under `shims/`, named by a manifest, not by Rust code",
    ),
];

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The `::` segments of `span` if it is a Rust-like name.
fn segments(span: &str) -> Option<Vec<&str>> {
    let path = span.strip_suffix("()").unwrap_or(span);
    let segs: Vec<&str> = path.split("::").collect();
    segs.iter().all(|s| is_ident(s)).then_some(segs)
}

/// The inline code spans of `doc`, fenced blocks skipped.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// Every identifier-shaped word in the source tree's `.rs` files, this
/// file excepted (its allow-list would otherwise vouch for itself).
fn source_words() -> HashSet<String> {
    fn walk(dir: &Path, words: &mut HashSet<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, words);
            } else if path.extension().is_some_and(|e| e == "rs")
                && !path.ends_with("tests/doc_names.rs")
            {
                let text = std::fs::read_to_string(&path).unwrap();
                words.extend(
                    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                        .filter(|w| is_ident(w))
                        .map(str::to_owned),
                );
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut words = HashSet::new();
    for dir in SOURCE_DIRS {
        walk(&root.join(dir), &mut words);
    }
    words
}

#[test]
fn every_backticked_name_occurs_in_the_source() {
    let words = source_words();
    let mut dead = Vec::new();
    let mut allowed_seen = HashSet::new();
    for (file, doc) in DOCS {
        for span in code_spans(doc) {
            let Some(segs) = segments(&span) else {
                continue;
            };
            if let Some(&(name, _)) = ALLOWED.iter().find(|&&(name, _)| name == span) {
                allowed_seen.insert(name);
                continue;
            }
            if let Some(missing) = segs.iter().find(|s| !words.contains(**s)) {
                dead.push(format!("{file}: `{span}` (`{missing}` occurs nowhere)"));
            }
        }
    }
    assert!(
        dead.is_empty(),
        "names that name nothing:\n{}",
        dead.join("\n")
    );
    for (name, why) in ALLOWED {
        assert!(
            allowed_seen.contains(name),
            "allow-listed `{name}` ({why}) is no longer in the docs: drop it"
        );
        assert!(
            !words.contains(name),
            "allow-listed `{name}` ({why}) now occurs in the source: drop it"
        );
    }
}

#[test]
fn the_extractor_finds_names_and_skips_the_rest() {
    let doc = "A `Foo::bar()` and `baz`, not `a b` or `x.rs`.\n```\n`Fenced`\n```\n`Last::{a, b}`";
    let spans = code_spans(doc);
    assert_eq!(spans, ["Foo::bar()", "baz", "a b", "x.rs", "Last::{a, b}"]);
    let names: Vec<Vec<&str>> = spans.iter().filter_map(|s| segments(s)).collect();
    assert_eq!(names, [vec!["Foo", "bar"], vec!["baz"]]);
}
