//! EXPERIMENTS.md is the golden for every experiment table: each table
//! `exp` prints must appear in the document line for line,
//! and every table-shaped block in the document must be one `exp` prints,
//! so a deleted experiment's block cannot linger.
//!
//! When this fails after an intended change, paste the printed block over
//! the stale one (or regenerate them all: `cargo run --release -p
//! dvp-bench --bin exp`), then re-read the verdict under it.

use dvp::bench::EXPERIMENTS;

/// Does `doc` carry `block` verbatim — the same lines, contiguous, as
/// whole lines, with no further table row directly after them?
fn quotes(doc: &str, block: &str) -> bool {
    let doc: Vec<&str> = doc.lines().collect();
    let block: Vec<&str> = block.lines().collect();
    doc.windows(block.len()).enumerate().any(|(at, w)| {
        w == block
            && !doc
                .get(at + block.len())
                .is_some_and(|next| next.starts_with('|'))
    })
}

/// The first line of every fenced block in `doc` that opens with a `## `
/// title line, as `exp`'s tables do.
fn block_titles(doc: &str) -> Vec<&str> {
    let mut titles = Vec::new();
    let mut lines = doc.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("```") {
            let mut body = lines.by_ref().take_while(|l| !l.starts_with("```"));
            titles.extend(body.next().filter(|l| l.starts_with("## ")));
            body.for_each(drop);
        }
    }
    titles
}

#[test]
fn every_deterministic_table_is_quoted_verbatim() {
    let doc = include_str!("../EXPERIMENTS.md");
    let mut stale = Vec::new();
    let mut printed = Vec::new();
    for (id, tables) in EXPERIMENTS {
        for block in tables().iter().map(|t| t.render()) {
            if !quotes(doc, &block) {
                eprintln!("EXPERIMENTS.md does not quote this `exp {id}` block:\n{block}");
                stale.push(id);
            }
            printed.push(block.lines().next().unwrap_or_default().to_owned());
        }
    }
    assert!(stale.is_empty(), "stale in EXPERIMENTS.md: {stale:?}");
    let orphans: Vec<&str> = block_titles(doc)
        .into_iter()
        .filter(|title| !printed.iter().any(|p| p == title))
        .collect();
    assert!(
        orphans.is_empty(),
        "EXPERIMENTS.md quotes blocks no `exp` table prints: {orphans:?}"
    );
}

#[test]
fn the_matcher_is_exact() {
    let block = "## T: demo\n| n  | msgs |\n|----|------|\n| 2  | 4    |\n| 16 | 60   |\n";
    let doc = format!("# Doc\n\n```\n{block}```\n\nprose\n");
    assert!(quotes(&doc, block));
    // One digit off.
    assert!(!quotes(&doc.replace("| 60 ", "| 61 "), block));
    // Same cells, different column padding.
    assert!(!quotes(&doc.replace("| 2  | 4    |", "| 2 | 4 |"), block));
    // A row the code no longer prints, left behind under the block.
    assert!(!quotes(
        &doc.replace("```\n\nprose", "| 32 | 124  |\n```\n\nprose"),
        block
    ));
    // A heading that merely ends with the title is not the title line.
    assert!(!quotes(&doc.replace("## T: demo", "### T: demo"), block));
    // Only a fenced block's first line is a title: not prose headings,
    // not command blocks, not a title line further down a block.
    let doc = format!("## Prose\n\n```\ncargo run\n## X: no\n```\n{doc}```\n## U: gone\n```\n");
    assert_eq!(block_titles(&doc), ["## T: demo", "## U: gone"]);
}
