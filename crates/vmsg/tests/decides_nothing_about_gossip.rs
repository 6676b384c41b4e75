//! The wire carries frames and nothing else: no non-test line of this
//! crate may mention a hint, a surplus or a demand. The only exception
//! is the two [`VmStats`] fields that always read 0 and stay because
//! `benchmark/` reads them. The mirror of `dvp-core`'s
//! `placement_names_nothing_safety_bearing`.
//!
//! [`VmStats`]: dvp_vmsg::VmStats

use std::path::Path;

/// The frozen `VmStats` fields, as their declaring lines read.
const FROZEN: [&str; 2] = ["pub hints_sent: u64,", "pub hint_bytes_sent: u64,"];

fn scan(dir: &Path, files: &mut usize) {
    for entry in std::fs::read_dir(dir).expect("crate sources") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, files);
            continue;
        }
        if path.file_name().expect("file name") == "tests.rs" {
            continue;
        }
        *files += 1;
        let source = std::fs::read_to_string(&path).expect("source file");
        let code = source.split("#[cfg(test)]").next().unwrap();
        for line in code.lines() {
            if FROZEN.contains(&line.trim()) {
                continue;
            }
            let lower = line.to_lowercase();
            for banned in ["hint", "surplus", "demand"] {
                assert!(
                    !lower.contains(banned),
                    "`{banned}` named in {}: {line}",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn vmsg_names_no_gossip_policy() {
    let mut files = 0;
    scan(
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/src")),
        &mut files,
    );
    assert!(files >= 9, "the endpoint directory must be scanned too");
}
