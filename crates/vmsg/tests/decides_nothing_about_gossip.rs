//! The wire carries, the planner decides: outside `codec.rs` (which owns
//! the piggybacked section's byte format) no non-test line of this crate
//! may name a gossip-gating constant or a placement quantity. The mirror
//! of `dvp-core`'s `placement_names_nothing_safety_bearing`.

use std::path::Path;

fn scan(dir: &Path, files: &mut usize) {
    for entry in std::fs::read_dir(dir).expect("crate sources") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            scan(&path, files);
            continue;
        }
        let name = path.file_name().expect("file name");
        if name == "codec.rs" || name == "tests.rs" {
            continue;
        }
        *files += 1;
        let source = std::fs::read_to_string(&path).expect("source file");
        let code = source.split("#[cfg(test)]").next().unwrap();
        for line in code.lines() {
            for banned in "HINT_RESEND HINT_MIN_DELTA HINT_WINDOW surplus demand".split(' ') {
                assert!(
                    !line.contains(banned),
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
