//! `fault_campaign --replay` end to end: the built binary reproduces a
//! well-formed replay line and refuses a bad one with exit 1 and a
//! message, never a panic.

use dvp_bench::exp_t5_conservation::configs;
use dvp_nemesis::Replay;
use std::process::{Command, Output};

fn fault_campaign(fields: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fault_campaign"))
        .arg("--replay")
        .args(fields.split_whitespace())
        .env(
            "DVP_TRACE",
            format!(
                "{}/fault_campaign_replay.jsonl",
                env!("CARGO_TARGET_TMPDIR")
            ),
        )
        .output()
        .expect("fault_campaign runs")
}

/// A fixed row's line and a `sampled` one, whose line carries no
/// configuration: the binary draws the run again from the seed.
#[test]
fn a_valid_replay_line_reproduces_its_campaign() {
    let configs = configs();
    let sampled = configs.last().expect("`sampled` is the last config");
    assert_eq!(sampled.name, "sampled");
    for (pc, seed, keep) in [(&configs[0], 3, vec![0, 1]), (sampled, 7290, vec![0, 2, 3])] {
        let line = Replay::new(seed, pc.name, &pc.schedule(seed), keep).to_string();
        let out = fault_campaign(line.split_once("--replay").unwrap().1);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{stdout}");
        let events = line.split_once("keep=").unwrap().1.split(',').count();
        assert!(
            stdout.starts_with(&format!("replaying {events} events:")),
            "{stdout}"
        );
        let phases = format!("{} replay per-phase latency", pc.name);
        assert!(stdout.contains(&phases), "{stdout}");
        assert!(stdout.contains("campaign passed"), "{stdout}");
    }
}

#[test]
fn a_bad_replay_line_exits_1_with_a_message() {
    for (fields, says) in [
        (
            "seed=3 config=conc1-baseline keep=99",
            "past the generated schedule",
        ),
        (
            "seed=3 config=conc1-baseline keep=0,1 digest=zz",
            "digest=zz",
        ),
        (
            "seed=3 config=conc1-baseline keep=0,1 digest=0",
            "digest mismatch",
        ),
        ("seed=3 config=nope keep=0", "unknown config"),
    ] {
        let out = fault_campaign(fields);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{fields}: {stderr}");
        assert!(stderr.contains(says), "{fields}: {stderr}");
        assert!(!stderr.contains("panicked"), "{fields}: {stderr}");
    }
}
