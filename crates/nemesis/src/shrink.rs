//! Delta-debugging schedule minimization and the replay format.
//!
//! When a campaign fails, rerunning with ever-smaller subsequences of the
//! fault schedule (classic `ddmin`, plus a final one-event-removal pass)
//! yields a **1-minimal** repro: removing any single remaining event makes
//! the failure disappear. Because [`FaultSchedule`]s are removal-closed
//! (see [`crate::schedule`]), every candidate subsequence is a valid
//! schedule and the predicate is total.
//!
//! The shrinker is deterministic — same failing schedule and predicate ⇒
//! same minimal schedule — so a [`Replay`] line (seed + kept event
//! indices + digest) reproduces the exact minimized run anywhere.

use crate::schedule::FaultSchedule;
use std::fmt;

/// Minimize the index set `0..len` under `fails` (which must be `true`
/// for the full set). Returns ascending indices of a 1-minimal failing
/// subsequence.
pub fn ddmin<F>(len: usize, fails: F) -> Vec<usize>
where
    F: Fn(&[usize]) -> bool,
{
    let mut current: Vec<usize> = (0..len).collect();
    if current.is_empty() {
        return current;
    }
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        // Try each complement (drop one chunk at a time).
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let candidate: Vec<usize> = current[..start]
                .iter()
                .chain(current[end..].iter())
                .copied()
                .collect();
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    // Final pass: enforce 1-minimality (drop single events to fixpoint).
    loop {
        let mut reduced = false;
        for drop in 0..current.len() {
            let candidate: Vec<usize> = current
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, &v)| v)
                .collect();
            if !candidate.is_empty() && fails(&candidate) {
                current = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            break;
        }
    }
    current
}

/// A one-line reproduction handle for a (possibly shrunk) failing
/// campaign: the generator seed, the kept event indices of the generated
/// schedule, and the shrunk schedule's digest as a checksum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Replay {
    /// Campaign/generator seed.
    pub seed: u64,
    /// Protocol configuration name (as the campaign binary labels them).
    pub config: String,
    /// Kept event indices into the *generated* schedule, strictly
    /// ascending.
    pub keep: Vec<usize>,
    /// Digest of the kept (shrunk) schedule; a hand-written line may omit
    /// it.
    pub digest: Option<u32>,
}

impl Replay {
    /// Build a replay handle for `schedule.subset(&keep)`.
    pub fn new(seed: u64, config: &str, schedule: &FaultSchedule, keep: Vec<usize>) -> Self {
        let digest = Some(schedule.subset(&keep).digest());
        Replay {
            seed,
            config: config.to_string(),
            keep,
            digest,
        }
    }

    /// Parse a replay line as [`Display`](fmt::Display) prints it; the
    /// leading `fault_campaign --replay` is optional. `seed`, `config` and
    /// `keep` are required, `digest` is not; an unknown or malformed
    /// field, or a `keep` list that is not strictly ascending, is an
    /// error.
    pub fn parse(line: &str) -> Result<Replay, String> {
        let line = line.trim_start();
        let line = line.strip_prefix("fault_campaign").unwrap_or(line);
        let line = line.trim_start();
        let fields = line.strip_prefix("--replay").unwrap_or(line);
        let (mut seed, mut config, mut keep, mut digest) = (None, None, None, None);
        for field in fields.split_whitespace() {
            let bad = || format!("malformed replay field {field:?}");
            match field.split_once('=').ok_or_else(bad)? {
                ("seed", v) => seed = Some(v.parse().map_err(|_| bad())?),
                ("config", v) if !v.is_empty() => config = Some(v.to_string()),
                ("keep", "") => keep = Some(Vec::new()),
                ("keep", v) => {
                    let k: Vec<usize> = v
                        .split(',')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?;
                    if k.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(format!("keep is not strictly ascending: {v}"));
                    }
                    keep = Some(k);
                }
                ("digest", v) => digest = Some(u32::from_str_radix(v, 16).map_err(|_| bad())?),
                _ => return Err(bad()),
            }
        }
        let missing = |name: &str| format!("replay line has no {name}=");
        Ok(Replay {
            seed: seed.ok_or_else(|| missing("seed"))?,
            config: config.ok_or_else(|| missing("config"))?,
            keep: keep.ok_or_else(|| missing("keep"))?,
            digest,
        })
    }

    /// The kept events of `generated`, the schedule [`Replay::seed`]
    /// generates. A `keep` index past its end, or a digest that does not
    /// match the kept events, is an error.
    pub fn schedule(&self, generated: &FaultSchedule) -> Result<FaultSchedule, String> {
        let len = generated.events.len();
        if let Some(i) = self.keep.iter().find(|&&i| i >= len) {
            return Err(format!(
                "keep index {i} is past the generated schedule ({len} events)"
            ));
        }
        let kept = generated.subset(&self.keep);
        match self.digest {
            Some(d) if d != kept.digest() => Err(format!(
                "digest mismatch: expected {d:08x}, kept events digest to {:08x}",
                kept.digest()
            )),
            _ => Ok(kept),
        }
    }
}

impl fmt::Display for Replay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keep: Vec<String> = self.keep.iter().map(|i| i.to_string()).collect();
        write!(
            f,
            "fault_campaign --replay seed={} config={} keep={}",
            self.seed,
            self.config,
            keep.join(",")
        )?;
        match self.digest {
            Some(d) => write!(f, " digest={d:08x}"),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FaultEvent;

    #[test]
    fn ddmin_finds_a_single_culprit() {
        // Failure iff index 7 is present.
        let kept = ddmin(20, |c| c.contains(&7));
        assert_eq!(kept, vec![7]);
    }

    #[test]
    fn ddmin_finds_a_conjunction() {
        // Failure needs BOTH 3 and 11.
        let kept = ddmin(16, |c| c.contains(&3) && c.contains(&11));
        assert_eq!(kept, vec![3, 11]);
    }

    #[test]
    fn ddmin_is_one_minimal_and_deterministic() {
        // Failure: at least 3 even indices present.
        let fails = |c: &[usize]| c.iter().filter(|&&i| i % 2 == 0).count() >= 3;
        let a = ddmin(12, fails);
        let b = ddmin(12, fails);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        for drop in 0..a.len() {
            let cand: Vec<usize> = a
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, &v)| v)
                .collect();
            assert!(!fails(&cand), "not 1-minimal: {a:?} minus {drop}");
        }
    }

    fn three_events() -> FaultSchedule {
        FaultSchedule::new(vec![
            FaultEvent::Crash { at_ms: 5, site: 0 },
            FaultEvent::Heal { at_ms: 9 },
            FaultEvent::Recover { at_ms: 20, site: 0 },
        ])
    }

    #[test]
    fn replay_line_roundtrips() {
        let r = Replay::new(3, "conc1-baseline", &three_events(), vec![0, 2]);
        let line = r.to_string();
        assert!(line.contains("seed=3 config=conc1-baseline keep=0,2 digest="));
        assert_eq!(Replay::parse(&line), Ok(r.clone()));
        // The bin hands over only the fields after `--replay`.
        let fields = line.split_once("--replay").unwrap().1;
        assert_eq!(Replay::parse(fields), Ok(r.clone()));
        let bare = Replay { digest: None, ..r };
        assert_eq!(Replay::parse(&bare.to_string()), Ok(bare));
    }

    #[test]
    fn malformed_replay_lines_are_refused() {
        for line in [
            "seed=3 config=c keep=0,1 digest=zz",
            "seed=3 config=c keep=2,1",
            "seed=3 config=c keep=1,1",
            "seed=3 config=c keep=x",
            "seed=-3 config=c keep=0",
            "seed=3 config= keep=0",
            "seed=3 config=c keep=0 speed=9",
            "seed=3 config=c keep=0 stray",
            "seed=3 config=c",
        ] {
            assert!(Replay::parse(line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn replay_schedule_checks_bounds_and_digest() {
        let sched = three_events();
        let r = Replay::new(3, "c", &sched, vec![0, 2]);
        assert_eq!(r.schedule(&sched), Ok(sched.subset(&[0, 2])));
        let past = Replay::parse("seed=3 config=c keep=0,99").unwrap();
        assert!(past.schedule(&sched).unwrap_err().contains("99"));
        let drifted = Replay {
            keep: vec![0, 1],
            ..r
        };
        assert!(drifted.schedule(&sched).unwrap_err().contains("digest"));
    }
}
