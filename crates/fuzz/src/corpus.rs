//! Replayable corpus entries: one file = one circuit + one oracle setup.
//!
//! An entry is a plain-text header (`key: value` lines) followed by a `---`
//! separator and the circuit in ASCII AIGER. Everything the oracle needs to
//! reproduce a run is in the header: the generator seed it came from, the
//! thread counts, an optional fault plan (spec + seed, in the grammar
//! [`dacpara_fault::FaultPlan::parse`] accepts), and whether the entry is
//! *expected* to fail (a shrunk witness) or to pass (a regression pin).
//!
//! ```text
//! # dacpara-fuzz corpus entry
//! version: 1
//! seed: 12345
//! threads: 1,2
//! fault-spec: replace.corrupt=@1
//! fault-seed: 0
//! expect: fail
//! note: shrunk witness of the planted replacement miscompile
//! ---
//! aag 9 2 0 2 7
//! ...
//! ```

use std::path::Path;

use dacpara::testkit::engine_matrix;
use dacpara_aig::{aiger, Aig};
use dacpara_fault::FaultPlan;

use crate::oracle::{check_circuit, OracleConfig};

/// One parsed corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// Generator seed the circuit descended from (provenance only; the
    /// AIGER payload is authoritative).
    pub seed: u64,
    /// Thread counts for the oracle sweep.
    pub threads: Vec<usize>,
    /// Optional fault plan `(spec, seed)` armed around every cell.
    pub fault: Option<(String, u64)>,
    /// `true` for a shrunk failure witness, `false` for a regression pin.
    pub expect_fail: bool,
    /// Free-text provenance note.
    pub note: String,
    /// The circuit itself.
    pub aig: Aig,
}

impl CorpusEntry {
    /// A regression pin: the circuit is expected to pass the full sweep.
    pub fn pin(seed: u64, aig: Aig, note: &str) -> Self {
        CorpusEntry {
            seed,
            threads: vec![1, 2, 4],
            fault: None,
            expect_fail: false,
            note: note.to_string(),
            aig,
        }
    }

    /// Serializes the entry to the on-disk format.
    pub fn to_entry_string(&self) -> String {
        let mut s = String::from("# dacpara-fuzz corpus entry\nversion: 1\n");
        s.push_str(&format!("seed: {}\n", self.seed));
        let threads: Vec<String> = self.threads.iter().map(|t| t.to_string()).collect();
        s.push_str(&format!("threads: {}\n", threads.join(",")));
        if let Some((spec, fseed)) = &self.fault {
            s.push_str(&format!("fault-spec: {spec}\n"));
            s.push_str(&format!("fault-seed: {fseed}\n"));
        }
        s.push_str(&format!(
            "expect: {}\n",
            if self.expect_fail { "fail" } else { "pass" }
        ));
        if !self.note.is_empty() {
            s.push_str(&format!("note: {}\n", self.note));
        }
        s.push_str("---\n");
        s.push_str(&aiger::to_string(&self.aig));
        s
    }

    /// Parses the on-disk format.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed headers or AIGER.
    pub fn parse(text: &str) -> Result<CorpusEntry, String> {
        let (header, payload) = text
            .split_once("\n---\n")
            .ok_or("missing `---` separator")?;
        let mut entry = CorpusEntry {
            seed: 0,
            threads: vec![1, 2, 4],
            fault: None,
            expect_fail: false,
            note: String::new(),
            aig: Aig::new(),
        };
        let mut fault_spec: Option<String> = None;
        let mut fault_seed: u64 = 0;
        for line in header.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed header line `{line}`"))?;
            let value = value.trim();
            match key.trim() {
                "version" => {
                    if value != "1" {
                        return Err(format!("unsupported corpus version `{value}`"));
                    }
                }
                "seed" => {
                    entry.seed = value
                        .parse()
                        .map_err(|_| format!("seed `{value}` is not a u64"))?;
                }
                "threads" => {
                    entry.threads = value
                        .split(',')
                        .map(|t| {
                            t.trim()
                                .parse()
                                .map_err(|_| format!("thread count `{t}` is not a usize"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "fault-spec" => fault_spec = Some(value.to_string()),
                "fault-seed" => {
                    fault_seed = value
                        .parse()
                        .map_err(|_| format!("fault-seed `{value}` is not a u64"))?;
                }
                "expect" => {
                    entry.expect_fail = match value {
                        "fail" => true,
                        "pass" => false,
                        other => return Err(format!("expect must be pass|fail, got `{other}`")),
                    };
                }
                "note" => entry.note = value.to_string(),
                other => return Err(format!("unknown header key `{other}`")),
            }
        }
        entry.fault = fault_spec.map(|s| (s, fault_seed));
        entry.aig = aiger::parse(payload).map_err(|e| format!("payload: {e}"))?;
        entry
            .aig
            .check()
            .map_err(|e| format!("payload fails the invariant checker: {e}"))?;
        Ok(entry)
    }

    /// Writes the entry to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_entry_string())
    }

    /// Reads and parses an entry from `path`.
    pub fn read_from(path: &Path) -> Result<CorpusEntry, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CorpusEntry::parse(&text)
    }

    /// The oracle configuration this entry describes.
    ///
    /// # Errors
    ///
    /// Returns an error when the recorded fault spec no longer parses.
    pub fn oracle_config(&self) -> Result<OracleConfig, String> {
        let fault = match &self.fault {
            Some((spec, seed)) => Some(
                FaultPlan::parse(spec, *seed).map_err(|e| format!("recorded fault spec: {e}"))?,
            ),
            None => None,
        };
        Ok(OracleConfig {
            points: engine_matrix(&self.threads),
            fault,
        })
    }
}

/// Outcome of replaying one corpus entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// The entry behaved as recorded (pin passed, or witness reproduced).
    Green,
    /// The entry did not behave as recorded; the strings render the
    /// unexpected failures (empty when a witness failed to reproduce).
    Mismatch(Vec<String>),
}

/// Replays `entry`: runs the recorded oracle sweep and compares the result
/// with the recorded expectation.
pub fn replay(entry: &CorpusEntry) -> Result<ReplayOutcome, String> {
    let cfg = entry.oracle_config()?;
    let failures = check_circuit(&entry.aig, &cfg);
    let outcome = match (entry.expect_fail, failures.is_empty()) {
        (false, true) | (true, false) => ReplayOutcome::Green,
        (false, false) => ReplayOutcome::Mismatch(failures.iter().map(|f| f.to_string()).collect()),
        (true, true) => ReplayOutcome::Mismatch(Vec::new()),
    };
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn entry_round_trips_through_text() {
        let aig = generate(&GenConfig::small(), 17);
        let entry = CorpusEntry {
            seed: 17,
            threads: vec![1, 2],
            fault: Some(("operator.panic=1/64*2".into(), 9)),
            expect_fail: true,
            note: "round-trip test".into(),
            aig,
        };
        let text = entry.to_entry_string();
        let back = CorpusEntry::parse(&text).unwrap();
        assert_eq!(back.seed, 17);
        assert_eq!(back.threads, vec![1, 2]);
        assert_eq!(back.fault, entry.fault);
        assert!(back.expect_fail);
        assert_eq!(back.note, "round-trip test");
        assert_eq!(aiger::to_string(&back.aig), aiger::to_string(&entry.aig));
    }

    #[test]
    fn malformed_entries_are_rejected() {
        assert!(CorpusEntry::parse("no separator").is_err());
        assert!(CorpusEntry::parse("bogus: 1\n---\naag 0 0 0 0 0\n").is_err());
        assert!(CorpusEntry::parse("expect: maybe\n---\naag 0 0 0 0 0\n").is_err());
    }

    #[test]
    fn replay_runs_pins_green() {
        let aig = generate(&GenConfig::small(), 8);
        let mut entry = CorpusEntry::pin(8, aig, "pin");
        entry.threads = vec![1, 2];
        assert_eq!(replay(&entry).unwrap(), ReplayOutcome::Green);
    }
}
