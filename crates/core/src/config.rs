//! Rewriting configuration shared by every engine.

use dacpara_aig::AigError;
use dacpara_cut::CutConfig;
use dacpara_npn::ClassRegistry;

use crate::Engine;

/// A rejected [`RewriteConfig`] field, reported by
/// [`RewriteConfig::validate`], or an engine a
/// [`crate::RewriteSession`] does not run.
#[derive(Copy, Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `threads` must be at least 1.
    ZeroThreads,
    /// `runs` must be at least 1.
    ZeroRuns,
    /// `num_classes` must be at least 1.
    ZeroClasses,
    /// Only [`Engine::DacPara`] and [`Engine::Iccad18`] run on a
    /// [`crate::RewriteSession`]; the others go through
    /// [`crate::run_engine`] or [`crate::optimize`].
    NotResident(Engine),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroThreads => f.write_str("threads must be >= 1"),
            ConfigError::ZeroRuns => f.write_str("runs must be >= 1"),
            ConfigError::ZeroClasses => f.write_str("num_classes must be >= 1"),
            ConfigError::NotResident(engine) => write!(
                f,
                "{engine} does not run on a session; use optimize or run_engine"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for AigError {
    fn from(e: ConfigError) -> AigError {
        AigError::InvariantViolation(format!("invalid configuration: {e}"))
    }
}

/// Parameters of a rewriting pass.
///
/// The paper's experimental configurations map onto this struct:
///
/// * **Table 2 / DACPara-P2** — [`RewriteConfig::rewrite_op`]: the ABC
///   `rewrite` operator setup (134 NPN classes, unlimited cuts and
///   structures, one run).
/// * **DACPara-P1** — [`RewriteConfig::p1`]: 8 cuts per node, 5 structures
///   per class, two runs (the GPU papers' `drw`-style setup, except P1 can
///   only use the 134 `rewrite` classes — §5.2).
/// * **GPU emulations (DAC'22 / TCAD'23)** — [`RewriteConfig::drw_op`]:
///   all 222 classes, 8 cuts, 5 structures, two runs.
#[derive(Clone, Debug)]
pub struct RewriteConfig {
    /// Worker threads for the parallel engines (the paper uses 40).
    pub threads: usize,
    /// Cuts kept per node (`0` = unlimited).
    pub cut_limit: usize,
    /// Structures evaluated per NPN class (`0` = all).
    pub max_structures: usize,
    /// Number of NPN classes evaluated (222 = all; 134 mirrors `rewrite`).
    pub num_classes: usize,
    /// Accept zero-gain replacements (ABC's `-z`).
    pub use_zeros: bool,
    /// Reject replacements that increase the node's level (ABC `rewrite`
    /// preserves levels by default).
    pub preserve_level: bool,
    /// How many times the whole pass is run (the GPU comparisons execute
    /// the program twice).
    pub runs: usize,
    /// Divide nodes into per-level worklists (Fig. 1). Disabling this is an
    /// ablation: one global worklist still runs the three split stages.
    pub level_partition: bool,
    /// Re-enumerate and match stored cuts whose leaves changed (§4.4).
    /// Disabling this is an ablation: stale results are simply skipped.
    pub revalidate: bool,
}

impl RewriteConfig {
    /// The ABC `rewrite` operator configuration (Table 2, DACPara-P2).
    pub fn rewrite_op() -> RewriteConfig {
        RewriteConfig {
            threads: 1,
            cut_limit: 0,
            max_structures: 0,
            num_classes: 134,
            use_zeros: false,
            preserve_level: true,
            runs: 1,
            level_partition: true,
            revalidate: true,
        }
    }

    /// The paper's P1 configuration: 8 cuts, 5 structures, two runs, 134
    /// classes.
    pub fn p1() -> RewriteConfig {
        RewriteConfig {
            cut_limit: 8,
            max_structures: 5,
            runs: 2,
            ..RewriteConfig::rewrite_op()
        }
    }

    /// The `drw`-style configuration used by the GPU methods: all 222
    /// classes, 8 cuts, 5 structures, two runs.
    pub fn drw_op() -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            ..RewriteConfig::p1()
        }
    }

    /// This configuration with a different thread count. Zero threads
    /// fail [`RewriteConfig::validate`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> RewriteConfig {
        self.threads = threads;
        self
    }

    /// Checks the fields every engine depends on, returning the first
    /// violation. Called at the start of every pass (`run_engine`,
    /// `RewriteSession::run`), by `RewriteSession::new`, and by the
    /// `rewrite` binary, so a bad configuration fails uniformly instead of
    /// panicking (or hanging) somewhere inside an engine.
    ///
    /// # Errors
    ///
    /// Returns the first offending field as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.runs == 0 {
            return Err(ConfigError::ZeroRuns);
        }
        if self.num_classes == 0 {
            return Err(ConfigError::ZeroClasses);
        }
        Ok(())
    }

    /// The cut-enumeration configuration.
    pub fn cut_config(&self) -> CutConfig {
        if self.cut_limit == 0 {
            CutConfig::unlimited()
        } else {
            CutConfig::limited(self.cut_limit)
        }
    }

    /// Per-class allowance table (index = [`dacpara_npn::ClassId`]).
    pub fn allowed_classes(&self) -> Vec<bool> {
        let reg = ClassRegistry::global();
        let mut allowed = vec![false; reg.len()];
        for id in reg.practical(self.num_classes.min(reg.len())) {
            allowed[id as usize] = true;
        }
        allowed
    }
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig::rewrite_op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let p2 = RewriteConfig::rewrite_op();
        assert_eq!(p2.num_classes, 134);
        assert_eq!(p2.cut_limit, 0);
        assert_eq!(p2.runs, 1);
        let p1 = RewriteConfig::p1();
        assert_eq!(p1.cut_limit, 8);
        assert_eq!(p1.max_structures, 5);
        assert_eq!(p1.runs, 2);
        assert_eq!(p1.num_classes, 134);
        let drw = RewriteConfig::drw_op();
        assert_eq!(drw.num_classes, 222);
    }

    #[test]
    fn class_filter_sizes() {
        let cfg = RewriteConfig::rewrite_op();
        let allowed = cfg.allowed_classes();
        assert_eq!(allowed.iter().filter(|&&b| b).count(), 134);
        let all = RewriteConfig::drw_op().allowed_classes();
        assert_eq!(all.iter().filter(|&&b| b).count(), 222);
    }

    #[test]
    fn validate_rejects_each_degenerate_field() {
        assert_eq!(RewriteConfig::rewrite_op().validate(), Ok(()));
        let cases = [
            (
                RewriteConfig {
                    threads: 0,
                    ..RewriteConfig::rewrite_op()
                },
                ConfigError::ZeroThreads,
            ),
            (
                RewriteConfig {
                    runs: 0,
                    ..RewriteConfig::rewrite_op()
                },
                ConfigError::ZeroRuns,
            ),
            (
                RewriteConfig {
                    num_classes: 0,
                    ..RewriteConfig::rewrite_op()
                },
                ConfigError::ZeroClasses,
            ),
        ];
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
        let err: dacpara_aig::AigError = ConfigError::ZeroThreads.into();
        assert!(err.to_string().contains("invalid configuration"));
    }
}
