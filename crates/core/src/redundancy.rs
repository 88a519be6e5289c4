//! The campaign's comparator axis: how the redundant copies are
//! compared.
//!
//! The paper's baseline hard-wires *fixed* lockstep: the redundant CPUs
//! are permanently paired, compared port by port every cycle, and every
//! divergence triggers a full reset-and-restart. [`RedundancyMode::Dme`]
//! is the one alternative *detector*: diverse memory execution runs the
//! redundant copy over a structurally shifted address space
//! (`lockstep_mem::dme`) and compares the copies on their canonical
//! retired-effect streams rather than per-cycle ports, which detects
//! shared address-path stuck-ats that identical lockstep provably
//! masks.
//!
//! Dynamic lockstep is a *recovery* policy, not a detector, so it is no
//! mode here: it detects exactly like fixed lockstep, and after a
//! predicted-soft BIST verdict it re-syncs the pair from the nearest
//! golden checkpoint
//! ([`LockstepSystem::resync_from`](crate::LockstepSystem::resync_from))
//! instead of restarting the task. The `dynamic_pairing` experiment
//! measures that recovery cost as a LERT delta.

/// The campaign redundancy axis: how the redundant copies are compared.
/// Mirrors `CoreKind` so every surface (spec, CLI, archive, shards,
/// serve protocol) threads it the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RedundancyMode {
    /// Permanently paired DMR with per-cycle port comparison and
    /// reset-and-restart recovery — the paper's baseline and the
    /// default everywhere.
    #[default]
    Fixed,
    /// Diverse memory execution: the redundant copy runs over a shifted
    /// address space and the copies are compared on retired-effect
    /// streams, covering shared address-path faults.
    Dme,
}

impl RedundancyMode {
    /// Every supported mode, in display order.
    pub const ALL: [RedundancyMode; 2] = [RedundancyMode::Fixed, RedundancyMode::Dme];

    /// The stable label used in flags, specs, archives and stats.
    pub fn label(self) -> &'static str {
        match self {
            RedundancyMode::Fixed => "fixed",
            RedundancyMode::Dme => "dme",
        }
    }

    /// Parses a `--redundancy` flag value.
    pub fn from_flag(flag: &str) -> Option<RedundancyMode> {
        RedundancyMode::ALL.into_iter().find(|m| m.label() == flag)
    }
}

impl std::fmt::Display for RedundancyMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for mode in RedundancyMode::ALL {
            assert_eq!(RedundancyMode::from_flag(mode.label()), Some(mode));
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(RedundancyMode::from_flag("tmr"), None);
        // Dynamic pairing is a recovery policy, not a comparator.
        assert_eq!(RedundancyMode::from_flag("dynamic"), None);
        assert_eq!(RedundancyMode::default(), RedundancyMode::Fixed);
    }
}
