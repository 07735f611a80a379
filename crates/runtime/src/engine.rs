//! The execution-engine selector surfaced to scenario files.
//!
//! `engine = sim` runs a job through the single-threaded simulators in
//! `schedulers`; `engine = net` hosts the same per-shard protocol nodes
//! concurrently through this crate's networked drivers (one mailbox per
//! shard, the ownership round executor). The two are
//! interchangeable by construction — the reports are byte-identical,
//! under any fault plan — which is why the spelling lives next to the
//! engine rather than in the scenario crate.

use std::str::FromStr;

/// Which execution engine runs a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The single-threaded round simulator (`schedulers::node::Sim`).
    #[default]
    Sim,
    /// The concurrent networked runtime (this crate).
    Net,
}

impl std::fmt::Display for EngineKind {
    /// Renders the scenario-file spelling; round-trips through `FromStr`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Sim => write!(f, "sim"),
            EngineKind::Net => write!(f, "net"),
        }
    }
}

impl FromStr for EngineKind {
    type Err = String;

    /// Parses the scenario-file spelling: `sim` or `net`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "sim" => Ok(EngineKind::Sim),
            "net" => Ok(EngineKind::Net),
            other => Err(format!("unknown engine `{other}` (expected sim or net)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_and_rejects() {
        for kind in [EngineKind::Sim, EngineKind::Net] {
            assert_eq!(kind.to_string().parse::<EngineKind>().unwrap(), kind);
        }
        assert!("tokio".parse::<EngineKind>().is_err());
        assert_eq!(EngineKind::default(), EngineKind::Sim);
    }
}
