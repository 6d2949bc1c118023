//! The CUPTI-compatible stall taxonomy.

use std::fmt;

/// Why a sampled warp could not issue (or that it did).
///
/// This mirrors the stall reasons CUPTI's PC sampling attaches to samples.
/// `Selected` marks the issuing warp (an active sample with no stall);
/// every other variant is a *stall sample* in the paper's terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StallReason {
    /// The warp issued an instruction this cycle.
    Selected,
    /// The warp was ready but the scheduler picked another warp.
    NotSelected,
    /// Waiting on a fixed-latency arithmetic result, a shared-memory
    /// load, a WAR read barrier, or a transcendental.
    ExecutionDependency,
    /// Waiting on a global/local/constant memory value.
    MemoryDependency,
    /// Parked at `BAR.SYNC` until the whole block arrives.
    Synchronization,
    /// The LSU queue is full; memory instructions cannot issue.
    MemoryThrottle,
    /// The next instruction has not been fetched (i-cache miss or branch
    /// redirect).
    InstructionFetch,
    /// The functional pipe for this instruction is busy.
    PipeBusy,
    /// Anything else (drain after exit, launch overhead).
    Other,
    /// Waiting on a shared-memory access serialized by bank conflicts
    /// (hierarchy model only).
    BankConflict,
    /// Waiting on a global access that split into many sectors —
    /// uncoalesced addressing (hierarchy model only).
    Uncoalesced,
    /// All L1 MSHRs are occupied; misses cannot be tracked, so memory
    /// instructions cannot issue (hierarchy model only).
    MshrFull,
    /// The L2 request queue is full; misses cannot be forwarded
    /// (hierarchy model only).
    L2Queue,
}

impl StallReason {
    /// All reasons, for histograms and encoding.
    ///
    /// Order is a wire/storage contract: codes are positions in this
    /// array (and in the enum: declaration order is the same), and
    /// existing profiles persist them, so new reasons are only ever
    /// **appended** (the hierarchy-model reasons sit after `Other`,
    /// leaving codes 0–8 exactly as the flat model wrote them).
    pub const ALL: [StallReason; 13] = [
        StallReason::Selected,
        StallReason::NotSelected,
        StallReason::ExecutionDependency,
        StallReason::MemoryDependency,
        StallReason::Synchronization,
        StallReason::MemoryThrottle,
        StallReason::InstructionFetch,
        StallReason::PipeBusy,
        StallReason::Other,
        StallReason::BankConflict,
        StallReason::Uncoalesced,
        StallReason::MshrFull,
        StallReason::L2Queue,
    ];

    /// Dense code for array-indexed histograms.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`StallReason::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// Whether this sample counts as a stall sample (anything but
    /// `Selected`).
    pub fn is_stall(self) -> bool {
        self != StallReason::Selected
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Selected => "selected",
            StallReason::NotSelected => "not_selected",
            StallReason::ExecutionDependency => "exec_dependency",
            StallReason::MemoryDependency => "memory_dependency",
            StallReason::Synchronization => "synchronization",
            StallReason::MemoryThrottle => "memory_throttle",
            StallReason::InstructionFetch => "inst_fetch",
            StallReason::PipeBusy => "pipe_busy",
            StallReason::Other => "other",
            StallReason::BankConflict => "bank_conflict",
            StallReason::Uncoalesced => "uncoalesced",
            StallReason::MshrFull => "mshr_full",
            StallReason::L2Queue => "l2_queue",
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for r in StallReason::ALL {
            assert_eq!(StallReason::from_code(r.code()), Some(r));
        }
        assert_eq!(StallReason::from_code(200), None);
    }

    #[test]
    fn classification() {
        assert!(!StallReason::Selected.is_stall());
        assert!(StallReason::NotSelected.is_stall());
    }

    /// Codes 0–8 are persisted by pre-hierarchy profiles; appending the
    /// hierarchy reasons must not have disturbed them.
    #[test]
    fn legacy_codes_are_stable() {
        assert_eq!(StallReason::Selected.code(), 0);
        assert_eq!(StallReason::Other.code(), 8);
        assert_eq!(StallReason::BankConflict.code(), 9);
        assert_eq!(StallReason::Uncoalesced.code(), 10);
        assert_eq!(StallReason::MshrFull.code(), 11);
        assert_eq!(StallReason::L2Queue.code(), 12);
    }
}
