//! The paper's Table 4, as data: how each HTM virtualization proposal
//! handles cache misses, commits, aborts, cache evictions, paging, and
//! thread switches, before and after its virtualization mode engages.
//!
//! This is a *qualitative* model (exactly as in the paper) — the repro
//! harness prints it and tests assert the paper's headline comparison:
//! LogTM-SE handles the frequent post-virtualization events (cache misses
//! and commits) with plain hardware, and cache victimization does not even
//! count as a virtualization event.

use std::fmt;

/// How a system handles one event (Table 4's legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// "-": handled in simple hardware.
    SimpleHw,
    /// "H": complex hardware.
    ComplexHw,
    /// "S": handled in software.
    Software,
    /// "A": abort transaction.
    Abort,
    /// "C": copy values (possibly combined with software/hardware).
    Copy,
    /// "W": walk cache.
    WalkCache,
    /// "V": validate read set.
    ValidateReadSet,
    /// "B": block other transactions.
    BlockOthers,
}

impl Action {
    /// The single-letter legend code from Table 4.
    pub fn code(self) -> char {
        match self {
            Action::SimpleHw => '-',
            Action::ComplexHw => 'H',
            Action::Software => 'S',
            Action::Abort => 'A',
            Action::Copy => 'C',
            Action::WalkCache => 'W',
            Action::ValidateReadSet => 'V',
            Action::BlockOthers => 'B',
        }
    }

    /// Whether this action is "cheap" in the paper's sense (plain
    /// hardware).
    pub fn is_simple_hw(self) -> bool {
        matches!(self, Action::SimpleHw)
    }
}

/// The events of Table 4's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Cache miss before virtualization engages.
    CacheMissBefore,
    /// Commit before virtualization.
    CommitBefore,
    /// Abort before virtualization.
    AbortBefore,
    /// Cache eviction of transactional data (the virtualization trigger for
    /// most systems; shaded in the paper).
    CacheEviction,
    /// Cache miss after virtualization.
    CacheMissAfter,
    /// Commit after virtualization.
    CommitAfter,
    /// Abort after virtualization.
    AbortAfter,
    /// Cache eviction after virtualization.
    CacheEvictionAfter,
    /// Paging (always a virtualization event; shaded).
    Paging,
    /// Thread switch (always a virtualization event; shaded).
    ThreadSwitch,
}

impl Event {
    /// All events, in Table 4 column order.
    pub fn all() -> [Event; 10] {
        [
            Event::CacheMissBefore,
            Event::CommitBefore,
            Event::AbortBefore,
            Event::CacheEviction,
            Event::CacheMissAfter,
            Event::CommitAfter,
            Event::AbortAfter,
            Event::CacheEvictionAfter,
            Event::Paging,
            Event::ThreadSwitch,
        ]
    }

    /// Short column header.
    pub fn header(self) -> &'static str {
        match self {
            Event::CacheMissBefore => "$Miss",
            Event::CommitBefore => "Commit",
            Event::AbortBefore => "Abort",
            Event::CacheEviction => "$Evict",
            Event::CacheMissAfter => "$Miss*",
            Event::CommitAfter => "Commit*",
            Event::AbortAfter => "Abort*",
            Event::CacheEvictionAfter => "$Evict*",
            Event::Paging => "Paging",
            Event::ThreadSwitch => "ThrSw",
        }
    }

    /// Whether the paper shades this column as a virtualization event.
    pub fn is_virtualization_event(self) -> bool {
        !matches!(
            self,
            Event::CacheMissBefore | Event::CommitBefore | Event::AbortBefore
        )
    }
}

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemRow {
    /// System name as printed in the paper.
    pub name: &'static str,
    actions: [&'static [Action]; 10],
}

impl SystemRow {
    /// Actions for `event`.
    pub fn actions(&self, event: Event) -> &'static [Action] {
        let idx = Event::all()
            .iter()
            .position(|e| *e == event)
            .expect("known");
        self.actions[idx]
    }

    /// The action string (legend codes) for `event`, e.g. `"SC"`.
    pub fn action_codes(&self, event: Event) -> String {
        self.actions(event).iter().map(|a| a.code()).collect()
    }
}

impl fmt::Display for SystemRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<18}", self.name)?;
        for e in Event::all() {
            write!(f, " {:>7}", self.action_codes(e))?;
        }
        Ok(())
    }
}

use Action::*;

const S_: &[Action] = &[SimpleHw];
const H_: &[Action] = &[ComplexHw];
const SW: &[Action] = &[Software];
const HC: &[Action] = &[ComplexHw, Copy];
const SC: &[Action] = &[Software, Copy];
const AB: &[Action] = &[Abort];
const BL: &[Action] = &[BlockOthers];
const AS: &[Action] = &[Abort, Software];
const ASC: &[Action] = &[Abort, Software, Copy];
const SCV: &[Action] = &[Software, Copy, ValidateReadSet];
const SWV: &[Action] = &[Software, WalkCache, ValidateReadSet];
const SC2: &[Action] = &[Software, Copy];

/// The full Table 4, row order as printed in the paper.
pub fn table4() -> Vec<SystemRow> {
    vec![
        SystemRow {
            name: "UTM [3]",
            actions: [S_, S_, S_, H_, H_, H_, HC, H_, H_, H_],
        },
        SystemRow {
            name: "VTM [25]",
            actions: [S_, S_, S_, SW, SW, SC, SW, SW, SW, SWV],
        },
        SystemRow {
            name: "UnrestrictedTM[6]",
            actions: [S_, S_, S_, AB, BL, BL, BL, BL, AS, AS],
        },
        SystemRow {
            name: "XTM [9]",
            actions: [S_, S_, S_, ASC, S_, SCV, SW, SC, SC, AS],
        },
        SystemRow {
            name: "XTM-g [9]",
            actions: [S_, S_, S_, SC2, S_, SCV, SW, SC, SC, AS],
        },
        SystemRow {
            name: "PTM-Copy [8]",
            actions: [S_, S_, S_, SC, SW, SW, SC, SC, SW, SW],
        },
        SystemRow {
            name: "PTM-Select [8]",
            actions: [S_, S_, S_, SW, H_, SW, SW, SW, SW, SW],
        },
        SystemRow {
            name: "LogTM-SE",
            actions: [S_, S_, SC, S_, S_, S_, SC, S_, SW, SW],
        },
    ]
}

/// The LogTM-SE row.
pub fn logtm_se_row() -> SystemRow {
    table4().pop().expect("table has rows")
}

/// Renders the full table as aligned text (the repro binary's `table4`
/// subcommand).
pub fn render_table4() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<18}", "System"));
    for e in Event::all() {
        out.push_str(&format!(" {:>7}", e.header()));
    }
    out.push('\n');
    for row in table4() {
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out.push_str("\nLegend: - simple hw | H complex hw | S software | A abort | C copy\n");
    out.push_str("        W walk cache | V validate read set | B block others\n");
    out.push_str("Columns marked * are after virtualization engages.\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_systems_ten_columns() {
        let t = table4();
        assert_eq!(t.len(), 8);
        for row in &t {
            for e in Event::all() {
                assert!(!row.actions(e).is_empty(), "{} {}", row.name, e.header());
            }
        }
    }

    #[test]
    fn logtm_se_handles_frequent_events_in_hw_after_virtualization() {
        // The paper's claim: LogTM-SE requires the least effort for cache
        // misses and commits — the most frequent events — after
        // virtualization.
        let row = logtm_se_row();
        assert_eq!(row.name, "LogTM-SE");
        assert!(row.actions(Event::CacheMissAfter)[0].is_simple_hw());
        assert!(row.actions(Event::CommitAfter)[0].is_simple_hw());
        // And victimization itself is NOT a virtualization event.
        assert!(row.actions(Event::CacheEviction)[0].is_simple_hw());
        assert!(row.actions(Event::CacheEvictionAfter)[0].is_simple_hw());
    }

    #[test]
    fn no_other_system_matches_logtm_se_on_the_frequent_events() {
        for row in table4() {
            if row.name == "LogTM-SE" {
                continue;
            }
            let all_simple = row.actions(Event::CacheEviction)[0].is_simple_hw()
                && row.actions(Event::CacheMissAfter)[0].is_simple_hw()
                && row.actions(Event::CommitAfter)[0].is_simple_hw();
            assert!(!all_simple, "{} should not match LogTM-SE", row.name);
        }
    }

    #[test]
    fn virtualization_event_shading() {
        assert!(!Event::CacheMissBefore.is_virtualization_event());
        assert!(Event::Paging.is_virtualization_event());
        assert!(Event::ThreadSwitch.is_virtualization_event());
        assert!(Event::CacheEviction.is_virtualization_event());
    }

    #[test]
    fn render_contains_all_rows_and_legend() {
        let s = render_table4();
        for row in table4() {
            assert!(s.contains(row.name));
        }
        assert!(s.contains("Legend"));
    }

    #[test]
    fn action_codes_roundtrip() {
        let row = logtm_se_row();
        assert_eq!(row.action_codes(Event::AbortBefore), "SC");
        assert_eq!(row.action_codes(Event::CacheMissBefore), "-");
    }
}
