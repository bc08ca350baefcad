//! The committed quick telemetry document is a golden: a change that keeps
//! every simulated decision leaves `golden/stats_quick.json` byte for byte
//! as it is. `scripts/verify.sh` checks the same file through the `repro`
//! binary, together with the full-scale `golden/repro_all.txt`.

use ltse_bench::experiments::ExperimentScale;
use ltse_bench::stats_json::stats_json;

#[test]
fn quick_stats_json_matches_the_golden() {
    let golden = include_str!("../../../golden/stats_quick.json");
    let fresh = stats_json(&ExperimentScale::quick()).expect("quick stats-json run");
    if let Some((line, (want, got))) = golden
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
    {
        panic!(
            "golden/stats_quick.json differs at line {}:\n golden: {want}\n  fresh: {got}",
            line + 1
        );
    }
    assert!(
        fresh == golden,
        "golden/stats_quick.json is {} bytes, a fresh run {} bytes",
        golden.len(),
        fresh.len()
    );
}
