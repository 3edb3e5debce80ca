//! The observatory campaign's records are what CI gates with `git status`
//! after the `figures` bench, so they must be a pure function of the
//! simulated runs.

use ttmqo_bench::observatory_campaign;
use ttmqo_core::run_campaign_with;

#[test]
fn campaign_records_are_byte_identical_across_thread_counts() {
    // No host time may leak into a record, whichever thread ran which cell.
    // The traces are left out: the records do not depend on them.
    let mut spec = observatory_campaign();
    spec.trace_dir = None;
    let one = run_campaign_with(&spec, 1);
    let two = run_campaign_with(&spec, 2);
    assert_eq!(one.cells.len(), 8);
    assert!(one
        .cells
        .iter()
        .all(|c| c.audit.as_ref().is_some_and(|a| a.is_clean())));
    assert_eq!(one.to_jsonl(), two.to_jsonl());
}
