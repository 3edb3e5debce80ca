//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction, and the one place `BENCHMARK.json` is rendered from.

use crate::workloads::Workload;
use std::fmt::Write as _;

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 26;

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// The name, fixed: later issues cite it.
    pub name: &'static str,
    /// The unit.
    pub unit: &'static str,
    /// Whether lower values are better (else higher).
    pub lower_is_better: bool,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
        bound: None,
    }
}

/// What a user of the system sees, per workload. The host times are taken
/// against interference (`stats::undisturbed_sum`, `stats::floor_mean`); the
/// simulated metrics are exact. Each bound is at least three times the
/// spread the metric showed over ten seeds on the box this was designed on.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("wall_s", "s", true, 0.25),
    e2e("answer_epochs_per_s", "1/s", false, 0.25),
    e2e("peak_rss_mib", "MiB", true, 0.05),
    e2e("tx_time_pct", "%", true, 0.03),
    e2e("answer_completeness", "ratio", false, 0.005),
];

/// Single layers, from the traced rep (`*_s`: busy or self seconds in it).
pub const PER_LAYER: [MetricDef; 67] = [
    // workloads (ttmqo-workloads, ttmqo-query)
    lower("workloads.gen_s", "s"),
    lower("workloads.events", "count"),
    // topology (ttmqo-sim::topology)
    lower("topology.build_s", "s"),
    lower("topology.nodes", "count"),
    // simulator and optimizer construction
    lower("sim.new_s", "s"),
    lower("tier1.build_s", "s"),
    // tier1 (basestation::optimizer)
    lower("tier1.calls", "count"),
    lower("tier1.busy_s", "s"),
    lower("tier1.call_max_us", "us"),
    lower("tier1.injections", "count"),
    lower("tier1.abortions", "count"),
    higher("tier1.absorbed_ratio", "ratio"),
    lower("tier1.avg_synthetics", "count"),
    higher("tier1.benefit_ratio", "ratio"),
    lower("tier1.allocs", "count"),
    // engine (ttmqo-sim::engine)
    lower("engine.busy_s", "s"),
    lower("engine.self_s", "s"),
    lower("engine.events", "count"),
    lower("engine.frames", "count"),
    lower("engine.self_ns_per_event", "ns"),
    lower("engine.callbacks", "count"),
    lower("engine.fanout", "ratio"),
    lower("engine.retransmissions", "count"),
    lower("engine.collisions", "count"),
    lower("engine.gave_up", "count"),
    lower("engine.csma_capped", "count"),
    lower("engine.slab_high_water", "count"),
    lower("engine.allocs", "count"),
    lower("engine.allocs_per_event", "ratio"),
    // app (innetwork::TtmqoApp or ttmqo-tinydb::TinyDbApp)
    lower("app.busy_s", "s"),
    lower("app.on_timer_s", "s"),
    lower("app.on_message_s", "s"),
    lower("app.on_overhear_s", "s"),
    lower("app.on_command_s", "s"),
    lower("app.on_timer_calls", "count"),
    lower("app.on_message_calls", "count"),
    lower("app.on_overhear_calls", "count"),
    lower("app.on_command_calls", "count"),
    lower("app.on_send_failed_calls", "count"),
    lower("app.ns_per_callback", "ns"),
    lower("app.allocs", "count"),
    lower("app.allocs_per_overhear", "ratio"),
    lower("app.samples", "count"),
    lower("app.result_frames", "count"),
    higher("app.sleep_ms", "ms"),
    // mapper (basestation::mapper + mapping snapshots)
    lower("mapper.busy_s", "s"),
    lower("mapper.snapshot_s", "s"),
    lower("mapper.calls", "count"),
    higher("mapper.answers", "count"),
    higher("mapper.rows", "count"),
    // report / campaign (ttmqo-core::campaign)
    lower("report.render_s", "s"),
    lower("report.bytes", "count"),
    lower("campaign.cells", "count"),
    // paper shape (simulated, exact; fig3-campaign only)
    higher("paper.savings_bs_only_pct", "%"),
    higher("paper.savings_innet_only_pct", "%"),
    higher("paper.savings_two_tier_pct", "%"),
    // whole rep / harness
    lower("alloc.count", "count"),
    lower("alloc.bytes", "count"),
    lower("host.wall_median_s", "s"),
    lower("host.wall_iqr_s", "s"),
    higher("host.reps", "count"),
    lower("trace.span_cost_ns", "ns"),
    lower("trace.overhead_pct", "%"),
    lower("trace.wall_s", "s"),
    lower("trace.spans_s", "s"),
    lower("trace.unattributed_s", "s"),
    higher("sim.fingerprint_match", "count"),
];

/// Metric values of one run, by catalogue name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name`'s value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in catalogue order.
    ///
    /// # Panics
    ///
    /// Panics if a catalogue metric has no value or a value has no catalogue
    /// entry: the catalogue and the code that measures must agree.
    pub fn in_order(&self, catalogue: &'static [MetricDef]) -> Vec<(&'static MetricDef, f64)> {
        for (name, _) in &self.0 {
            assert!(
                catalogue.iter().any(|d| d.name == *name),
                "metric {name} is not in the catalogue"
            );
        }
        catalogue
            .iter()
            .map(|def| {
                let value = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                (def, value)
            })
            .collect()
    }
}

/// A number as JSON, with all its digits. Non-finite values (a bug) become
/// `null`, which no reader takes for a measurement.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// The result line the contract asks for: one JSON object, last on stdout.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static MetricDef, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            json_number(*value),
            def.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// `BENCHMARK.json`, rendered from the catalogue. A test keeps the committed
/// file equal to this.
pub fn manifest_json() -> String {
    let better = |def: &MetricDef| {
        if def.lower_is_better {
            "lower"
        } else {
            "higher"
        }
    };
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        Workload::ALL
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name(),
                    w.why()
                )
            })
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|def| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    def.name,
                    def.unit,
                    better(def),
                    json_number(def.bound.expect("every end-to-end metric has a bound"))
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|def| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    def.name,
                    def.unit,
                    better(def)
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract_limits() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(def.unit, 16, "_/%.-"), "{}", def.unit);
        }
        for def in &END_TO_END {
            let bound = def.bound.expect("end-to-end metrics are bounded");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn result_line_is_one_json_object_with_every_digit() {
        let metrics = [(&END_TO_END[1], 1.203_456_789_012_3), (&END_TO_END[0], 0.5)];
        let line = result_line(true, 60, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 60, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.2034567890123, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
