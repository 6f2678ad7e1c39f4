//! Metric names, units and the result line every run prints.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ptgs_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("makespan_gain", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), as `(name, unit)`. Offline they are
/// per PTG; online the `emts.*`, `sched.group_pops`, `fitness.*` and
/// `sim.online_*` metrics are per decision epoch, the other per-PTG layers
/// per job of the solo reference pass, and the two `sim.*` counts per run
/// of the control loop.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("sim.parse_ms", "ms"),
    ("exec-model.matrix_ms", "ms"),
    ("heuristics.mcpa_ms", "ms"),
    ("heuristics.hcpa_ms", "ms"),
    ("heuristics.delta_ms", "ms"),
    ("heuristics.cpa_steps", "count"),
    ("heuristics.cpa_step_us", "us"),
    ("emts.run_ms", "ms"),
    ("emts.seed_ms", "ms"),
    ("emts.mutate_ms", "ms"),
    ("emts.evaluate_ms", "ms"),
    ("emts.record_ms", "ms"),
    ("emts.select_ms", "ms"),
    ("emts.evaluations", "count"),
    ("emts.eval_us", "us"),
    ("emts.cache_hit_rate", "ratio"),
    ("sched.map_ms", "ms"),
    ("sched.makespan_us", "us"),
    ("sched.reschedule_ms", "ms"),
    ("sched.group_pops", "count"),
    ("fitness.prefix_reuse_rate", "ratio"),
    ("sim.replay_ms", "ms"),
    ("sim.replay_events", "count"),
    ("sim.online_decide_ms", "ms"),
    ("sim.online_ea_ms", "ms"),
    ("sim.online_repair_ms", "ms"),
    ("sim.decision_epochs", "count"),
    ("sim.reactive_replans", "count"),
    ("obs.unattributed_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// The outcome of one run: operations attempted and failed, and the
/// metric values by name.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
}

impl RunResult {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Prints a readable summary, then the result as one JSON object on the
    /// last line of standard output, holding exactly the metrics of
    /// `table`. A metric the run did not produce, or a value that is not a
    /// finite number, makes the result incorrect.
    pub fn print(&self, table: &[(&'static str, &'static str)]) {
        println!(
            "operations attempted {} failed {}",
            self.attempted, self.failed
        );
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                other => {
                    eprintln!("e2ebench: metric {name} has no finite value ({other:?})");
                    correct = false;
                    0.0
                }
            };
            println!("{name:<28} {value:>16.6} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
            );
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }
}
