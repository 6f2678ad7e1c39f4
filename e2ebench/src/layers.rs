//! The per-layer ledger of a traced run.
//!
//! Layers reachable through a public function are timed around that call
//! from here. The EA generations and the online decision epochs are
//! reachable only inside one public call, so their spans and counters are
//! read from the `obs::StatsRecorder` the program already reports into.

use crate::metrics::RunResult;
use crate::ms;
use exec_model::TimeMatrix;
use heuristics::{Allocator, DeltaCritical, Hcpa, Mcpa};
use obs::RunReport;
use ptg::Ptg;
use sched::{Allocation, ListScheduler, Mapper, Rescheduler, ResumeState};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `emts.*` metric ← child span of the EA's `ea` span.
const EA_PHASES: [(&str, &str); 5] = [
    ("emts.seed_ms", "seed"),
    ("emts.mutate_ms", "mutate"),
    ("emts.evaluate_ms", "evaluate"),
    ("emts.record_ms", "record"),
    ("emts.select_ms", "select"),
];

/// Per-PTG layers: timed around one public call each.
pub const PTG_LAYERS: [&str; 11] = [
    "sim.parse_ms",
    "exec-model.matrix_ms",
    "heuristics.mcpa_ms",
    "heuristics.hcpa_ms",
    "heuristics.delta_ms",
    "heuristics.cpa_steps",
    "sched.map_ms",
    "sched.makespan_us",
    "sched.reschedule_ms",
    "sim.replay_ms",
    "sim.replay_events",
];

/// EA layers: read from the recorder of an EMTS run.
pub const EA_LAYERS: [&str; 8] = [
    "emts.run_ms",
    "emts.seed_ms",
    "emts.mutate_ms",
    "emts.evaluate_ms",
    "emts.record_ms",
    "emts.select_ms",
    "emts.evaluations",
    "sched.group_pops",
];

/// Sums of layer times and counts, keyed by metric name (plus a few
/// `aux.*` inputs of the derived ratios).
#[derive(Debug, Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Adds `value` to `key`.
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    /// The running sum of `key` (0 if never added).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// Adds the EA's phase spans below `ea_path` (`"ea"` offline,
    /// `"online.decide/ea"` online) and its counters from `report`.
    /// `lambda` is the offspring count per generation. Returns the summed
    /// milliseconds of the phase spans.
    pub fn add_emts(&mut self, report: &RunReport, ea_path: &str, lambda: usize) -> f64 {
        let mut phases = 0.0;
        for (key, child) in EA_PHASES {
            let t = phase_ms(report, &format!("{ea_path}/{child}"));
            self.add(key, t);
            phases += t;
        }
        let counter = |name: &str| report.counters.get(name).copied().unwrap_or(0) as f64;
        self.add("emts.evaluations", counter("emts.evaluations"));
        self.add("aux.offspring", lambda as f64 * counter("emts.generations"));
        self.add("aux.cache_hits", counter("emts.cache.hits"));
        self.add("aux.cache_misses", counter("emts.cache.misses"));
        self.add("sched.group_pops", counter("sched.group_pops"));
        self.add("aux.prefix_reused", counter("fitness.prefix_reuse_events"));
        self.add("aux.tasks_placed", counter("sched.tasks_placed"));
        phases
    }

    /// Times the three EMTS seed heuristics on `g` (MCPA, HCPA and
    /// Δ-critical with `delta`) and counts their CPA steps. Returns the
    /// MCPA allocation.
    pub fn time_heuristics(&mut self, g: &Ptg, matrix: &TimeMatrix, delta: f64) -> Allocation {
        let t = Instant::now();
        let mcpa = black_box(Mcpa.allocate(g, matrix));
        self.add("heuristics.mcpa_ms", ms(t.elapsed()));
        let t = Instant::now();
        let hcpa = black_box(Hcpa.allocate(g, matrix));
        self.add("heuristics.hcpa_ms", ms(t.elapsed()));
        let t = Instant::now();
        black_box(DeltaCritical::new(delta).allocate(g, matrix));
        self.add("heuristics.delta_ms", ms(t.elapsed()));
        // Each CPA-loop iteration grows one task by one processor from an
        // all-ones start.
        let steps: u32 = [&mcpa, &hcpa]
            .iter()
            .flat_map(|a| a.as_slice())
            .map(|&p| p - 1)
            .sum();
        self.add("heuristics.cpa_steps", steps as f64);
        mcpa
    }

    /// Times a makespan-only evaluation and a fresh `Rescheduler` replan of
    /// `alloc` on all `processors`.
    pub fn time_evaluators(
        &mut self,
        g: &Ptg,
        matrix: &TimeMatrix,
        alloc: &Allocation,
        processors: u32,
    ) {
        let t = Instant::now();
        black_box(ListScheduler.makespan(g, matrix, alloc));
        self.add("sched.makespan_us", ms(t.elapsed()) * 1e3);
        let state = ResumeState::fresh(g.task_count(), processors as usize, 0.0);
        let t = Instant::now();
        let replan = Rescheduler.reschedule(g, matrix, alloc, &state);
        self.add("sched.reschedule_ms", ms(t.elapsed()));
        black_box(replan.expect("a fresh state has every processor alive"));
    }

    /// Writes the mean per operation of every key in `keys` (over `count`
    /// operations) into `result`.
    pub fn means(&self, keys: &[&'static str], count: f64, result: &mut RunResult) {
        for &key in keys {
            result.set(key, self.sum(key) / count.max(1.0));
        }
    }

    /// Writes the ratios derived from the ledger's sums into `result`.
    pub fn ratios(&self, result: &mut RunResult) {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let hits = self.sum("aux.cache_hits");
        result.set(
            "emts.cache_hit_rate",
            ratio(hits, hits + self.sum("aux.cache_misses")),
        );
        let reused = self.sum("aux.prefix_reused");
        result.set(
            "fitness.prefix_reuse_rate",
            ratio(reused, reused + self.sum("aux.tasks_placed")),
        );
        result.set(
            "emts.eval_us",
            ratio(
                self.sum("emts.evaluate_ms") * 1e3,
                self.sum("aux.offspring"),
            ),
        );
        result.set(
            "heuristics.cpa_step_us",
            ratio(
                (self.sum("heuristics.mcpa_ms") + self.sum("heuristics.hcpa_ms")) * 1e3,
                self.sum("heuristics.cpa_steps"),
            ),
        );
    }
}

/// Milliseconds recorded under span path `path` (0 if it never ran).
pub fn phase_ms(report: &RunReport, path: &str) -> f64 {
    report.phase(path).map_or(0.0, |p| p.seconds * 1e3)
}
