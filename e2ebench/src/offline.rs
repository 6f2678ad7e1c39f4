//! The offline workloads: every PTG goes through
//! `parse_ptg` → `TimeMatrix::compute` → EMTS → `ListScheduler::map` →
//! `execute`, one PTG after another on one thread (a closed loop).

use crate::layers::{Ledger, EA_LAYERS, PTG_LAYERS};
use crate::metrics::{peak_rss_mb, RunResult};
use crate::{measure, ms, stats, validate, Args, Measured};
use emts::{Emts, EmtsConfig};
use exec_model::{SyntheticModel, TimeMatrix};
use heuristics::{Allocator, DeltaCritical, Hcpa, Mcpa};
use obs::{NoopRecorder, Recorder, StatsRecorder};
use platform::Cluster;
use ptg::Ptg;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sched::{Allocation, ListScheduler, Mapper, Schedule};
use sim::executor::execute_obs;
use sim::formats::{parse_ptg, render_ptg};
use std::time::{Duration, Instant};
use workloads::daggen::{random_ptg, DaggenParams};
use workloads::stream::{item_params, item_seed};
use workloads::CostConfig;

/// One offline workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Size class: tasks per PTG.
    pub tasks: usize,
    /// PTGs per round (a multiple of the 48 shapes of one size class).
    pub ptgs: usize,
    pub cluster: fn() -> Cluster,
    pub emts: fn() -> EmtsConfig,
}

/// MCPA+HCPA seeding dominates: n = 100 on Grelon (P = 120), EMTS5.
pub const GRELON_SEED: Workload = Workload {
    tasks: 100,
    ptgs: 96,
    cluster: platform::grelon,
    emts: EmtsConfig::emts5,
};

/// The EA generations dominate: n = 50 on Chti (P = 20), EMTS10.
pub const CHTI_EVOLVE: Workload = Workload {
    tasks: 50,
    ptgs: 144,
    cluster: platform::chti,
    emts: EmtsConfig::emts10,
};

/// Shapes of one size class of the §IV-C grid (width × regularity ×
/// density × jump); the streaming grid's first 48 items are exactly these.
const SHAPES: u64 = 48;

/// PTGs run through the pipeline during set-up.
const WARM_UP_PTGS: usize = 4;

/// Set-ups timed after each round (a round takes 2–3 s here).
const SETUPS_PER_ROUND: usize = 3;

/// Seed of the warm-up PTGs: fixed, so that set-up time does not follow
/// which graphs the run's seed draws.
const WARM_UP_SEED: u64 = 0x0A2B_E2E0_0000_0001;

/// Separates the per-PTG EMTS seeds from the graph-generation stream.
const EMTS_SALT: u64 = 0x5EED_E2E0_BE4C_0001;

/// Generated inputs of one run.
struct Inputs {
    texts: Vec<String>,
    emts_seeds: Vec<u64>,
    cluster: Cluster,
    model: SyntheticModel,
    cfg: EmtsConfig,
}

impl Inputs {
    /// The first `ptgs` PTGs of workload `w` drawn from `seed`.
    fn generate(w: &Workload, seed: u64, ptgs: usize) -> Inputs {
        let costs = CostConfig::default();
        let texts = (0..ptgs as u64)
            .map(|i| {
                let params = DaggenParams {
                    n: w.tasks,
                    ..item_params(i % SHAPES)
                };
                let mut rng = ChaCha8Rng::seed_from_u64(item_seed(seed, i));
                render_ptg(&random_ptg(&params, &costs, &mut rng))
            })
            .collect();
        Inputs {
            texts,
            emts_seeds: (0..ptgs as u64)
                .map(|i| item_seed(seed ^ EMTS_SALT, i))
                .collect(),
            cluster: (w.cluster)(),
            model: SyntheticModel::default(),
            cfg: (w.emts)(),
        }
    }

    fn matrix(&self, g: &Ptg) -> TimeMatrix {
        TimeMatrix::compute(
            g,
            &self.model,
            self.cluster.speed_flops(),
            self.cluster.processors,
        )
    }
}

/// What one pass of the pipeline produced for a PTG.
#[derive(Debug, Clone, PartialEq)]
struct Output {
    alloc: Vec<u32>,
    emts_makespan: f64,
    schedule: Schedule,
    replay_makespan: f64,
}

/// Wall time of each pipeline stage.
#[derive(Debug)]
struct Stages {
    parse: Duration,
    matrix: Duration,
    emts: Duration,
    map: Duration,
    replay: Duration,
}

/// One pipeline pass with the graph and matrix it built.
struct Pass {
    out: Output,
    stages: Stages,
    g: Ptg,
    matrix: TimeMatrix,
}

/// Runs PTG `i` through the whole pipeline. EMTS evaluates serially
/// (no worker threads), so the run uses one thread.
fn pipeline<R: Recorder>(inp: &Inputs, i: usize, rec: &R) -> Result<Pass, String> {
    let t = Instant::now();
    let g = parse_ptg(&inp.texts[i]).map_err(|e| format!("parse: {e}"))?;
    let parsed = Instant::now();
    let matrix = inp.matrix(&g);
    let computed = Instant::now();
    let r = Emts::new(inp.cfg.clone()).run_with_workers(&g, &matrix, inp.emts_seeds[i], 0, rec);
    let evolved = Instant::now();
    let schedule = ListScheduler.map(&g, &matrix, &r.best);
    let mapped = Instant::now();
    let replay = execute_obs(&g, &schedule, rec).map_err(|e| format!("replay: {e}"))?;
    let replayed = Instant::now();
    Ok(Pass {
        out: Output {
            alloc: r.best.into_vec(),
            emts_makespan: r.best_makespan,
            schedule,
            replay_makespan: replay.makespan,
        },
        stages: Stages {
            parse: parsed - t,
            matrix: computed - parsed,
            emts: evolved - computed,
            map: mapped - evolved,
            replay: replayed - mapped,
        },
        g,
        matrix,
    })
}

/// Per-PTG bookkeeping across rounds: the first output, how often the PTG
/// ran, and whether any of its checks failed.
struct Book {
    first: Vec<Option<Output>>,
    runs: Vec<u64>,
    failed: Vec<bool>,
}

impl Book {
    fn new(n: usize) -> Book {
        Book {
            first: vec![None; n],
            runs: vec![0; n],
            failed: vec![false; n],
        }
    }

    fn fail(&mut self, i: usize, why: &str) {
        if !self.failed[i] {
            eprintln!("e2ebench: PTG {i} failed: {why}");
        }
        self.failed[i] = true;
    }

    /// Records one run of PTG `i`; a later run must repeat the first one
    /// exactly.
    fn record(&mut self, i: usize, out: Result<Output, String>) {
        self.runs[i] += 1;
        match (out, &self.first[i]) {
            (Err(e), _) => self.fail(i, &e),
            (Ok(o), None) => self.first[i] = Some(o),
            (Ok(o), Some(first)) if o != *first => self.fail(i, "output differs between runs"),
            (Ok(_), Some(_)) => {}
        }
    }

    fn attempted(&self) -> u64 {
        self.runs.iter().sum()
    }

    fn failed_runs(&self) -> u64 {
        (0..self.runs.len())
            .filter(|&i| self.failed[i])
            .map(|i| self.runs[i])
            .sum()
    }
}

/// The independent checks on PTG `i`'s output. Returns the ratio of its
/// MCPA makespan to its EMTS makespan.
fn check(inp: &Inputs, i: usize, out: &Output) -> Result<f64, String> {
    let g = parse_ptg(&inp.texts[i]).map_err(|e| format!("parse: {e}"))?;
    let matrix = inp.matrix(&g);
    let p = inp.cluster.processors;
    validate::check_schedule(&g, &matrix, &out.alloc, &out.schedule, p)?;
    let makespan = out.schedule.makespan();
    if (out.replay_makespan - makespan).abs() > 1e-9 * makespan {
        return Err(format!(
            "replay makespan {} differs from the schedule's {makespan}",
            out.replay_makespan
        ));
    }
    if out.emts_makespan.to_bits() != makespan.to_bits() {
        return Err(format!(
            "EMTS reports makespan {} but its allocation maps to {makespan}",
            out.emts_makespan
        ));
    }
    let mut mcpa = f64::NAN;
    let seeds: [(&str, Allocation); 3] = [
        ("MCPA", Mcpa.allocate(&g, &matrix)),
        ("HCPA", Hcpa.allocate(&g, &matrix)),
        (
            "Δ-critical",
            DeltaCritical::new(inp.cfg.delta).allocate(&g, &matrix),
        ),
    ];
    for (name, alloc) in seeds {
        let heuristic = ListScheduler.makespan(&g, &matrix, &alloc);
        if makespan > heuristic {
            return Err(format!(
                "EMTS makespan {makespan} exceeds {name}'s {heuristic}"
            ));
        }
        if name == "MCPA" {
            mcpa = heuristic;
        }
    }
    let bound = validate::lower_bound(&g, &matrix, p);
    if makespan < bound * (1.0 - 1e-9) {
        return Err(format!("makespan {makespan} below the lower bound {bound}"));
    }
    Ok(mcpa / makespan)
}

/// Runs one offline workload for `args.seconds` and returns its metrics.
pub fn run(w: &Workload, args: &Args) -> RunResult {
    let setup = || {
        let inp = Inputs::generate(w, args.seed, w.ptgs);
        // Warm-up: a few PTGs of the same size class that do not depend on
        // the run's seed.
        let warm = Inputs::generate(w, WARM_UP_SEED, WARM_UP_PTGS);
        for i in 0..WARM_UP_PTGS {
            let _ = std::hint::black_box(pipeline(&warm, i, &NoopRecorder).map(|p| p.out));
        }
        inp
    };
    let n = w.ptgs;
    let mut book = Book::new(n);
    let mut result = RunResult::default();

    // Timed rounds. A traced run follows each untraced pass with a traced
    // pass of the same PTG, so that both see the same machine state and
    // their ratio is the tracing overhead.
    let mut latencies = Vec::new();
    let mut traced = Vec::new();
    let mut ledger = Ledger::default();
    let Measured {
        inputs: inp,
        setup_s,
        rounds,
        wall,
    } = measure(args.seconds, SETUPS_PER_ROUND, setup, |inp| {
        for i in 0..n {
            let t = Instant::now();
            let pass = pipeline(inp, i, &NoopRecorder);
            latencies.push(ms(t.elapsed()));
            book.record(i, pass.map(|p| p.out));
            if !args.trace {
                continue;
            }
            let rec = StatsRecorder::new();
            let t = Instant::now();
            let pass = pipeline(inp, i, &rec);
            let wall = ms(t.elapsed());
            traced.push(wall);
            match pass {
                Ok(pass) => {
                    trace_ptg(&mut ledger, inp, &pass, wall, &rec);
                    book.record(i, Ok(pass.out));
                }
                Err(e) => book.record(i, Err(e)),
            }
        }
    });

    if args.trace {
        let ptgs = traced.len() as f64;
        ledger.means(&PTG_LAYERS, ptgs, &mut result);
        ledger.means(&EA_LAYERS, ptgs, &mut result);
        ledger.means(&["obs.unattributed_ms"], ptgs, &mut result);
        ledger.ratios(&mut result);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        result.set(
            "obs.trace_overhead_pct",
            (mean(&traced) / mean(&latencies) - 1.0) * 100.0,
        );
        for key in [
            "sim.online_decide_ms",
            "sim.online_ea_ms",
            "sim.online_repair_ms",
            "sim.decision_epochs",
            "sim.reactive_replans",
        ] {
            result.set(key, 0.0);
        }
    }

    let mut gains = Vec::with_capacity(n);
    for i in 0..n {
        let Some(out) = book.first[i].take() else {
            continue;
        };
        match check(&inp, i, &out) {
            Ok(gain) if !book.failed[i] => gains.push(gain),
            Ok(_) => {}
            Err(e) => book.fail(i, &e),
        }
    }

    result.attempted = book.attempted();
    result.failed = book.failed_runs();
    result.set("setup_s", setup_s);
    result.set("ptgs_per_s", (rounds * n) as f64 / wall.as_secs_f64());
    result.set(
        "latency_ms_p50",
        stats::median(&latencies).unwrap_or(f64::NAN),
    );
    result.set(
        "latency_ms_p90",
        stats::percentile(&latencies, 0.9).unwrap_or(f64::NAN),
    );
    result.set("makespan_gain", stats::geomean(&gains).unwrap_or(f64::NAN));
    result.set("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    result
}

/// Adds one traced pipeline pass of `wall` ms to the ledger, then times
/// the layers the pipeline reaches only inside EMTS (the seed heuristics)
/// or not at all (makespan-only evaluation, a fresh replan) on the same
/// PTG.
fn trace_ptg(ledger: &mut Ledger, inp: &Inputs, pass: &Pass, wall: f64, rec: &StatsRecorder) {
    let report = rec.report("e2ebench");
    let st = &pass.stages;
    ledger.add("sim.parse_ms", ms(st.parse));
    ledger.add("exec-model.matrix_ms", ms(st.matrix));
    ledger.add("emts.run_ms", ms(st.emts));
    ledger.add("sched.map_ms", ms(st.map));
    ledger.add("sim.replay_ms", ms(st.replay));
    ledger.add(
        "sim.replay_events",
        report.counters.get("sim.events").copied().unwrap_or(0) as f64,
    );
    let ea_phases = ledger.add_emts(&report, "ea", inp.cfg.lambda);
    let attributed = ms(st.parse) + ms(st.matrix) + ea_phases + ms(st.map) + ms(st.replay);
    ledger.add("obs.unattributed_ms", wall - attributed);

    ledger.time_heuristics(&pass.g, &pass.matrix, inp.cfg.delta);
    let alloc = Allocation::from_vec(pass.out.alloc.clone());
    ledger.time_evaluators(&pass.g, &pass.matrix, &alloc, inp.cluster.processors);
}
