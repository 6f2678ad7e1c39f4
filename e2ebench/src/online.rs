//! The `online-churn` workload: `sim::online::run_online` on Chti plus one
//! spare under node churn. A round runs the loop once on each of
//! [`STREAMS`] independent arrival streams, each one full pass of the
//! streaming DAGGEN grid.

use crate::layers::{phase_ms, Ledger, EA_LAYERS, PTG_LAYERS};
use crate::metrics::{peak_rss_mb, RunResult};
use crate::{measure, ms, stats, validate, Args, Measured};
use emts::EmtsConfig;
use exec_model::{SyntheticModel, TimeMatrix};
use obs::{NoopRecorder, Recorder, StatsRecorder};
use platform::Cluster;
use sched::{ListScheduler, Mapper};
use sim::executor::execute_obs;
use sim::faults::ChurnSpec;
use sim::formats::{parse_ptg, render_ptg};
use sim::online::{run_online, OnlineConfig, OnlineReport};
use std::time::Instant;
use workloads::stream::{item, item_seed};
use workloads::CostConfig;

/// Jobs per run of the loop: one full pass of the 144-point streaming grid
/// (48 shapes each of n = 20, 50 and 100, in that order).
pub const JOBS: u64 = 144;
/// Independent arrival streams per round. One stream's work varies by
/// about 8% between quartiles of seeds; a round over three halves that,
/// and a round (~12 s here) is short enough that a 30 s run repeats it
/// three times.
pub const STREAMS: u64 = 3;
/// Mean Poisson inter-arrival time, simulated seconds.
pub const ARRIVAL_MEAN: f64 = 30.0;
/// Decision-epoch period, simulated seconds.
pub const EPOCH: f64 = 60.0;
/// Jobs admitted at once; later arrivals queue.
pub const MAX_BACKLOG: usize = 4;
/// Node churn: failures, repairs, one spare that joins later.
pub const CHURN: &str = "fail_every=200,repair_after=120,spares=1,join_every=500";

/// Separates the per-stream seeds from the run seed.
const STREAM_SALT: u64 = 0x0C4E_2011_57EA_0001;

/// Set-ups timed after each round (a round takes 11–12 s here).
const SETUPS_PER_ROUND: usize = 5;

/// Loop seed of the set-up's warm-up: fixed, so that set-up time does not
/// follow the run's seed.
const WARM_UP_SEED: u64 = 0x0A2B_E2E0_0000_0002;

/// One arrival stream: the loop's configuration and its jobs' graphs,
/// rendered (the loop generates the same graphs from the seed itself;
/// these feed the solo reference pass).
struct Stream {
    cfg: OnlineConfig,
    texts: Vec<String>,
}

/// Generated inputs of one run.
struct Inputs {
    cluster: Cluster,
    model: SyntheticModel,
    streams: Vec<Stream>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let streams = (0..STREAMS)
            .map(|k| {
                let cfg = OnlineConfig {
                    seed: item_seed(seed ^ STREAM_SALT, k),
                    jobs: JOBS,
                    arrival_mean: ARRIVAL_MEAN,
                    epoch: EPOCH,
                    epoch_budget: None,
                    churn: ChurnSpec::parse(CHURN).expect("the churn spec is valid"),
                    slo_factor: 4.0,
                    emts: Some(EmtsConfig::emts5()),
                    max_backlog: MAX_BACKLOG,
                    sabotage_ring0: Vec::new(),
                    costs: CostConfig::default(),
                };
                let texts = (0..JOBS)
                    .map(|i| render_ptg(&item(cfg.seed, i, &cfg.costs).ptg))
                    .collect();
                Stream { cfg, texts }
            })
            .collect();
        Inputs {
            cluster: platform::chti(),
            model: SyntheticModel::default(),
            streams,
        }
    }

    /// Runs the loop on stream `k`; returns its report and wall ms.
    fn run<R: Recorder>(&self, k: usize, rec: &R) -> (Result<OnlineReport, String>, f64) {
        let t = Instant::now();
        let report = run_online(&self.cluster, &self.model, &self.streams[k].cfg, rec);
        (report.map_err(|e| e.to_string()), ms(t.elapsed()))
    }

    /// Processors the loop can ever use: the base platform plus spares.
    fn processors(&self) -> u32 {
        self.cluster.processors + self.streams[0].cfg.churn.spares
    }
}

/// True when two runs made the same decisions: event traces, job outcomes,
/// and per-epoch ring, backlog and admissions (wall-clock fields aside).
fn same_decisions(a: &OnlineReport, b: &OnlineReport) -> bool {
    let decisions = |r: &OnlineReport| -> Vec<_> {
        r.epochs
            .iter()
            .map(|e| {
                (
                    e.epoch,
                    e.time.to_bits(),
                    e.ring,
                    e.backlog,
                    e.admitted,
                    e.degraded,
                    e.overran,
                )
            })
            .collect()
    };
    a.events == b.events && a.jobs == b.jobs && decisions(a) == decisions(b)
}

/// Checks on one run as a whole: every job completes, every decision epoch
/// ran the full EMTS ring with no overrun or watchdog degradation, and the
/// run repeats the first run's decisions.
fn check_run(report: &OnlineReport, first: Option<&OnlineReport>) -> Result<(), String> {
    let t = &report.totals;
    if t.completed != JOBS || report.jobs.len() as u64 != JOBS {
        return Err(format!("{} of {JOBS} jobs completed", t.completed));
    }
    if t.ring0_epochs != t.decision_epochs || t.deadline_overruns != 0 || t.watchdog_degraded != 0 {
        return Err(format!(
            "{} of {} epochs in ring 0, {} overruns, {} degraded",
            t.ring0_epochs, t.decision_epochs, t.deadline_overruns, t.watchdog_degraded
        ));
    }
    if first.is_some_and(|f| !same_decisions(f, report)) {
        return Err("decisions differ between runs".into());
    }
    Ok(())
}

/// Per-stream bookkeeping across rounds.
struct Book {
    first: Vec<Option<OnlineReport>>,
    failed_runs: Vec<u64>,
}

impl Book {
    /// Checks one run of stream `k`; returns the report if it passed.
    fn record(&mut self, k: usize, report: Result<OnlineReport, String>) -> Option<OnlineReport> {
        let checked = report.and_then(|r| check_run(&r, self.first[k].as_ref()).map(|()| r));
        match checked {
            Ok(r) => {
                if self.first[k].is_none() {
                    self.first[k] = Some(r.clone());
                }
                Some(r)
            }
            Err(e) => {
                eprintln!("e2ebench: online run of stream {k} failed: {e}");
                self.failed_runs[k] += 1;
                None
            }
        }
    }
}

/// Reference figures of one job, computed apart from the loop.
struct Reference {
    /// Solo MCPA makespan on all processors.
    mcpa: f64,
    /// Critical path with every task at its fastest width.
    min_cp: f64,
}

/// Runs the online workload for `args.seconds` and returns its metrics.
pub fn run(args: &Args) -> RunResult {
    let setup = || {
        let inp = Inputs::generate(args.seed);
        // Warm-up: a two-job loop on a stream that does not depend on the
        // run's seed.
        let warm = OnlineConfig {
            seed: WARM_UP_SEED,
            jobs: 2,
            ..inp.streams[0].cfg.clone()
        };
        let _ = std::hint::black_box(run_online(&inp.cluster, &inp.model, &warm, &NoopRecorder));
        inp
    };
    let streams = STREAMS as usize;
    let mut book = Book {
        first: vec![None; streams],
        failed_runs: vec![0; streams],
    };
    let mut result = RunResult::default();

    // Timed rounds. A traced run follows each untraced run of a stream
    // with a traced run of it, so that both see the same machine state and
    // their ratio is the tracing overhead.
    let mut latencies = Vec::new();
    let mut completed = 0u64;
    let mut loop_ms = 0.0;
    let mut traced_ms = 0.0;
    let mut ledger = Ledger::default();
    let Measured {
        inputs: inp,
        setup_s,
        rounds,
        ..
    } = measure(args.seconds, SETUPS_PER_ROUND, setup, |inp| {
        for (k, stream) in inp.streams.iter().enumerate() {
            let (report, wall) = inp.run(k, &NoopRecorder);
            loop_ms += wall;
            if let Some(r) = book.record(k, report) {
                completed += r.totals.completed;
                latencies.extend(r.epochs.iter().map(|e| e.decision_seconds * 1e3));
            }
            if !args.trace {
                continue;
            }
            let rec = StatsRecorder::new();
            let (report, wall) = inp.run(k, &rec);
            traced_ms += wall;
            let Some(r) = book.record(k, report) else {
                continue;
            };
            let rep = rec.report("e2ebench");
            let lambda = stream.cfg.emts.as_ref().map_or(0, |c| c.lambda);
            ledger.add_emts(&rep, "online.decide/ea", lambda);
            ledger.add("emts.run_ms", phase_ms(&rep, "online.decide/ea"));
            ledger.add("sim.online_decide_ms", phase_ms(&rep, "online.decide"));
            ledger.add("aux.loop_ms", wall);
            ledger.add("aux.epochs", r.totals.decision_epochs as f64);
            ledger.add("sim.reactive_replans", r.totals.reactive_replans as f64);
        }
    });
    // Runs of each stream's loop.
    let runs = (rounds * if args.trace { 2 } else { 1 }) as u64;

    // The solo reference pass: per-job references for the checks and, in a
    // traced run, the per-PTG layers per job (its ledger keys are disjoint
    // from the loop's).
    let mut refs = Vec::with_capacity(streams);
    for stream in &inp.streams {
        refs.push(solo_pass(stream, &inp, args.trace.then_some(&mut ledger)));
    }

    if args.trace {
        let loops = (rounds * streams) as f64;
        let epochs = ledger.sum("aux.epochs");
        ledger.means(&PTG_LAYERS, (STREAMS * JOBS) as f64, &mut result);
        ledger.means(&EA_LAYERS, epochs, &mut result);
        ledger.ratios(&mut result);
        let decide = ledger.sum("sim.online_decide_ms") / epochs;
        let ea = ledger.sum("emts.run_ms") / epochs;
        result.set("sim.online_decide_ms", decide);
        result.set("sim.online_ea_ms", ea);
        result.set("sim.online_repair_ms", decide - ea);
        result.set("sim.decision_epochs", epochs / loops);
        result.set(
            "sim.reactive_replans",
            ledger.sum("sim.reactive_replans") / loops,
        );
        // Loop time outside the `online.decide` spans: admission (job
        // generation, matrix, MCPA and its makespan, which the loop does
        // not span) and event handling.
        result.set(
            "obs.unattributed_ms",
            (ledger.sum("aux.loop_ms") - ledger.sum("sim.online_decide_ms")) / epochs,
        );
        result.set(
            "obs.trace_overhead_pct",
            (traced_ms / loop_ms - 1.0) * 100.0,
        );
    }

    // Per-job checks on each stream's first run (every later run repeated
    // it exactly, or was counted failed).
    let mut failed = 0u64;
    let mut gains = Vec::new();
    for (k, refs) in refs.iter().enumerate() {
        let failed_runs = book.failed_runs[k];
        failed += failed_runs * JOBS;
        let Some(report) = &book.first[k] else {
            continue;
        };
        for job in &report.jobs {
            let r = &refs[job.job as usize];
            let flow = job.completion - job.arrival;
            let fault = if flow < r.min_cp * (1.0 - 1e-9) {
                Some(format!(
                    "flow time {flow} below its critical path {}",
                    r.min_cp
                ))
            } else if job.ideal.to_bits() != r.mcpa.to_bits() {
                Some(format!(
                    "ideal {} differs from solo MCPA {}",
                    job.ideal, r.mcpa
                ))
            } else {
                None
            };
            match fault {
                Some(why) => {
                    eprintln!("e2ebench: stream {k} job {} failed: {why}", job.job);
                    failed += runs - failed_runs;
                }
                None => gains.push(r.mcpa / flow),
            }
        }
    }

    result.attempted = runs * STREAMS * JOBS;
    result.failed = failed;
    result.set("setup_s", setup_s);
    result.set("ptgs_per_s", completed as f64 / (loop_ms / 1e3));
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

/// The solo reference pass over every job of `stream`: parse, matrix on
/// all processors, MCPA, its makespan, and the fastest-width critical
/// path. With a ledger, also times every per-PTG layer on the job (the
/// heuristics, then map, makespan-only evaluation, fresh replan and replay
/// of the MCPA allocation).
fn solo_pass(stream: &Stream, inp: &Inputs, mut ledger: Option<&mut Ledger>) -> Vec<Reference> {
    let p = inp.processors();
    let speed = inp.cluster.speed_flops();
    let delta = stream.cfg.emts.as_ref().map_or(0.9, |c| c.delta);
    let mut refs = Vec::with_capacity(stream.texts.len());
    for text in &stream.texts {
        let t = Instant::now();
        let g = parse_ptg(text).expect("rendered PTGs parse");
        let parsed = Instant::now();
        let matrix = TimeMatrix::compute(&g, &inp.model, speed, p);
        let computed = Instant::now();
        let mcpa = heuristics::Allocator::allocate(&heuristics::Mcpa, &g, &matrix);
        let fastest: Vec<f64> = g
            .task_ids()
            .map(|v| {
                (1..=p)
                    .map(|q| matrix.time(v, q))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        refs.push(Reference {
            mcpa: ListScheduler.makespan(&g, &matrix, &mcpa),
            min_cp: validate::longest_path(&g, &fastest),
        });
        let Some(l) = ledger.as_deref_mut() else {
            continue;
        };
        l.add("sim.parse_ms", ms(parsed - t));
        l.add("exec-model.matrix_ms", ms(computed - parsed));
        let alloc = l.time_heuristics(&g, &matrix, delta);
        let t = Instant::now();
        let schedule = ListScheduler.map(&g, &matrix, &alloc);
        l.add("sched.map_ms", ms(t.elapsed()));
        l.time_evaluators(&g, &matrix, &alloc, p);
        let rec = StatsRecorder::new();
        let t = Instant::now();
        let replay = execute_obs(&g, &schedule, &rec);
        l.add("sim.replay_ms", ms(t.elapsed()));
        replay.expect("a mapped schedule replays");
        l.add("sim.replay_events", rec.counter("sim.events") as f64);
    }
    refs
}
