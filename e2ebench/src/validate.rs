//! Output checks written apart from the program: a schedule validator and
//! an allocation-independent makespan lower bound.
//!
//! Neither uses the scheduler's own validation or bound code, so a fault
//! there cannot hide a fault in the schedules the benchmark measures.

use exec_model::TimeMatrix;
use ptg::{Ptg, TaskId};
use sched::Schedule;

/// Relative tolerance for comparing a placement's duration with the time
/// matrix.
const DURATION_TOL: f64 = 1e-9;

/// Checks `schedule` for `g` under allocation `alloc` on `processors`
/// processors. Returns the first violation found:
///
/// * one placement per task, in task order;
/// * every task holds exactly `alloc[v]` distinct processors, all `< P`;
/// * its duration is `t(v, alloc[v])` from `matrix`;
/// * every task starts at or after each predecessor's finish;
/// * no processor runs two tasks at once.
pub fn check_schedule(
    g: &Ptg,
    matrix: &TimeMatrix,
    alloc: &[u32],
    schedule: &Schedule,
    processors: u32,
) -> Result<(), String> {
    let n = g.task_count();
    if schedule.placements.len() != n || alloc.len() != n {
        return Err(format!(
            "{} placements and {} allocations for {n} tasks",
            schedule.placements.len(),
            alloc.len()
        ));
    }
    let mut per_processor: Vec<Vec<(f64, f64, usize)>> = vec![Vec::new(); processors as usize];
    for (i, pl) in schedule.placements.iter().enumerate() {
        if pl.task.index() != i {
            return Err(format!("placement {i} belongs to task {}", pl.task.index()));
        }
        let mut procs = pl.processors.clone();
        procs.sort_unstable();
        procs.dedup();
        if procs.len() != pl.processors.len() {
            return Err(format!("task {i} lists a processor twice"));
        }
        if procs.len() != alloc[i] as usize {
            return Err(format!(
                "task {i} holds {} processors, allocated {}",
                procs.len(),
                alloc[i]
            ));
        }
        if !(pl.start >= 0.0 && pl.finish >= pl.start) {
            return Err(format!("task {i} runs from {} to {}", pl.start, pl.finish));
        }
        let expected = matrix.time(TaskId::from_index(i), alloc[i]);
        if ((pl.finish - pl.start) - expected).abs() > DURATION_TOL * expected {
            return Err(format!(
                "task {i} lasts {} s, the model gives {expected} s",
                pl.finish - pl.start
            ));
        }
        for &q in &procs {
            let Some(slot) = per_processor.get_mut(q as usize) else {
                return Err(format!("task {i} uses processor {q} of {processors}"));
            };
            slot.push((pl.start, pl.finish, i));
        }
    }
    for v in g.task_ids() {
        let start = schedule.placements[v.index()].start;
        for &u in g.predecessors(v) {
            let pred_finish = schedule.placements[u.index()].finish;
            if start < pred_finish {
                return Err(format!(
                    "task {} starts at {start} before predecessor {} finishes at {pred_finish}",
                    v.index(),
                    u.index()
                ));
            }
        }
    }
    for (q, busy) in per_processor.iter_mut().enumerate() {
        busy.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in busy.windows(2) {
            let ((_, finish_a, a), (start_b, _, b)) = (w[0], w[1]);
            if start_b < finish_a {
                return Err(format!(
                    "processor {q} runs tasks {a} and {b} at once ({start_b} < {finish_a})"
                ));
            }
        }
    }
    Ok(())
}

/// A lower bound on the makespan of any schedule of `g` on `processors`
/// processors: the larger of the minimum-area bound
/// `Σ_v min_p p·t(v, p) / P` and the critical path with every task at its
/// fastest width.
pub fn lower_bound(g: &Ptg, matrix: &TimeMatrix, processors: u32) -> f64 {
    let widths = 1..=processors.min(matrix.p_max());
    let mut area = 0.0;
    let mut fastest = vec![f64::INFINITY; g.task_count()];
    for v in g.task_ids() {
        let mut min_area = f64::INFINITY;
        for p in widths.clone() {
            let t = matrix.time(v, p);
            min_area = min_area.min(p as f64 * t);
            fastest[v.index()] = fastest[v.index()].min(t);
        }
        area += min_area;
    }
    let area_bound = area / processors as f64;
    area_bound.max(longest_path(g, &fastest))
}

/// The longest path through `g` with task weights `weight`, by its own
/// topological sweep (Kahn's algorithm).
pub fn longest_path(g: &Ptg, weight: &[f64]) -> f64 {
    let n = g.task_count();
    let mut indegree: Vec<usize> = g.task_ids().map(|v| g.predecessors(v).len()).collect();
    let mut ready: Vec<TaskId> = g.task_ids().filter(|v| indegree[v.index()] == 0).collect();
    let mut finish = vec![0.0f64; n];
    let mut longest = 0.0f64;
    while let Some(v) = ready.pop() {
        let start = g
            .predecessors(v)
            .iter()
            .map(|u| finish[u.index()])
            .fold(0.0, f64::max);
        finish[v.index()] = start + weight[v.index()];
        longest = longest.max(finish[v.index()]);
        for &w in g.successors(v) {
            indegree[w.index()] -= 1;
            if indegree[w.index()] == 0 {
                ready.push(w);
            }
        }
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_model::SyntheticModel;
    use heuristics::{Allocator, Mcpa};
    use ptg::PtgBuilder;
    use sched::{ListScheduler, Mapper};

    /// A diamond a → {b, c} → d, scheduled by the program's mapper under
    /// MCPA on 6 processors.
    fn diamond() -> (Ptg, TimeMatrix, Vec<u32>, Schedule) {
        let mut b = PtgBuilder::new();
        let a = b.add_task("a", 8e9, 0.1);
        let x = b.add_task("b", 20e9, 0.05);
        let y = b.add_task("c", 12e9, 0.2);
        let d = b.add_task("d", 6e9, 0.1);
        for (u, v) in [(a, x), (a, y), (x, d), (y, d)] {
            b.add_edge(u, v).expect("acyclic");
        }
        let g = b.build().expect("valid graph");
        let matrix = TimeMatrix::compute(&g, &SyntheticModel::default(), 4.3e9, 6);
        let alloc = Mcpa.allocate(&g, &matrix);
        let schedule = ListScheduler.map(&g, &matrix, &alloc);
        (g, matrix, alloc.into_vec(), schedule)
    }

    #[test]
    fn accepts_the_mappers_schedule() {
        let (g, matrix, alloc, schedule) = diamond();
        check_schedule(&g, &matrix, &alloc, &schedule, 6).expect("valid");
        assert!(schedule.makespan() >= lower_bound(&g, &matrix, 6));
    }

    #[test]
    fn rejects_a_double_booked_processor() {
        let (g, matrix, alloc, mut schedule) = diamond();
        // Run b and c at the same time on the same processors.
        let (b, c) = (1, 2);
        let start = schedule.placements[b].start;
        let pc = &mut schedule.placements[c];
        let len = pc.finish - pc.start;
        pc.start = start;
        pc.finish = start + len;
        let procs = schedule.placements[b].processors.clone();
        let width = schedule.placements[c].processors.len().min(procs.len());
        schedule.placements[c].processors = procs[..width].to_vec();
        let mut alloc = alloc;
        alloc[c] = width as u32;
        let t = matrix.time(TaskId::from_index(c), width as u32);
        schedule.placements[c].finish = start + t;
        let err = check_schedule(&g, &matrix, &alloc, &schedule, 6).expect_err("overlap");
        assert!(err.contains("at once"), "{err}");
    }

    #[test]
    fn rejects_a_broken_precedence() {
        let (g, matrix, alloc, mut schedule) = diamond();
        // Pull d to time 0, before its predecessors finish.
        let d = &mut schedule.placements[3];
        let len = d.finish - d.start;
        d.start = 0.0;
        d.finish = len;
        let err = check_schedule(&g, &matrix, &alloc, &schedule, 6).expect_err("precedence");
        assert!(err.contains("before predecessor"), "{err}");
    }

    #[test]
    fn rejects_a_wrong_processor_count() {
        let (g, matrix, mut alloc, schedule) = diamond();
        alloc[0] += 1;
        let err = check_schedule(&g, &matrix, &alloc, &schedule, 6).expect_err("width");
        assert!(err.contains("holds"), "{err}");
    }

    #[test]
    fn rejects_a_repeated_processor_and_an_out_of_range_one() {
        let (g, matrix, alloc, mut schedule) = diamond();
        let mut bad = schedule.clone();
        let first = bad.placements[0].processors[0];
        bad.placements[0].processors.push(first);
        let err = check_schedule(&g, &matrix, &alloc, &bad, 6).expect_err("repeat");
        assert!(err.contains("twice"), "{err}");
        let last = schedule.placements[0].processors.len() - 1;
        schedule.placements[0].processors[last] = 6;
        let err = check_schedule(&g, &matrix, &alloc, &schedule, 6).expect_err("range");
        assert!(err.contains("uses processor"), "{err}");
    }

    #[test]
    fn longest_path_of_a_chain_is_its_sum() {
        let mut b = PtgBuilder::new();
        let ids: Vec<_> = (0..4)
            .map(|i| b.add_task(format!("t{i}"), 1e9, 0.1))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1]).expect("acyclic");
        }
        let g = b.build().expect("valid graph");
        assert_eq!(longest_path(&g, &[1.0, 2.0, 3.0, 4.0]), 10.0);
    }
}
