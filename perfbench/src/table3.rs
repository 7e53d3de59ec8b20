//! `table3`: the paper's nine Table 3 design points, each solved
//! two-phase through `MapRequest::execute` in the calling thread, round
//! after round; the traced run also solves points 1 and 4 with the
//! complete formulation, once, after its timed loop.

use std::time::Instant;

use gmm_api::{MapReport, MapRequest, Termination};
use gmm_arch::Board;
use gmm_design::Design;
use gmm_workloads::table3_instance;

use crate::layers::{self, Probe};
use crate::report::{metric, RunReport};
use crate::schedule::{interleaved, measure_setup};
use crate::solve::{self, complete_pass, reference_request};
use crate::util::{median, peak_rss_mb, quantile, Rng};

#[derive(Debug, Clone)]
pub struct Table3Shape {
    /// Table 3 points (1-based) solved two-phase in every round.
    pub points: Vec<usize>,
    /// Points the traced run also solves with the complete formulation.
    pub complete_points: Vec<usize>,
    /// Set-ups timed before the loop and again after it; more are timed
    /// inside the loop (the median of all is reported).
    pub setups: usize,
    /// Loop seconds between two set-ups timed inside the loop.
    pub setup_every: f64,
}

impl Table3Shape {
    pub fn standard() -> Table3Shape {
        Table3Shape {
            points: (1..=9).collect(),
            complete_points: vec![1, 4],
            setups: 5,
            setup_every: 0.5,
        }
    }
}

struct Point {
    index: usize,
    design: Design,
    board: Board,
    request: MapRequest,
}

/// Set-up: build the instances and one request per point, and run one
/// untimed warm-up solve.
fn set_up(shape: &Table3Shape) -> Result<Vec<Point>, String> {
    let points: Vec<Point> = shape
        .points
        .iter()
        .map(|&index| {
            let (design, board, _) = table3_instance(index);
            let request = reference_request(design.clone(), board.clone());
            Point {
                index,
                design,
                board,
                request,
            }
        })
        .collect();
    points[0]
        .request
        .execute()
        .map_err(|e| format!("warm-up solve: {e}"))?;
    Ok(points)
}

pub fn run(shape: &Table3Shape, seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::default();
    let (mut setup_secs, points) = match measure_setup(shape.setups, || set_up(shape)) {
        Ok(up) => up,
        Err(e) => {
            report.fail(e);
            return report;
        }
    };

    // The seed orders the points within each round; the points are the
    // paper's fixed instances.
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..points.len()).collect();
    let mut first: Vec<Option<MapReport>> = points.iter().map(|_| None).collect();
    let mut lat_ms = Vec::new();
    let setups = |times| measure_setup(times, || set_up(shape)).map(|(secs, _)| secs);
    let schedule = interleaved(
        seconds,
        0,
        shape.setup_every,
        || {
            rng.shuffle(&mut order);
            for &i in &order {
                report.attempted += 1;
                let t = Instant::now();
                let result = points[i].request.execute();
                let ms = t.elapsed().as_secs_f64() * 1e3;
                match result {
                    Ok(r) if r.termination == Termination::Optimal => {
                        lat_ms.push(ms);
                        match &first[i] {
                            None => first[i] = Some(r),
                            Some(f) => {
                                if f.objective != r.objective {
                                    report.fail(format!(
                                        "point {}: objective changed between rounds",
                                        points[i].index
                                    ));
                                }
                            }
                        }
                    }
                    Ok(r) => {
                        report.failed += 1;
                        eprintln!("point {}: ended {:?}", points[i].index, r.termination);
                    }
                    Err(e) => {
                        report.failed += 1;
                        eprintln!("point {}: {e}", points[i].index);
                    }
                }
            }
        },
        || setups(1).map(|secs| secs[0]),
    );
    let rss = peak_rss_mb();
    let jobs_per_s = lat_ms.len() as f64 / schedule.loop_secs;
    report.samples = lat_ms.len();
    setup_secs.extend(schedule.setup_secs);
    match setups(shape.setups) {
        Ok(later) => setup_secs.extend(later),
        Err(e) => report.fail(e),
    }
    for e in schedule.setup_errors {
        report.fail(e);
    }

    let complete = if trace {
        complete_pass(&shape.complete_points, &mut report)
    } else {
        Vec::new()
    };
    check(&points, &first, &complete, &mut report);

    if trace {
        let probe = Probe {
            instances: points
                .iter()
                .map(|p| (p.design.clone(), p.board.clone()))
                .collect(),
            sequence: (0..points.len()).collect(),
            solve_probe: (0..points.len()).collect(),
            batch: points.len(),
            cache_cap: points.len(),
        };
        report.metrics = layers::run(&probe, &complete, None, jobs_per_s, &mut report.failures);
    } else {
        report.metrics = vec![
            metric("jobs_per_s", jobs_per_s, "jobs/s"),
            metric("lat_p50_ms", median(&mut lat_ms), "ms"),
            // Each point is a ninth of the samples, so the 90th percentile
            // would sit at the lower edge of the slowest point's share
            // (8/9 = 0.889); the 95th is that point's typical solve.
            metric("lat_p95_ms", quantile(&mut lat_ms, 0.95), "ms"),
            metric("peak_rss_mb", rss, "MB"),
            metric("setup_s", median(&mut setup_secs), "s"),
        ];
    }
    report
}

/// Every mapping validates and replays; no ILP optimum is worse than the
/// heuristic's answer; the two-phase and complete formulations agree on
/// the points solved both ways.
fn check(
    points: &[Point],
    first: &[Option<MapReport>],
    complete: &[solve::CompleteRun],
    report: &mut RunReport,
) {
    for (p, r) in points.iter().zip(first) {
        let what = format!("point {}", p.index);
        let Some(r) = r else { continue };
        let objective = r.objective.unwrap_or(f64::NAN);
        let outcome = r
            .outcome
            .as_ref()
            .expect("optimal reports carry an outcome");
        let mut results = vec![solve::valid_mapping(
            &what,
            &p.design,
            &p.board,
            &outcome.detailed,
        )];
        if let Some(h) = solve::heuristic_objective(&p.design, &p.board) {
            results.push(solve::within_heuristic(&what, objective, h));
        }
        if let Some(c) = complete.iter().find(|c| c.point == p.index) {
            results.push(solve::same_cost(&what, objective, c.weighted));
        }
        for e in results.into_iter().filter_map(Result::err) {
            report.fail(e);
        }
    }
}
