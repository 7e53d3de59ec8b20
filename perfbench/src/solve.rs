//! Direct in-process solves: the reference payloads the service's answers
//! are compared with, the Table 3 complete formulation, and the checks
//! every workload applies to what the program returned.

use std::time::Instant;

use gmm_api::{MapReport, MapRequest, SolveMode, Termination};
use gmm_arch::Board;
use gmm_core::pipeline::{Mapper, MapperOptions};
use gmm_core::{validate_detailed, CostWeights, DetailedMapping, SolverBackend};
use gmm_design::Design;
use gmm_ilp::branch::MipOptions;
use gmm_service::queue::JobSolution;
use gmm_service::{canonical_json, JobConfig};
use gmm_workloads::table3_instance;

use crate::report::RunReport;
use crate::util::{fingerprint, Fingerprint};

/// The configuration every benchmark job is submitted with.
pub fn job_config() -> JobConfig {
    JobConfig::default()
}

/// The request a mapsrv worker executes for `job_config()`, built the way
/// the queue builds it, so a direct solve is the service's cold solve.
pub fn reference_request(design: Design, board: Board) -> MapRequest {
    let config = job_config();
    let mut mip = MipOptions::default();
    mip.simplex.basis = config.lp_basis.into();
    mip.simplex.pricing = config.lp_pricing.into();
    MapRequest::new(design, board)
        .backend(SolverBackend::Serial(mip))
        .overlap_aware(config.overlap_aware)
        .solve_mode(config.solve_mode)
}

/// The canonical payload the service should serve for this instance.
pub fn reference_payload(design: &Design, board: &Board) -> Result<String, String> {
    let report = reference_request(design.clone(), board.clone())
        .execute()
        .map_err(|e| format!("reference solve failed: {e}"))?;
    payload_of(report)
}

/// Canonical JSON of an optimal report's mapping, as the cache stores it.
pub fn payload_of(report: MapReport) -> Result<String, String> {
    if report.termination != Termination::Optimal {
        return Err(format!("reference solve ended {:?}", report.termination));
    }
    let outcome = report.outcome.ok_or("optimal report without an outcome")?;
    Ok(canonical_json(&JobSolution {
        global: outcome.global,
        detailed: outcome.detailed,
    }))
}

/// The objective of a greedy-heuristic solve, when the heuristic finds one.
pub fn heuristic_objective(design: &Design, board: &Board) -> Option<f64> {
    MapRequest::new(design.clone(), board.clone())
        .solve_mode(SolveMode::Heuristic)
        .execute()
        .ok()
        .and_then(|r| r.objective)
}

/// One complete-formulation solve of a Table 3 point.
#[derive(Debug, Clone)]
pub struct CompleteRun {
    pub point: usize,
    pub secs: f64,
    /// Weighted cost of the complete formulation's assignment.
    pub weighted: f64,
    pub pivots: u64,
    pub nodes: u64,
    /// Time to build the model alone (`build_complete_model`).
    pub model_secs: f64,
}

/// Solve the standard instances of `points` with the paper's complete
/// one-step formulation (`Mapper::map_complete_run`).
pub fn complete_solves(points: &[usize]) -> Result<Vec<CompleteRun>, String> {
    points
        .iter()
        .map(|&point| {
            let (design, board, _) = table3_instance(point);
            let mapper = Mapper::new(MapperOptions::new());
            let t = Instant::now();
            let (assignment, _, telemetry) = mapper
                .map_complete_run(&design, &board)
                .map_err(|e| format!("complete solve of point {point} failed: {e}"))?;
            let secs = t.elapsed().as_secs_f64();
            let model_secs = complete_model_secs(&design, &board);
            Ok(CompleteRun {
                point,
                secs,
                weighted: assignment.cost.weighted(&CostWeights::default()),
                pivots: telemetry.lp_iterations,
                nodes: telemetry.nodes_explored,
                model_secs,
            })
        })
        .collect()
}

/// One pass of the complete solves, made by the traced run after its
/// timed loop: the solves count as operations, and a solve that fails
/// counts in `failed`.
pub fn complete_pass(points: &[usize], report: &mut RunReport) -> Vec<CompleteRun> {
    report.attempted += points.len() as u64;
    complete_solves(points).unwrap_or_else(|e| {
        report.failed += points.len() as u64;
        eprintln!("{e}");
        Vec::new()
    })
}

/// Time of `build_complete_model` alone on one instance.
pub fn complete_model_secs(design: &Design, board: &Board) -> f64 {
    let pre = gmm_core::PreTable::build(design, board);
    let matrix = gmm_core::CostMatrix::build(design, board, &pre);
    let t = Instant::now();
    let built = gmm_core::complete::build_complete_model(
        design,
        board,
        &pre,
        &matrix,
        &CostWeights::default(),
        false,
    );
    let secs = t.elapsed().as_secs_f64();
    drop(built);
    secs
}

/// Two solves of one instance must reach the same weighted cost.
pub fn same_cost(what: &str, a: f64, b: f64) -> Result<(), String> {
    if (a - b).abs() <= 1e-6 * a.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!("{what}: costs differ ({a} vs {b})"))
    }
}

/// An exact ILP optimum can never be worse than a heuristic answer.
pub fn within_heuristic(what: &str, ilp: f64, heuristic: f64) -> Result<(), String> {
    if ilp <= heuristic + 1e-6 * heuristic.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "{what}: ILP objective {ilp} exceeds the heuristic's {heuristic}"
        ))
    }
}

/// A mapping must satisfy every board/design constraint and replay
/// through the simulator.
pub fn valid_mapping(
    what: &str,
    design: &Design,
    board: &Board,
    mapping: &DetailedMapping,
) -> Result<(), String> {
    let violations = validate_detailed(design, board, mapping);
    if !violations.is_empty() {
        return Err(format!("{what}: invalid mapping: {:?}", violations[0]));
    }
    let json = canonical_json(mapping);
    gmm_sim::validate_payload(design, board, &json)
        .map(|_| ())
        .map_err(|e| format!("{what}: mapping does not replay: {e}"))
}

/// A served payload must be byte-identical to the direct solve's.
pub fn same_payload(what: &str, reference: &str, served: Fingerprint) -> Result<(), String> {
    if fingerprint(reference) == served {
        Ok(())
    } else {
        Err(format!(
            "{what}: served payload ({} bytes) differs from the direct solve ({} bytes)",
            served.0,
            reference.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmm_workloads::{stream_instances, StreamSpec};

    fn instance() -> (Design, Board) {
        let inst = stream_instances(StreamSpec::default()).next().unwrap();
        (inst.design, inst.board)
    }

    #[test]
    fn a_flipped_payload_byte_is_rejected() {
        let (design, board) = instance();
        let reference = reference_payload(&design, &board).unwrap();
        assert!(same_payload("ok", &reference, fingerprint(&reference)).is_ok());
        let mut bytes = reference.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(same_payload("flipped", &reference, fingerprint(&flipped)).is_err());
    }

    #[test]
    fn an_objective_off_by_one_unit_is_rejected() {
        assert!(same_cost("equal", 71702.7, 71702.7).is_ok());
        assert!(same_cost("off by one", 71702.7, 71703.7).is_err());
        assert!(within_heuristic("below", 100.0, 101.0).is_ok());
        assert!(within_heuristic("equal", 100.0, 100.0).is_ok());
        assert!(within_heuristic("above", 101.0, 100.0).is_err());
    }

    #[test]
    fn a_broken_mapping_is_rejected() {
        let (design, board) = instance();
        let report = reference_request(design.clone(), board.clone())
            .execute()
            .unwrap();
        let mut mapping = report.outcome.unwrap().detailed;
        assert!(valid_mapping("ok", &design, &board, &mapping).is_ok());
        mapping.fragments.pop();
        assert!(valid_mapping("dropped fragment", &design, &board, &mapping).is_err());
    }
}
