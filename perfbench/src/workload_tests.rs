//! Tiny runs of each workload: they must pass their own checks, and print
//! exactly the metrics BENCHMARK.json declares.

use crate::report::RunReport;
use crate::service::{self, ServiceShape};
use crate::table3::{self, Table3Shape};

fn tiny_table3() -> Table3Shape {
    Table3Shape {
        points: vec![1, 3, 4],
        complete_points: vec![1],
        setups: 2,
        setup_every: 0.5,
    }
}

fn tiny_service(base: ServiceShape) -> ServiceShape {
    ServiceShape {
        pool: 48,
        round_jobs: 64,
        batch: 8,
        segments: (6, 14),
        cache_cap: base.cache_cap.min(8),
        setups: 2,
        setup_every: 0.5,
        complete_points: vec![],
        ..base
    }
}

fn tiny_hot() -> ServiceShape {
    ServiceShape {
        cache_cap: 64,
        ..tiny_service(ServiceShape::route_hot())
    }
}

fn assert_clean(report: &RunReport) {
    assert!(report.correct(), "checks failed: {:?}", report.failures);
    assert_eq!(report.failed, 0);
    assert!(report.attempted > 0);
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to perfbench/");
    let bench: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let mut out: Vec<(String, String)> = bench
        .get(section)
        .and_then(|v| v.as_array())
        .expect("section is a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect();
    out.sort();
    out
}

fn printed(report: &RunReport) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn tiny_table3_passes_its_checks_and_prints_the_declared_metrics() {
    let report = table3::run(&tiny_table3(), 3, 0.0, false);
    assert_clean(&report);
    assert_eq!(printed(&report), declared("end_to_end"));
    assert!(
        report.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        report.metrics
    );

    let traced = table3::run(&tiny_table3(), 3, 0.0, true);
    assert_clean(&traced);
    assert_eq!(printed(&traced), declared("per_layer"));
    // The pivot count of a fixed instance set repeats exactly.
    let pivots = |r: &RunReport| {
        r.metrics
            .iter()
            .find(|m| m.name == "ilp.pivots")
            .unwrap()
            .value
    };
    assert_eq!(
        pivots(&traced),
        pivots(&table3::run(&tiny_table3(), 4, 0.0, true))
    );
}

#[test]
fn tiny_mapsrv_zipf_mixes_memory_hits_disk_hits_and_solves() {
    let shape = tiny_service(ServiceShape::mapsrv_zipf());
    let report = service::run(&shape, 5, 0.0, false);
    assert_clean(&report);
    // Whole rounds only: the loop runs the rounds peak memory is read after.
    assert_eq!(report.attempted % shape.round_jobs as u64, 0);
    assert_eq!(printed(&report), declared("end_to_end"));

    let traced = service::run(&shape, 5, 0.0, true);
    assert_clean(&traced);
    assert_eq!(printed(&traced), declared("per_layer"));
    let get = |name: &str| {
        traced
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert!(get("service.memory_hits") > 0.0);
    assert!(get("service.disk_hits") > 0.0);
    assert!(get("service.solves") > 0.0);
    assert!(get("service.evictions") > 0.0);
}

#[test]
fn tiny_route_hot_serves_every_job_from_a_cache() {
    let report = service::run(&tiny_hot(), 6, 0.0, true);
    assert_clean(&report);
    let get = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap()
            .value
    };
    assert_eq!(get("service.solves"), 0.0);
    assert_eq!(get("service.hit_ratio"), 1.0);
    assert!(get("cluster.fanout") > 1.0);
}

#[test]
fn the_same_seed_gives_the_same_inputs() {
    // The solver's pivot count over the probe instances is exact, so equal
    // counts mean equal instances.
    let shape = tiny_service(ServiceShape::mapsrv_zipf());
    let pivots = |seed| {
        let r = service::run(&shape, seed, 0.0, true);
        r.metrics
            .iter()
            .find(|m| m.name == "ilp.pivots")
            .unwrap()
            .value
    };
    assert_eq!(pivots(9), pivots(9));
    assert_ne!(pivots(9), pivots(10));
}
