//! The layer pass of a traced run: times calls into each layer's public
//! functions on the workload's own inputs, after the traced loop.
//!
//! Every workload runs the same pass over its own probe set, so each
//! per-layer metric has one definition everywhere. The service counters
//! are the exception: they are read from the traced loop's own service
//! (and are zero on `table3`, which has none).

use std::collections::HashMap;
use std::time::Instant;

use gmm_arch::Board;
use gmm_cluster::{ShardMap, DEFAULT_VNODES};
use gmm_core::global::{build_global_model, solve_global_with_stats};
use gmm_core::pipeline::Mapper;
use gmm_core::{map_detailed, CostMatrix, CostWeights, PreTable};
use gmm_design::Design;
use gmm_service::protocol::{Request, Response, SubmitSpec};
use gmm_service::queue::JobState;
use gmm_service::{instance_key, CacheEntry, InstanceKey, PersistStore, SolutionCache};

use crate::client::{BatchSeen, Client};
use crate::report::{metric, Metric};
use crate::servers::{Backend, RouterHandle, ScratchDir};
use crate::solve::{complete_model_secs, job_config, payload_of, reference_request, CompleteRun};
use crate::util::median;

/// A workload's inputs as the layer pass sees them.
pub struct Probe {
    /// The instances (the round-0 pool of a service workload).
    pub instances: Vec<(Design, Board)>,
    /// Indices into `instances` in the order the workload requests them
    /// (replayed through the cache tiers and the ring).
    pub sequence: Vec<usize>,
    /// The instances solved and sent through the service probes.
    pub solve_probe: Vec<usize>,
    /// Jobs per batch.
    pub batch: usize,
    /// Memory-cache capacity of the workload's service.
    pub cache_cap: usize,
}

/// Counters of the traced loop's own service, over the timed jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    pub jobs: u64,
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub solves: u64,
    pub evictions: u64,
}

/// Repetitions of each timed call; the per-instance median is kept.
const REPS: usize = 3;

fn secs_of<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn median_secs(mut f: impl FnMut() -> f64) -> f64 {
    let mut v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&mut v)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn run(
    probe: &Probe,
    complete: &[CompleteRun],
    service: Option<ServiceCounters>,
    trace_jobs_per_s: f64,
    failures: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let payloads = solver_layers(probe, &mut out, failures);
    complete_layers(complete, &mut out);
    wire_layers(probe, &payloads, &mut out);
    cache_layers(probe, &payloads, &mut out, failures);
    if let Err(e) = service_probe(probe, &mut out) {
        failures.push(format!("service probe: {e}"));
    }
    if let Err(e) = routed_probe(probe, &mut out) {
        failures.push(format!("routed probe: {e}"));
    }
    let s = service.unwrap_or_default();
    out.push(metric("service.memory_hits", s.memory_hits as f64, "count"));
    out.push(metric("service.disk_hits", s.disk_hits as f64, "count"));
    out.push(metric("service.solves", s.solves as f64, "count"));
    out.push(metric("service.evictions", s.evictions as f64, "count"));
    let hits = (s.memory_hits + s.disk_hits) as f64;
    out.push(metric(
        "service.hit_ratio",
        hits / s.jobs.max(1) as f64,
        "ratio",
    ));
    out.push(metric("trace.jobs_per_s", trace_jobs_per_s, "jobs/s"));
    out
}

/// gmm-core, gmm-ilp and gmm-api on the probe instances. Returns the
/// canonical payload of every instance the sequence names.
fn solver_layers(
    probe: &Probe,
    out: &mut Vec<Metric>,
    failures: &mut Vec<String>,
) -> HashMap<usize, String> {
    let weights = CostWeights::default();
    let backend = reference_request(probe.instances[0].0.clone(), probe.instances[0].1.clone())
        .options()
        .backend
        .clone();
    let (mut pre_t, mut model_t, mut ilp_t, mut detailed_t, mut other_t, mut cmodel_t) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut pivots, mut nodes, mut refactorizations, mut warm, mut retries_total) =
        (0, 0, 0, 0, 0);
    for &i in &probe.solve_probe {
        let (design, board) = &probe.instances[i];
        pre_t.push(median_secs(|| {
            secs_of(|| {
                let pre = PreTable::build(design, board);
                CostMatrix::build(design, board, &pre)
            })
            .0
        }));
        let pre = PreTable::build(design, board);
        let matrix = CostMatrix::build(design, board, &pre);
        let build = || build_global_model(design, board, &pre, &matrix, &weights, false, &[]);
        model_t.push(median_secs(|| secs_of(build).0));
        let Ok(gm) = build() else {
            failures.push(format!("instance {i}: the global model does not build"));
            continue;
        };
        let mut result = None;
        ilp_t.push(median_secs(|| {
            let (s, r) = secs_of(|| backend.solve(&gm.model));
            result = Some(r);
            s
        }));
        match result.expect("solved") {
            Ok(r) => {
                pivots += r.lp_iterations;
                nodes += r.nodes_explored;
                refactorizations += r.refactorizations;
                warm += r.warm_started_nodes;
            }
            Err(e) => failures.push(format!("instance {i}: global ILP failed: {e}")),
        }
        match solve_global_with_stats(design, board, &pre, &matrix, &weights, &backend, false, &[])
        {
            Ok((global, _)) => detailed_t.push(median_secs(|| {
                secs_of(|| map_detailed(design, board, &pre, &global)).0
            })),
            Err((e, _)) => failures.push(format!("instance {i}: global solve failed: {e}")),
        }
        // The facade's own cost: `execute` minus the core pipeline it
        // wraps, run with the same options.
        let request = reference_request(design.clone(), board.clone());
        let mapper = Mapper::new(request.options().clone());
        let (mut exec, mut pipeline, mut retries) = (vec![], vec![], 0);
        for rep in 0..2 * REPS {
            // Alternate which runs first: the second of two back-to-back
            // solves of one instance finds its caches warm.
            let timed_pipeline = || secs_of(|| mapper.map_run(design, board)).0;
            if rep % 2 == 0 {
                pipeline.push(timed_pipeline());
            }
            let (s, report) = secs_of(|| request.execute());
            exec.push(s);
            if rep % 2 == 1 {
                pipeline.push(timed_pipeline());
            }
            if let Ok(r) = report {
                retries = r.retries as u64;
            }
        }
        other_t.push(median(&mut exec) - median(&mut pipeline));
        retries_total += retries;
        cmodel_t.push(median_secs(|| complete_model_secs(design, board)));
    }
    let us = |v: &[f64]| mean(v) * 1e6;
    out.push(metric("core.preprocess_us", us(&pre_t), "us"));
    out.push(metric("core.global_model_us", us(&model_t), "us"));
    out.push(metric("ilp.global_solve_us", us(&ilp_t), "us"));
    out.push(metric("core.detailed_us", us(&detailed_t), "us"));
    out.push(metric("core.complete_model_us", us(&cmodel_t), "us"));
    out.push(metric("api.execute_other_us", us(&other_t), "us"));
    out.push(metric("ilp.pivots", pivots as f64, "count"));
    out.push(metric("ilp.nodes", nodes as f64, "count"));
    out.push(metric(
        "ilp.refactorizations",
        refactorizations as f64,
        "count",
    ));
    out.push(metric("ilp.warm_started_nodes", warm as f64, "count"));
    let ilp_total_us: f64 = ilp_t.iter().sum::<f64>() * 1e6;
    out.push(metric(
        "ilp.us_per_pivot",
        ilp_total_us / pivots.max(1) as f64,
        "us",
    ));
    out.push(metric("core.retries", retries_total as f64, "count"));

    let mut payloads = HashMap::new();
    let mut wanted: Vec<usize> = probe.sequence.clone();
    wanted.sort_unstable();
    wanted.dedup();
    for i in wanted {
        let (design, board) = &probe.instances[i];
        match reference_request(design.clone(), board.clone())
            .execute()
            .map_err(|e| e.to_string())
            .and_then(payload_of)
        {
            Ok(p) => {
                payloads.insert(i, p);
            }
            Err(e) => failures.push(format!("instance {i}: {e}")),
        }
    }
    payloads
}

/// The complete formulation's solves (Table 3 points 1 and 4).
fn complete_layers(complete: &[CompleteRun], out: &mut Vec<Metric>) {
    let solve_s: f64 = complete.iter().map(|c| c.secs - c.model_secs).sum();
    let pivots: u64 = complete.iter().map(|c| c.pivots).sum();
    out.push(metric("ilp.complete_solve_s", solve_s, "s"));
    out.push(metric("ilp.complete_pivots", pivots as f64, "count"));
    out.push(metric(
        "ilp.complete_nodes",
        complete.iter().map(|c| c.nodes).sum::<u64>() as f64,
        "count",
    ));
    out.push(metric(
        "ilp.complete_us_per_pivot",
        solve_s * 1e6 / pivots.max(1) as f64,
        "us",
    ));
}

/// Wire frames: keys, `submit_batch` and `result` render/parse.
fn wire_layers(probe: &Probe, payloads: &HashMap<usize, String>, out: &mut Vec<Metric>) {
    let config = job_config();
    let jobs = probe.solve_probe.len() as f64;
    let key_t: Vec<f64> = probe
        .solve_probe
        .iter()
        .map(|&i| {
            let (d, b) = &probe.instances[i];
            median_secs(|| secs_of(|| instance_key(d, b, &config)).0)
        })
        .collect();
    let (mut submit_render, mut submit_parse, mut bytes) = (0.0, 0.0, 0usize);
    for chunk in probe.solve_probe.chunks(probe.batch.max(1)) {
        let request = Request::SubmitBatch {
            jobs: chunk
                .iter()
                .map(|&i| {
                    let (d, b) = &probe.instances[i];
                    SubmitSpec::new(d.clone(), b.clone(), config.clone())
                })
                .collect(),
            watch: true,
            progress: false,
        };
        let render = || serde_json::to_string(&request).expect("render a request");
        submit_render += median_secs(|| secs_of(render).0);
        let text = render();
        bytes += text.len() + 1;
        submit_parse += median_secs(|| secs_of(|| serde_json::from_str::<Request>(&text)).0);
    }
    let (mut result_render, mut result_parse) = (0.0, 0.0);
    for (job, &i) in probe.solve_probe.iter().enumerate() {
        let Some(payload) = payloads.get(&i) else {
            continue;
        };
        let response = Response::ResultReady {
            job: job as u64,
            state: JobState::Done,
            cached: true,
            objective: Some(1.0),
            solution: serde_json::from_str(payload).ok(),
            error: None,
        };
        let render = || serde_json::to_string(&response).expect("render a response");
        result_render += median_secs(|| secs_of(render).0);
        let text = render();
        bytes += text.len() + 1;
        result_parse += median_secs(|| secs_of(|| serde_json::from_str::<Response>(&text)).0);
    }
    out.push(metric("service.instance_key_us", mean(&key_t) * 1e6, "us"));
    out.push(metric(
        "service.submit_render_us",
        submit_render * 1e6 / jobs,
        "us",
    ));
    out.push(metric(
        "service.submit_parse_us",
        submit_parse * 1e6 / jobs,
        "us",
    ));
    out.push(metric(
        "service.result_render_us",
        result_render * 1e6 / jobs,
        "us",
    ));
    out.push(metric(
        "service.result_parse_us",
        result_parse * 1e6 / jobs,
        "us",
    ));
    out.push(metric(
        "service.wire_bytes_per_job",
        bytes as f64 / jobs,
        "B/job",
    ));
}

/// The memory cache and the disk tier replayed on the workload's key
/// sequence, and the ring's owner lookup on the same keys.
fn cache_layers(
    probe: &Probe,
    payloads: &HashMap<usize, String>,
    out: &mut Vec<Metric>,
    failures: &mut Vec<String>,
) {
    let config = job_config();
    let keys: HashMap<usize, InstanceKey> = payloads
        .keys()
        .map(|&i| {
            let (d, b) = &probe.instances[i];
            (i, instance_key(d, b, &config))
        })
        .collect();
    let sequence: Vec<usize> = probe
        .sequence
        .iter()
        .copied()
        .filter(|i| keys.contains_key(i))
        .collect();

    let cache = SolutionCache::new(16, probe.cache_cap.max(1));
    let mut get_t = Vec::with_capacity(sequence.len());
    for &i in &sequence {
        let (s, hit) = secs_of(|| cache.get(keys[&i]));
        get_t.push(s);
        if hit.is_none() {
            cache.insert(
                keys[&i],
                CacheEntry {
                    solution_json: payloads[&i].clone(),
                    objective: 1.0,
                },
            );
        }
    }
    out.push(metric("service.cache_get_us", mean(&get_t) * 1e6, "us"));

    let (mut put_t, mut disk_get_t) = (vec![], vec![]);
    match ScratchDir::new("layers").and_then(|dir| PersistStore::open(dir.path()).map(|s| (dir, s)))
    {
        Ok((_dir, store)) => {
            let mut distinct: Vec<usize> = keys.keys().copied().collect();
            distinct.sort_unstable();
            for &i in &distinct {
                put_t.push(secs_of(|| store.put(keys[&i], 1.0, &payloads[&i])).0);
            }
            for &i in &sequence {
                let (s, got) = secs_of(|| store.get(keys[&i]));
                disk_get_t.push(s);
                if got.map(|(_, p)| p) != Some(payloads[&i].clone()) {
                    failures.push(format!("disk tier lost instance {i}"));
                }
            }
        }
        Err(e) => failures.push(format!("disk tier: {e}")),
    }
    out.push(metric(
        "service.persist_get_us",
        mean(&disk_get_t) * 1e6,
        "us",
    ));
    out.push(metric("service.persist_put_us", mean(&put_t) * 1e6, "us"));

    let ring = ShardMap::new(&["127.0.0.1:7001", "127.0.0.1:7002"], DEFAULT_VNODES);
    let reps = 20;
    let (s, _) = secs_of(|| {
        let mut owners = 0usize;
        for _ in 0..reps {
            for &i in &sequence {
                owners += ring.owner(keys[&i].0).len();
            }
        }
        owners
    });
    out.push(metric(
        "cluster.owner_us",
        s * 1e6 / (reps * sequence.len().max(1)) as f64,
        "us",
    ));
}

fn specs(probe: &Probe, chunk: &[usize]) -> Vec<SubmitSpec> {
    chunk
        .iter()
        .map(|&i| {
            let (d, b) = &probe.instances[i];
            SubmitSpec::new(d.clone(), b.clone(), job_config())
        })
        .collect()
}

/// Send the probe set through `client` once, batch by batch.
fn pass(probe: &Probe, client: &mut Client) -> Result<Vec<BatchSeen>, String> {
    let mut seen = Vec::new();
    for chunk in probe.solve_probe.chunks(probe.batch.max(1)) {
        let batch = client.run_batch(specs(probe, chunk));
        if batch.failed > 0 || !batch.problems.is_empty() {
            return Err(format!(
                "{} jobs failed: {:?}",
                batch.failed, batch.problems
            ));
        }
        seen.push(batch);
    }
    Ok(seen)
}

/// The probe set through a loopback mapsrv with the workload's caches:
/// once cold (queue wait and run time), once hot; the `Session` phases
/// over both passes.
fn service_probe(probe: &Probe, out: &mut Vec<Metric>) -> Result<(), String> {
    let backend = Backend::start(probe.cache_cap.max(probe.solve_probe.len()), true)?;
    let mut client = Client::connect(backend.addr(), true)?;
    let mut batches = pass(probe, &mut client)?;
    let cold_jobs: Vec<_> = batches.iter().flat_map(|b| b.jobs.iter()).collect();
    let waits: Vec<f64> = cold_jobs.iter().filter_map(|j| j.queue_wait_us).collect();
    let runs: Vec<f64> = cold_jobs.iter().filter_map(|j| j.run_us).collect();
    out.push(metric("service.queue_wait_us", mean(&waits), "us"));
    out.push(metric("service.run_us", mean(&runs), "us"));
    batches.extend(pass(probe, &mut client)?);
    let phase = |f: fn(&BatchSeen) -> f64| mean(&batches.iter().map(f).collect::<Vec<_>>());
    out.push(metric("client.submit_us", phase(|b| b.submit_us), "us"));
    out.push(metric("client.events_us", phase(|b| b.events_us), "us"));
    out.push(metric("client.results_us", phase(|b| b.results_us), "us"));
    Ok(())
}

/// The same all-hit traffic through a router over two warmed backends
/// and straight to one of them: the per-job p50 difference is what
/// routing adds.
fn routed_probe(probe: &Probe, out: &mut Vec<Metric>) -> Result<(), String> {
    let cap = probe.solve_probe.len().max(probe.cache_cap);
    let backends = [Backend::start(cap, false)?, Backend::start(cap, false)?];
    for b in &backends {
        pass(probe, &mut Client::connect(b.addr(), false)?)?;
    }
    let router = RouterHandle::start(&backends)?;
    let mut routed = Client::connect(router.addr(), false)?;
    let mut direct = Client::connect(backends[0].addr(), false)?;
    let (mut routed_ms, mut direct_ms) = (vec![], vec![]);
    let latencies = |seen: Vec<BatchSeen>| -> Vec<f64> {
        seen.iter()
            .flat_map(|b| b.jobs.iter().filter_map(|j| j.latency_ms))
            .collect()
    };
    for _ in 0..5 {
        routed_ms.extend(latencies(pass(probe, &mut routed)?));
        direct_ms.extend(latencies(pass(probe, &mut direct)?));
    }
    let overhead_ms = median(&mut routed_ms) - median(&mut direct_ms);
    out.push(metric("cluster.route_overhead_us", overhead_ms * 1e3, "us"));

    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let ring = ShardMap::new(&addrs, DEFAULT_VNODES);
    let config = job_config();
    let fanout: Vec<f64> = probe
        .solve_probe
        .chunks(probe.batch.max(1))
        .map(|chunk| {
            let mut owners: Vec<&str> = chunk
                .iter()
                .map(|&i| {
                    let (d, b) = &probe.instances[i];
                    ring.owner(instance_key(d, b, &config).0)
                })
                .collect();
            owners.sort_unstable();
            owners.dedup();
            owners.len() as f64
        })
        .collect();
    out.push(metric("cluster.fanout", mean(&fanout), "backends/batch"));
    Ok(())
}
