//! The service workloads: `mapsrv-zipf` (one tiered mapsrv), `route-hot`
//! (a router over two warmed backends) and `route-miss` (the tiered
//! traffic through the router, which reproduces the routed-miss fault).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use gmm_arch::Board;
use gmm_design::Design;
use gmm_service::protocol::SubmitSpec;
use gmm_workloads::{stream_instances, StreamSpec};

use crate::client::{BatchSeen, Client};
use crate::layers::{self, Probe, ServiceCounters};
use crate::report::{metric, RunReport};
use crate::schedule::{interleaved, measure_setup};
use crate::servers::{Backend, RouterHandle};
use crate::solve::{complete_pass, job_config, reference_payload, same_payload};
use crate::util::{derive_seed, median, peak_rss_mb, quantile, Fingerprint, Rng, Zipf};

#[derive(Debug, Clone)]
pub struct ServiceShape {
    /// Distinct instances one round draws from.
    pub pool: usize,
    /// Every round draws from a fresh pool (so every round starts cold
    /// and has the same make-up), or all rounds share one pool.
    pub fresh_pool_per_round: bool,
    /// Jobs per round; a run is made of whole rounds.
    pub round_jobs: usize,
    /// Jobs per batch, distinct within a batch.
    pub batch: usize,
    /// Segments per instance (inclusive range).
    pub segments: (usize, usize),
    /// Backends; more than one puts a `Router` in front of them.
    pub backends: usize,
    /// Memory-cache capacity of each backend.
    pub cache_cap: usize,
    /// Each backend has a disk tier in a fresh directory.
    pub disk: bool,
    /// Set-up submits the pool straight to every backend, so the timed
    /// jobs are all cache hits.
    pub warm: bool,
    /// Set-ups timed before the loop and again after it; more are timed
    /// inside the loop (the median of all is reported).
    pub setups: usize,
    /// Loop seconds between two set-ups timed inside the loop.
    pub setup_every: f64,
    /// Points the traced run solves with the complete formulation.
    pub complete_points: Vec<usize>,
}

impl ServiceShape {
    pub fn mapsrv_zipf() -> ServiceShape {
        ServiceShape {
            pool: 512,
            fresh_pool_per_round: true,
            round_jobs: 1024,
            batch: 32,
            segments: (24, 48),
            backends: 1,
            cache_cap: 64,
            disk: true,
            warm: false,
            setups: 3,
            setup_every: 1.0,
            complete_points: vec![1, 4],
        }
    }

    pub fn route_hot() -> ServiceShape {
        ServiceShape {
            pool: 128,
            fresh_pool_per_round: false,
            backends: 2,
            cache_cap: 1024,
            disk: false,
            warm: true,
            setups: 2,
            setup_every: 7.5,
            ..ServiceShape::mapsrv_zipf()
        }
    }

    pub fn route_miss() -> ServiceShape {
        ServiceShape {
            backends: 2,
            ..ServiceShape::mapsrv_zipf()
        }
    }
}

type Instance = (Design, Board);

fn pool(shape: &ServiceShape, seed: u64, round: u64) -> Vec<Instance> {
    let round = if shape.fresh_pool_per_round { round } else { 0 };
    stream_instances(StreamSpec {
        segments: shape.segments,
        seed: derive_seed(seed, round),
    })
    .take(shape.pool)
    .map(|i| (i.design, i.board))
    .collect()
}

/// Rank → pool index for one round: which instances are hot.
fn hot_order(shape: &ServiceShape, seed: u64, round: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shape.pool).collect();
    Rng::new(derive_seed(seed, round) ^ 0x0DE5).shuffle(&mut order);
    order
}

fn specs(pool: &[Instance], idx: &[usize]) -> Vec<SubmitSpec> {
    idx.iter()
        .map(|&i| SubmitSpec::new(pool[i].0.clone(), pool[i].1.clone(), job_config()))
        .collect()
}

/// The servers of one set-up and the client connected to its front end.
struct Deployment {
    client: Client,
    _router: Option<RouterHandle>,
    _backends: Vec<Backend>,
}

/// Start the backends (and router), warm their caches when the shape says
/// so, connect the client and run one untimed warm-up job.
fn deploy(
    shape: &ServiceShape,
    warm_pool: &[Instance],
    warm_up: &Instance,
) -> Result<Deployment, String> {
    let backends = (0..shape.backends)
        .map(|_| Backend::start(shape.cache_cap, shape.disk))
        .collect::<Result<Vec<_>, _>>()?;
    if shape.warm {
        let all: Vec<usize> = (0..warm_pool.len()).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = backends
                .iter()
                .map(|b| {
                    let all = &all;
                    s.spawn(move || -> Result<(), String> {
                        let mut direct = Client::connect(b.addr(), false)?;
                        for chunk in all.chunks(shape.batch) {
                            let seen = direct.run_batch(specs(warm_pool, chunk));
                            if seen.failed > 0 {
                                return Err(format!(
                                    "warming a backend: {} jobs failed",
                                    seen.failed
                                ));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("warming thread panicked"))
        })?;
    }
    let router = if shape.backends > 1 {
        Some(RouterHandle::start(&backends)?)
    } else {
        None
    };
    let front = router
        .as_ref()
        .map_or_else(|| backends[0].addr(), |r| r.addr());
    let mut client = Client::connect(front, false)?;
    let seen = client.run_batch(specs(std::slice::from_ref(warm_up), &[0]));
    if seen.failed > 0 {
        return Err(format!("warm-up job failed: {:?}", seen.problems));
    }
    Ok(Deployment {
        client,
        _router: router,
        _backends: backends,
    })
}

/// Seed of the cold warm-up instance every set-up solves.
const WARM_UP_SEED: u64 = 0x5E70_0F_C01D;

/// Exponent of the Zipf draws over a pool.
const ZIPF_EXPONENT: f64 = 1.0;

/// Peak memory is read after set-up and this many rounds, which the timed
/// loop always runs. The service retains per-job state, so a reading at
/// the end of the run would grow with how many jobs the host fitted in.
const RSS_ROUNDS: usize = 4;

/// The payloads served in one round, by pool index.
struct RoundServed {
    round: u64,
    served: HashMap<usize, Fingerprint>,
}

pub fn run(shape: &ServiceShape, seed: u64, seconds: f64, trace: bool) -> RunReport {
    let mut report = RunReport::default();
    let first_pool = pool(shape, seed, 0);
    let warm_up: Instance = if shape.warm {
        first_pool[0].clone()
    } else {
        // A cold instance outside every round's pool, the same on every
        // seed: set-up does the same work in every run, and a seeded
        // warm-up solve made `setup_s` differ by seed (3.7 to 6.6 ms).
        let spare = stream_instances(StreamSpec {
            segments: shape.segments,
            seed: WARM_UP_SEED,
        })
        .next()
        .expect("streams are unbounded");
        (spare.design, spare.board)
    };
    let (mut setup_secs, mut up) =
        match measure_setup(shape.setups, || deploy(shape, &first_pool, &warm_up)) {
            Ok(up) => up,
            Err(e) => {
                report.fail(e);
                return report;
            }
        };
    up.client.set_trace(trace);
    let before = up.client.stats();

    let zipf = Zipf::new(shape.pool, ZIPF_EXPONENT);
    let mut rng = Rng::new(seed);
    let mut rounds: Vec<RoundServed> = Vec::new();
    let mut sequence0: Vec<usize> = Vec::new();
    let mut lat_ms = Vec::new();
    let mut rss = None;
    let (mut timed_secs, mut solves) = (0.0, 0u64);
    let mut round = 0u64;
    let setups =
        |times| measure_setup(times, || deploy(shape, &first_pool, &warm_up)).map(|(secs, _)| secs);
    let schedule = interleaved(
        seconds,
        RSS_ROUNDS,
        shape.setup_every,
        || {
            let current = if round == 0 || !shape.fresh_pool_per_round {
                None
            } else {
                Some(pool(shape, seed, round))
            };
            let pool_now = current.as_deref().unwrap_or(&first_pool);
            let order = hot_order(shape, seed, round);
            let mut served = RoundServed {
                round,
                served: HashMap::new(),
            };
            for _ in 0..shape.round_jobs / shape.batch {
                let idx: Vec<usize> = zipf
                    .distinct(&mut rng, shape.batch)
                    .into_iter()
                    .map(|r| order[r])
                    .collect();
                if round == 0 {
                    sequence0.extend(&idx);
                }
                let seen: BatchSeen = up.client.run_batch(specs(pool_now, &idx));
                report.attempted += idx.len() as u64;
                report.failed += seen.failed as u64;
                timed_secs += seen.batch_secs;
                for p in seen.problems {
                    report.fail(p);
                }
                for (&i, job) in idx.iter().zip(&seen.jobs) {
                    if !job.ok {
                        continue;
                    }
                    lat_ms.extend(job.latency_ms);
                    solves += u64::from(!job.cached);
                    let fp = job.payload.expect("ok jobs carry a payload");
                    match served.served.entry(i) {
                        Entry::Vacant(v) => {
                            v.insert(fp);
                        }
                        Entry::Occupied(o) if *o.get() != fp => report.fail(format!(
                            "round {round}: instance {i} served two different payloads"
                        )),
                        Entry::Occupied(_) => {}
                    }
                }
            }
            rounds.push(served);
            if rounds.len() == RSS_ROUNDS {
                rss = Some(peak_rss_mb());
            }
            round += 1;
        },
        || setups(1).map(|secs| secs[0]),
    );
    let rss = rss.unwrap_or_else(peak_rss_mb);
    let jobs_per_s = lat_ms.len() as f64 / timed_secs.max(1e-9);
    report.samples = lat_ms.len();
    let counters = match (before, up.client.stats()) {
        (Ok(a), Ok(b)) => ServiceCounters {
            jobs: report.attempted,
            memory_hits: b.cache_hits - a.cache_hits,
            disk_hits: b.disk_hits - a.disk_hits,
            solves,
            evictions: b.cache_evictions - a.cache_evictions,
        },
        (a, b) => {
            report.fail(format!("stats: {:?} / {:?}", a.err(), b.err()));
            ServiceCounters::default()
        }
    };
    drop(up);
    setup_secs.extend(schedule.setup_secs);
    match setups(shape.setups) {
        Ok(later) => setup_secs.extend(later),
        Err(e) => report.fail(e),
    }
    for e in schedule.setup_errors {
        report.fail(e);
    }

    // Byte identity against direct solves, made after the timed loop.
    for r in &rounds {
        let regenerated;
        let pool_r = if r.round == 0 || !shape.fresh_pool_per_round {
            &first_pool
        } else {
            regenerated = pool(shape, seed, r.round);
            &regenerated
        };
        let mut served: Vec<_> = r.served.iter().collect();
        served.sort_unstable_by_key(|(i, _)| **i);
        for (&i, &fp) in served {
            let what = format!("round {} instance {i}", r.round);
            let checked = reference_payload(&pool_r[i].0, &pool_r[i].1)
                .and_then(|reference| same_payload(&what, &reference, fp));
            if let Err(e) = checked {
                report.fail(e);
            }
        }
    }

    if trace {
        let complete = complete_pass(&shape.complete_points, &mut report);
        let mut distinct = Vec::new();
        for &i in &sequence0 {
            if distinct.len() < 64 && !distinct.contains(&i) {
                distinct.push(i);
            }
        }
        let probe = Probe {
            instances: first_pool,
            sequence: sequence0,
            solve_probe: distinct,
            batch: shape.batch,
            cache_cap: shape.cache_cap,
        };
        report.metrics = layers::run(
            &probe,
            &complete,
            Some(counters),
            jobs_per_s,
            &mut report.failures,
        );
    } else {
        report.metrics = vec![
            metric("jobs_per_s", jobs_per_s, "jobs/s"),
            metric("lat_p50_ms", median(&mut lat_ms), "ms"),
            metric("lat_p95_ms", quantile(&mut lat_ms, 0.95), "ms"),
            metric("peak_rss_mb", rss, "MB"),
            metric("setup_s", median(&mut setup_secs), "s"),
        ];
    }
    report
}
