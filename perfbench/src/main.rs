//! The gmm benchmark: drives the mapper through its real paths and prints
//! one JSON line of metrics.
//!
//! ```text
//! perfbench --workload <table3|mapsrv-zipf|route-hot|route-miss> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. See README.md in this directory.

mod client;
mod layers;
mod report;
mod schedule;
mod servers;
mod service;
mod solve;
mod table3;
mod util;
#[cfg(test)]
mod workload_tests;

use report::RunReport;
use service::ServiceShape;
use table3::Table3Shape;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<RunReport, String> {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    Ok(match args.workload.as_str() {
        "table3" => table3::run(&Table3Shape::standard(), seed, secs, trace),
        "mapsrv-zipf" => service::run(&ServiceShape::mapsrv_zipf(), seed, secs, trace),
        "route-hot" => service::run(&ServiceShape::route_hot(), seed, secs, trace),
        "route-miss" => service::run(&ServiceShape::route_miss(), seed, secs, trace),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Keep the whole benchmark (client, servers, router) on the CPU it
/// starts on; threads inherit the mask, so this runs before any is
/// spawned. On a two-CPU virtual machine shared with other tenants, a job
/// handed between threads on different CPUs waits for the hypervisor to
/// run the other CPU again: `mapsrv-zipf` read 353–534 jobs/s over ten
/// seeds unpinned and 716–782 pinned, so unpinned runs measured the
/// wake-ups more than the program.
fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: no arguments; returns the calling thread's CPU or -1.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let cpu = usize::try_from(cpu)
        .ok()
        .filter(|&c| c < mask.len() * 64)
        .ok_or_else(|| format!("sched_getcpu returned {cpu}"))?;
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid cpu_set_t of `size_of_val(&mask)` bytes;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error().to_string())
    }
}

/// Give the allocator a single arena. With every thread on one CPU more
/// arenas buy no parallelism, and how many glibc creates depends on lock
/// timing: `route-hot` peaked at 32.0–37.7 MB over ten seeds with the
/// default arenas and at 27.8–28.4 MB with one.
fn single_malloc_arena() -> Result<(), String> {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: plain integer arguments; called before any thread starts.
    match unsafe { mallopt(M_ARENA_MAX, 1) } {
        1 => Ok(()),
        _ => Err("mallopt(M_ARENA_MAX, 1) refused".into()),
    }
}

fn main() {
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("perfbench: running unpinned: {e}");
    }
    if let Err(e) = single_malloc_arena() {
        eprintln!("perfbench: default malloc arenas: {e}");
    }
    let report = parse_args(std::env::args().skip(1)).and_then(|args| run(&args));
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    let summary: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("{}={:.4}{}", m.name, m.value, m.unit))
        .collect();
    println!(
        "samples={} attempted={} failed={} {}",
        report.samples,
        report.attempted,
        report.failed,
        summary.join(" ")
    );
    println!("{}", report.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload table3 --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "table3".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(args("--seed 7").is_err());
        assert!(args("--workload table3 --trace 2").is_err());
        assert!(args("--workload table3 --seed").is_err());
        assert!(run(&args("--workload nope").unwrap()).is_err());
    }
}
