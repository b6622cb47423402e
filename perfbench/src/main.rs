//! One repetition of one benchmark workload, in a fresh process:
//!
//! ```text
//! perfbench --workload <sf_websearch|ft_scale|sf_churn_cp> --seed <n> [--traced]
//! ```
//!
//! Prints one JSON line: metrics, self-checks, fingerprint, provenance
//! and (traced run) spans. `run.py` drives the repetitions, aggregates
//! them and prints the benchmark's result; see `README.md`.

mod record;
mod rss;
mod trace;
mod workloads;

use std::process::ExitCode;

/// Worker threads of the simulator's pool, fixed here so results never
/// depend on `FATPATHS_THREADS` or the machine's core count.
const POOL_THREADS: usize = 2;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> [--traced]",
        workloads::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let Some(workload) = value("--workload") else {
        return usage("missing --workload");
    };
    if !workloads::WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload '{workload}'"));
    }
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed needs a non-negative integer");
    };
    let traced = args.iter().any(|a| a == "--traced");

    let pool = rayon::ensure_pool(POOL_THREADS);
    let rss = rss::RssSampler::start();
    let mut rep = workloads::run(workload, seed, traced, &rss);
    rep.metric("peak_rss_mb", rss.finish());
    rep.info("workload", workload);
    rep.info("seed", seed);
    rep.info("traced", traced);
    rep.info("pool_threads", pool);
    rep.info(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("{}", rep.to_json());
    ExitCode::SUCCESS
}
