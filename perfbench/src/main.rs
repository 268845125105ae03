//! `perfbench` — the end-to-end and per-layer benchmark of `hybridc` and
//! its resident service `hybridd`. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --hybridc PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --hybridc PATH --workload NAME --steady RUNS [--seed FIRST] [--seconds S]
//! ```
//!
//! Runs from the repository root (it reads `examples/stencils` and writes
//! scratch files under `.bench_work/`). The last line of a run's standard
//! output is its result object; `--steady` runs a workload RUNS times and
//! prints each end-to-end metric's spread beside its bound.

mod bench;
mod check;
mod inputs;
mod normalize;
mod procs;
mod stats;
mod steady;
mod trace;

use std::path::PathBuf;

use inputs::Workload;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --hybridc PATH --workload {} --seed N --seconds S --trace 0|1\n       \
         perfbench --hybridc PATH --workload NAME --steady RUNS [--seed FIRST] [--seconds S]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut hybridc = None;
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut steady = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |what: &str| -> ! { usage(&format!("{flag} takes {what}, not {value:?}")) };
        match flag.as_str() {
            "--hybridc" => hybridc = Some(PathBuf::from(&value)),
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| bad("a workload name")))
            }
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad("an integer")),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| bad("a positive number"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("0 or 1"),
                }
            }
            "--steady" => {
                steady = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n >= 2)
                        .unwrap_or_else(|| bad("a run count of at least 2")),
                )
            }
            _ => usage(&format!("unknown option {flag}")),
        }
    }
    let hybridc = hybridc.unwrap_or_else(|| usage("--hybridc is required"));
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if let Some(runs) = steady {
        if let Err(e) = steady::run(&hybridc, workload, runs, seed, seconds) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let cfg = bench::RunConfig {
        hybridc,
        workload,
        seed,
        seconds,
        trace,
    };
    match bench::run(&cfg) {
        Ok(result) => println!("{}", result.render()),
        Err(e) => {
            eprintln!("perfbench: {} (seed {seed}): {e}", workload.name());
            std::process::exit(1);
        }
    }
}
