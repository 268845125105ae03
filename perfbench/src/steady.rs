//! Steadiness mode: runs one workload N times with seeds `first..first+N`,
//! prints each end-to-end metric's median, quartiles and relative spread
//! beside its bound in `BENCHMARK.json`, then makes one traced run and
//! prints the tracing overhead against the untraced medians.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use hybrid_bench::json::Json;

use crate::inputs::Workload;
use crate::stats;

/// One child run's parsed output: the result object, the traced run's
/// `trace:` figures, if any, and its per-layer report lines.
struct ChildRun {
    result: Json,
    trace: BTreeMap<String, f64>,
    layer_lines: Vec<String>,
}

fn run_child(
    hybridc: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--hybridc")
        .arg(hybridc)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("run with seed {seed} failed:\n{text}"));
    }
    let last = text.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("seed {seed}: {e}: {last}"))?;
    let mut figures = BTreeMap::new();
    if let Some(line) = text.lines().find_map(|l| l.strip_prefix("trace: ")) {
        for kv in line.split_whitespace() {
            if let Some((k, v)) = kv.split_once('=') {
                if let Ok(v) = v.parse() {
                    figures.insert(k.to_string(), v);
                }
            }
        }
    }
    let layer_lines = text
        .lines()
        .filter(|l| l.starts_with("self_ms_per_op:") || l.starts_with("layer:"))
        .map(str::to_owned)
        .collect();
    Ok(ChildRun {
        result,
        trace: figures,
        layer_lines,
    })
}

/// End-to-end bounds from `BENCHMARK.json` in the working directory.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

pub fn run(
    hybridc: &Path,
    workload: Workload,
    runs: usize,
    first_seed: u64,
    seconds: f64,
) -> Result<(), String> {
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut units: BTreeMap<String, String> = BTreeMap::new();
    let mut shares = Vec::new();
    for i in 0..runs {
        let seed = first_seed + i as u64;
        let run = run_child(hybridc, workload, seed, seconds, false)?;
        let r = &run.result;
        let attempted = r.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        let failed = r.get("failed").and_then(Json::as_u64).unwrap_or(0);
        shares.push(format!("{failed}/{attempted}"));
        if let Some(Json::Obj(metrics)) = r.get("metrics") {
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                values.entry(name.clone()).or_default().push(value);
                if let Some(u) = m.get("unit").and_then(Json::as_str) {
                    units.insert(name.clone(), u.to_string());
                }
            }
        }
        eprintln!(
            "perfbench: {} seed {seed}: {}",
            workload.name(),
            r.render_compact()
        );
    }
    let bounds = bounds();
    println!(
        "steadiness of {} over {runs} runs of {seconds} s (seeds {first_seed}..{})",
        workload.name(),
        first_seed + runs as u64 - 1
    );
    println!(
        "{:<24} {:>14} {:>14} {:>14} {:>8} {:>7}  unit",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut medians = BTreeMap::new();
    for (name, vs) in &values {
        let median = stats::median(vs).unwrap_or(f64::NAN);
        let (q1, q3) = stats::quartiles(vs).unwrap_or((f64::NAN, f64::NAN));
        let spread = (q3 - q1) / median;
        medians.insert(name.clone(), median);
        let bound = bounds
            .get(name)
            .map_or("-".to_string(), |b| format!("{b:.3}"));
        println!(
            "{name:<24} {median:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {bound:>7}  {}",
            units.get(name).map_or("", String::as_str)
        );
    }
    println!("failed/attempted per run: {}", shares.join(" "));

    let traced = run_child(hybridc, workload, first_seed, seconds, true)?;
    println!("traced run, seed {first_seed}:");
    for line in &traced.layer_lines {
        println!("  {line}");
    }
    for name in ["pass_ms", "ops_per_s"] {
        if let (Some(t), Some(u)) = (traced.trace.get(name), medians.get(name)) {
            println!(
                "tracing overhead on {name}: traced {t:.4} vs untraced median {u:.4} ({:+.1}%)",
                (t / u - 1.0) * 100.0
            );
        }
    }
    Ok(())
}
