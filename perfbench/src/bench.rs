//! One benchmark run: set the program up, drive whole rounds of
//! operations for the measurement window, check every output, and compute
//! the run's metrics.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hybrid_bench::json::Json;

use crate::check;
use crate::inputs::{self, Input, Kind, MissSource, Rng, Workload};
use crate::procs;
use crate::stats;
use crate::trace::Tracer;

/// How a run is asked for on the command line.
pub struct RunConfig {
    pub hybridc: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Times the service is set up per untraced run; `setup_s` is the median.
const SETUPS_SERVE: usize = 3;
/// Fewest measured operations in a run, so the median latency is reported
/// (it needs ten samples beyond it, see [`stats::percentile`]) and every
/// gallery stencil has several samples for its median in `pass_ms`.
const MIN_OPS: usize = 20;

/// One measured operation.
struct Op {
    input: Input,
    latency_ms: f64,
    response: Json,
}

/// What a run prints as its last line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, String, f64)>,
}

impl RunResult {
    /// The result object, every metric value with all the digits of its
    /// shortest round-trip rendering.
    pub fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let m = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]);
                (name.clone(), m)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::UInt(self.attempted as u64)),
            ("failed", Json::UInt(self.failed as u64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render_compact()
    }
}

/// A resident `hybridc serve` process driven over its stdin/stdout.
struct Server {
    child: Option<Child>,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(hybridc: &Path, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let log = std::fs::File::create(dir.join("hybridd.log")).map_err(|e| e.to_string())?;
        let mut child = Command::new(hybridc)
            .arg("serve")
            .args(["--workers", "1", "--threads", "1", "--out"])
            .arg(dir.join("out"))
            .arg("--cache")
            .arg(dir.join("cache"))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", hybridc.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server {
            child: Some(child),
            stdin,
            stdout,
        })
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("live server").id()
    }

    /// Sends one request line and waits for its response; returns the
    /// response and the client-side latency in ms.
    fn request(&mut self, line: &str) -> Result<(Json, f64), String> {
        let t = Instant::now();
        writeln!(self.stdin, "{line}")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("hybridd stdin: {e}"))?;
        let mut buf = String::new();
        let n = self
            .stdout
            .read_line(&mut buf)
            .map_err(|e| format!("hybridd stdout: {e}"))?;
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("hybridd closed its output".into());
        }
        let resp = Json::parse(&buf).map_err(|e| format!("hybridd response: {e}"))?;
        Ok((resp, latency_ms))
    }

    /// Asks the service to stop, closes its input and reaps it.
    fn shutdown(mut self) -> Result<(), String> {
        self.request(r#"{"op":"shutdown"}"#)?;
        let child = self.child.take().expect("live server");
        let usage = procs::reap(child).map_err(|e| e.to_string())?;
        if !usage.success {
            return Err("hybridd exited with an error".into());
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The benchmark's scratch directory for one run, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The program's resource use.
struct Usage {
    /// CPU time over the measurement window.
    cpu_ms: f64,
    /// Peak resident set: of the largest one-shot compile, or of the primed
    /// service (median over set-ups).
    peak_rss_kb: u64,
    /// Peak resident set at the end of the window. For the service it
    /// includes the allocator arenas of the tuner's threads, whose growth
    /// differs from run to run.
    window_peak_rss_kb: u64,
}

/// Runs the benchmark once and returns its result line.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let gallery = inputs::gallery(&root)?;
    let work = WorkDir(root.join(".bench_work").join(format!(
        "{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).map_err(|e| format!("{}: {e}", work.0.display()))?;

    let mut rng = Rng::new(cfg.seed);
    let mut misses = MissSource::new(cfg.seed);
    let mut tracer = cfg
        .trace
        .then(|| Tracer::new(&work.0.join("trace"), cfg.workload.is_serve()));
    let setups = if cfg.trace { 1 } else { SETUPS_SERVE };

    let device = inputs::device();
    let mut ops: Vec<Op> = Vec::new();
    let mut fills: HashMap<String, Json> = HashMap::new();
    let mut setup_s = Vec::new();
    if cfg.workload.is_serve() {
        let mut server = None;
        let mut primed_rss_kb = Vec::new();
        for k in 0..setups {
            let t = Instant::now();
            let mut s = Server::spawn(&cfg.hybridc, &work.0.join(format!("serve-{k}")))?;
            let mut primed = Vec::new();
            for (i, input) in gallery.iter().enumerate() {
                let (resp, _) = s.request(&input.request(&format!("prime-{k}-{i}")))?;
                primed.push((input.name.clone(), resp));
            }
            setup_s.push(t.elapsed().as_secs_f64());
            primed_rss_kb.push(procs::peak_rss_kb(s.pid()).map_err(|e| e.to_string())? as f64);
            if k + 1 < setups {
                s.shutdown()?;
            } else {
                fills = primed.into_iter().collect();
                server = Some(s);
            }
        }
        let mut server = server.expect("at least one setup");
        if let Some(tracer) = tracer.as_mut() {
            tracer.prime(&gallery)?;
        }
        let pid = server.pid();
        let cpu0 = procs::cpu_ms(pid).map_err(|e| e.to_string())?;
        let window_start = Instant::now();
        let mut seq = 0usize;
        measure(
            cfg,
            &gallery,
            &mut rng,
            &mut misses,
            &mut ops,
            |input| {
                seq += 1;
                let (resp, latency_ms) = server.request(&input.request(&format!("op-{seq}")))?;
                Ok((resp, latency_ms))
            },
            tracer.as_mut(),
        )?;
        let usage = Usage {
            cpu_ms: procs::cpu_ms(pid).map_err(|e| e.to_string())? - cpu0,
            peak_rss_kb: stats::median(&primed_rss_kb).unwrap_or(0.0) as u64,
            window_peak_rss_kb: procs::peak_rss_kb(pid).map_err(|e| e.to_string())?,
        };
        let window = window_start.elapsed();
        server.shutdown()?;
        finish(
            cfg, &gallery, ops, fills, setup_s, window, usage, &device, tracer,
        )
    } else {
        let empty = work.0.join("empty");
        std::fs::create_dir_all(&empty).map_err(|e| e.to_string())?;
        // A one-shot compiler has no state to build: its set-up is process
        // start, option parsing and input discovery, timed on a directory
        // without stencils (which it must reject by name). It is sampled
        // before every operation, outside the measurement window, so the
        // median spans the same host conditions as the operations.
        let setup_out = work.0.join("setup-out");
        let launch = || -> Result<f64, String> {
            let t = Instant::now();
            let out = Command::new(&cfg.hybridc)
                .args(["--no-cache", "--threads", "1", "--out"])
                .arg(&setup_out)
                .arg(&empty)
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", cfg.hybridc.display()))?;
            let elapsed = t.elapsed().as_secs_f64();
            let stderr = String::from_utf8_lossy(&out.stderr);
            if out.status.code() != Some(1) || !stderr.contains("no .stencil files") {
                return Err(format!("hybridc on an empty directory: {stderr}"));
            }
            Ok(elapsed)
        };
        let mut paused = Duration::ZERO;
        let mut cpu_ms = 0.0;
        let mut peak_rss_kb = 0;
        let report = work.0.join("report.json");
        let out = work.0.join("out");
        let window_start = Instant::now();
        measure(
            cfg,
            &gallery,
            &mut rng,
            &mut misses,
            &mut ops,
            |input| {
                let t = Instant::now();
                setup_s.push(launch()?);
                paused += t.elapsed();
                let _ = std::fs::remove_file(&report);
                let path = input.path.as_ref().expect("gallery input");
                let t = Instant::now();
                let child = Command::new(&cfg.hybridc)
                    .args(["--no-cache", "--threads", "1", "--out"])
                    .arg(&out)
                    .arg("--report")
                    .arg(&report)
                    .arg(path)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", cfg.hybridc.display()))?;
                let u = procs::reap(child).map_err(|e| e.to_string())?;
                let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                cpu_ms += u.cpu_ms;
                peak_rss_kb = peak_rss_kb.max(u.maxrss_kb);
                let text = std::fs::read_to_string(&report)
                    .map_err(|e| format!("hybridc wrote no report for {}: {e}", input.name))?;
                let doc = Json::parse(&text).map_err(|e| format!("hybridc report: {e}"))?;
                let resp = doc
                    .get("stencils")
                    .and_then(Json::as_arr)
                    .and_then(|s| s.first())
                    .cloned()
                    .ok_or("hybridc report without a stencil entry")?;
                Ok((resp, latency_ms))
            },
            tracer.as_mut(),
        )?;
        let window = window_start.elapsed() - paused;
        let usage = Usage {
            cpu_ms,
            peak_rss_kb,
            window_peak_rss_kb: peak_rss_kb,
        };
        finish(
            cfg, &gallery, ops, fills, setup_s, window, usage, &device, tracer,
        )
    }
}

/// Drives whole rounds through `op` until the window has passed and at
/// least [`MIN_OPS`] operations ran; the traced run replays each operation
/// right after it completes.
fn measure(
    cfg: &RunConfig,
    gallery: &[Input],
    rng: &mut Rng,
    misses: &mut MissSource,
    ops: &mut Vec<Op>,
    mut op: impl FnMut(&Input) -> Result<(Json, f64), String>,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let start = Instant::now();
    let window = Duration::from_secs_f64(cfg.seconds);
    while start.elapsed() < window || ops.len() < MIN_OPS {
        for input in inputs::round(cfg.workload, gallery, rng, misses) {
            let (response, latency_ms) = op(&input)?;
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record(&input, &response, latency_ms)?;
            }
            ops.push(Op {
                input,
                latency_ms,
                response,
            });
        }
    }
    Ok(())
}

/// Checks every operation's output, then computes the run's metrics.
#[allow(clippy::too_many_arguments)]
fn finish(
    cfg: &RunConfig,
    gallery: &[Input],
    ops: Vec<Op>,
    fills: HashMap<String, Json>,
    setup_s: Vec<f64>,
    window: Duration,
    usage: Usage,
    device: &gpusim::DeviceConfig,
    tracer: Option<Tracer>,
) -> Result<RunResult, String> {
    // Independent replay of every distinct (program, plan) pair, fills
    // included.
    let mut replays: HashMap<String, Result<(), String>> = HashMap::new();
    let mut replay = |src: &str, resp: &Json| -> Result<(), String> {
        let key = format!("{src}\u{0}{:?}", check::plan_of(resp));
        replays
            .entry(key)
            .or_insert_with(|| check::replay(src, resp, device))
            .clone()
    };
    for input in gallery {
        if let Some(fill) = fills.get(&input.name) {
            check::properties(fill, Kind::Gallery, "miss", None, device)
                .and_then(|()| replay(&input.src, fill))
                .map_err(|e| format!("priming compile of {}: {e}", input.name))?;
        }
    }
    let mut failed = 0;
    let mut wrong_output = false;
    for op in &ops {
        let (expect_cache, fill) = match (cfg.workload, op.input.kind) {
            (Workload::GalleryCold, _) | (_, Kind::Miss) => ("miss", None),
            (_, Kind::Gallery) => ("mem", fills.get(&op.input.name)),
        };
        let verdict = check::properties(&op.response, op.input.kind, expect_cache, fill, device)
            .and_then(|()| replay(&op.input.src, &op.response));
        if let Err(e) = verdict {
            failed += 1;
            let reported_ok = op.response.get("status").and_then(Json::as_str) == Some("ok");
            wrong_output |= reported_ok;
            eprintln!("perfbench: {} failed its check: {e}", op.input.name);
        }
    }

    let latencies: Vec<f64> = ops.iter().map(|o| o.latency_ms).collect();
    let mut by_stencil: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut hits = Vec::new();
    let mut miss_lat = Vec::new();
    for op in &ops {
        match op.input.kind {
            Kind::Gallery => {
                by_stencil
                    .entry(op.input.name.clone())
                    .or_default()
                    .push(op.latency_ms);
                hits.push(op.latency_ms);
            }
            Kind::Miss => miss_lat.push(op.latency_ms),
        }
    }
    let pass_ms = stats::sum_of_medians(&by_stencil).ok_or("no gallery operations")?;
    let window_s = window.as_secs_f64();
    let ops_per_s = ops.len() as f64 / window_s;
    let gstencils: Vec<f64> = ops
        .iter()
        .filter_map(|o| o.response.get("gstencils_per_s").and_then(Json::as_f64))
        .collect();

    // Figures that are not metrics of every workload, for the reader.
    let mut detail = vec![
        format!("ops={}", ops.len()),
        format!("window_s={window_s:.3}"),
        format!("setups={}", setup_s.len()),
    ];
    if cfg.workload == Workload::ServeMixed {
        detail.push(format!("hit_p50_ms={:?}", stats::percentile(&hits, 50)));
        detail.push(format!(
            "miss_p50_ms={:?}",
            stats::percentile(&miss_lat, 50)
        ));
    }
    detail.push(format!("window_peak_rss_kb={}", usage.window_peak_rss_kb));
    for pct in [50, 90] {
        detail.push(format!(
            "latency_p{pct}_ms={:?}",
            stats::percentile(&latencies, pct)
        ));
    }

    println!("detail: {}", detail.join(" "));

    let mut metrics: Vec<(String, String, f64)> = Vec::new();
    let mut put = |name: &str, unit: &str, value: f64| {
        metrics.push((name.to_string(), unit.to_string(), value));
    };
    match tracer {
        None => {
            put("setup_s", "s", stats::median(&setup_s).ok_or("no set-up")?);
            put("pass_ms", "ms", pass_ms);
            put("ops_per_s", "1/s", ops_per_s);
            put("cpu_ms_per_op", "ms", usage.cpu_ms / ops.len() as f64);
            put("peak_rss_mb", "MiB", usage.peak_rss_kb as f64 / 1024.0);
            put(
                "sim_gstencils_geomean",
                "GStencils/s",
                stats::geomean(&gstencils).ok_or("no simulated throughput")?,
            );
        }
        Some(tracer) => {
            // The traced run's own end-to-end figures, to set against the
            // untraced runs' as the tracing overhead.
            println!("trace: pass_ms={pass_ms} ops_per_s={ops_per_s}");
            let self_times: Vec<String> = tracer
                .self_times()
                .iter()
                .map(|(layer, ms)| format!("{layer}={ms:.3}"))
                .collect();
            println!("self_ms_per_op: {}", self_times.join(" "));
            for (name, unit, value) in tracer.metrics() {
                println!("layer: {name} = {value:.4} {unit}");
                put(name, unit, value);
            }
        }
    }
    Ok(RunResult {
        correct: !wrong_output,
        attempted: ops.len(),
        failed,
        metrics,
    })
}
