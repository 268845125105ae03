//! The traced run's per-layer spans. After each measured operation the
//! benchmark replays it in process, calling each layer's public entry point
//! itself in the order the driver does and timing every call into an
//! in-memory span; it then times the driver's and the service's own entry
//! points (`compile_source_with`, `FleetRouter::handle_line`) on the same
//! input, so what the layer spans leave out shows as unattributed time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use gpu_codegen::generate_hybrid;
use gpu_codegen::hybrid_gen::alignment_offset_words;
use gpusim::{resolve_sim_threads, timing, GpuSim};
use hybrid_bench::autotune::{autotune_workload, proxy_workload, sweep_space};
use hybrid_bench::driver::{
    compile_source_with, device_fingerprint, fingerprint, DriverConfig, MemCache, MemLookup,
    TuneMode, PROXY_KEEP_FRAC,
};
use hybrid_bench::fleet::{FleetOptions, FleetRouter};
use hybrid_bench::json::Json;
use hybrid_bench::point_updates;
use hybrid_tiling::cancel::CancelToken;
use hybrid_tiling::tilesize::autotune::{
    autotune_parallel_cancellable, split_thread_budget, AutotuneConfig, Fidelity,
};
use hybrid_tiling::tilesize::{evaluate_tile, TileSizeModel};
use hybrid_tiling::TileParams;
use stencil::parse::parse_stencil;
use stencil::{Grid, ReferenceExecutor, StencilProgram};

use crate::inputs::{base_config, Input};

/// Every per-layer metric the traced run reports, with its unit. All are
/// per-operation means except `gpusim.mpoints_per_s`, a rate over the run.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("stencil.parse_us", "us"),
    ("tilesize.evaluate_ms", "ms"),
    ("tilesize.sweep_ms", "ms"),
    ("tilesize.examined", "count"),
    ("tilesize.full_sims", "count"),
    ("tilesize.proxy_sims", "count"),
    ("codegen.generate_ms", "ms"),
    ("codegen.generate_calls", "count"),
    ("codegen.emit_ms", "ms"),
    ("codegen.artifact_bytes", "bytes"),
    ("gpusim.interp_ms", "ms"),
    ("gpusim.compiled_ms", "ms"),
    ("gpusim.score_ms", "ms"),
    ("gpusim.mpoints_per_s", "Mpoints/s"),
    ("reference.run_ms", "ms"),
    ("driver.compile_ms", "ms"),
    ("driver.fingerprint_us", "us"),
    ("driver.mem_lookup_us", "us"),
    ("driver.unattributed_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.protocol_ms", "ms"),
];

/// Scorer-side spans, summed across the tuning sweep's worker threads.
#[derive(Default)]
struct ScoreSpans {
    generate_ms: f64,
    generate_calls: u64,
    compiled_ms: f64,
    compiled_points: u64,
    score_ms: f64,
    /// Codegen time inside simulator scoring (part of `score_ms`).
    score_generate_ms: f64,
    scorer_ms: f64,
    proxy: u64,
    full: u64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// In-process replicas of the program's state plus the span totals.
pub struct Tracer {
    /// Base configuration of the in-process compiles (`driver.compile_ms`).
    compile_base: DriverConfig,
    /// Memory cache of those compiles (serve workloads only).
    compile_mem: Option<MemCache>,
    /// Memory cache the layer replay looks plans up in (serve only).
    replay_mem: Option<MemCache>,
    /// The service replica (`serve.handle_ms`), serve workloads only.
    router: Option<FleetRouter>,
    seq: u64,
    ops: u64,
    totals: BTreeMap<&'static str, f64>,
    /// Per-layer self time totals (ms), in [`Tracer::self_times`] order.
    self_totals: BTreeMap<&'static str, f64>,
    compiled_points: u64,
}

/// The layer spans of one replayed operation.
#[derive(Default)]
struct OpSpans {
    parse_us: f64,
    fingerprint_us: f64,
    mem_lookup_us: f64,
    evaluate_ms: f64,
    sweep_ms: f64,
    examined: u64,
    score: ScoreSpans,
    sweep_workers: usize,
    generate_ms: f64,
    emit_ms: f64,
    artifact_bytes: u64,
    interp_ms: f64,
    reference_ms: f64,
}

impl Tracer {
    /// A tracer whose in-process state lives under `dir`. Serve workloads
    /// get a service replica and memory caches; each replica has its own
    /// plan-cache directory so no replica's compile is a disk hit on
    /// another's work.
    pub fn new(dir: &Path, serve: bool) -> Tracer {
        let cache = |tag: &str| serve.then(|| dir.join(tag));
        let compile_base = base_config(&dir.join("compile-out"), cache("compile-cache"));
        Tracer {
            compile_base,
            compile_mem: serve.then(MemCache::new),
            replay_mem: serve.then(MemCache::new),
            router: serve.then(|| {
                FleetRouter::new(
                    base_config(&dir.join("router-out"), cache("router-cache")),
                    FleetOptions::default(),
                )
            }),
            seq: 0,
            ops: 0,
            totals: BTreeMap::new(),
            self_totals: BTreeMap::new(),
            compiled_points: 0,
        }
    }

    /// Brings the replicas to the state the program is in after priming:
    /// every gallery plan cached in every replica.
    pub fn prime(&mut self, gallery: &[Input]) -> Result<(), String> {
        for input in gallery {
            self.run_op(input, None)?;
        }
        Ok(())
    }

    /// Replays one measured operation that took `latency_ms` at the
    /// client and produced `resp`, adding its spans to the totals.
    pub fn record(&mut self, input: &Input, resp: &Json, latency_ms: f64) -> Result<(), String> {
        self.run_op(input, Some((resp, latency_ms)))
    }

    fn run_op(&mut self, input: &Input, measured: Option<(&Json, f64)>) -> Result<(), String> {
        let cfg = input.config(&self.compile_base);
        self.seq += 1;
        let seq = self.seq;
        // Three measurements of the same input: the layer replay, the
        // driver's entry point, and the service's (through a replica of the
        // router the `hybridc serve` binary runs). Whichever runs later
        // finds warmer caches, so their order rotates between operations.
        let label = input
            .path
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("<request:{}>", input.name)));
        let (mut replayed, mut compiled, mut handle_ms) = (None, None, None);
        for step in 0..3 {
            match (step + seq) % 3 {
                0 => replayed = Some(self.replay_layers(input, &cfg)?),
                1 => {
                    let t = Instant::now();
                    let outcome = compile_source_with(
                        &input.name,
                        &input.src,
                        &label,
                        &cfg,
                        self.compile_mem.as_ref(),
                    )
                    .map_err(|e| format!("in-process compile of {}: {e}", input.name))?;
                    compiled = Some((outcome, ms_since(t)));
                }
                _ => {
                    let Some(router) = &self.router else { continue };
                    let line = input.request(&format!("trace-{seq}"));
                    let t = Instant::now();
                    let resp = router.handle_line(seq, &line);
                    handle_ms = Some(ms_since(t));
                    let status = resp
                        .as_ref()
                        .and_then(|r| r.get("status")?.as_str().map(str::to_owned));
                    if status.as_deref() != Some("ok") {
                        return Err(format!("in-process service answered {status:?}"));
                    }
                }
            }
        }
        let (spans, params) = replayed.expect("replayed above");
        let (outcome, compile_ms) = compiled.expect("compiled above");
        if outcome.params != params {
            return Err(format!(
                "{}: the layer replay chose {:?}, the driver {:?}",
                input.name, params, outcome.params
            ));
        }

        let Some((resp, latency_ms)) = measured else {
            return Ok(());
        };
        let (h, w) = crate::check::plan_of(resp)
            .map(|(h, w, _, _)| (h, w))
            .ok_or("response without a plan")?;
        if TileParams::new(h, &w) != params {
            return Err(format!(
                "{}: the layer replay chose {params:?}, the program h={h} w={w:?}",
                input.name
            ));
        }
        let stages = spans.parse_us / 1e3
            + spans.fingerprint_us / 1e3
            + spans.mem_lookup_us / 1e3
            + spans.sweep_ms
            + spans.generate_ms
            + spans.emit_ms
            + spans.interp_ms
            + spans.reference_ms;
        // One-shot compiles have no service layer: everything between the
        // client and the driver is process start-up and report writing.
        let (serve_handle_ms, protocol_ms) = match handle_ms {
            Some(hm) => (hm - compile_ms, latency_ms - hm),
            None => (0.0, latency_ms - compile_ms),
        };
        let s = &spans.score;
        let add = |totals: &mut BTreeMap<&'static str, f64>, k: &'static str, v: f64| {
            *totals.entry(k).or_default() += v;
        };
        let t = &mut self.totals;
        add(t, "stencil.parse_us", spans.parse_us);
        add(t, "tilesize.evaluate_ms", spans.evaluate_ms);
        add(t, "tilesize.sweep_ms", spans.sweep_ms);
        add(t, "tilesize.examined", spans.examined as f64);
        add(t, "tilesize.full_sims", s.full as f64);
        add(t, "tilesize.proxy_sims", s.proxy as f64);
        add(t, "codegen.generate_ms", spans.generate_ms + s.generate_ms);
        add(t, "codegen.generate_calls", 1.0 + s.generate_calls as f64);
        add(t, "codegen.emit_ms", spans.emit_ms);
        add(t, "codegen.artifact_bytes", spans.artifact_bytes as f64);
        add(t, "gpusim.interp_ms", spans.interp_ms);
        add(t, "gpusim.compiled_ms", s.compiled_ms);
        add(t, "gpusim.score_ms", s.score_ms);
        add(t, "reference.run_ms", spans.reference_ms);
        add(t, "driver.compile_ms", compile_ms);
        add(t, "driver.fingerprint_us", spans.fingerprint_us);
        add(t, "driver.mem_lookup_us", spans.mem_lookup_us);
        add(t, "driver.unattributed_ms", compile_ms - stages);
        add(t, "serve.handle_ms", serve_handle_ms);
        add(t, "serve.protocol_ms", protocol_ms);
        let st = &mut self.self_totals;
        add(st, "stencil", spans.parse_us / 1e3);
        // The sweep's workers run the scorer concurrently: its wall share
        // is its summed time over the worker count.
        add(
            st,
            "tilesize",
            spans.sweep_ms - s.scorer_ms / spans.sweep_workers.max(1) as f64,
        );
        add(
            st,
            "codegen",
            spans.generate_ms + s.generate_ms + spans.emit_ms,
        );
        add(
            st,
            "gpusim",
            spans.interp_ms + s.score_ms - s.score_generate_ms,
        );
        add(st, "reference", spans.reference_ms);
        add(
            st,
            "driver",
            (spans.fingerprint_us + spans.mem_lookup_us) / 1e3 + compile_ms - stages,
        );
        add(st, "serve", serve_handle_ms + protocol_ms);
        self.compiled_points += s.compiled_points;
        self.ops += 1;
        Ok(())
    }

    /// The pipeline of `compile_source_with`, one public layer call at a
    /// time: parse, fingerprint, memory-cache lookup, tuning sweep (on a
    /// miss), final codegen, emission, interpreter simulation, reference.
    fn replay_layers(
        &self,
        input: &Input,
        cfg: &DriverConfig,
    ) -> Result<(OpSpans, TileParams), String> {
        let mut spans = OpSpans::default();
        let t = Instant::now();
        let program = parse_stencil(&input.name, &input.src).map_err(|e| e.to_string())?;
        spans.parse_us = ms_since(t) * 1e3;

        let t = Instant::now();
        let fp = fingerprint(&program, cfg);
        let device_fp = device_fingerprint(&cfg.device);
        let text = program.to_c_like();
        spans.fingerprint_us = ms_since(t) * 1e3;
        let (dims, steps) = cfg
            .workload
            .clone()
            .unwrap_or_else(|| autotune_workload(&program));

        let mut guard = None;
        let mut cached = None;
        if let Some(mem) = &self.replay_mem {
            let t = Instant::now();
            let lookup = mem.lookup_or_begin(&fp, &device_fp, &text, &CancelToken::never());
            spans.mem_lookup_us = ms_since(t) * 1e3;
            match lookup {
                MemLookup::Hit(params) => cached = Some(params),
                MemLookup::Miss(g) => guard = Some(g),
                MemLookup::Bypass | MemLookup::Cancelled(_) => {
                    return Err("unexpected memory-cache bypass".into())
                }
            }
        }
        let params = match cached {
            Some(params) => params,
            None => tune(&program, cfg, &dims, steps, &mut spans)?,
        };
        if let Some(g) = guard {
            g.fulfill(&text, &params);
        }

        let t = Instant::now();
        let plan = generate_hybrid(&program, &params, &dims, steps, cfg.opts)
            .map_err(|e| format!("codegen: {e}"))?;
        spans.generate_ms = ms_since(t);

        let t = Instant::now();
        let backend = cfg.backend.backend();
        let source = backend.emit_plan(&plan);
        let aux = backend.emit_aux(&plan);
        spans.emit_ms = ms_since(t);
        spans.artifact_bytes = (source.len() + aux.map_or(0, |a| a.len())) as u64;

        let planes = program.max_dt() as usize + 1;
        let init: Vec<Grid> = (0..program.num_fields())
            .map(|f| Grid::random(&dims, 1234 + f as u64))
            .collect();
        let align = alignment_offset_words(&program, &params, &cfg.opts);
        let t = Instant::now();
        let mut sim = GpuSim::with_global_offset(cfg.device.clone(), &init, planes, align);
        sim.run_plan(&plan);
        spans.interp_ms = ms_since(t);

        let t = Instant::now();
        let mut oracle = ReferenceExecutor::new(&program, &init);
        oracle.run(steps);
        spans.reference_ms = ms_since(t);
        let out = steps % planes;
        if (0..program.num_fields()).any(|f| !sim.plane(f, out).bit_equal(oracle.field(f))) {
            return Err(format!("{}: replayed simulation diverged", input.name));
        }
        Ok((spans, params))
    }

    /// Per-layer metric values: per-operation means of the span totals,
    /// and the compiled simulator's throughput over the run.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "gpusim.mpoints_per_s" {
                    let ms = self
                        .totals
                        .get("gpusim.compiled_ms")
                        .copied()
                        .unwrap_or(0.0);
                    if ms > 0.0 {
                        self.compiled_points as f64 / (ms * 1e3)
                    } else {
                        0.0
                    }
                } else {
                    self.totals.get(name).copied().unwrap_or(0.0) / ops
                };
                (name, unit, value)
            })
            .collect()
    }

    /// Self time per layer and operation, in ms: what each layer spends
    /// outside the layers it calls.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        [
            "stencil",
            "tilesize",
            "codegen",
            "gpusim",
            "reference",
            "driver",
            "serve",
        ]
        .into_iter()
        .map(|layer| {
            (
                layer,
                self.self_totals.get(layer).copied().unwrap_or(0.0) / ops,
            )
        })
        .collect()
    }
}

/// The tuning sweep of `choose_params` with spans: every candidate's
/// `evaluate_tile` timed on its own, then the racing sweep timed whole with
/// a scorer that times its codegen and simulator calls.
fn tune(
    program: &StencilProgram,
    cfg: &DriverConfig,
    dims: &[usize],
    steps: usize,
    spans: &mut OpSpans,
) -> Result<TileParams, String> {
    let space = sweep_space(program.spatial_dims(), cfg.smoke);
    let n = program.spatial_dims();
    let t = Instant::now();
    for &h in &space.h {
        for &w0 in &space.w0 {
            for_each_tail(&space.wi, &mut vec![w0], &mut |w| {
                if w.len() == n {
                    let _ = evaluate_tile(program, &TileParams::new(h, w));
                }
            });
        }
    }
    spans.evaluate_ms = ms_since(t);

    let tune_cfg = AutotuneConfig {
        smem_limit: cfg.device.shared_limit as u64,
        verify_domain: None,
        max_candidates: if cfg.smoke { 4 } else { 12 },
        top_k: cfg.top_k,
        proxy_frac: cfg.proxy,
        keep_frac: PROXY_KEEP_FRAC,
        ..AutotuneConfig::fermi()
    };
    let (proxy_dims, proxy_steps) = proxy_workload(dims, steps, cfg.proxy);
    let (workers, sim_threads) = if cfg.tune_workers > 0 {
        (cfg.tune_workers, cfg.sim_threads.max(1))
    } else {
        let candidates = if cfg.top_k > 0 {
            cfg.top_k
        } else if cfg.smoke {
            4
        } else {
            12
        };
        split_thread_budget(resolve_sim_threads(0), candidates)
    };
    let acc = Mutex::new(ScoreSpans::default());
    let scorer = |model: &TileSizeModel, fidelity: Fidelity| -> Option<f64> {
        let start = Instant::now();
        let (sdims, ssteps) = match fidelity {
            Fidelity::Proxy => (&proxy_dims[..], proxy_steps),
            Fidelity::Full => (dims, steps),
        };
        // Static scoring checks feasibility on the full workload.
        let (gdims, gsteps) = match cfg.tune {
            TuneMode::Static => (dims, steps),
            TuneMode::Simulated => (sdims, ssteps),
        };
        let t = Instant::now();
        let plan = generate_hybrid(program, &model.params, gdims, gsteps, cfg.opts).ok();
        let generate_ms = ms_since(t);
        let feasible = plan.filter(|p| {
            p.kernels
                .iter()
                .all(|k| k.shared_bytes() <= cfg.device.shared_limit)
        });
        let mut compiled_ms = 0.0;
        let mut points = 0;
        let score = match (cfg.tune, feasible) {
            (_, None) => None,
            (TuneMode::Static, Some(_)) => Some(-model.ratio()),
            (TuneMode::Simulated, Some(plan)) => {
                let align = alignment_offset_words(program, &model.params, &cfg.opts);
                let init: Vec<Grid> = (0..program.num_fields())
                    .map(|f| Grid::random(sdims, 7 + f as u64))
                    .collect();
                let planes = program.max_dt() as usize + 1;
                let mut sim = GpuSim::with_global_offset(cfg.device.clone(), &init, planes, align);
                let t = Instant::now();
                sim.run_plan_parallel_with(&plan, sim_threads);
                compiled_ms = ms_since(t);
                points = point_updates(program, sdims, ssteps);
                sim.set_point_updates(points);
                Some(timing::gstencils_per_s(sim.counters(), sim.device()))
            }
        };
        let total_ms = ms_since(start);
        let mut a = acc.lock().unwrap_or_else(|p| p.into_inner());
        a.generate_ms += generate_ms;
        a.generate_calls += 1;
        a.scorer_ms += total_ms;
        if cfg.tune == TuneMode::Simulated {
            a.score_ms += total_ms;
            a.score_generate_ms += generate_ms;
            a.compiled_ms += compiled_ms;
            a.compiled_points += points;
            match fidelity {
                Fidelity::Proxy => a.proxy += 1,
                Fidelity::Full => a.full += 1,
            }
        }
        score
    };
    let t = Instant::now();
    let report = autotune_parallel_cancellable(
        program,
        &space,
        &tune_cfg,
        &CancelToken::never(),
        workers,
        scorer,
    )
    .map_err(|e| e.to_string())?;
    spans.sweep_ms = ms_since(t);
    spans.examined = report.examined as u64;
    spans.sweep_workers = workers;
    spans.score = acc.into_inner().unwrap_or_else(|p| p.into_inner());
    report
        .best()
        .map(|b| b.model.params.clone())
        .ok_or_else(|| "no feasible tiling".to_string())
}

/// Calls `f` with every width vector `prefix ++ (one choice per list of
/// `rest`)`, in the sweep's enumeration order.
fn for_each_tail(rest: &[Vec<i64>], prefix: &mut Vec<i64>, f: &mut dyn FnMut(&[i64])) {
    match rest.split_first() {
        None => f(prefix),
        Some((choices, tail)) => {
            for &w in choices {
                prefix.push(w);
                for_each_tail(tail, prefix, f);
                prefix.pop();
            }
        }
    }
}
