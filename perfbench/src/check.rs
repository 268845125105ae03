//! Output checks that do not compare against stored output: every
//! distinct plan a run produced is replayed independently and compared bit
//! for bit with the reference executor, and every response is checked for
//! the properties its workload promises.

use gpu_codegen::hybrid_gen::alignment_offset_words;
use gpu_codegen::{generate_hybrid, CodegenOptions};
use gpusim::{timing, DeviceConfig, GpuSim};
use hybrid_bench::json::Json;
use hybrid_bench::point_updates;
use hybrid_tiling::TileParams;
use stencil::parse::parse_stencil;
use stencil::{Grid, ReferenceExecutor};

use crate::inputs::Kind;
use crate::normalize::same_outcome;

/// Property checks on one measured response. `fill` is the response of
/// the compile that filled the cache, for operations that must hit it.
/// Returns the first violated property.
pub fn properties(
    resp: &Json,
    kind: Kind,
    expect_cache: &str,
    fill: Option<&Json>,
    device: &DeviceConfig,
) -> Result<(), String> {
    let status = resp.get("status").and_then(Json::as_str);
    if status != Some("ok") {
        let why = resp.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("status {status:?}: {why}"));
    }
    if resp.get("verified").and_then(Json::as_bool) != Some(true) {
        return Err("not verified".into());
    }
    let smem = resp
        .get("smem_bytes")
        .and_then(Json::as_u64)
        .ok_or("no smem_bytes")?;
    if smem > device.shared_limit as u64 {
        return Err(format!(
            "smem_bytes {smem} over the device limit {}",
            device.shared_limit
        ));
    }
    let cache = resp.get("cache").and_then(Json::as_str);
    if cache != Some(expect_cache) {
        return Err(format!("cache {cache:?}, expected {expect_cache:?}"));
    }
    if kind == Kind::Miss && resp.get("full_simulated").and_then(Json::as_u64) < Some(1) {
        return Err("a tuning miss without a full-fidelity simulation".into());
    }
    if let Some(fill) = fill {
        if !same_outcome(resp, fill) {
            return Err("hit differs from the compile that filled the cache".into());
        }
    }
    Ok(())
}

/// The plan a response reports: `(h, w, dims, steps)`.
pub fn plan_of(resp: &Json) -> Option<(i64, Vec<i64>, Vec<usize>, usize)> {
    let h = resp.get("h")?.as_i64()?;
    let w = resp
        .get("w")?
        .as_arr()?
        .iter()
        .map(Json::as_i64)
        .collect::<Option<Vec<_>>>()?;
    let dims = resp
        .get("dims")?
        .as_arr()?
        .iter()
        .map(|d| d.as_u64().map(|d| d as usize))
        .collect::<Option<Vec<_>>>()?;
    let steps = resp.get("steps")?.as_u64()? as usize;
    Some((h, w, dims, steps))
}

/// Replays the plan `resp` reports for `src`: generates it, runs it on the
/// compiled simulator (not the interpreter the program verifies with) from
/// the program's fixed-seed grids, and requires every output field to be
/// bit-equal to the reference executor's, and the response's simulated
/// counters to match the replay's.
pub fn replay(src: &str, resp: &Json, device: &DeviceConfig) -> Result<(), String> {
    let (h, w, dims, steps) = plan_of(resp).ok_or("response without a plan")?;
    if h < 0 || w.is_empty() || w[0] < 0 || w[1..].iter().any(|&x| x < 1) {
        return Err(format!("invalid tile parameters h={h} w={w:?}"));
    }
    let program = parse_stencil("replay", src).map_err(|e| e.to_string())?;
    let params = TileParams::new(h, &w);
    let opts = CodegenOptions::best();
    let plan = generate_hybrid(&program, &params, &dims, steps, opts)
        .map_err(|e| format!("the reported plan does not generate: {e}"))?;
    let planes = program.max_dt() as usize + 1;
    let init: Vec<Grid> = (0..program.num_fields())
        .map(|f| Grid::random(&dims, 1234 + f as u64))
        .collect();
    let align = alignment_offset_words(&program, &params, &opts);
    let mut sim = GpuSim::with_global_offset(device.clone(), &init, planes, align);
    sim.run_plan_compiled(&plan);
    sim.set_point_updates(point_updates(&program, &dims, steps));
    let mut oracle = ReferenceExecutor::new(&program, &init);
    oracle.run(steps);
    let out = steps % planes;
    for f in 0..program.num_fields() {
        if !sim.plane(f, out).bit_equal(oracle.field(f)) {
            return Err(format!(
                "field {} of the replayed plan differs from the reference",
                program.field_names()[f]
            ));
        }
    }
    let gstencils = timing::gstencils_per_s(sim.counters(), sim.device());
    let reported = resp.get("gstencils_per_s").and_then(Json::as_f64);
    if reported.map(f64::to_bits) != Some(gstencils.to_bits()) {
        return Err(format!(
            "reported {reported:?} GStencils/s, the replay gives {gstencils}"
        ));
    }
    let launches = resp.get("launches").and_then(Json::as_u64);
    if launches != Some(sim.counters().launches) {
        return Err(format!(
            "reported {launches:?} launches, the replay ran {}",
            sim.counters().launches
        ));
    }
    let smem = plan
        .kernels
        .iter()
        .map(|k| k.shared_bytes() as u64)
        .max()
        .unwrap_or(0);
    if resp.get("smem_bytes").and_then(Json::as_u64) != Some(smem)
        || resp.get("kernels").and_then(Json::as_u64) != Some(plan.kernels.len() as u64)
    {
        return Err("reported kernels or shared memory differ from the replayed plan".into());
    }
    Ok(())
}
