//! The benchmark's inputs: the example gallery, the seeded cache-busting
//! programs, and the per-workload round of operations.

use std::path::{Path, PathBuf};

use gpusim::DeviceConfig;
use hybrid_bench::driver::{DriverConfig, TuneMode};
use hybrid_bench::json::Json;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `hybridc` compiles of each gallery file, no plan cache.
    GalleryCold,
    /// A resident `hybridc serve` re-serving the primed gallery from its
    /// memory cache.
    ServeHot,
    /// The same service, gallery hits alternating with seeded
    /// cache-busting compiles that tune on the simulator.
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::GalleryCold,
        Workload::ServeHot,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GalleryCold => "gallery-cold",
            Workload::ServeHot => "serve-hot",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        self != Workload::GalleryCold
    }
}

/// What an operation asks of the program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A gallery stencil: a cold compile (`gallery-cold`) or a cache hit.
    Gallery,
    /// A cache-busting program tuned on the simulator (`serve-mixed`).
    Miss,
}

/// One operation's input.
#[derive(Clone, Debug)]
pub struct Input {
    /// Group key: the gallery stencil's name, or `heavy` for every
    /// cache-busting program (they differ only in a constant).
    pub name: String,
    pub kind: Kind,
    /// DSL source text.
    pub src: String,
    /// The gallery file (absolute), for path-based requests.
    pub path: Option<PathBuf>,
}

/// Simulator tuning of the cache-busting compiles: the model shortlist
/// width for 2-D programs and the proxy-ladder fraction.
pub const MISS_TOP_K: usize = 3;
pub const MISS_PROXY: f64 = 0.5;

impl Input {
    /// The `hybridd` compile request for this input, tagged with `id`.
    pub fn request(&self, id: &str) -> String {
        let mut pairs = vec![("op", Json::str("compile")), ("id", Json::str(id))];
        match self.kind {
            Kind::Gallery => {
                let path = self.path.as_ref().expect("gallery inputs have a path");
                pairs.push(("path", Json::str(path.display().to_string())));
            }
            Kind::Miss => {
                pairs.push(("name", Json::str(self.name.clone())));
                pairs.push(("program", Json::str(self.src.clone())));
                pairs.push(("tune", Json::str("simulated")));
                pairs.push(("top_k", Json::UInt(MISS_TOP_K as u64)));
                pairs.push(("proxy", Json::Num(MISS_PROXY)));
            }
        }
        Json::obj(pairs).render_compact()
    }

    /// The driver configuration the program compiles this input under,
    /// given the base configuration of the process serving it.
    pub fn config(&self, base: &DriverConfig) -> DriverConfig {
        let mut cfg = base.clone();
        if self.kind == Kind::Miss {
            cfg.tune = TuneMode::Simulated;
            cfg.top_k = MISS_TOP_K;
            cfg.proxy = MISS_PROXY;
        }
        cfg
    }
}

/// The base configuration of every `hybridc` process the benchmark starts:
/// default device and backend, static tuning, verification on, one
/// simulator thread (`--threads 1`). `cache_dir` is the plan cache, if any.
pub fn base_config(out_dir: &Path, cache_dir: Option<PathBuf>) -> DriverConfig {
    let mut cfg = DriverConfig::new(out_dir);
    cfg.sim_threads = 1;
    cfg.cache_dir = cache_dir;
    cfg
}

/// The device every request compiles for (the `hybridc` default).
pub fn device() -> DeviceConfig {
    DriverConfig::new("unused").device
}

/// The six `examples/stencils` programs, sorted by name.
pub fn gallery(root: &Path) -> Result<Vec<Input>, String> {
    let dir = root.join("examples/stencils");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "stencil"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .stencil files in {}", dir.display()));
    }
    files
        .into_iter()
        .map(|path| {
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let path = path
                .canonicalize()
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Input {
                name,
                kind: Kind::Gallery,
                src,
                path: Some(path),
            })
        })
        .collect()
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// always gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0f9a_11e7)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Numerators `m` of the cache-busting weights `m / 65536`, drawn so the
/// weight lies in [0.1, 0.2). Every such weight is exact in `f32`, so
/// distinct numerators always give distinct canonical program text — and
/// so distinct plan fingerprints.
const WEIGHT_LO: u64 = 6554;
const WEIGHT_SPAN: u64 = 6553;

/// Seeded generator of cache-busting programs: the five-point Jacobi
/// smoother of `examples/load/scenario.json`'s heavy requests, with a
/// weight no other program of the run uses.
pub struct MissSource {
    rng: Rng,
    used: std::collections::HashSet<u64>,
}

impl MissSource {
    pub fn new(seed: u64) -> MissSource {
        MissSource {
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(7)),
            used: Default::default(),
        }
    }

    pub fn next_input(&mut self) -> Input {
        assert!(
            (self.used.len() as u64) < WEIGHT_SPAN,
            "cache-busting weights exhausted"
        );
        let m = loop {
            let m = WEIGHT_LO + self.rng.below(WEIGHT_SPAN);
            if self.used.insert(m) {
                break m;
            }
        };
        Input {
            name: "heavy".to_string(),
            kind: Kind::Miss,
            src: heavy_program(m),
            path: None,
        }
    }
}

/// The cache-busting program with weight `m / 65536`.
pub fn heavy_program(m: u64) -> String {
    let w = m as f64 / 65536.0;
    format!(
        "// Cache-busting compile: the weight {m}/65536 is unique within a run.\n\
         const float w = {w}f;\n\
         \n\
         for (t = 0; t < T; t++)\n  \
           for (i = 1; i < N-1; i++)\n    \
             for (j = 1; j < N-1; j++)\n      \
               A[t+1][i][j] = w * (A[t][i+1][j] + A[t][i-1][j] + A[t][i][j+1] + A[t][i][j-1]);\n"
    )
}

/// The operations of one round: the gallery in a seeded order, and for
/// `serve-mixed` a fresh cache-busting compile after every gallery hit.
pub fn round(
    workload: Workload,
    gallery: &[Input],
    rng: &mut Rng,
    misses: &mut MissSource,
) -> Vec<Input> {
    let mut order: Vec<Input> = gallery.to_vec();
    rng.shuffle(&mut order);
    if workload != Workload::ServeMixed {
        return order;
    }
    order
        .into_iter()
        .flat_map(|g| [g, misses.next_input()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil::parse::parse_stencil;

    #[test]
    fn heavy_programs_parse_with_distinct_canonical_text() {
        let mut source = MissSource::new(3);
        let texts: std::collections::HashSet<String> = (0..50)
            .map(|_| {
                let input = source.next_input();
                parse_stencil("heavy", &input.src).unwrap().to_c_like()
            })
            .collect();
        assert_eq!(texts.len(), 50);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a: Vec<String> = {
            let mut s = MissSource::new(11);
            (0..5).map(|_| s.next_input().src).collect()
        };
        let b: Vec<String> = {
            let mut s = MissSource::new(11);
            (0..5).map(|_| s.next_input().src).collect()
        };
        let c: Vec<String> = {
            let mut s = MissSource::new(12);
            (0..5).map(|_| s.next_input().src).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
