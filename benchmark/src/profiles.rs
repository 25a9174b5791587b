//! Seeded what-if query keys (the `serve_batch` traffic) and the outside
//! replay of the profile-build and model-evaluation layers over them.

use crate::measure::{median, Metric, Rng};
use opm_core::api::Query;
use opm_core::perf::{PerfModel, ProfilePlan};
use opm_core::platform::{OpmConfig, PlatformSpec};
use opm_core::profile::AccessProfile;
use opm_core::units::MIB;
use opm_kernels::registry::KernelId;
use std::hint::black_box;
use std::time::Instant;

/// Distinct profile keys the seeded stream walks through: 32× the serving
/// cache's 4096 entries, so a key is never still cached when it recurs.
pub const POPULATION: u64 = 1 << 17;

/// The six OPM configurations, Broadwell first.
pub fn configs() -> Vec<OpmConfig> {
    OpmConfig::broadwell_modes()
        .into_iter()
        .chain(OpmConfig::knl_modes())
        .collect()
}

/// Problem parameters of one key (defaults as the daemon resolves them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    /// The kernel.
    pub kernel: KernelId,
    /// The configuration the query asks about.
    pub config: OpmConfig,
    /// Dense order / FFT edge / stencil grid edge.
    pub n: u64,
    /// Dense tile.
    pub tile: u64,
    /// Sparse rows.
    pub rows: u64,
    /// Sparse non-zeros.
    pub nnz: u64,
    /// Stream footprint in MiB.
    pub footprint_mb: f64,
}

/// A seeded walk over [`POPULATION`] distinct keys: position `i` maps
/// through a bijection of `0..POPULATION`, so the first `POPULATION`
/// positions are all different keys.
#[derive(Debug, Clone)]
pub struct KeyStream {
    seed: u64,
    offset: u64,
    mul: [u64; 2],
}

impl KeyStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> KeyStream {
        let mut r = Rng::new(seed, 0x6b65_7973);
        KeyStream {
            seed,
            offset: r.below(POPULATION),
            mul: [r.next_u64() | 1, r.next_u64() | 1],
        }
    }

    /// Key at position `i`.
    pub fn key(&self, i: u64) -> Key {
        let mask = POPULATION - 1;
        // Each step is a bijection on 17-bit values.
        let mut x = (i.wrapping_add(self.offset)) & mask;
        x = x.wrapping_mul(self.mul[0]) & mask;
        x ^= x >> 9;
        x = x.wrapping_mul(self.mul[1]) & mask;
        x ^= x >> 7;
        let kernel = KernelId::ALL[(x % 8) as usize];
        let j = x / 8;
        let (a, b) = (j % 128, j / 128);
        let configs = configs();
        let config = configs[(Rng::new(self.seed, i).next_u64() % configs.len() as u64) as usize];
        let mut k = Key {
            kernel,
            config,
            n: 0,
            tile: 0,
            rows: 0,
            nnz: 0,
            footprint_mb: 0.0,
        };
        match kernel {
            KernelId::Gemm | KernelId::Cholesky => {
                k.n = 2048 + 64 * a;
                k.tile = 64 + 8 * b;
            }
            KernelId::Spmv | KernelId::Sptrans | KernelId::Sptrsv => {
                k.rows = 100_000 + 20_000 * a;
                k.nnz = 4 * k.rows + 250_000 * b;
            }
            KernelId::Fft => k.n = 64 + j,
            KernelId::Stencil => k.n = 64 + j,
            KernelId::Stream => k.footprint_mb = 1.0 + 0.5 * j as f64,
        }
        k
    }

    /// Query at position `i`.
    pub fn query(&self, i: u64) -> Query {
        let k = self.key(i);
        let some = |v: u64| (v > 0).then_some(v);
        let mut q = Query {
            kernel: k.kernel.name().to_string(),
            config: k.config.label().to_string(),
            rows: some(k.rows),
            nnz: some(k.nnz),
            footprint_mb: (k.footprint_mb > 0.0).then_some(k.footprint_mb),
            ..Query::default()
        };
        match k.kernel {
            KernelId::Stencil => q.grid = some(k.n),
            _ => {
                q.n = some(k.n);
                q.tile = some(k.tile);
            }
        }
        q
    }
}

/// The access profile the daemon builds for `k` on a cache miss, through
/// the same public builders and default parameters.
pub fn build(k: &Key) -> AccessProfile {
    let machine = k.config.machine();
    let threads = k.kernel.threads(machine);
    let cores = PlatformSpec::for_machine(machine).cores;
    let (n, tile, rows, nnz) = (
        k.n as usize,
        k.tile as usize,
        k.rows as usize,
        k.nnz as usize,
    );
    match k.kernel {
        KernelId::Gemm => opm_dense::gemm_profile(n, tile, threads, cores),
        KernelId::Cholesky => opm_dense::cholesky_profile(n, tile, threads, cores),
        KernelId::Spmv => opm_sparse::spmv_profile(rows, nnz, 400_000.0, threads),
        KernelId::Sptrans => opm_sparse::sptrans_profile(rows, nnz, threads),
        KernelId::Sptrsv => opm_sparse::sptrsv_profile(rows, nnz, 400_000.0, 300.0, threads),
        KernelId::Fft => opm_fft::fft3d_profile(n, threads, cores),
        KernelId::Stencil => opm_stencil::stencil_profile(n, n, n, (64, 64, 96), threads, cores),
        KernelId::Stream => {
            opm_stencil::stream_profile(((k.footprint_mb * MIB) / 24.0) as usize, 4, threads)
        }
    }
}

/// Keys replayed per pass.
const REPLAY_KEYS: u64 = 512;

/// Replay `*_profile` + `ProfilePlan::new` over seeded keys
/// (`profile.build_us`), then `EvalPlan::evaluate_planned` of each plan
/// under all six configurations (`perf.eval_ns_per_point`).
pub fn replay(seed: u64) -> Vec<Metric> {
    let keys = KeyStream::new(seed);
    let mut build_us = Vec::new();
    let mut plans = Vec::new();
    for i in 0..REPLAY_KEYS {
        let k = keys.key(i);
        let t = Instant::now();
        let plan = ProfilePlan::new(&build(&k)).expect("seeded keys build valid profiles");
        build_us.push(t.elapsed().as_secs_f64() * 1e6);
        plans.push(plan);
    }
    let models: Vec<PerfModel> = configs().into_iter().map(PerfModel::for_config).collect();
    let mut eval_ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for model in &models {
            let plan = model.plan();
            for p in &plans {
                black_box(plan.evaluate_planned(black_box(p)));
            }
        }
        eval_ns.push(t.elapsed().as_secs_f64() * 1e9 / (plans.len() * models.len()) as f64);
    }
    vec![
        Metric::new("profile.build_us", "us", median(&build_us)),
        Metric::new("perf.eval_ns_per_point", "ns", median(&eval_ns)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_queries() {
        let (a, b) = (KeyStream::new(11), KeyStream::new(11));
        for i in 0..256 {
            assert_eq!(a.query(i), b.query(i));
        }
        let c = KeyStream::new(12);
        assert!((0..256).any(|i| a.query(i) != c.query(i)));
    }

    #[test]
    fn stream_walks_distinct_profile_keys() {
        let s = KeyStream::new(3);
        let mut seen = HashSet::new();
        for i in 0..POPULATION {
            let k = s.key(i);
            // Parameters alone already differ; the configuration's
            // machine (part of the daemon's key) only adds distinctness.
            let id = (
                k.kernel.name(),
                k.n,
                k.tile,
                k.rows,
                k.nnz,
                k.footprint_mb.to_bits(),
            );
            assert!(seen.insert(id), "position {i} repeats a key");
        }
    }

    #[test]
    fn seeded_keys_build_valid_profiles() {
        let s = KeyStream::new(5);
        for i in 0..64 {
            let k = s.key(i);
            ProfilePlan::new(&build(&k)).unwrap_or_else(|e| panic!("{k:?}: {e}"));
        }
    }
}
