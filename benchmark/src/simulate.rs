//! The `simulate` workload: the kernel trace twins of
//! `opm_kernels::traces` run serially through the exact memory simulator
//! (`HierarchySim`) on the 1/1024-scale milli-machines for all six OPM
//! configurations, plus a reuse-distance pass per trace.
//!
//! An item is one line touch processed (by the simulator or the reuse
//! pass). A case is one trace under one configuration (or its reuse
//! pass); a run repeats all 49 cases in whole sweeps and keeps each
//! case's fastest host time. Footprints straddle the milli-machines'
//! 128 KiB eDRAM and 16 MiB MCDRAM.

use crate::measure::{median, secs, Metric, Phase, Rng, Run, Tally, SETUPS};
use crate::profiles::configs;
use opm_core::platform::OpmConfig;
use opm_kernels::traces;
use opm_memsim::{reuse_histogram, HierarchySim, SimResult, Trace};
use opm_sparse::{CooMatrix, CsrMatrix};
use std::time::Instant;

/// Capacity divisor of the simulated milli-machines.
const SCALE: u64 = 1024;

/// Digest of the simulator's counts on the seed-independent traces.
/// Regenerate with `--bless` after an intended simulator change.
const EXPECTED: &str = include_str!("../expected/simulate.digest");

/// Fixed tail percentile over the 49 cases' fastest times: the highest
/// with at least 10 cases beyond it.
pub const TAIL_P: f64 = 75.0;

/// Fewest whole sweeps a run makes, so that each case's fastest time is
/// taken over several repetitions even on a slow host.
const MIN_SWEEPS: usize = 5;

/// One named trace and whether its content depends on the seed.
pub struct NamedTrace {
    /// Trace name.
    pub name: &'static str,
    /// Whether the seed chooses its input (the sparse matrix).
    pub seeded: bool,
    /// The trace.
    pub trace: Trace,
    /// Line touches in the trace.
    pub lines: u64,
}

/// Order of the seeded sparse matrix.
const SPARSE_ROWS: usize = 30_000;

/// Non-zeros in each row of the seeded sparse matrix.
const SPARSE_ROW_LEN: usize = 10;

/// A uniformly random sparse matrix: each row holds `SPARSE_ROW_LEN`
/// distinct columns drawn from `seed`. Unlike `opm_sparse::gen`'s
/// `RandomUniform`, whose duplicate-merged non-zero count moved by 8%
/// from seed to seed, every seed gives exactly `SPARSE_ROWS *
/// SPARSE_ROW_LEN` non-zeros.
fn sparse_matrix(seed: u64) -> CsrMatrix {
    let mut rng = Rng::new(seed, 0x73696d);
    let mut coo = CooMatrix::new(SPARSE_ROWS, SPARSE_ROWS);
    let mut cols = Vec::with_capacity(SPARSE_ROW_LEN);
    for i in 0..SPARSE_ROWS {
        cols.clear();
        while cols.len() < SPARSE_ROW_LEN {
            let c = rng.below(SPARSE_ROWS as u64) as usize;
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        for &c in &cols {
            let v = 0.1 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            coo.push(i, c, v);
        }
    }
    CsrMatrix::from_coo(coo)
}

/// Build every trace: dense/stencil/FFT twins at fixed sizes, and the
/// sparse twins on a uniformly random matrix whose non-zero positions
/// derive from `seed`. Order, non-zero count and structure family stay
/// fixed, so every seed asks for the same amount and kind of work.
pub fn build_traces(seed: u64) -> Vec<NamedTrace> {
    let a = sparse_matrix(seed);
    let l = a.to_lower_triangular();
    let named = |name, seeded, trace: Trace| {
        let lines = trace
            .accesses
            .iter()
            .map(|acc| acc.lines().count() as u64)
            .sum();
        NamedTrace {
            name,
            seeded,
            trace,
            lines,
        }
    };
    vec![
        // 18 MiB, one pass: beyond the 16 MiB MCDRAM.
        named(
            "stream_triad",
            false,
            traces::stream_triad_trace(786_432, 1),
        ),
        // 96 KiB: inside the 128 KiB eDRAM.
        named("gemm_blocked", false, traces::gemm_blocked_trace(64, 16)),
        // 1.5 MiB.
        named("stencil", false, traces::stencil_trace(40)),
        // 512 KiB.
        named("fft3d", false, traces::fft3d_trace(32)),
        // ~4 MiB.
        named("spmv", true, traces::spmv_trace(&a, 1)),
        named("sptrans", true, traces::sptrans_trace(&a)),
        named("sptrsv", true, traces::sptrsv_trace(&l)),
    ]
}

/// Counts that must repeat exactly for a given trace and configuration.
fn counts(r: &SimResult) -> Vec<u64> {
    let mut v = vec![
        r.accesses,
        r.victim_hits,
        r.opm_flat,
        r.dram,
        r.dram_writebacks,
    ];
    v.extend(&r.level_hits);
    v
}

/// Bytes served on package: eDRAM victim hits, flat MCDRAM, and hits in
/// an MCDRAM cache level.
fn opm_bytes(r: &SimResult) -> u64 {
    let mcdram: u64 = r
        .levels
        .iter()
        .filter(|l| l.name.starts_with("MCDRAM"))
        .map(|l| l.hits)
        .sum();
    (r.victim_hits + r.opm_flat + mcdram) * opm_memsim::LINE_BYTES
}

/// Everything one sweep measured.
struct Sweep {
    /// Seconds of each (trace, engine) sample, trace-major; the engine is
    /// a configuration or, last, the reuse pass.
    samples: Vec<f64>,
    /// Counts per (trace, configuration), then the reuse histogram's
    /// total and cold counts per trace.
    counts: Vec<Vec<u64>>,
    /// Per configuration: (seconds, accesses, DRAM bytes, on-package bytes).
    per_config: Vec<(f64, u64, u64, u64)>,
    /// Seconds in reuse passes, and lines they processed.
    reuse: (f64, u64),
    /// Line touches processed.
    items: u64,
    /// Reconciliation failures and line-count mismatches.
    errors: Vec<String>,
}

fn sweep(traces: &[NamedTrace], configs: &[OpmConfig]) -> Sweep {
    let mut s = Sweep {
        samples: Vec::new(),
        counts: Vec::new(),
        per_config: vec![(0.0, 0, 0, 0); configs.len()],
        reuse: (0.0, 0),
        items: 0,
        errors: Vec::new(),
    };
    for t in traces {
        for (c, &config) in configs.iter().enumerate() {
            let start = Instant::now();
            let mut sim = HierarchySim::for_config(config, SCALE);
            let r = sim.run(&t.trace);
            let dt = secs(start);
            s.samples.push(dt);
            if let Err(e) = r.reconcile() {
                s.errors
                    .push(format!("{} on {}: {e}", t.name, config.label()));
            }
            if r.accesses != t.lines {
                s.errors.push(format!(
                    "{} on {}: {} accesses simulated, trace has {} line touches",
                    t.name,
                    config.label(),
                    r.accesses,
                    t.lines
                ));
            }
            let pc = &mut s.per_config[c];
            pc.0 += dt;
            pc.1 += r.accesses;
            pc.2 += r.dram_bytes();
            pc.3 += opm_bytes(r);
            s.items += r.accesses;
            s.counts.push(counts(r));
        }
        let start = Instant::now();
        let h = reuse_histogram(&t.trace);
        let dt = secs(start);
        s.samples.push(dt);
        s.reuse.0 += dt;
        s.reuse.1 += h.total;
        s.items += h.total;
        if h.total != t.lines {
            s.errors.push(format!(
                "{}: reuse pass saw {} of {} lines",
                t.name, h.total, t.lines
            ));
        }
        s.counts.push(vec![h.total, h.cold]);
    }
    s
}

/// Digest (FNV-1a over the counts) of the seed-independent traces.
fn fixed_digest(traces: &[NamedTrace], counts: &[Vec<u64>], configs: usize) -> u64 {
    let per_trace = configs + 1;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (t, chunk) in traces.iter().zip(counts.chunks(per_trace)) {
        if t.seeded {
            continue;
        }
        for v in chunk.iter().flatten() {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn expected_digest() -> u64 {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix("fixed "))
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
        .expect("simulate.digest has a `fixed <hex>` line")
}

/// Verify one sweep: flow invariants, line counts, the fixed-trace
/// digest, and (for the seeded traces) identity with the first sweep.
fn verify(s: &Sweep, traces: &[NamedTrace], nconfigs: usize, first: &[Vec<u64>]) -> bool {
    for e in &s.errors {
        eprintln!("simulate: {e}");
    }
    let digest = fixed_digest(traces, &s.counts, nconfigs);
    let ok_digest = digest == expected_digest();
    if !ok_digest {
        eprintln!("simulate: fixed-trace counts digest {digest:016x} does not match");
    }
    let repeat = first.is_empty() || s.counts == first;
    if !repeat {
        eprintln!("simulate: counts differ from the run's first sweep");
    }
    s.errors.is_empty() && ok_digest && repeat
}

/// Build the traces `SETUPS` times, keeping the last; returns them with
/// each build's seconds.
fn setup(seed: u64) -> (Vec<NamedTrace>, Vec<f64>) {
    let mut times = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut traces));
        let t = Instant::now();
        traces = build_traces(seed);
        times.push(secs(t));
    }
    (traces, times)
}

/// The untraced run: whole sweeps until the phase ends.
///
/// Every case is deterministic work repeated once per sweep, and the
/// shared host only ever adds time to it: the host ran the same sweep up
/// to 1.8x slower for stretches of 10-30 s (see NOTES.md). So the run
/// reports each case's fastest time, the minimum estimator of Chen and
/// Revels, "Robust benchmarking in noisy environments"
/// (arXiv:1608.04295). The latency samples are the 49 cases' fastest
/// times, and throughput is one sweep's items over their sum.
pub fn run(seed: u64, seconds: f64) -> Run {
    let (traces, setup_s) = setup(seed);
    let configs = configs();
    let mut run = Run {
        setup_s,
        ..Run::default()
    };
    let mut first = Vec::new();
    let mut fastest: Vec<f64> = Vec::new();
    let mut sweeps = 0;
    let phase = Phase::start(seconds, MIN_SWEEPS);
    while phase.more(sweeps) {
        let s = sweep(&traces, &configs);
        if fastest.is_empty() {
            fastest = s.samples.clone();
        }
        for (f, &t) in fastest.iter_mut().zip(&s.samples) {
            *f = f.min(t);
        }
        sweeps += 1;
        // Every sweep processes the same line touches.
        run.items = s.items;
        let ok = verify(&s, &traces, configs.len(), &first);
        run.tally.add(s.items, ok);
        if first.is_empty() {
            first = s.counts;
        }
        run.latencies_ms = fastest.iter().map(|t| t * 1e3).collect();
        run.note_rss();
    }
    run.busy_s = fastest.iter().sum();
    run
}

/// The traced pass: untraced and traced sweeps alternate; the traced one
/// attributes host time per configuration and to the reuse pass.
pub fn trace(seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let (traces, gen_s) = setup(seed);
    let configs = configs();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut first = Vec::new();
    let phase = Phase::start(seconds, 2);
    while phase.more(traced.len()) {
        for list in [&mut untraced, &mut traced] {
            let t = Instant::now();
            let s = sweep(&traces, &configs);
            let wall = secs(t);
            tally.add(s.items, verify(&s, &traces, configs.len(), &first));
            if first.is_empty() {
                first = s.counts.clone();
            }
            list.push((wall, s));
        }
    }
    let (_, last) = traced.last().expect("at least one traced sweep");
    let mut m = Vec::new();
    for (c, config) in configs.iter().enumerate() {
        let ns = median(
            &traced
                .iter()
                .map(|(_, s)| s.per_config[c].0 * 1e9 / s.per_config[c].1 as f64)
                .collect::<Vec<_>>(),
        );
        let label = config.label();
        let (_, accesses, dram, opm) = last.per_config[c];
        m.push(Metric::new(
            format!("memsim.{label}.ns_per_access"),
            "ns",
            ns,
        ));
        m.push(Metric::new(
            format!("memsim.{label}.dram_bytes"),
            "B",
            dram as f64,
        ));
        m.push(Metric::new(
            format!("memsim.{label}.opm_bytes"),
            "B",
            opm as f64,
        ));
        if c == 0 {
            m.push(Metric::new("memsim.accesses", "count", accesses as f64));
        }
    }
    let wall = median(&traced.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    let attributed = median(
        &traced
            .iter()
            .map(|(w, s)| w - s.samples.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    );
    m.extend([
        Metric::new(
            "reuse.ns_per_line",
            "ns",
            median(
                &traced
                    .iter()
                    .map(|(_, s)| s.reuse.0 * 1e9 / s.reuse.1 as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        Metric::new("traces.gen_ms", "ms", median(&gen_s) * 1e3),
        Metric::new("simulate.sweep_ms", "ms", wall * 1e3),
        Metric::new("simulate.unattributed_ms", "ms", attributed * 1e3),
        Metric::new("simulate.trace_overhead_pct", "%", {
            let u = median(&untraced.iter().map(|(w, _)| *w).collect::<Vec<_>>());
            (wall - u) / u * 100.0
        }),
    ]);
    m
}

/// Run one sweep and render the digest file.
pub fn bless() -> String {
    let traces = build_traces(0);
    let configs = configs();
    let s = sweep(&traces, &configs);
    assert!(s.errors.is_empty(), "simulator flow errors: {:?}", s.errors);
    format!(
        "# FNV-1a digest of the simulator's counts (accesses, victim, flat, DRAM,\n\
         # write-backs, per-level hits; reuse total and cold) on the\n\
         # seed-independent traces under all six configurations.\n\
         # Regenerate with `--bless` after an intended simulator change.\n\
         fixed {:016x}\n",
        fixed_digest(&traces, &s.counts, configs.len())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_repeat_per_seed() {
        let sig = |seed| {
            build_traces(seed)
                .iter()
                .map(|t| (t.name, t.lines, t.trace.bytes()))
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(4), sig(4));
        let (a, b) = (build_traces(4), build_traces(5));
        // Only the sparse traces depend on the seed, and they ask for the
        // same work under every seed: SpMV and SpTRANS touch exactly as
        // many lines.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace == y.trace, !x.seeded, "{}", x.name);
        }
        assert_eq!(sig(4)[..6], sig(5)[..6]);
    }

    #[test]
    fn sparse_matrix_has_fixed_nonzeros() {
        for seed in [1, 3, 7] {
            let a = sparse_matrix(seed);
            a.validate().unwrap();
            assert_eq!(a.nnz(), SPARSE_ROWS * SPARSE_ROW_LEN);
        }
        assert_ne!(sparse_matrix(1), sparse_matrix(3));
    }
}
