//! Measurement plumbing shared by every workload: order statistics, the
//! tail-percentile rule, the seeded generator, metric naming, host facts
//! and the result line.

use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric with a computed name.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths; 0 for an
/// empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Zero-based nearest-rank index of percentile `p` (0–100) among `n`
/// sorted samples.
fn rank_index(n: usize, p: f64) -> usize {
    // The epsilon keeps exact products (99.9% of 10,000) from rounding
    // up to the next rank.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank_index(s.len(), p)]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`
/// samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank_index(n, p)
    }
}

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; fewer and it is a single outlier's value.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile that `n` samples support (at least
/// [`MIN_TAIL_SAMPLES`] beyond it), if any. The workloads fix their tail
/// percentile in advance from this rule and the sample counts a run
/// reaches; a run then keeps sampling until the fixed one is supported.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// Fewest samples that support percentile `p`.
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
        .unwrap()
}

/// The measured phase of a run: it lasts at least `seconds` and until
/// `min_samples` samples exist, but never past a hard cap that keeps a
/// run inside its time limit.
pub struct Phase {
    start: Instant,
    seconds: f64,
    min_samples: usize,
}

/// Longest a measured phase may run, however few samples it has.
pub const PHASE_CAP_S: f64 = 120.0;

impl Phase {
    /// Start the phase now.
    pub fn start(seconds: f64, min_samples: usize) -> Phase {
        Phase {
            start: Instant::now(),
            seconds,
            min_samples,
        }
    }

    /// Whether another sample should be taken, given `samples` so far.
    pub fn more(&self, samples: usize) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        t < PHASE_CAP_S && (t < self.seconds || samples < self.min_samples)
    }
}

/// splitmix64: a tiny, well-mixed generator. Workload inputs derive from
/// `--seed` through it, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so each input
    /// family draws an independent sequence from one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Metric names: start with a letter or digit, at most 64 of letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// A `kB` field of `/proc/self/status`, in KiB (0 if unavailable).
fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM") / 1024.0
}

/// Current resident set size of this process in KiB (`VmRSS`).
pub fn rss_kib() -> f64 {
    status_kib("VmRSS")
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}` with every digit the
/// measurement has.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The host and configuration a result came from, as one JSON object.
pub fn host_record(workload: &str, seed: u64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut opm: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("OPM_"))
        .collect();
    opm.sort();
    let opm: Vec<String> = opm
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let effective = match opm_core::config::Config::from_env() {
        Ok(c) => format!("{c:?}"),
        Err(e) => e.to_string(),
    };
    format!(
        "{{\"benchmark_meta\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"git_revision\": {}, \"nproc\": {nproc}, \"cpu_model\": {}, \"kernel\": {}, \
         \"opm_env\": {{{}}}, \"opm_config\": {}}}}}",
        json_str(workload),
        json_str(&git),
        json_str(&cpu),
        json_str(&kernel),
        opm.join(", "),
        json_str(&effective),
    )
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Timed operations after which [`Run::note_rss`] samples the peak
/// resident set.
pub const RSS_AFTER: usize = 10;

/// Items attempted and verified correct.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Items attempted.
    pub attempted: u64,
    /// Items whose outputs were verified correct.
    pub ok: u64,
}

impl Tally {
    /// Count `items` attempted, and as correct when `ok`.
    pub fn add(&mut self, items: u64, ok: bool) {
        self.attempted += items;
        if ok {
            self.ok += items;
        }
    }
}

/// What an untraced run of one workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// One latency sample per timed operation, in milliseconds
    /// (`simulate`: per case, its fastest time).
    pub latencies_ms: Vec<f64>,
    /// Items completed inside the timed operations (`simulate`: in one
    /// sweep).
    pub items: u64,
    /// Sum of the timed operations, in seconds (`simulate`: of the
    /// cases' fastest times).
    pub busy_s: f64,
    /// Items attempted, and verified correct.
    pub tally: Tally,
    /// Peak resident set after set-up and a fixed count of timed
    /// operations ([`Run::note_rss`]); `None` until then.
    pub peak_rss_mib: Option<f64>,
}

impl Run {
    /// Record the peak resident set once `RSS_AFTER` operations have been
    /// timed. The program keeps per-run records that grow with every
    /// operation, so the peak is taken after the same amount of work in
    /// every run, not after however much a run's speed allowed.
    pub fn note_rss(&mut self) {
        if self.peak_rss_mib.is_none() && self.latencies_ms.len() >= RSS_AFTER {
            self.peak_rss_mib = Some(peak_rss_mib());
        }
    }

    /// The six end-to-end metrics, with the workload's fixed tail
    /// percentile.
    pub fn end_to_end(&self, tail_p: f64) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", median(&self.setup_s)),
            Metric::new(
                "items_per_s",
                "1/s",
                self.items as f64 / self.busy_s.max(1e-12),
            ),
            Metric::new("latency_p50_ms", "ms", median(&self.latencies_ms)),
            Metric::new(
                "latency_tail_ms",
                "ms",
                percentile(&self.latencies_ms, tail_p),
            ),
            Metric::new(
                "ok_fraction",
                "ratio",
                self.tally.ok as f64 / self.tally.attempted.max(1) as f64,
            ),
            Metric::new(
                "peak_rss_mb",
                "MiB",
                self.peak_rss_mib.unwrap_or_else(peak_rss_mib),
            ),
        ]
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(15), None);
        for p in TAIL_CANDIDATES {
            let n = min_samples_for(p);
            assert!(samples_beyond(n, p) >= MIN_TAIL_SAMPLES);
            assert!(samples_beyond(n - 1, p) < MIN_TAIL_SAMPLES, "p{p}: n={n}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn rng_repeats_per_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn name_and_unit_character_sets() {
        assert!(valid_name("figure.fig01_gemm_pdf.wall_ms"));
        assert!(valid_name("memsim.knl-flat.ns_per_access"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("a.b", "ms", 1.25)]);
        let j = opm_core::api::Json::parse(&line).unwrap();
        let opm_core::api::Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = j.get("metrics").and_then(|m| m.get("a.b")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(1.25));
        assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some("ms"));
    }
}
