//! The `campaign` workload: every registered figure pipeline at full
//! size, one engine thread, telemetry off, each iteration from a cold
//! profile cache into an empty results directory — the figure product as
//! `all_figures` runs it.

use crate::measure::{median, rss_kib, secs, Metric, Phase, Run, Tally, SETUPS};
use opm_bench::checkpoint::{config_signature, FigureCheckpoint};
use opm_bench::manifest::{self, RunOptions, ALL_FIGURES};
use opm_core::report::{crc32, Series};
use opm_kernels::engine::Engine;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Digest of a correct campaign: the total sweep points and, per output
/// CSV except `run_manifest.csv` (which carries timings), its CRC-32 and
/// length. Regenerate with `--bless` after an intended output change.
const EXPECTED: &str = include_str!("../expected/campaign.digest");

/// Fixed tail percentile: a 35-second run completes 170–310 campaigns.
pub const TAIL_P: f64 = 90.0;

/// Output files of one campaign, by name: (CRC-32, bytes).
type Files = BTreeMap<String, (u32, u64)>;

/// The expected campaign output.
struct Expected {
    points: u64,
    files: Files,
}

fn expected() -> Expected {
    let mut points = 0;
    let mut files = Files::new();
    for line in EXPECTED.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["points", n] => points = n.parse().expect("digest: points is an integer"),
            [name, crc, len] => {
                let crc = u32::from_str_radix(crc, 16).expect("digest: crc is hex");
                files.insert(
                    name.to_string(),
                    (crc, len.parse().expect("digest: length")),
                );
            }
            [] => {}
            _ => panic!("digest: malformed line {line:?}"),
        }
    }
    Expected { points, files }
}

/// Digest every CSV in `dir` except the timing-bearing manifest.
fn digest_outputs(dir: &Path) -> std::io::Result<Files> {
    let mut files = Files::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .to_string();
        if name.ends_with(".csv") && name != "run_manifest.csv" {
            let bytes = std::fs::read(&path)?;
            files.insert(name, (crc32(&bytes), bytes.len() as u64));
        }
    }
    Ok(files)
}

/// Check one campaign's outputs: all figures `ok`, no recorded failure,
/// and every CSV byte-identical to the digest. Returns the sweep points
/// the manifest reports, or what is wrong.
fn verify(dir: &Path, want: &Expected) -> Result<u64, String> {
    let manifest = std::fs::read_to_string(dir.join("run_manifest.csv"))
        .map_err(|e| format!("run_manifest.csv: {e}"))?;
    let mut figures = 0;
    let mut points = None;
    for row in manifest.lines().skip(1) {
        let cols: Vec<&str> = row.split(',').collect();
        if cols.len() != 9 {
            return Err(format!("run_manifest.csv: malformed row {row:?}"));
        }
        if cols[0] == "TOTAL" {
            points = cols[3].parse::<u64>().ok();
        } else if cols[1] != "ok" || cols[8] != "0" {
            return Err(format!(
                "figure {} ended {} with {} failures",
                cols[0], cols[1], cols[8]
            ));
        } else {
            figures += 1;
        }
    }
    if figures != ALL_FIGURES.len() {
        return Err(format!("{figures} of {} figures ran", ALL_FIGURES.len()));
    }
    let points = points.ok_or("run_manifest.csv: no TOTAL row")?;
    if points != want.points {
        return Err(format!("{points} points, expected {}", want.points));
    }
    let errors = std::fs::read_to_string(dir.join("run_errors.csv"))
        .map_err(|e| format!("run_errors.csv: {e}"))?;
    if errors.lines().count() != 1 {
        return Err(format!("run_errors.csv is not header-only:\n{errors}"));
    }
    let got = digest_outputs(dir).map_err(|e| format!("reading outputs: {e}"))?;
    if got != want.files {
        let differ: Vec<&String> = got
            .keys()
            .chain(want.files.keys())
            .filter(|k| got.get(*k) != want.files.get(*k))
            .collect();
        return Err(format!("outputs differ from the digest: {differ:?}"));
    }
    Ok(points)
}

/// Start an iteration as users start a run: a cold profile cache and an
/// empty results directory.
fn reset(results: &Path) {
    let _ = std::fs::remove_dir_all(results);
    std::fs::create_dir_all(results).expect("creating the results directory");
    Engine::global().clear_cache();
}

/// One campaign through the `all_figures` entry point; returns its wall
/// time in seconds.
fn campaign_once(results: &Path) -> f64 {
    reset(results);
    let t = Instant::now();
    manifest::run_and_write_opt(None, &RunOptions::default());
    secs(t)
}

/// Verify one campaign and count its points into `tally`; returns the
/// points it completed (0 if its output is wrong).
fn account(results: &Path, want: &Expected, tally: &mut Tally) -> u64 {
    match verify(results, want) {
        Ok(points) => {
            tally.add(points, true);
            points
        }
        Err(e) => {
            eprintln!("campaign: output check failed: {e}");
            tally.add(want.points, false);
            0
        }
    }
}

/// The untraced run.
pub fn run(seconds: f64, results: &Path) -> Run {
    let want = expected();
    let mut run = Run::default();
    for _ in 0..SETUPS {
        // Set-up: engine start (first repetition) and one warm-up
        // campaign, which faults in code and grows the allocator.
        let t = Instant::now();
        let _ = Engine::global();
        campaign_once(results);
        run.setup_s.push(secs(t));
    }
    let phase = Phase::start(seconds, crate::measure::min_samples_for(TAIL_P));
    while phase.more(run.latencies_ms.len()) {
        let wall = campaign_once(results);
        let points = account(results, &want, &mut run.tally);
        run.latencies_ms.push(wall * 1e3);
        run.busy_s += wall;
        run.items += points;
        run.note_rss();
    }
    run
}

/// Per-iteration layer split of one traced campaign.
struct Split {
    wall_s: f64,
    figures: Vec<(&'static str, f64)>,
    finish_s: f64,
    stage_busy_s: f64,
    stage_points: usize,
    hits: u64,
    misses: u64,
    failures: usize,
}

/// One campaign with every layer boundary timed from outside: the same
/// calls `run_and_write_opt` makes, minus its console summary.
fn traced_once(results: &Path) -> Split {
    reset(results);
    let engine = Engine::global();
    let stage_mark = engine.stage_count();
    let failure_mark = engine.failure_count();
    let cache_before = engine.cache_stats();
    let t0 = Instant::now();
    let reports = manifest::run_figures(None);
    let t1 = Instant::now();
    manifest::write_manifest(&reports).expect("writing run_manifest.csv");
    manifest::write_run_errors(&engine.failures_since(failure_mark))
        .expect("writing run_errors.csv");
    let finish_s = secs(t1);
    let wall_s = secs(t0);
    let stages = engine.stages_since(stage_mark);
    let cache = engine.cache_stats().since(cache_before);
    Split {
        wall_s,
        figures: reports
            .iter()
            .map(|r| (r.name, r.wall_ns as f64 / 1e9))
            .collect(),
        finish_s,
        stage_busy_s: stages.iter().map(|s| s.wall_ns as f64 / 1e9).sum(),
        stage_points: stages.iter().map(|s| s.points).sum(),
        hits: cache.hits,
        misses: cache.misses,
        failures: engine.failure_count() - failure_mark,
    }
}

/// Parse a numeric CSV written by `opm_bench::emit` back into its series.
fn parse_series(text: &str) -> Option<Series> {
    let mut lines = text.lines();
    let mut s = Series::new(lines.next()?.split(',').collect());
    for line in lines {
        let row: Option<Vec<f64>> = line.split(',').map(|v| v.parse().ok()).collect();
        let row = row?;
        if row.len() != s.columns.len() {
            return None;
        }
        s.rows.push(row);
    }
    Some(s)
}

/// Replay `opm_bench::emit` over the campaign's numeric CSVs into
/// `replay`; returns (files replayed, rows, bytes, median seconds of one
/// full replay).
fn replay_emit(results: &Path, replay: &Path) -> (usize, u64, u64, f64) {
    let mut series = Vec::new();
    let (mut rows, mut bytes) = (0u64, 0u64);
    for (name, _) in digest_outputs(results).expect("reading campaign outputs") {
        let text = std::fs::read_to_string(results.join(&name)).expect("reading a campaign CSV");
        bytes += text.len() as u64;
        rows += text.lines().count().saturating_sub(1) as u64;
        if let Some(s) = parse_series(&text) {
            series.push((name.trim_end_matches(".csv").to_string(), s));
        }
    }
    let times: Vec<f64> = with_results_dir(replay, || {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for (name, s) in &series {
                    opm_bench::emit(s, name);
                }
                secs(t)
            })
            .collect()
    });
    (series.len(), rows, bytes, median(&times))
}

/// Replay one checkpoint journal per figure (begin + done marker) into
/// `replay`; returns the median seconds of a full replay.
fn replay_journals(replay: &Path, figures: &[&str]) -> f64 {
    with_results_dir(replay, || {
        let signature = config_signature(Engine::global());
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for name in figures {
                    let j = FigureCheckpoint::begin(name, &signature).expect("journal begin");
                    j.mark_done(0).expect("journal done marker");
                }
                secs(t)
            })
            .collect();
        median(&times)
    })
}

/// Run `f` with `OPM_RESULTS` pointing at `dir`, then restore it.
fn with_results_dir<T>(dir: &Path, f: impl FnOnce() -> T) -> T {
    let prev = std::env::var_os("OPM_RESULTS");
    std::fs::create_dir_all(dir).expect("creating the replay directory");
    std::env::set_var("OPM_RESULTS", dir);
    let out = f();
    match prev {
        Some(p) => std::env::set_var("OPM_RESULTS", p),
        None => std::env::remove_var("OPM_RESULTS"),
    }
    out
}

/// The traced pass: untraced and traced campaigns alternate for
/// `seconds` (the difference of their medians is the tracing overhead),
/// then the emit, journal, profile-build and evaluation layers are
/// replayed from outside.
pub fn trace(seconds: f64, seed: u64, results: &Path, tally: &mut Tally) -> Vec<Metric> {
    let want = expected();
    campaign_once(results); // warm-up
    let (mut untraced, mut splits) = (Vec::new(), Vec::new());
    let rss_before = rss_kib();
    let phase = Phase::start(seconds, 3);
    while phase.more(splits.len()) {
        untraced.push(campaign_once(results));
        account(results, &want, tally);
        splits.push(traced_once(results));
        account(results, &want, tally);
    }
    // Resident memory the process keeps per campaign run (the engine's
    // stage log, for one, is never trimmed).
    let rss_growth = (rss_kib() - rss_before) / (2 * splits.len()) as f64;
    let last = splits.last().expect("at least one traced campaign");
    let med = |f: &dyn Fn(&Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let wall = med(&|s| s.wall_s);
    let stage_busy = med(&|s| s.stage_busy_s);
    let mut m = Vec::new();
    for (i, (name, _)) in last.figures.iter().enumerate() {
        let ms = med(&|s| s.figures[i].1) * 1e3;
        m.push(Metric::new(format!("figure.{name}.wall_ms"), "ms", ms));
    }
    let hits = last.hits;
    let misses = last.misses;
    m.extend([
        Metric::new("campaign.wall_ms", "ms", wall * 1e3),
        Metric::new("engine.stage_busy_ms", "ms", stage_busy * 1e3),
        Metric::new("engine.points", "count", last.stage_points as f64),
        Metric::new(
            "engine.points_per_busy_s",
            "1/s",
            med(&|s| s.stage_points as f64 / s.stage_busy_s),
        ),
        Metric::new("engine.failures", "count", last.failures as f64),
        Metric::new("engine.cache_hits", "count", hits as f64),
        Metric::new("engine.cache_misses", "count", misses as f64),
        Metric::new(
            "engine.cache_hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        Metric::new(
            "engine.cache_len",
            "count",
            Engine::global().cache_len() as f64,
        ),
        Metric::new(
            "campaign.outside_stages_ms",
            "ms",
            (wall - stage_busy) * 1e3,
        ),
        Metric::new("campaign.finish_ms", "ms", med(&|s| s.finish_s) * 1e3),
        Metric::new("campaign.rss_growth_kib", "KiB", rss_growth),
    ]);
    let untraced_wall = median(&untraced);
    m.push(Metric::new(
        "campaign.trace_overhead_pct",
        "%",
        (wall - untraced_wall) / untraced_wall * 100.0,
    ));

    let replay = results.with_file_name("replay");
    let (files, rows, bytes, emit_s) = replay_emit(results, &replay);
    let names: Vec<&str> = last.figures.iter().map(|(name, _)| *name).collect();
    let journal_s = replay_journals(&replay, &names);
    let _ = std::fs::remove_dir_all(&replay);
    // The split: figure pipelines, their journals (opened and closed
    // between pipelines) and the manifest/error writes must cover the
    // campaign's wall time.
    let residual = med(&|s| {
        let figures: f64 = s.figures.iter().map(|f| f.1).sum();
        (s.wall_s - figures - journal_s - s.finish_s) / s.wall_s * 100.0
    });
    if residual.abs() > 10.0 {
        eprintln!("campaign: layer split leaves {residual:.2}% of wall time unattributed");
        tally.add(1, false);
    }
    let finish = med(&|s| s.finish_s);
    m.extend([
        Metric::new("campaign.split_residual_pct", "%", residual),
        Metric::new(
            "report.emit_ms_per_file",
            "ms",
            emit_s * 1e3 / files.max(1) as f64,
        ),
        Metric::new("report.rows", "count", rows as f64),
        Metric::new("report.bytes", "B", bytes as f64),
        Metric::new(
            "checkpoint.journal_ms_per_figure",
            "ms",
            journal_s * 1e3 / names.len() as f64,
        ),
        // Corpus generation, stage-less model figures and loop overhead:
        // what is left outside engine stages, CSV emit, journals and the
        // final writes.
        Metric::new(
            "campaign.outside_unattributed_ms",
            "ms",
            (wall - stage_busy - emit_s - journal_s - finish) * 1e3,
        ),
    ]);
    m.extend(crate::profiles::replay(seed));
    m
}

/// Run one campaign and render its digest file.
pub fn bless(results: &Path) -> String {
    campaign_once(results);
    let files = digest_outputs(results).expect("reading campaign outputs");
    let manifest = std::fs::read_to_string(results.join("run_manifest.csv"))
        .expect("reading run_manifest.csv");
    let points = manifest
        .lines()
        .find_map(|l| l.strip_prefix("TOTAL,-,"))
        .and_then(|rest| rest.split(',').nth(1))
        .expect("run_manifest.csv has a TOTAL row");
    let mut out = String::from(
        "# Campaign output digest: `points <total sweep points>`, then one\n\
         # `<csv> <crc32 hex> <bytes>` line per output CSV except run_manifest.csv.\n\
         # Regenerate with `--bless` after an intended output change.\n",
    );
    out.push_str(&format!("points {points}\n"));
    for (name, (crc, len)) in files {
        out.push_str(&format!("{name} {crc:08x} {len}\n"));
    }
    out
}
