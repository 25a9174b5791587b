//! End-to-end benchmark of the figure campaign, the `opm-api/v1` mode
//! advisor and the memory simulator, with per-layer attribution timed
//! from outside the program.
//!
//! ```text
//! opm-e2e-benchmark --workload <campaign|serve_hot|serve_batch|simulate>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! opm-e2e-benchmark --bless
//! ```
//!
//! `--trace 0` measures one workload and prints the end-to-end metrics;
//! `--trace 1` runs every workload's traced pass (the named one for
//! `--seconds`, the others briefly) and prints the per-layer metrics.
//! `BENCHMARK.json` gates `serve_hot`, `serve_batch` and `simulate`; the
//! fsync-bound `campaign` runs the same way but only its traced pass is
//! part of the definition (see NOTES.md).
//! In-program telemetry stays off in both. The last stdout line is the
//! result object; the line before it records host and configuration.
//! `--bless` rewrites the output digests under `expected/`.
//!
//! Run from the repository root; outputs go to `.bench_work/` there and
//! are removed on exit.

mod campaign;
mod measure;
mod profiles;
mod serving;
mod simulate;

use measure::{result_line, valid_name, valid_unit, Metric, Tally};
use opm_core::api::Json;
use serving::Mix;
use std::path::{Path, PathBuf};

/// The benchmark definition the printed metrics must match.
const DEFINITION: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Campaign,
    Serve(Mix),
    Simulate,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Serve(Mix::Hot),
        Workload::Serve(Mix::Batch),
        Workload::Simulate,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Serve(mix) => mix.name(),
            Workload::Simulate => "simulate",
        }
    }

    fn tail_p(self) -> f64 {
        match self {
            Workload::Campaign => campaign::TAIL_P,
            Workload::Serve(mix) => mix.tail_p(),
            Workload::Simulate => simulate::TAIL_P,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: opm-e2e-benchmark --workload <campaign|serve_hot|serve_batch|simulate> \
                     --seed <n> --seconds <s> --trace <0|1>\n       opm-e2e-benchmark --bless";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *Workload::ALL
                        .iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// This run's scratch directory; removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> WorkDir {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Pin the program's configuration: every inherited `OPM_*` knob is
/// cleared, then the engine runs one thread with telemetry off and writes
/// under the work directory. Must run before the first engine use.
fn configure(results: &Path) {
    let inherited: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OPM_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
    std::env::set_var("OPM_THREADS", "1");
    std::env::set_var("OPM_TELEMETRY", "off");
    std::env::set_var("OPM_RESULTS", results);
}

/// Names and units of one metric list of the definition.
fn defined(list: &str) -> Vec<(String, String)> {
    let def = Json::parse(DEFINITION).expect("BENCHMARK.json parses");
    def.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Check printed metrics against the definition: the same names, in any
/// order, with the same units.
fn check_against_definition(metrics: &[Metric], list: &str) -> Result<(), String> {
    let mut want = defined(list);
    let mut got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    for m in metrics {
        if !valid_name(&m.name) || !valid_unit(m.unit) || !m.value.is_finite() {
            return Err(format!(
                "metric {:?} [{}] = {} is malformed",
                m.name, m.unit, m.value
            ));
        }
    }
    want.sort();
    got.sort();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
        let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
        return Err(format!(
            "metrics differ from BENCHMARK.json {list}: missing {missing:?}, extra {extra:?}"
        ));
    }
    Ok(())
}

/// Traced-pass length of a workload other than the named one.
fn side_seconds(seconds: f64) -> f64 {
    (seconds / 4.0).clamp(1.0, 3.0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--bless"] {
        let work = WorkDir::new("bless");
        let results = work.0.join("results");
        configure(&results);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
        std::fs::write(dir.join("campaign.digest"), campaign::bless(&results))
            .expect("writing campaign.digest");
        std::fs::write(dir.join("simulate.digest"), simulate::bless())
            .expect("writing simulate.digest");
        eprintln!("wrote {}/{{campaign,simulate}}.digest", dir.display());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = WorkDir::new(args.workload.name());
    let results = work.0.join("results");
    configure(&results);
    let meta = measure::host_record(args.workload.name(), args.seed, args.trace);
    eprintln!("{meta}");

    let (metrics, tally, list) = if args.trace {
        let mut tally = Tally::default();
        let mut metrics = Vec::new();
        for w in Workload::ALL {
            let s = if w == args.workload {
                args.seconds
            } else {
                side_seconds(args.seconds)
            };
            metrics.extend(match w {
                Workload::Campaign => campaign::trace(s, args.seed, &results, &mut tally),
                Workload::Serve(mix) => serving::trace(mix, args.seed, s, &mut tally),
                Workload::Simulate => simulate::trace(args.seed, s, &mut tally),
            });
        }
        (Ok(metrics), tally, "per_layer")
    } else {
        let run = match args.workload {
            Workload::Campaign => campaign::run(args.seconds, &results),
            Workload::Serve(mix) => serving::run(mix, args.seed, args.seconds),
            Workload::Simulate => simulate::run(args.seed, args.seconds),
        };
        let supported = measure::highest_supported_percentile(run.latencies_ms.len());
        let tail = args.workload.tail_p();
        let metrics = if supported.is_some_and(|p| p >= tail) {
            Ok(run.end_to_end(tail))
        } else {
            Err(format!(
                "{} latency samples cannot support p{tail}",
                run.latencies_ms.len()
            ))
        };
        (metrics, run.tally, "end_to_end")
    };
    let metrics = metrics.and_then(|m| check_against_definition(&m, list).map(|()| m));
    drop(work);
    let metrics = metrics.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    println!("{meta}");
    let attempted = tally.attempted.max(1);
    let failed = attempted - tally.ok.min(attempted);
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn definition_meets_the_contract() {
        let def = Json::parse(DEFINITION).unwrap();
        let Json::Obj(fields) = &def else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = def.get("workloads").and_then(Json::as_arr).unwrap();
        assert!(workloads.len() >= 2);
        for def in workloads {
            let name = def.get("name").and_then(Json::as_str).unwrap();
            let w = Workload::ALL
                .into_iter()
                .find(|w| w.name() == name)
                .unwrap_or_else(|| panic!("unknown workload {name:?}"));
            let why = def.get("why").and_then(Json::as_str).unwrap();
            let tail = format!("tail p{}", w.tail_p());
            assert!(
                why.contains(&tail),
                "{}: `why` must state {tail:?}",
                w.name()
            );
            assert!(why.len() <= 200);
        }
        let mut seen = std::collections::HashSet::new();
        for list in ["end_to_end", "per_layer"] {
            for (name, unit) in defined(list) {
                assert!(valid_name(&name), "{name:?}");
                assert!(valid_unit(&unit), "{name}: unit {unit:?}");
                assert!(seen.insert(name.clone()), "{name} defined twice");
            }
        }
        for m in def.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(defined("end_to_end").contains(&("setup_s".into(), "s".into())));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload simulate --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Simulate, 3, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload campaign --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload campaign --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload campaign --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&args("--workload campaign --seed 1 --seconds 5")).is_err());
    }
}
