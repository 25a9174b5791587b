//! The `serve_hot` and `serve_batch` workloads: an in-process `opm serve`
//! daemon on a loopback port and one closed-loop client connection.
//!
//! Latency is the client's round trip including its own request render
//! and response decode, as `opm advise` users see it. Every response is
//! checked byte for byte against the in-process `serve::respond(..)
//! .render()` of the same request, outside the timed interval.

use crate::measure::{median, min_samples_for, secs, Metric, Phase, Rng, Run, Tally, SETUPS};
use crate::profiles::{configs, KeyStream, POPULATION};
use opm_bench::serve::{
    respond, Client, ServeStats, Server, DEFAULT_MAX_INFLIGHT, DEFAULT_SERVE_CACHE_CAP,
};
use opm_core::api::{Query, QueryResult, Request, Response};
use opm_kernels::engine::{Engine, EngineConfig};
use opm_kernels::registry::KernelId;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// The two traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// One query per frame cycling through the 48 kernel×config pairs
    /// at default parameters: every lookup hits the daemon's cache.
    Hot,
    /// Eight queries per frame, each a profile key not seen before.
    Batch,
}

impl Mix {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Hot => "serve_hot",
            Mix::Batch => "serve_batch",
        }
    }

    /// Fixed tail percentile. A 35-second run gives `serve_hot` ~300k
    /// samples and `serve_batch` ~17k, enough for p99, but p99 is set by
    /// host stalls of several milliseconds. Over five runs in one noisy
    /// period, `serve_hot`'s p95 spread 1.3% and its p99 16%;
    /// `serve_batch`'s p75 spread 18%, its p90 56% and its p95 75%.
    pub fn tail_p(self) -> f64 {
        match self {
            Mix::Hot => 95.0,
            Mix::Batch => 75.0,
        }
    }
}

/// Queries per frame of `serve_batch`.
pub const BATCH: usize = 8;

/// Warm-up round trips (part of set-up).
const WARMUP: u64 = 96;

/// The request stream of one mix, derived from the seed.
struct Traffic {
    mix: Mix,
    /// `serve_hot`: the 48 pairs in seeded order, with the expected
    /// response of each.
    hot: Vec<(Request, String)>,
    keys: KeyStream,
}

impl Traffic {
    fn new(mix: Mix, seed: u64, reference: &Engine) -> Traffic {
        let mut pairs: Vec<(KernelId, usize)> = KernelId::ALL
            .into_iter()
            .flat_map(|k| (0..6).map(move |c| (k, c)))
            .collect();
        Rng::new(seed, 0x686f74).shuffle(&mut pairs);
        let configs = configs();
        let hot = match mix {
            Mix::Hot => pairs
                .iter()
                .enumerate()
                .map(|(id, &(k, c))| {
                    let req = Request {
                        id: id as u64,
                        queries: vec![Query {
                            kernel: k.name().to_string(),
                            config: configs[c].label().to_string(),
                            ..Query::default()
                        }],
                        shutdown: false,
                    };
                    let expected = respond(reference, &req).render();
                    (req, expected)
                })
                .collect(),
            Mix::Batch => Vec::new(),
        };
        Traffic {
            mix,
            hot,
            keys: KeyStream::new(seed),
        }
    }

    /// Request `i` of the stream.
    fn request(&self, i: u64) -> Request {
        match self.mix {
            Mix::Hot => self.hot[(i % self.hot.len() as u64) as usize].0.clone(),
            Mix::Batch => Request {
                id: i,
                queries: (0..BATCH as u64)
                    .map(|j| self.keys.query(i * BATCH as u64 + j))
                    .collect(),
                shutdown: false,
            },
        }
    }

    /// Warm-up request `i`: the hot pairs, or batch keys from the far end
    /// of the population (evicted long before the stream reaches them).
    fn warmup(&self, i: u64) -> Request {
        match self.mix {
            Mix::Hot => self.request(i),
            Mix::Batch => self.request(POPULATION / BATCH as u64 - 1 - i),
        }
    }

    /// The in-process answer to request `i`: precomputed for the hot
    /// pairs, computed on `reference` for batch keys.
    fn expected(&self, i: u64, req: &Request, reference: &Engine) -> String {
        match self.mix {
            Mix::Hot => self.hot[(i % self.hot.len() as u64) as usize].1.clone(),
            Mix::Batch => respond(reference, req).render(),
        }
    }
}

/// A serving engine configured as `opm serve` configures its own:
/// environment knobs, telemetry per `OPM_TELEMETRY` (off in every run
/// here), and the default bounded profile cache.
fn serve_engine() -> Engine {
    let cfg = opm_core::config::Config::from_env_or_die();
    let tele = opm_core::telemetry::Telemetry::new(cfg.telemetry);
    let mut engine_cfg = EngineConfig::from_config(&cfg).with_telemetry(tele);
    engine_cfg.cache_capacity = engine_cfg.cache_capacity.or(Some(DEFAULT_SERVE_CACHE_CAP));
    Engine::new(engine_cfg)
}

/// A running daemon and the client connected to it.
struct Daemon {
    engine: Arc<Engine>,
    server: JoinHandle<std::io::Result<ServeStats>>,
    client: Client,
}

impl Daemon {
    fn start() -> Daemon {
        let engine = Arc::new(serve_engine());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), DEFAULT_MAX_INFLIGHT)
            .expect("binding a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        let server = std::thread::spawn(move || server.run());
        let client = Client::connect(&addr).expect("connecting to the daemon");
        Daemon {
            engine,
            server,
            client,
        }
    }

    /// Drain the daemon with a shutdown request and collect its counters.
    fn stop(mut self) -> ServeStats {
        let bye = Request {
            id: 0,
            queries: Vec::new(),
            shutdown: true,
        };
        self.client.roundtrip(&bye).expect("shutdown round trip");
        self.server
            .join()
            .expect("daemon thread panicked")
            .expect("daemon accept loop failed")
    }
}

/// Set-up: daemon start, client connect and warm-up.
fn setup(traffic: &Traffic) -> Daemon {
    let mut d = Daemon::start();
    for i in 0..WARMUP {
        d.client
            .roundtrip(&traffic.warmup(i))
            .expect("warm-up round trip");
    }
    d
}

/// One timed round trip as a client makes it (render, send, receive,
/// decode): returns (seconds, raw response, decoded response).
fn roundtrip(client: &mut Client, req: &Request) -> (f64, String, Result<Response, String>) {
    let t = Instant::now();
    let raw = client
        .roundtrip_raw(&req.render())
        .expect("loopback round trip");
    let decoded = Response::parse(&raw);
    (secs(t), raw, decoded)
}

/// Whether `raw` is exactly the expected answer and every query in its
/// decoded form succeeded.
fn correct(raw: &str, decoded: &Result<Response, String>, expected: &str) -> bool {
    raw == expected
        && decoded
            .as_ref()
            .is_ok_and(|r| r.results.iter().all(|q| matches!(q, QueryResult::Ok(_))))
}

/// The untraced run.
pub fn run(mix: Mix, seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let reference = serve_engine();
    let traffic = Traffic::new(mix, seed, &reference);
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let t = Instant::now();
        daemon = Some(setup(&traffic));
        run.setup_s.push(secs(t));
    }
    let mut d = daemon.expect("set up at least once");
    let phase = Phase::start(seconds, min_samples_for(mix.tail_p()));
    let mut i = 0;
    while phase.more(run.latencies_ms.len()) {
        let req = traffic.request(i);
        let (dt, raw, decoded) = roundtrip(&mut d.client, &req);
        run.latencies_ms.push(dt * 1e3);
        run.busy_s += dt;
        run.items += req.queries.len() as u64;
        run.note_rss();
        let ok = correct(&raw, &decoded, &traffic.expected(i, &req, &reference));
        run.tally.add(req.queries.len() as u64, ok);
        i += 1;
    }
    let stats = d.stop();
    if stats.shed + stats.malformed > 0 {
        eprintln!(
            "{}: daemon shed {} and rejected {} requests",
            mix.name(),
            stats.shed,
            stats.malformed
        );
        run.tally.add(stats.shed + stats.malformed, false);
    }
    run
}

/// Timed layers of one traced request.
#[derive(Default)]
struct Layers {
    rtt: Vec<f64>,
    request_render: Vec<f64>,
    request_parse: Vec<f64>,
    respond: Vec<f64>,
    response_render: Vec<f64>,
    response_parse: Vec<f64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

/// Requests per alternating untraced/traced chunk.
const CHUNK: u64 = 64;

/// The traced pass: untraced and traced chunks of requests alternate on
/// one daemon for `seconds`. A traced request times the client's render,
/// the wire round trip and the client's decode, then replays the
/// daemon's `Request::parse`, `serve::respond` (on an engine fed the
/// same keys, so its cache state matches) and `Response::render` from
/// outside; the round trip minus those five calls is loopback and
/// wake-ups.
pub fn trace(mix: Mix, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let replay = serve_engine();
    let traffic = Traffic::new(mix, seed, &replay);
    let mut d = setup(&traffic);
    if mix == Mix::Batch {
        for i in 0..WARMUP {
            respond(&replay, &traffic.warmup(i));
        }
    }
    let before = d.engine.cache_stats();
    let mut untraced = Vec::new();
    let mut l = Layers::default();
    let phase = Phase::start(seconds, 4 * CHUNK as usize);
    let mut i = 0;
    while phase.more(l.rtt.len()) {
        for _ in 0..CHUNK {
            let req = traffic.request(i);
            let (dt, raw, decoded) = roundtrip(&mut d.client, &req);
            untraced.push(dt);
            let expected = traffic.expected(i, &req, &replay);
            tally.add(req.queries.len() as u64, correct(&raw, &decoded, &expected));
            i += 1;
        }
        for _ in 0..CHUNK {
            let req = traffic.request(i);
            let t0 = Instant::now();
            let text = req.render();
            let t1 = Instant::now();
            let raw = d.client.roundtrip_raw(&text).expect("loopback round trip");
            let t2 = Instant::now();
            let decoded = Response::parse(&raw);
            let t3 = Instant::now();
            let parsed = Request::parse(&text).expect("rendered requests parse");
            let t4 = Instant::now();
            let resp = respond(&replay, &parsed);
            let t5 = Instant::now();
            let rendered = resp.render();
            let t6 = Instant::now();
            let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
            l.rtt.push(us(t0, t3));
            l.request_render.push(us(t0, t1));
            l.response_parse.push(us(t2, t3));
            l.request_parse.push(us(t3, t4));
            l.respond.push(us(t4, t5));
            l.response_render.push(us(t5, t6));
            l.request_bytes.push(text.len() as f64);
            l.response_bytes.push(raw.len() as f64);
            tally.add(req.queries.len() as u64, correct(&raw, &decoded, &rendered));
            i += 1;
        }
    }
    let cache = d.engine.cache_stats().since(before);
    let cache_len = d.engine.cache_len();
    let stats = d.stop();
    tally.add(stats.shed + stats.malformed, false);

    let p = mix.name();
    let queries = match mix {
        Mix::Hot => 1.0,
        Mix::Batch => BATCH as f64,
    };
    let rtt = median(&l.rtt);
    let parts = median(&l.request_render)
        + median(&l.request_parse)
        + median(&l.respond)
        + median(&l.response_render)
        + median(&l.response_parse);
    let untraced_us = median(&untraced) * 1e6;
    let name = |s: &str| format!("{p}.{s}");
    vec![
        Metric::new(name("api.request_bytes"), "B", median(&l.request_bytes)),
        Metric::new(name("api.response_bytes"), "B", median(&l.response_bytes)),
        Metric::new(
            name("api.request_render_us"),
            "us",
            median(&l.request_render),
        ),
        Metric::new(name("api.request_parse_us"), "us", median(&l.request_parse)),
        Metric::new(
            name("api.response_render_us"),
            "us",
            median(&l.response_render),
        ),
        Metric::new(
            name("api.response_parse_us"),
            "us",
            median(&l.response_parse),
        ),
        Metric::new(
            name("serve.respond_us_per_query"),
            "us",
            median(&l.respond) / queries,
        ),
        Metric::new(name("serve.rtt_us"), "us", rtt),
        Metric::new(name("serve.rtt_unattributed_us"), "us", rtt - parts),
        Metric::new(name("serve.shed"), "count", stats.shed as f64),
        Metric::new(name("serve.malformed"), "count", stats.malformed as f64),
        Metric::new(name("engine.cache_hits"), "count", cache.hits as f64),
        Metric::new(name("engine.cache_misses"), "count", cache.misses as f64),
        Metric::new(name("engine.cache_hit_ratio"), "ratio", cache.hit_rate()),
        Metric::new(name("engine.cache_len"), "count", cache_len as f64),
        Metric::new(
            name("trace_overhead_pct"),
            "%",
            (rtt - untraced_us) / untraced_us * 100.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(mix: Mix, seed: u64) -> Vec<String> {
        let engine = serve_engine();
        let t = Traffic::new(mix, seed, &engine);
        (0..64).map(|i| t.request(i).render()).collect()
    }

    #[test]
    fn same_seed_same_traffic() {
        for mix in [Mix::Hot, Mix::Batch] {
            assert_eq!(requests(mix, 9), requests(mix, 9));
            assert_ne!(requests(mix, 9), requests(mix, 10));
        }
    }

    #[test]
    fn hot_traffic_cycles_all_48_pairs() {
        let engine = serve_engine();
        let t = Traffic::new(Mix::Hot, 1, &engine);
        let pairs: std::collections::HashSet<(String, String)> = (0..48)
            .map(|i| {
                let q = &t.request(i).queries[0];
                (q.kernel.clone(), q.config.clone())
            })
            .collect();
        assert_eq!(pairs.len(), 48);
        assert_eq!(t.request(0), t.request(48));
    }
}
