//! The serving workloads: `serve_cold`, `serve_warm` and `serve_panel`.
//!
//! Each run exports a seeded fresh model as a checkpoint-v2 directory,
//! starts the real server on it through the library's public API
//! (`ForecastEngine::from_checkpoint_dir`, `Server::bind`/`run`,
//! `ServerConfig::default()`), and drives it over loopback with a closed
//! loop: at most `nproc` client threads, each with one connection at a
//! time, each waiting for its reply before sending the next request. Every
//! response is then checked against an offline forecast from a second
//! engine loaded from the same checkpoint.

use crate::report::{Metric, Outcome};
use crate::stats::{median, percentile, tail};
use crate::trace::Tracer;
use crate::{probes, Args};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use sthsl_bench::{City, Scale};
use sthsl_chaos::{RealIo, RetryPolicy, ThreadSleeper};
use sthsl_core::StHsl;
use sthsl_data::CrimeDataset;
use sthsl_obs::Json;
use sthsl_serve::{
    read_request, write_response, ForecastCache, ForecastEngine, Server, ServerConfig, TileEntry,
    TileKey,
};
use sthsl_tensor::{Result, Tensor, TensorError};

/// Days one `serve_panel` refresh adds to its block (the block is twice
/// this, so half of each refresh was fetched by the previous one).
pub const PANEL_NEW_DAYS: usize = 3;
const PANEL_DAYS: usize = 2 * PANEL_NEW_DAYS;
const PANEL_HORIZONS: usize = 3;
const PANEL_REGIONS: usize = 3;
/// `(day, horizon = 1)` specs in the `serve_warm` hot set: 12 × 16 tiles
/// fits the default 1024-tile cache many times over.
const WARM_SPECS: usize = 12;
/// Engine loads + binds per run; `setup_s` takes their median.
const SETUP_REPS: usize = 9;
/// Requests or spec sets replayed by the engine probe.
const ENGINE_REPLAYS: usize = 5;
/// Per-socket budget; a reply slower than this is a failure.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
    Panel,
}

impl Kind {
    /// The latency a response must meet to count towards goodput. A
    /// workload definition, not a regression bound.
    pub fn limit_ms(self) -> f64 {
        match self {
            Kind::Cold => 250.0,
            Kind::Warm => 25.0,
            Kind::Panel => 2000.0,
        }
    }
}

/// One forecast query, as sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub region: usize,
    pub category: usize,
    pub day: usize,
    pub horizon: usize,
}

/// One request: the bytes on the wire and the queries they encode.
#[derive(Debug, Clone)]
pub struct Request {
    pub raw: Vec<u8>,
    pub queries: Vec<Query>,
}

/// What the client saw for one request.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub index: u64,
    pub start: Instant,
    pub end: Instant,
    /// `None` on a connection or protocol error.
    pub status: Option<u16>,
    pub body: Vec<u8>,
    /// Client-side phase boundaries: connected, request sent.
    pub connected: Instant,
    pub sent: Instant,
}

impl Exchange {
    pub fn latency_ms(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64() * 1e3
    }
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").into_bytes()
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get_forecast(q: Query) -> Request {
    let path = format!(
        "/forecast?region={}&category={}&horizon={}&day={}",
        q.region, q.category, q.horizon, q.day
    );
    Request { raw: get(&path), queries: vec![q] }
}

fn post_forecast(queries: Vec<Query>) -> Request {
    let items: Vec<String> = queries
        .iter()
        .map(|q| {
            format!(
                "{{\"region\":{},\"category\":{},\"day\":{},\"horizon\":{}}}",
                q.region, q.category, q.day, q.horizon
            )
        })
        .collect();
    let body = format!("{{\"queries\":[{}]}}", items.join(","));
    Request { raw: post("/forecast", &body), queries }
}

/// splitmix64, for per-request streams derived from `(seed, index)`.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded request streams. Every request is a pure function of the
/// seed, the client and the request's position, so a seed fixes the inputs
/// whatever the timing.
pub struct Streams {
    kind: Kind,
    seed: u64,
    regions: usize,
    categories: usize,
    /// Valid forecast days (`window <= day < days`) in seeded order.
    days: Vec<usize>,
    first_day: usize,
    last_start: usize,
    clients: usize,
}

impl Streams {
    pub fn new(kind: Kind, seed: u64, data: &CrimeDataset, clients: usize) -> Self {
        let w = data.config.window;
        let mut days: Vec<usize> = (w..data.num_days()).collect();
        days.shuffle(&mut StdRng::seed_from_u64(mix(seed, 0xC01D)));
        Streams {
            kind,
            seed,
            regions: data.num_regions(),
            categories: data.num_categories(),
            days,
            first_day: w,
            last_start: data.num_days().saturating_sub(PANEL_DAYS),
            clients: clients.max(1),
        }
    }

    /// The `serve_warm` hot set.
    pub fn hot_specs(&self) -> Vec<(usize, usize)> {
        self.days.iter().take(WARM_SPECS).map(|&d| (d, 1)).collect()
    }

    /// Request number `n` of the stream. For `serve_cold` and `serve_warm`
    /// `n` is global (clients share one walk); for `serve_panel` it is
    /// client `client`'s `n`-th refresh.
    pub fn request(&self, client: usize, n: u64) -> Request {
        // Cold and warm requests are keyed by position alone: which client
        // happens to send request `n` depends on timing.
        let key = if self.kind == Kind::Panel { client as u64 } else { 0 };
        let mut rng = StdRng::seed_from_u64(mix(self.seed, n.wrapping_mul(131) ^ key));
        match self.kind {
            Kind::Cold => {
                let day = self.days[usize::try_from(n).unwrap_or(0) % self.days.len()];
                get_forecast(Query {
                    region: rng.gen_range(0..self.regions),
                    category: rng.gen_range(0..self.categories),
                    day,
                    horizon: 1,
                })
            }
            Kind::Warm => {
                let hot = self.hot_specs();
                let (day, horizon) = hot[rng.gen_range(0..hot.len())];
                get_forecast(Query {
                    region: rng.gen_range(0..self.regions),
                    category: rng.gen_range(0..self.categories),
                    day,
                    horizon,
                })
            }
            Kind::Panel => post_forecast(self.panel_queries(client, n)),
        }
    }

    /// Client `client`'s `n`-th dashboard refresh: `PANEL_DAYS` consecutive
    /// days × horizons 1..=3 × the client's regions × every category. Each
    /// refresh slides the block by `PANEL_NEW_DAYS`; clients start spread
    /// over the year.
    pub fn panel_queries(&self, client: usize, n: u64) -> Vec<Query> {
        let span = self.last_start - self.first_day + 1;
        let offset = client * span / self.clients;
        let step = usize::try_from(n).unwrap_or(0) * PANEL_NEW_DAYS;
        let start = self.first_day + (offset + step) % span;
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 0xDA5B ^ client as u64));
        let mut regions: Vec<usize> = (0..self.regions).collect();
        regions.shuffle(&mut rng);
        regions.truncate(PANEL_REGIONS);
        let mut out = Vec::new();
        for day in start..start + PANEL_DAYS {
            for horizon in 1..=PANEL_HORIZONS {
                for &region in &regions {
                    for category in 0..self.categories {
                        out.push(Query { region, category, day, horizon });
                    }
                }
            }
        }
        out
    }
}

/// One HTTP exchange over a fresh loopback connection.
pub fn exchange(addr: SocketAddr, index: u64, raw: &[u8]) -> Exchange {
    let start = Instant::now();
    let mut ex = Exchange {
        index,
        start,
        end: start,
        status: None,
        body: Vec::new(),
        connected: start,
        sent: start,
    };
    let result = (|| -> std::io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        ex.connected = Instant::now();
        stream.write_all(raw)?;
        ex.sent = Instant::now();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply)?;
        Ok(reply)
    })();
    ex.end = Instant::now();
    if let Ok(reply) = result {
        if let Some((status, body)) = split_response(&reply) {
            ex.status = Some(status);
            ex.body = body.to_vec();
        }
    }
    ex
}

/// Status code and body of a raw `HTTP/1.1` response.
pub fn split_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, &raw[head_end + 4..]))
}

/// Checks one response against the offline forecasts. Returns why it is
/// wrong, or `None` when it is right.
pub fn check_response(
    request: &Request,
    ex: &Exchange,
    expected: &BTreeMap<(usize, usize), Tensor>,
) -> Option<String> {
    match ex.status {
        Some(200) => {}
        Some(s) => return Some(format!("status {s}")),
        None => return Some("connection or protocol error".into()),
    }
    let Some(doc) = std::str::from_utf8(&ex.body).ok().and_then(|t| sthsl_obs::parse_json(t).ok())
    else {
        return Some("body is not JSON".into());
    };
    let Some(items) = doc.get("forecasts").and_then(Json::as_arr) else {
        return Some("response has no forecasts array".into());
    };
    if items.len() != request.queries.len() {
        return Some(format!("{} forecasts for {} queries", items.len(), request.queries.len()));
    }
    for (item, q) in items.iter().zip(&request.queries) {
        let field =
            |k: &str| item.get(k).and_then(Json::as_u64).and_then(|v| usize::try_from(v).ok());
        let echoed = (field("region"), field("category_index"), field("day"), field("horizon"));
        if echoed != (Some(q.region), Some(q.category), Some(q.day), Some(q.horizon)) {
            return Some(format!("forecast echoes {echoed:?} for {q:?}"));
        }
        let Some(grid) = expected.get(&(q.day, q.horizon)) else {
            return Some(format!("no offline forecast for {q:?}"));
        };
        let got = item.get("count").and_then(Json::as_f64).map(|c| c as f32);
        let want = grid.at(&[q.region, q.category]);
        if got.map(f32::to_bits) != Some(want.to_bits()) {
            return Some(format!("count {got:?} != offline {want} for {q:?}"));
        }
    }
    None
}

/// How one measured exchange counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Correct and within the workload's latency limit: counts to goodput.
    Good,
    /// Correct but slower than the limit.
    Late,
    /// Wrong status, wrong output or no response: counts in `failed` and
    /// misses the limit whatever its latency.
    Failed(String),
}

pub fn score(
    request: &Request,
    ex: &Exchange,
    expected: &BTreeMap<(usize, usize), Tensor>,
    limit_ms: f64,
) -> Verdict {
    match check_response(request, ex, expected) {
        Some(why) => Verdict::Failed(why),
        None if ex.latency_ms() <= limit_ms => Verdict::Good,
        None => Verdict::Late,
    }
}

/// Counters read from `GET /metrics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scrape {
    pub requests: f64,
    pub batches: f64,
    pub forwards: f64,
    pub hits: f64,
    pub misses: f64,
    pub evictions: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

fn scrape(addr: SocketAddr) -> Result<Scrape> {
    let ex = exchange(addr, u64::MAX, &get("/metrics"));
    let doc = (ex.status == Some(200))
        .then(|| std::str::from_utf8(&ex.body).ok().and_then(|t| sthsl_obs::parse_json(t).ok()))
        .flatten()
        .ok_or_else(|| TensorError::Invalid("GET /metrics failed".into()))?;
    let f = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Scrape {
        requests: f("requests"),
        batches: f("batches"),
        forwards: f("forwards"),
        hits: f("cache_hits"),
        misses: f("cache_misses"),
        evictions: f("cache_evictions"),
        p50_ms: f("p50_ms"),
        p99_ms: f("p99_ms"),
    })
}

/// Workload-character counters over the measured phase, from two scrapes.
/// The first scrape's own request and batch are counted by the second and
/// are taken out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Character {
    pub requests: f64,
    pub requests_per_batch: f64,
    pub forwards_per_request: f64,
    /// Windows per `predict_batch` call, from the counters (see
    /// [`character`]).
    pub windows_per_forward: f64,
    pub hit_rate: f64,
    pub evictions: f64,
}

pub fn character(kind: Kind, before: &Scrape, after: &Scrape) -> Character {
    let requests = (after.requests - before.requests - 1.0).max(0.0);
    let batches = (after.batches - before.batches - 1.0).max(0.0);
    let forwards = after.forwards - before.forwards;
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // The server counts one "forward" per missing `(day, horizon)` spec;
    // `grid_forecast_batch` advances every day's chain one horizon per
    // `predict_batch` call, so a batch whose specs are whole chains of
    // depth H makes H calls over specs / H windows each.
    let depth = if kind == Kind::Panel { PANEL_HORIZONS } else { 1 } as f64;
    Character {
        requests,
        requests_per_batch: ratio(requests, batches),
        forwards_per_request: ratio(forwards, requests),
        windows_per_forward: ratio(forwards, batches) / depth,
        hit_rate: ratio(after.hits - before.hits, lookups),
        evictions: after.evictions - before.evictions,
    }
}

/// What each workload must look like for its name to be true. Returns the
/// claims that do not hold.
pub fn character_violations(kind: Kind, c: &Character) -> Vec<String> {
    let mut bad = Vec::new();
    match kind {
        Kind::Cold if c.hit_rate > 0.05 => {
            bad.push(format!("cold hit rate {:.3} > 0.05", c.hit_rate))
        }
        Kind::Warm if c.hit_rate < 0.95 => {
            bad.push(format!("warm hit rate {:.3} < 0.95", c.hit_rate))
        }
        Kind::Panel => {
            if c.evictions <= 0.0 {
                bad.push("panel evicted nothing".into());
            }
            if c.windows_per_forward <= 2.0 {
                bad.push(format!(
                    "panel ran {:.2} windows per forward, want > 2",
                    c.windows_per_forward
                ));
            }
        }
        _ => {}
    }
    bad
}

/// The miss specs of each request in order: the `(day, horizon)` pairs it
/// asks for that no earlier request asked for.
fn miss_specs(requests: &[&Request]) -> Vec<Vec<(usize, usize)>> {
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    requests
        .iter()
        .map(|r| {
            let specs: BTreeSet<(usize, usize)> =
                r.queries.iter().map(|q| (q.day, q.horizon)).collect();
            specs.into_iter().filter(|s| seen.insert(*s)).collect()
        })
        .collect()
}

/// A running server and what its set-up cost.
struct Running {
    addr: SocketAddr,
    setup_s: Vec<f64>,
}

/// Start the server thread: load + bind `SETUP_REPS` times (the first
/// servers are dropped unstarted), then run the last one. The thread
/// serves until the process exits.
fn start_server(dir: &Path, seed: u64) -> Result<Running> {
    let (tx, rx) = mpsc::channel::<std::result::Result<(SocketAddr, Vec<f64>), String>>();
    let dir = dir.to_path_buf();
    std::thread::Builder::new()
        .name("sthsl-server".into())
        .spawn(move || {
            let mut setups = Vec::new();
            let mut server = None;
            for _ in 0..SETUP_REPS {
                let built = (|| -> std::result::Result<Server, String> {
                    let (_city, data) =
                        Scale::Quick.build_dataset(City::Nyc, seed).map_err(|e| e.to_string())?;
                    let cfg = ServerConfig::default();
                    let t = Instant::now();
                    let (engine, path) = ForecastEngine::from_checkpoint_dir(
                        &RealIo,
                        &dir,
                        Scale::Quick.sthsl_config(seed),
                        data,
                        cfg.max_horizon,
                        RetryPolicy::default_read(),
                        &ThreadSleeper,
                    )
                    .map_err(|e| e.to_string())?;
                    let server =
                        Server::bind(engine, cfg, Some(path), None).map_err(|e| e.to_string())?;
                    setups.push(t.elapsed().as_secs_f64());
                    Ok(server)
                })();
                match built {
                    Ok(s) => server = Some(s),
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
            let Some(mut server) = server else { return };
            let _ = tx.send(Ok((server.local_addr(), setups)));
            // Request-path failures never leave `run`; an error here means
            // the listener died, which the clients see as failures.
            let _ = server.run();
        })
        .map_err(|e| TensorError::Invalid(format!("spawn server: {e}")))?;
    let (addr, setup_s) = rx
        .recv()
        .map_err(|_| TensorError::Invalid("server thread ended before binding".into()))?
        .map_err(TensorError::Invalid)?;
    Ok(Running { addr, setup_s })
}

/// Drive the closed loop for `seconds` from the start of the streams (the
/// cold and warm walks are shared by the clients, panel refreshes are per
/// client). Returns every exchange with the request it carried.
fn drive(
    addr: SocketAddr,
    streams: &Streams,
    clients: usize,
    seconds: f64,
) -> Vec<(Request, Exchange)> {
    let next = AtomicU64::new(0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut own = 0;
                    while Instant::now() < deadline {
                        let n = if streams.kind == Kind::Panel {
                            own += 1;
                            own - 1
                        } else {
                            next.fetch_add(1, Ordering::Relaxed)
                        };
                        let req = streams.request(client, n);
                        let ex = exchange(addr, n, &req.raw);
                        done.push((req, ex));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => all.extend(done),
                Err(_) => all.push((
                    Request { raw: Vec::new(), queries: Vec::new() },
                    Exchange {
                        index: u64::MAX,
                        start: deadline,
                        end: deadline,
                        status: None,
                        body: Vec::new(),
                        connected: deadline,
                        sent: deadline,
                    },
                )),
            }
        }
    });
    all
}

/// Offline forecasts for every `(day, horizon)` the run asked for, from a
/// second engine loaded from the same checkpoint. Days with several
/// horizons are computed as one chain (`grid_forecast_batch` over the
/// day's horizons 1..=deepest), single specs with `grid_forecast`.
fn offline(
    engine: &ForecastEngine,
    specs: &BTreeSet<(usize, usize)>,
) -> Result<BTreeMap<(usize, usize), Tensor>> {
    let mut deepest: BTreeMap<usize, usize> = BTreeMap::new();
    for &(d, h) in specs {
        let e = deepest.entry(d).or_insert(0);
        *e = (*e).max(h);
    }
    let mut out = BTreeMap::new();
    let serve_err = |e: sthsl_serve::ServeError| TensorError::Invalid(e.to_string());
    for (&day, &h) in &deepest {
        if h == 1 {
            out.insert((day, 1), engine.grid_forecast(day, 1).map_err(serve_err)?);
        } else {
            let chain: Vec<(usize, usize)> = (1..=h).map(|k| (day, k)).collect();
            let grids = engine.grid_forecast_batch(&chain).map_err(serve_err)?;
            for (spec, grid) in chain.into_iter().zip(grids) {
                out.insert(spec, grid);
            }
        }
    }
    Ok(out)
}

/// Seconds of `serve_cold` a traced `train` run drives for its serve rows.
const PROBE_SECONDS: u64 = 4;

/// One serving workload. A traced run adds every layer probe and a short
/// training run for the trainer rows, so it prints the whole catalogue.
pub fn run(kind: Kind, args: &Args, tracer: &Tracer) -> Result<Outcome> {
    let (mut out, checker) = session(kind, args, tracer)?;
    if args.trace {
        let replay = probes::run_all(
            tracer,
            checker.model(),
            checker.data(),
            &args.run_dir("probe-ckpt"),
            &mut out.metrics,
        )?;
        out.info("profiler_overhead_ms", Json::Float(replay.profiler_overhead_ms()));
        let (eval_s, _) = probes::evaluate(tracer, checker.model(), checker.data())?;
        out.metrics.push(Metric::new("core.evaluate_s", "s", eval_s, 1));
        out.metrics.extend(crate::train::trainer_probe(args, tracer, &replay)?);
    }
    Ok(out)
}

/// The `serve.*` rows for a traced run of a workload that does not serve:
/// a short traced `serve_cold` session on the same seed.
pub fn serve_probe(args: &Args, tracer: &Tracer) -> Result<Vec<Metric>> {
    let probe =
        Args { workload: "serve_cold".into(), seconds: PROBE_SECONDS, trace: true, ..args.clone() };
    let (out, _) = session(Kind::Cold, &probe, tracer)?;
    if !out.correct {
        return Err(TensorError::Invalid(format!("serve probe failed: {:?}", out.problems)));
    }
    Ok(out.metrics.into_iter().filter(|m| m.name.starts_with("serve.")).collect())
}

/// Set up, drive and check one serving workload; in a traced run also the
/// rows measured from its own traffic (scrape, engine, cache, HTTP, client
/// spans). Returns the outcome and the checking engine.
fn session(kind: Kind, args: &Args, tracer: &Tracer) -> Result<(Outcome, ForecastEngine)> {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let (_city, data) = Scale::Quick.build_dataset(City::Nyc, args.seed)?;
    let clients = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let streams = Streams::new(kind, args.seed, &data, clients);

    // The served artifact: a seeded fresh model, exported as checkpoint v2.
    let dir = args.run_dir("ckpt");
    std::fs::create_dir_all(&dir).map_err(|e| TensorError::Invalid(e.to_string()))?;
    let model = StHsl::new(Scale::Quick.sthsl_config(args.seed), &data)?;
    model
        .export_checkpoint()
        .save(dir.join(sthsl_autograd::checkpoint_file_name(1)))
        .map_err(|e| TensorError::Invalid(e.to_string()))?;
    drop(model);

    let server = start_server(&dir, args.seed)?;
    let mut setup_s = median(&server.setup_s).unwrap_or(0.0);
    let mut warmup = Vec::new();
    if kind == Kind::Warm {
        // Sequential requests, one forward each. The warm-up counts as its
        // request count times the median request, so one stall on a shared
        // host does not decide the set-up time.
        for (i, &(day, horizon)) in streams.hot_specs().iter().enumerate() {
            let req = get_forecast(Query { region: 0, category: 0, day, horizon });
            let ex = exchange(server.addr, i as u64, &req.raw);
            warmup.push((req, ex));
        }
        let each: Vec<f64> = warmup.iter().map(|(_, e)| e.latency_ms() / 1e3).collect();
        setup_s += median(&each).unwrap_or(0.0) * each.len() as f64;
    }

    // Measured phase. Client spans are recorded from its timestamps after
    // it ends, so tracing adds nothing to the measured requests.
    let before = scrape(server.addr)?;
    let t0 = Instant::now();
    let measured = drive(server.addr, &streams, clients, args.seconds as f64);
    let wall_s = t0.elapsed().as_secs_f64();
    let rss = crate::host::peak_rss_mb().unwrap_or(0.0);
    let after = scrape(server.addr)?;
    let ch = character(kind, &before, &after);

    // Every response against the offline engine.
    let (_city, check_data) = Scale::Quick.build_dataset(City::Nyc, args.seed)?;
    let (checker, _) = ForecastEngine::from_checkpoint_dir(
        &RealIo,
        &dir,
        Scale::Quick.sthsl_config(args.seed),
        check_data,
        ServerConfig::default().max_horizon,
        RetryPolicy::default_read(),
        &ThreadSleeper,
    )
    .map_err(|e| TensorError::Invalid(e.to_string()))?;
    let specs: BTreeSet<(usize, usize)> = measured
        .iter()
        .chain(&warmup)
        .flat_map(|(r, _)| r.queries.iter().map(|q| (q.day, q.horizon)))
        .collect();
    let expected = offline(&checker, &specs)?;
    for (req, ex) in &warmup {
        if let Some(why) = check_response(req, ex, &expected) {
            out.fail(format!("warm-up request: {why}"));
        }
    }
    let limit = kind.limit_ms();
    let (mut good, mut failed, mut problems) = (0u64, 0u64, BTreeMap::<String, u64>::new());
    let (mut abs_err, mut scored) = (0.0f64, 0u64);
    for (req, ex) in &measured {
        match score(req, ex, &expected, limit) {
            Verdict::Failed(why) => {
                failed += 1;
                *problems
                    .entry(why.split(" for ").next().unwrap_or("").to_string())
                    .or_default() += 1;
            }
            verdict => {
                good += u64::from(verdict == Verdict::Good);
                // Served counts against the observed counts of the day they
                // forecast (masked: days with crimes only, as the paper's MAE).
                for q in &req.queries {
                    let truth_day = q.day + q.horizon - 1;
                    if truth_day >= data.num_days() {
                        continue;
                    }
                    let truth = f64::from(data.tensor.at(&[q.region, truth_day, q.category]));
                    if truth > 0.0 {
                        let got =
                            f64::from(expected[&(q.day, q.horizon)].at(&[q.region, q.category]));
                        abs_err += (got - truth).abs();
                        scored += 1;
                    }
                }
            }
        }
    }
    out.attempted = measured.len() as u64;
    out.failed = failed;
    for (why, n) in &problems {
        out.fail(format!("{n} response(s): {why}"));
    }
    if out.attempted == 0 {
        out.fail("no request completed in the measured phase");
    }

    let ordered: Vec<&Request> = {
        let mut v: Vec<&(Request, Exchange)> = measured.iter().collect();
        v.sort_by_key(|(_, e)| e.end);
        v.into_iter().map(|(r, _)| r).collect()
    };
    let misses = miss_specs(&ordered);
    for why in character_violations(kind, &ch) {
        out.info("character_warning", Json::Str(why));
    }

    let mut latencies: Vec<f64> = measured.iter().map(|(_, e)| e.latency_ms()).collect();
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 0.5).unwrap_or(0.0);
    let mae = if scored > 0 { abs_err / scored as f64 } else { 0.0 };
    if !args.trace {
        let per_s = |n: u64| n as f64 / wall_s;
        out.metrics = vec![
            Metric::new("setup_s", "s", setup_s, server.setup_s.len()),
            Metric::new("peak_rss_mb", "MiB", rss, 1),
            Metric::new("throughput_rps", "1/s", per_s(out.attempted - failed), latencies.len())
                .with_note("completed requests per second"),
            Metric::new("goodput_rps", "1/s", per_s(good), latencies.len())
                .with_note(format!("correct 200s within {limit} ms")),
            Metric::new("latency_p50_ms", "ms", p50, latencies.len()),
        ];
    }
    let (tail_ms, label) = tail(&latencies).unwrap_or((0.0, "none"));
    let error_rate = if out.attempted > 0 { failed as f64 / out.attempted as f64 } else { 1.0 };
    out.reported = vec![
        Metric::new("latency_tail_ms", "ms", tail_ms, latencies.len()).with_note(label),
        Metric::new("error_rate", "fraction", error_rate, latencies.len()),
        Metric::new("served_mae", "crimes", mae, usize::try_from(scored).unwrap_or(0))
            .with_note("masked MAE of the served counts against the observed day"),
    ];

    let as_f = Json::Float;
    out.info("clients", Json::Int(i64::try_from(clients).unwrap_or(0)));
    out.info("serve.cache.hit_rate", as_f(ch.hit_rate));
    out.info("serve.cache.evictions", as_f(ch.evictions));
    out.info("serve.requests_per_batch", as_f(ch.requests_per_batch));
    out.info("serve.forwards_per_request", as_f(ch.forwards_per_request));
    out.info("serve.windows_per_forward", as_f(ch.windows_per_forward));
    out.info("server_requests", as_f(ch.requests));
    out.info("distinct_specs", Json::Int(i64::try_from(specs.len()).unwrap_or(0)));

    if args.trace {
        for (_, ex) in &measured {
            let idx = tracer.record(
                "serve.request",
                ex.index,
                None,
                tracer.at(ex.start),
                tracer.at(ex.end),
            );
            tracer.record(
                "client.connect",
                ex.index,
                idx,
                tracer.at(ex.start),
                tracer.at(ex.connected),
            );
            tracer.record(
                "client.send",
                ex.index,
                idx,
                tracer.at(ex.connected),
                tracer.at(ex.sent),
            );
            tracer.record("client.receive", ex.index, idx, tracer.at(ex.sent), tracer.at(ex.end));
        }

        // Engine: replay the run's first miss spec sets.
        let mut engine_ms = Vec::new();
        for (i, specs) in misses.iter().filter(|m| !m.is_empty()).take(ENGINE_REPLAYS).enumerate() {
            let t = Instant::now();
            tracer
                .span("serve.engine.forecast", i as u64, || checker.grid_forecast_batch(specs))
                .map_err(|e| TensorError::Invalid(e.to_string()))?;
            engine_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        if kind == Kind::Warm {
            let hot = streams.hot_specs();
            let t = Instant::now();
            tracer
                .span("serve.engine.forecast", 0, || checker.grid_forecast_batch(&hot[..1]))
                .map_err(|e| TensorError::Invalid(e.to_string()))?;
            engine_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let (get_us, insert_us) = tracer.span("serve.cache.replay", 0, || {
            cache_replay(&ordered, checker.data().num_regions(), checker.data().num_categories())
        });
        let bodies: Vec<Json> = measured
            .iter()
            .filter(|(_, e)| e.status == Some(200))
            .take(64)
            .filter_map(|(_, e)| {
                std::str::from_utf8(&e.body).ok().and_then(|t| sthsl_obs::parse_json(t).ok())
            })
            .collect();
        let (read_us, write_us) =
            tracer.span("serve.http.replay", 0, || http_replay(&ordered, &bodies));

        out.metrics.extend([
            Metric::new("serve.server_p50_ms", "ms", after.p50_ms, 1),
            Metric::new("serve.server_p99_ms", "ms", after.p99_ms, 1),
            Metric::new("serve.accept_wait_ms", "ms", p50 - after.p50_ms, latencies.len())
                .with_note("client p50 minus server p50"),
            Metric::new("serve.requests_per_batch", "count", ch.requests_per_batch, 1),
            Metric::new("serve.forwards_per_request", "count", ch.forwards_per_request, 1),
            Metric::new("serve.windows_per_forward", "count", ch.windows_per_forward, 1),
            Metric::new("serve.cache.hit_rate", "fraction", ch.hit_rate, 1),
            Metric::new("serve.cache.evictions", "count", ch.evictions, 1),
            Metric::new(
                "serve.engine.forecast_ms",
                "ms",
                median(&engine_ms).unwrap_or(0.0),
                engine_ms.len(),
            ),
            Metric::new("serve.cache.get_us", "us", get_us, ordered.len()),
            Metric::new("serve.cache.insert_us", "us", insert_us, ordered.len()),
            Metric::new("serve.http.read_us", "us", read_us, ordered.len().min(HTTP_REPLAYS)),
            Metric::new("serve.http.write_us", "us", write_us, bodies.len()),
        ]);
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok((out, checker))
}

/// Requests whose raw bytes the HTTP probe parses.
const HTTP_REPLAYS: usize = 256;

/// Mean microseconds per `ForecastCache::get` and per `insert` when the
/// run's query stream is replayed through a default-capacity cache the way
/// the server uses it: every query is a lookup, and a missed `(day,
/// horizon)` inserts all of its tiles.
fn cache_replay(requests: &[&Request], regions: usize, categories: usize) -> (f64, f64) {
    let cfg = ServerConfig::default();
    let tile = cfg.tile_regions.max(1);
    let mut cache = ForecastCache::new(cfg.cache_capacity);
    let (mut get_ns, mut gets, mut insert_ns, mut inserts) = (0u128, 0u64, 0u128, 0u64);
    for req in requests {
        let mut missed: BTreeSet<(usize, usize)> = BTreeSet::new();
        for q in &req.queries {
            let key = TileKey {
                city: cfg.city.clone(),
                day: q.day,
                horizon: q.horizon,
                tile: q.region / tile,
            };
            let t = Instant::now();
            let hit = std::hint::black_box(cache.get(&key)).is_some();
            get_ns += t.elapsed().as_nanos();
            gets += 1;
            if !hit {
                missed.insert((q.day, q.horizon));
            }
        }
        for (day, horizon) in missed {
            let mut start = 0;
            while start < regions {
                let len = tile.min(regions - start);
                let entry = TileEntry {
                    region_start: start,
                    regions: len,
                    counts: vec![0.0; len * categories],
                };
                let key = TileKey { city: cfg.city.clone(), day, horizon, tile: start / tile };
                let t = Instant::now();
                cache.insert(key, entry);
                insert_ns += t.elapsed().as_nanos();
                inserts += 1;
                start += len;
            }
        }
    }
    let per = |ns: u128, n: u64| if n > 0 { ns as f64 / n as f64 / 1e3 } else { 0.0 };
    (per(get_ns, gets), per(insert_ns, inserts))
}

/// Mean microseconds per `read_request` over the run's request bytes and
/// per `write_response` of the run's response bodies, on in-memory buffers.
fn http_replay(requests: &[&Request], bodies: &[Json]) -> (f64, f64) {
    let max_body = ServerConfig::default().max_body;
    let (mut read_ns, mut reads) = (0u128, 0u64);
    for req in requests.iter().take(HTTP_REPLAYS) {
        let t = Instant::now();
        let parsed = read_request(&mut req.raw.as_slice(), max_body);
        read_ns += t.elapsed().as_nanos();
        reads += u64::from(std::hint::black_box(parsed).is_ok());
    }
    let (mut write_ns, mut writes) = (0u128, 0u64);
    let mut sink = Vec::with_capacity(64 * 1024);
    for body in bodies {
        sink.clear();
        let t = Instant::now();
        let ok = write_response(&mut sink, 200, body).is_ok();
        write_ns += t.elapsed().as_nanos();
        writes += u64::from(ok);
    }
    let per = |ns: u128, n: u64| if n > 0 { ns as f64 / n as f64 / 1e3 } else { 0.0 };
    (per(read_ns, reads), per(write_ns, writes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use sthsl_core::StHslConfig;
    use sthsl_data::{DatasetConfig, SynthCity, SynthConfig};

    fn tiny_data() -> CrimeDataset {
        let city = SynthCity::generate(&SynthConfig::nyc_like().scaled(4, 4, 60)).expect("city");
        CrimeDataset::from_city(
            &city,
            DatasetConfig { window: 7, val_days: 5, train_fraction: 0.8 },
        )
        .expect("dataset")
    }

    fn tiny_cfg() -> StHslConfig {
        StHslConfig { d: 4, num_hyperedges: 6, ..StHslConfig::quick() }
    }

    #[test]
    fn malformed_request_is_a_failure_and_a_goodput_miss() {
        let (tx, rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let engine = ForecastEngine::from_fresh(tiny_cfg(), tiny_data(), 3).expect("engine");
            let cfg = ServerConfig { max_requests: Some(2), ..ServerConfig::default() };
            let mut server = Server::bind(engine, cfg, None, None).expect("bind");
            tx.send(server.local_addr()).expect("send address");
            server.run().expect("serve");
        });
        let addr = rx.recv().expect("server bound");
        let q = Query { region: 1, category: 0, day: 10, horizon: 1 };
        let good = get_forecast(q);
        let bad = Request {
            raw: b"GET /forecast?region=one&category=0&day=10 HTTP/1.1\r\n\r\n".to_vec(),
            queries: vec![q],
        };
        let ex_good = exchange(addr, 0, &good.raw);
        let ex_bad = exchange(addr, 1, &bad.raw);
        server.join().expect("server thread");

        let engine = ForecastEngine::from_fresh(tiny_cfg(), tiny_data(), 3).expect("engine");
        let expected = offline(&engine, &BTreeSet::from([(10, 1)])).expect("offline forecast");
        assert_eq!(score(&good, &ex_good, &expected, f64::INFINITY), Verdict::Good);
        assert_eq!(score(&good, &ex_good, &expected, 0.0), Verdict::Late);
        // However fast, a 400 is a failure and never counts to goodput.
        let verdict = score(&bad, &ex_bad, &expected, f64::INFINITY);
        assert_eq!(verdict, Verdict::Failed("status 400".into()));

        // A 200 whose count differs from the offline forecast fails too.
        let body = String::from_utf8(ex_good.body.clone()).expect("utf-8");
        let count_at = body.find("\"count\":").expect("count field") + "\"count\":".len();
        let count_end = count_at + body[count_at..].find('}').expect("end of item");
        let mut tampered = ex_good.clone();
        tampered.body = format!("{}12345{}", &body[..count_at], &body[count_end..]).into_bytes();
        assert!(matches!(
            score(&good, &tampered, &expected, f64::INFINITY),
            Verdict::Failed(why) if why.starts_with("count")
        ));
        // A 200 with an empty or truncated body fails too.
        for cut in [0, ex_good.body.len() / 2, ex_good.body.len() - 1] {
            let mut short = ex_good.clone();
            short.body.truncate(cut);
            assert_eq!(
                score(&good, &short, &expected, f64::INFINITY),
                Verdict::Failed("body is not JSON".into()),
                "body cut to {cut} bytes"
            );
        }
        // No response at all is a failure.
        let mut dropped = ex_good;
        dropped.status = None;
        assert!(matches!(score(&good, &dropped, &expected, f64::INFINITY), Verdict::Failed(_)));
    }

    #[test]
    fn streams_are_seeded_and_shaped_as_documented() {
        let data = tiny_data();
        let valid = data.num_days() - data.config.window;
        let cold = Streams::new(Kind::Cold, 3, &data, 2);
        let again = Streams::new(Kind::Cold, 3, &data, 2);
        let other = Streams::new(Kind::Cold, 4, &data, 2);
        let raw = |s: &Streams, n: u64| s.request(0, n).raw;
        assert_eq!(raw(&cold, 5), raw(&again, 5));
        assert_eq!(
            cold.request(0, 5).raw,
            cold.request(1, 5).raw,
            "cold request n is client-independent"
        );
        assert!((0..20).any(|n| raw(&cold, n) != raw(&other, n)));
        // One walk covers every valid day once.
        let days: BTreeSet<usize> =
            (0..valid as u64).map(|n| cold.request(0, n).queries[0].day).collect();
        assert_eq!(days.len(), valid);

        let panel = Streams::new(Kind::Panel, 3, &data, 2);
        let specs = |n| -> BTreeSet<(usize, usize)> {
            panel.panel_queries(0, n).iter().map(|q| (q.day, q.horizon)).collect()
        };
        let (a, b) = (specs(0), specs(1));
        assert_eq!(a.len(), PANEL_DAYS * PANEL_HORIZONS);
        assert_eq!(a.intersection(&b).count(), a.len() / 2, "each refresh is half cached");
        assert_eq!(
            panel.panel_queries(0, 0).len(),
            PANEL_DAYS * PANEL_HORIZONS * PANEL_REGIONS * data.num_categories()
        );

        let warm = Streams::new(Kind::Warm, 3, &data, 2);
        let hot: BTreeSet<(usize, usize)> = warm.hot_specs().into_iter().collect();
        assert!((0..200).all(|n| {
            let q = warm.request(0, n).queries[0];
            hot.contains(&(q.day, q.horizon))
        }));
    }

    #[test]
    fn character_counters_from_two_scrapes() {
        let before = Scrape {
            requests: 10.0,
            batches: 8.0,
            forwards: 4.0,
            hits: 5.0,
            misses: 5.0,
            ..Scrape::default()
        };
        let after = Scrape {
            requests: 31.0,
            batches: 19.0,
            forwards: 64.0,
            hits: 35.0,
            misses: 35.0,
            evictions: 7.0,
            ..Scrape::default()
        };
        let c = character(Kind::Panel, &before, &after);
        assert_eq!(c.requests, 20.0);
        assert_eq!(c.requests_per_batch, 2.0);
        assert_eq!(c.forwards_per_request, 3.0);
        assert_eq!(c.windows_per_forward, 2.0);
        assert_eq!(c.hit_rate, 0.5);
        assert_eq!(c.evictions, 7.0);
        assert_eq!(
            character_violations(Kind::Panel, &c).len(),
            1,
            "2 windows per forward is not > 2"
        );
        assert_eq!(character_violations(Kind::Warm, &c).len(), 1);
        assert_eq!(character_violations(Kind::Cold, &c).len(), 1);
    }

    fn full_run(kind: Kind, workload: &str) -> Outcome {
        let args = Args {
            workload: workload.into(),
            seed: 1,
            seconds: 10,
            trace: false,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_out/test")),
        };
        let out = run(kind, &args, &Tracer::new(false)).expect("workload runs");
        assert!(out.correct, "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        out
    }

    fn info(out: &Outcome, key: &str) -> f64 {
        out.info.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_f64()).expect(key)
    }

    #[test]
    #[ignore = "full 10 s workload; run with --release -- --ignored --test-threads 1"]
    fn serve_cold_misses_every_request() {
        let out = full_run(Kind::Cold, "serve_cold");
        assert!(info(&out, "serve.cache.hit_rate") < 0.05);
    }

    #[test]
    #[ignore = "full 10 s workload; run with --release -- --ignored --test-threads 1"]
    fn serve_warm_hits_every_request() {
        let out = full_run(Kind::Warm, "serve_warm");
        assert!(info(&out, "serve.cache.hit_rate") > 0.95);
        assert_eq!(info(&out, "serve.forwards_per_request"), 0.0);
    }

    #[test]
    #[ignore = "full 10 s workload; run with --release -- --ignored --test-threads 1"]
    fn serve_panel_evicts_and_batches_more_than_two_windows() {
        let out = full_run(Kind::Panel, "serve_panel");
        assert!(info(&out, "serve.cache.evictions") > 0.0);
        assert!(info(&out, "serve.windows_per_forward") > 2.0);
    }
}
