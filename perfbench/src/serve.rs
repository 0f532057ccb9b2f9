//! `serve_warm` and `serve_cold`: an in-process `Server` with the shipped
//! defaults (one event loop, one worker, instrumentation on) over k = 6
//! tables, driven by [`CLIENTS`] closed-loop `Client` connections.
//!
//! * warm: set-up primes the cache with a seeded pool of classes; the
//!   timed phase asks for other members of those classes, so every request
//!   is a cache hit answered by canonicalize + replay, with no search.
//! * cold: every request is a new class of optimal size 7–9, so every
//!   request is a miss that runs one meet-in-the-middle search.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use revsynth_analysis::{Rng, SplitMix64};
use revsynth_bfs::SearchTables;
use revsynth_canon::Symmetries;
use revsynth_circuit::{Circuit, Gate, GateLib};
use revsynth_core::{SearchOptions, SearchStats, SuiteConfig, SynthesisSuite, Synthesizer};
use revsynth_perm::{Perm, WirePerm};
use revsynth_serve::{Client, ServeConfig, ServeStats, Server, ServerHandle};

use crate::json::Json;
use crate::kernels;
use crate::procfs;
use crate::report::{size_digest, Report};
use crate::setup::{self, Scratch};
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;
use crate::Ctx;

/// Table depth of the served suite.
const K: usize = 6;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Classes primed into the warm cache.
const WARM_POOL: usize = 1024;
/// Circuit lengths of the warm pool's classes.
const WARM_LENGTHS: (usize, usize) = (4, 10);
/// Circuit lengths the cold stream draws from (kept only if the class has
/// optimal size > k, i.e. needs a search). Longer circuits reach classes
/// of size 10–12, one of which can cost 20 ms–0.9 s at k = 6: a few of
/// them decide a whole window's throughput.
const COLD_LENGTHS: (usize, usize) = (7, 9);
/// Leading cold-stream classes whose sizes fold into the digest.
const COLD_DIGEST_PREFIX: u64 = 256;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Warm,
    Cold,
}

fn random_circuit(gates: &[Gate], len: usize, rng: &mut SplitMix64) -> Circuit {
    Circuit::from_gates((0..len).map(|_| gates[rng.next_u64() as usize % gates.len()]))
}

fn draw_len(rng: &mut SplitMix64, (lo, hi): (usize, usize)) -> usize {
    rng.gen_range(lo..=hi)
}

/// The warm pool: distinct classes from seeded random circuits.
fn warm_pool(seed: u64, sym: &Symmetries) -> Vec<Perm> {
    let gates = GateLib::nct(4).gates().to_vec();
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(WARM_POOL);
    while pool.len() < WARM_POOL {
        let f = random_circuit(&gates, draw_len(&mut rng, WARM_LENGTHS), &mut rng).perm(4);
        if seen.insert(sym.canonical(f)) {
            pool.push(f);
        }
    }
    pool
}

/// The cold stream: distinct classes of optimal size > k, in a fixed
/// seeded order, handed out one at a time to whichever client asks.
struct ColdStream {
    rng: SplitMix64,
    gates: Vec<Gate>,
    seen: HashSet<Perm>,
    next_id: u64,
}

impl ColdStream {
    fn new(seed: u64) -> ColdStream {
        ColdStream {
            rng: SplitMix64::new(seed),
            gates: GateLib::nct(4).gates().to_vec(),
            seen: HashSet::new(),
            next_id: 0,
        }
    }

    fn next(&mut self, tables: &SearchTables) -> (u64, Perm) {
        loop {
            let len = draw_len(&mut self.rng, COLD_LENGTHS);
            let f = random_circuit(&self.gates, len, &mut self.rng).perm(4);
            if tables.size_of(f).is_none() && self.seen.insert(tables.sym().canonical(f)) {
                self.next_id += 1;
                return (self.next_id, f);
            }
        }
    }
}

/// A query: request id, function, and its optimal size when known.
struct Query {
    id: u64,
    f: Perm,
    expect: Option<usize>,
}

/// Where the clients' queries come from.
enum Source<'a> {
    Warm {
        pool: &'a [(Perm, Circuit)],
        relabelings: Vec<WirePerm>,
    },
    Cold {
        stream: &'a Mutex<ColdStream>,
        tables: &'a SearchTables,
    },
}

impl Source<'_> {
    fn next(&self, client: usize, n: u64, rng: &mut SplitMix64) -> Query {
        match self {
            Source::Warm { pool, relabelings } => {
                let (base, circuit) = &pool[rng.next_u64() as usize % pool.len()];
                let sigma = relabelings[rng.next_u64() as usize % relabelings.len()];
                let member = base.conjugate_by_wires(sigma);
                let f = if rng.next_u64() & 1 == 0 {
                    member
                } else {
                    member.inverse()
                };
                Query {
                    id: ((client as u64 + 1) << 40) | n,
                    f,
                    expect: Some(circuit.len()),
                }
            }
            Source::Cold { stream, tables } => {
                let (id, f) = stream
                    .lock()
                    .expect("cold stream lock poisoned")
                    .next(tables);
                Query {
                    id,
                    f,
                    expect: None,
                }
            }
        }
    }
}

/// A running server and what it took to set it up.
struct Live {
    handle: Option<ServerHandle>,
    addr: SocketAddr,
    suite: Arc<SynthesisSuite>,
    /// Warm: the primed pool's base functions and their answers.
    primed: Vec<(Perm, Circuit)>,
    _scratch: Scratch,
}

impl Live {
    /// Asks the server to shut down and joins it (a no-op the second time).
    /// If the request cannot be sent, the server thread is left to end
    /// with the process rather than joined forever.
    fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        Client::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown_server().map_err(|e| e.to_string()))
            .map_err(|e| format!("shutdown: {e}"))?;
        handle
            .join()
            .map(|_| ())
            .map_err(|e| format!("server: {e}"))
    }
}

impl Live {
    /// The clients' query source for this instance.
    fn source<'a>(&'a self, mode: Mode, stream: &'a Mutex<ColdStream>) -> Source<'a> {
        match mode {
            Mode::Warm => Source::Warm {
                pool: &self.primed,
                relabelings: WirePerm::all(),
            },
            Mode::Cold => Source::Cold {
                stream,
                tables: self.suite.gates().tables(),
            },
        }
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Builds tables, starts the server and (warm) primes it.
fn set_up(
    ctx: &Ctx,
    mode: Mode,
    pool: &[Perm],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(Live, [f64; 4]), String> {
    let span = tracer.open("setup", 0, 0);
    let scratch = Scratch::new(&ctx.out_dir, "k6")?;
    let built = setup::build(K, ctx.threads, &scratch, tracer, span)?;
    let bfs = [
        built.generate_s,
        built.save_s,
        built.load_ms,
        built.store_mb,
    ];
    report.set("bfs.classes", built.classes as f64);
    let suite = Arc::new(SynthesisSuite::new(
        Synthesizer::new(built.tables),
        SuiteConfig::default(),
    ));
    let bind = tracer.open("serve.bind", span, 0);
    let server = Server::bind(Arc::clone(&suite), ServeConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.spawn();
    tracer.close(bind);
    let mut live = Live {
        handle: Some(handle),
        addr,
        suite,
        primed: Vec::new(),
        _scratch: scratch,
    };
    if mode == Mode::Warm {
        let prime = tracer.open("serve.prime", span, 0);
        let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for (i, &f) in pool.iter().enumerate() {
            let q = tracer.open("serve.client.query", prime, i as u64 + 1);
            let c = client
                .query(f)
                .map_err(|e| format!("priming query {i}: {e}"))?;
            tracer.close(q);
            if c.perm(4) != f {
                return Err(format!(
                    "priming query {i}: answer computes another function"
                ));
            }
            live.primed.push((f, c));
        }
        tracer.close(prime);
    }
    tracer.close(span);
    Ok((live, bfs))
}

/// What one client thread saw.
#[derive(Default)]
struct ClientOut {
    /// Per request: completion time (seconds into the phase) and latency.
    done: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    cpu_s: f64,
    /// Cold: every answered `(id, query, answer)`.
    answers: Vec<(u64, Perm, Circuit)>,
}

fn client_loop(
    addr: SocketAddr,
    source: &Source<'_>,
    client: usize,
    seed: u64,
    t0: Instant,
    deadline: Instant,
    tracer: &mut Tracer,
) -> Result<ClientOut, String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng =
        SplitMix64::new(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(client as u64 + 1)));
    let mut out = ClientOut::default();
    let cold = matches!(source, Source::Cold { .. });
    let cpu0 = procfs::thread_cpu_s();
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let q = source.next(client, n, &mut rng);
        let span = tracer.open("serve.client.query", 0, q.id);
        let t = Instant::now();
        let answer = conn.query(q.f);
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        out.done.push((t0.elapsed().as_secs_f64(), latency_ms));
        tracer.close(span);
        out.attempted += 1;
        match answer {
            Ok(c) if c.perm(4) == q.f && q.expect.is_none_or(|s| s == c.len()) => {
                if cold {
                    out.answers.push((q.id, q.f, c));
                }
            }
            _ => out.failed += 1,
        }
    }
    out.cpu_s = procfs::thread_cpu_s() - cpu0;
    Ok(out)
}

/// One timed closed-loop phase.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    client_cpu_s: f64,
    /// Per request: completion time and latency (ms).
    done: Vec<(f64, f64)>,
    /// Process CPU seconds at each whole second of the phase (index 0 =
    /// the start).
    cpu_at: Vec<f64>,
    attempted: u64,
    failed: u64,
    steal: f64,
    before: ServeStats,
    after: ServeStats,
    answers: Vec<(u64, Perm, Circuit)>,
}

/// Per one-second window `[i, i + 1)` of a phase, `i < cpu_at.len() − 1`:
/// the window's p50 and p90 latency (ms) and its process CPU per request
/// (ms). Windows without requests, and requests finishing after the last
/// whole second, are left out.
pub fn windows(done: &[(f64, f64)], cpu_at: &[f64]) -> Vec<[f64; 3]> {
    let n = cpu_at.len().saturating_sub(1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, ms) in done {
        let w = at.floor() as usize;
        if at >= 0.0 && w < n {
            lat[w].push(ms);
        }
    }
    lat.into_iter()
        .enumerate()
        .filter_map(|(w, mut l)| {
            l.sort_by(f64::total_cmp);
            let cpu = (cpu_at[w + 1] - cpu_at[w]) * 1e3 / l.len() as f64;
            Some([percentile(&l, 50.0)?, percentile(&l, 90.0)?, cpu])
        })
        .collect()
}

/// Column-wise medians of [`windows`] rows: p50, p90 and CPU per request.
/// A burst of host steal or a timer hiccup spoils a window or two, and a
/// server instance whose threads landed badly spoils a third of them, not
/// the run.
pub fn window_medians(rows: &[[f64; 3]]) -> Option<[f64; 3]> {
    let column =
        |i: usize| Summary::of(&rows.iter().map(|r| r[i]).collect::<Vec<_>>()).map(|s| s.p50);
    Some([column(0)?, column(1)?, column(2)?])
}

fn timed_pass(
    live: &Live,
    source: &Source<'_>,
    seconds: f64,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut control = Client::connect(live.addr).map_err(|e| format!("connect: {e}"))?;
    let before = control.stats().map_err(|e| format!("stats: {e}"))?;
    let phase = tracer.open("phase.timed", 0, 0);
    let host0 = procfs::host_cpu();
    let cpu0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut cpu_at = vec![cpu0];
    let outs: Vec<(Result<ClientOut, String>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut worker = tracer.fork();
                s.spawn(move || {
                    (
                        client_loop(live.addr, source, c, seed, t0, deadline, &mut worker),
                        worker,
                    )
                })
            })
            .collect();
        // Sample process CPU at every whole second while the clients run.
        for w in 1..=seconds.floor() as u32 {
            let at = t0 + Duration::from_secs(u64::from(w));
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu_at.push(procfs::process_cpu_s());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu0;
    let steal = host0.steal_share_until(&procfs::host_cpu());
    tracer.close(phase);
    let after = control.stats().map_err(|e| format!("stats: {e}"))?;
    let mut pass = Pass {
        wall_s,
        cpu_s,
        client_cpu_s: 0.0,
        done: Vec::new(),
        cpu_at,
        attempted: 0,
        failed: 0,
        steal,
        before,
        after,
        answers: Vec::new(),
    };
    for (out, worker) in outs {
        let out = out?;
        tracer.adopt(worker, phase);
        pass.client_cpu_s += out.cpu_s;
        pass.done.extend(out.done);
        pass.attempted += out.attempted;
        pass.failed += out.failed;
        pass.answers.extend(out.answers);
    }
    pass.answers.sort_by_key(|a| a.0);
    Ok(pass)
}

impl Pass {
    fn latencies_ms(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.1).collect()
    }
}

/// Mean of a histogram family in the metrics scrape, in milliseconds:
/// the `_sum` over the `_count` (microseconds) of every series of `name`
/// whose labels contain `label`.
pub fn scrape_mean_ms(text: &str, name: &str, label: &str) -> f64 {
    let total = |suffix: &str| -> f64 {
        let family = format!("{name}{suffix}");
        text.lines()
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
                (metric == family && labels.contains(label)).then(|| value.parse::<f64>().ok())?
            })
            .sum()
    };
    let count = total("_count");
    if count == 0.0 {
        0.0
    } else {
        total("_sum") / count / 1e3
    }
}

/// Runs one of the serve workloads.
pub fn run(ctx: &Ctx, mode: Mode, tracer: &mut Tracer, report: &mut Report) -> Result<(), String> {
    let sym = Symmetries::new(4);
    let pool = if mode == Mode::Warm {
        warm_pool(ctx.seed, &sym)
    } else {
        Vec::new()
    };

    // Each server instance is set up from scratch and then measured for
    // its share of --seconds; the metrics are medians over the windows of
    // all instances.
    let slice = ctx.seconds / SETUP_REPS as f64;
    let stream = Mutex::new(ColdStream::new(ctx.seed));
    let mut setup_s = Vec::new();
    let mut bfs = Vec::new();
    let mut passes = Vec::new();
    let mut live: Option<Live> = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut prev) = live.take() {
            prev.stop()?;
        }
        let t = Instant::now();
        let (next, costs) = set_up(ctx, mode, &pool, tracer, report)?;
        setup_s.push(t.elapsed().as_secs_f64());
        bfs.push(costs);
        let source = next.source(mode, &stream);
        let mut untraced = Tracer::new(false, Instant::now());
        let pass = timed_pass(&next, &source, slice, ctx.seed ^ rep as u64, &mut untraced)?;
        check_pass(mode, &pass, report);
        passes.push(pass);
        live = Some(next);
    }
    let mut live = live.expect("at least one set-up");
    let median = |v: Vec<f64>| Summary::of(&v).map_or(0.0, |s| s.p50);
    report.set("setup_s", median(setup_s.clone()));
    report.diag(
        "setup_s_each",
        Json::Arr(setup_s.into_iter().map(Json::Num).collect()),
    );
    for (i, name) in [
        "bfs.generate_s",
        "bfs.save_s",
        "bfs.load_ms",
        "bfs.store_mb",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, median(bfs.iter().map(|b| b[i]).collect()));
    }

    let rows: Vec<[f64; 3]> = passes
        .iter()
        .flat_map(|p| windows(&p.done, &p.cpu_at))
        .collect();
    let [p50, p90, cpu] = window_medians(&rows).ok_or("no request completed in a whole window")?;
    let all: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms()).collect();
    let lat = Summary::of(&all).ok_or("no query completed")?;
    let wall: f64 = passes.iter().map(|p| p.wall_s).sum();
    report.attempted = passes.iter().map(|p| p.attempted).sum();
    report.failed = passes.iter().map(|p| p.failed).sum();
    report.set("latency_p50_ms", p50);
    report.set("latency_p90_ms", p90);
    report.set("cpu_ms_per_query", cpu);
    report.set(
        "ok_share",
        (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64,
    );
    report.set(
        "host.steal_share",
        passes.iter().map(|p| p.steal * p.wall_s).sum::<f64>() / wall,
    );
    crate::latency_diagnostics(report, &lat);
    report.diag("windows", Json::Int(rows.len() as i64));
    report.diag("phase_s", Json::Num(wall));
    report.diag(
        "serve.closed_loop_qps",
        Json::Num(report.attempted as f64 / wall),
    );
    report.diag(
        "per_instance_p50_ms",
        Json::Arr(
            passes
                .iter()
                .map(|p| {
                    window_medians(&windows(&p.done, &p.cpu_at))
                        .map_or(Json::Null, |m| Json::Num(m[0]))
                })
                .collect(),
        ),
    );
    let mut sorted = all;
    sorted.sort_by(f64::total_cmp);
    report.diag(
        "serve.latency_p99_ms",
        percentile(&sorted, 99.0).map_or(Json::Null, Json::Num),
    );
    report.digest = match mode {
        Mode::Warm => size_digest(live.primed.iter().map(|(_, c)| c.len())),
        Mode::Cold => {
            let prefix: Vec<usize> = passes[0]
                .answers
                .iter()
                .take_while(|a| a.0 <= COLD_DIGEST_PREFIX)
                .map(|a| a.2.len())
                .collect();
            report.check(
                "cold digest prefix answered",
                prefix.len() as u64 == COLD_DIGEST_PREFIX,
                format!(
                    "{} of the first {COLD_DIGEST_PREFIX} classes answered",
                    prefix.len()
                ),
            );
            size_digest(prefix)
        }
    };
    let tables = live.suite.gates().tables();
    let source = live.source(mode, &stream);

    if ctx.trace {
        // Against the untraced slice of the same server instance.
        let pass = passes.last().expect("at least one pass");
        let traced = timed_pass(&live, &source, slice, ctx.seed ^ 0x5eed, tracer)?;
        report.set(
            "trace.overhead_share",
            (pass.attempted as f64 / pass.wall_s) / (traced.attempted as f64 / traced.wall_s) - 1.0,
        );
        report.attempted += traced.attempted;
        report.failed += traced.failed;
        check_pass(mode, &traced, report);
        serve_layer_metrics(&live, &traced, report)?;

        // Replay the same classes directly through the engine, so that
        // serve overhead = client latency − core.search_s.
        let direct: Vec<(Perm, usize)> = match mode {
            Mode::Warm => live.primed.iter().map(|(f, c)| (*f, c.len())).collect(),
            Mode::Cold => traced
                .answers
                .iter()
                .map(|(_, f, c)| (*f, c.len()))
                .collect(),
        };
        let span = tracer.open("replay.core", 0, 0);
        let opts = SearchOptions::new().threads(1);
        let mut total = SearchStats::default();
        let (mut lists, mut search_s, mut mismatches) = (0usize, 0.0f64, 0usize);
        let mut deepest = (
            direct.first().ok_or("no answered class to replay")?.0,
            0usize,
        );
        for (i, &(f, size)) in direct.iter().enumerate() {
            let q = tracer.open("core.synthesize_with", span, i as u64 + 1);
            let t = Instant::now();
            let result = live.suite.gates().synthesize_with(f, &opts);
            search_s += t.elapsed().as_secs_f64();
            tracer.close(q);
            match result {
                Ok(s) if s.circuit.len() == size && s.circuit.perm(4) == f => {
                    total.merge(&s.stats);
                    lists += s.lists_scanned;
                    if s.lists_scanned > deepest.1 {
                        deepest = (f, s.lists_scanned);
                    }
                }
                _ => mismatches += 1,
            }
        }
        tracer.close(span);
        report.check(
            "direct replay agrees with served sizes",
            mismatches == 0,
            format!("{mismatches} of {} differ", direct.len()),
        );
        crate::core_metrics(report, &total, lists, search_s);
        if mode == Mode::Cold {
            let served = traced.latencies_ms();
            let served_ms = Summary::of(&served).map_or(0.0, |s| s.p50);
            report.diag(
                "serve.overhead_ms_per_query",
                Json::Num(
                    served.iter().sum::<f64>() / traced.attempted.max(1) as f64
                        - search_s * 1e3 / direct.len().max(1) as f64,
                ),
            );
            report.diag("serve.traced_latency_p50_ms", Json::Num(served_ms));
        }
        kernels::replay_kernels(tables, deepest.0, deepest.1.max(1), report, tracer);
        let answers: Vec<(Perm, Circuit)> = match mode {
            Mode::Warm => live.primed.clone(),
            Mode::Cold => traced
                .answers
                .iter()
                .map(|(_, f, c)| (*f, c.clone()))
                .collect(),
        };
        kernels::replay_hit_path(&sym, &answers, report, tracer);
    }
    live.stop()
}

/// The warm phase must not search; the cold phase must search exactly once
/// per distinct class.
fn check_pass(mode: Mode, pass: &Pass, report: &mut Report) {
    let searches = pass.after.searches - pass.before.searches;
    let misses = pass.after.cache_misses - pass.before.cache_misses;
    match mode {
        Mode::Warm => report.check(
            "warm phase runs no search",
            searches == 0 && misses == 0,
            format!("{searches} searches, {misses} misses"),
        ),
        Mode::Cold => {
            let coalesced = pass.after.coalesced - pass.before.coalesced;
            report.check(
                "cold phase runs one search per class",
                searches == pass.attempted && misses == pass.attempted && coalesced == 0,
                format!(
                    "{} queries, {searches} searches, {misses} misses, {coalesced} coalesced",
                    pass.attempted
                ),
            );
        }
    }
}

fn serve_layer_metrics(live: &Live, pass: &Pass, report: &mut Report) -> Result<(), String> {
    let queries = pass.attempted.max(1) as f64;
    report.set(
        "serve.server_cpu_ms_per_query",
        (pass.cpu_s - pass.client_cpu_s).max(0.0) * 1e3 / queries,
    );
    report.set(
        "serve.client_cpu_ms_per_query",
        pass.client_cpu_s * 1e3 / queries,
    );
    let (a, b) = (&pass.after, &pass.before);
    report.set("serve.hits", (a.cache_hits - b.cache_hits) as f64);
    report.set("serve.searches", (a.searches - b.searches) as f64);
    report.set("serve.batches", (a.batches - b.batches) as f64);
    report.set("serve.max_batch", a.max_batch as f64);
    report.set("serve.coalesced", (a.coalesced - b.coalesced) as f64);
    report.set("serve.shed", (a.shed - b.shed) as f64);
    report.set("serve.errors", (a.errors - b.errors) as f64);
    let text = Client::connect(live.addr)
        .map_err(|e| format!("connect: {e}"))?
        .metrics()
        .map_err(|e| format!("metrics: {e}"))?;
    report.set(
        "serve.queue_wait_ms",
        scrape_mean_ms(&text, "revsynth_stage_latency_us", "stage=\"queue_wait\""),
    );
    report.set(
        "serve.batch_search_ms",
        scrape_mean_ms(&text, "revsynth_batch_search_us", ""),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_means_histogram_families() {
        let text = "# TYPE revsynth_stage_latency_us histogram\n\
            revsynth_stage_latency_us_bucket{stage=\"queue_wait\",le=\"10\"} 3\n\
            revsynth_stage_latency_us_sum{stage=\"queue_wait\"} 3000\n\
            revsynth_stage_latency_us_count{stage=\"queue_wait\"} 4\n\
            revsynth_stage_latency_us_sum{stage=\"decode\"} 999\n\
            revsynth_stage_latency_us_count{stage=\"decode\"} 1\n\
            revsynth_batch_search_us_sum 500\n\
            revsynth_batch_search_us_count 2\n";
        let ms = scrape_mean_ms(text, "revsynth_stage_latency_us", "stage=\"queue_wait\"");
        assert!((ms - 0.75).abs() < 1e-12);
        assert!((scrape_mean_ms(text, "revsynth_batch_search_us", "") - 0.25).abs() < 1e-12);
        assert_eq!(scrape_mean_ms(text, "revsynth_missing_us", ""), 0.0);
    }

    #[test]
    fn windows_skip_the_tail_and_empty_windows() {
        // Window 0: 4 requests; window 1: none; window 2: 2 slow ones;
        // a request finishing after the last whole second is ignored.
        let done = [
            (0.1, 1.0),
            (0.2, 2.0),
            (0.5, 3.0),
            (0.9, 4.0),
            (2.1, 9.0),
            (2.5, 10.0),
            (3.2, 99.0),
        ];
        let cpu_at = [0.0, 0.004, 0.004, 0.010];
        let rows = windows(&done, &cpu_at);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            (rows[0][0], rows[0][1], rows[1][0], rows[1][1]),
            (2.0, 4.0, 9.0, 10.0)
        );
        assert!((rows[0][2] - 1.0).abs() < 1e-9 && (rows[1][2] - 3.0).abs() < 1e-9);
        let m = window_medians(&rows).unwrap();
        assert_eq!((m[0], m[1]), (2.0, 4.0));
        assert!((m[2] - 1.0).abs() < 1e-9);
        assert!(windows(&done, &[0.0]).is_empty());
        assert!(window_medians(&[]).is_none());
    }

    #[test]
    fn warm_pool_is_distinct_and_seeded() {
        let sym = Symmetries::new(4);
        let a = warm_pool(7, &sym);
        assert_eq!(a, warm_pool(7, &sym));
        assert_ne!(a, warm_pool(8, &sym));
        let reps: HashSet<Perm> = a.iter().map(|&f| sym.canonical(f)).collect();
        assert_eq!(reps.len(), WARM_POOL);
    }
}
