//! The serving workload: a `bc-serve` server on the incremental Brandes
//! engine with two connections, one open-loop reader and one churn writer.
//!
//! The reader sends a top-K/node/percentile batch every `1/READ_RATE_HZ`
//! seconds and times each from when it was due. The writer cycles
//! add-edge→flush→remove-edge→flush over seeded non-edges and times each
//! mutation from enqueue to flush ack (a swap). Each swap publishes one
//! snapshot version, so every version after a remove serves the base graph
//! again, and reads answered from those versions are checked against
//! offline Brandes on the base graph.

use crate::gates;
use crate::host;
use crate::metrics::{interquartile_mean, median, ms, percentile, print_samples, Outcome};
use crate::reference::{self, Reference};
use crate::spans::{traced, Spans};
use crate::workload::{non_edges, Rng, Workload, STREAM_REQUESTS};
use bc_brandes::betweenness_f64;
use bc_brandes::ranking::{percentile as rank_percentile, rank_index, top_k};
use bc_congest::wire::fnv1a64;
use bc_congest::Telemetry;
use bc_graph::Graph;
use bc_serve::{
    IncrementalEngine, Mutation, QueryClient, QueryRequest, QueryResponse, RecomputeEngine,
    ServeError, Server, ServerConfig, ServerStats,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Reader batches per second: about 0.5% of the reader's closed-loop
/// capacity under the same churn (a reader that sends each batch as soon
/// as the last is answered completes about 80,000 batches/s at n = 1024 on
/// a 2-core x86 host). So the reader never builds a backlog of its own, and
/// `query_p50_ms`/`query_p99_ms` measure service time plus the wait for a
/// CPU that recompute holds.
const READ_RATE_HZ: f64 = 400.0;
/// Swaps a pass collects at least, past its time budget if need be.
const MIN_SWAPS: usize = 100;
/// Add/remove cycles replayed on an `IncrementalEngine` in the traced run.
const REPLAY_CYCLES: usize = 32;
/// Server set-ups measured per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// `k` of the reader's top-K request.
const TOP_K: u32 = 10;

/// A running server.
struct Env {
    shutdown: Arc<AtomicBool>,
    server: JoinHandle<Result<ServerStats, ServeError>>,
    path: String,
}

impl Env {
    /// Binds a server on `g` (initial snapshot included), starts it, and
    /// connects the reader and the writer. Returns both clients and the
    /// time each connect took.
    fn start(
        g: &Graph,
        telemetry: bool,
        spans: Option<&Spans>,
        run: u32,
    ) -> Result<(Env, [QueryClient; 2], [f64; 2]), String> {
        let path = host::socket_path("serve");
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = Server::bind(
            RecomputeEngine::Incremental(IncrementalEngine::new(g.clone(), g.n())),
            ServerConfig {
                listen: format!("unix:{path}"),
                algo: "brandes".to_string(),
                config_hash: fnv1a64(b"brandes"),
                telemetry: telemetry.then(|| Arc::new(Telemetry::new(1, 64))),
            },
            Arc::clone(&shutdown),
        )
        .map_err(|e| e.to_string())?;
        let addr = server.addr().to_string();
        let env = Env {
            shutdown,
            server: thread::spawn(move || server.run()),
            path,
        };
        let connect = || {
            let t0 = Instant::now();
            let c = traced(spans, "serve.connect", None, run, |_| {
                QueryClient::connect(&addr)
            });
            (c, ms(t0.elapsed()))
        };
        let ((reader, r_ms), (writer, w_ms)) = (connect(), connect());
        match (reader, writer) {
            (Ok(r), Ok(w)) => Ok((env, [r, w], [r_ms, w_ms])),
            (r, w) => {
                let why = format!("connect: {:?} / {:?}", r.err(), w.err());
                let _ = env.stop();
                Err(why)
            }
        }
    }

    /// Shuts the server down and returns its final counters.
    fn stop(self) -> Result<ServerStats, String> {
        self.shutdown.store(true, Ordering::SeqCst);
        let stats = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let _ = std::fs::remove_file(&self.path);
        stats.map_err(|e| e.to_string())
    }
}

/// One reader batch.
struct Read {
    due: Instant,
    sent: Instant,
    done: Instant,
    reqs: [QueryRequest; 3],
    resps: Result<Vec<QueryResponse>, String>,
}

/// The open-loop reader: one batch per period until `stop`.
fn read_loop(
    client: &mut QueryClient,
    n: usize,
    seed: u64,
    stop: &AtomicBool,
    spans: Option<&Spans>,
    run: u32,
) -> Vec<Read> {
    let mut rng = Rng::new(seed, STREAM_REQUESTS);
    let period = Duration::from_secs_f64(1.0 / READ_RATE_HZ);
    let parent = spans.map(|s| s.begin("serve.reader", None, run));
    let start = Instant::now();
    let mut reads = Vec::new();
    for i in 0u32.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let due = start + period * i;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        let reqs = [
            QueryRequest::TopK { k: TOP_K },
            QueryRequest::Node {
                v: rng.below(n as u64) as u32,
            },
            QueryRequest::Percentile {
                p: rng.below(101) as f64,
            },
        ];
        let sent = Instant::now();
        let resps = traced(spans, "serve.query", parent, run, |_| client.batch(&reqs))
            .map_err(|e| e.to_string());
        let failed = resps.is_err();
        reads.push(Read {
            due,
            sent,
            done: Instant::now(),
            reqs,
            resps,
        });
        if failed {
            break;
        }
    }
    if let (Some(s), Some(id)) = (spans, parent) {
        s.end(id);
    }
    reads
}

/// What one pass measured.
struct Pass {
    cycles: usize,
    swaps_ms: Vec<f64>,
    /// Reference passes between the swaps: one before the first and one
    /// after each.
    refs: Vec<f64>,
    query_ms: Vec<f64>,
    service_ms: Vec<f64>,
    send_lag_ms: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    versions: u64,
}

impl Pass {
    fn swap_p50_ms(&self) -> Option<f64> {
        median(&self.swaps_ms)
    }
}

/// The checks on a pass's reads: one version per batch, versions never
/// going back, and reads from base-graph versions equal to the oracle.
fn check_reads(reads: &[Read], base_versions: &HashSet<u64>, base: &[f64], o: &mut Outcome) {
    let rank = rank_index(base);
    let mut versions = Vec::with_capacity(reads.len());
    for r in reads {
        let Ok(resps) = &r.resps else {
            continue;
        };
        let verdict = gates::batch_version(resps).and_then(|v| {
            versions.push(v);
            if !base_versions.contains(&v) {
                return Ok(());
            }
            let want = [
                QueryResponse::Ranked {
                    version: v,
                    entries: top_k(base, &rank, TOP_K as usize),
                },
                match r.reqs[1] {
                    QueryRequest::Node { v: node } => QueryResponse::Score {
                        version: v,
                        node,
                        score: base[node as usize],
                    },
                    _ => unreachable!("the second request is a node read"),
                },
                match r.reqs[2] {
                    QueryRequest::Percentile { p } => QueryResponse::Value {
                        version: v,
                        value: rank_percentile(base, &rank, p).unwrap_or(f64::NAN),
                    },
                    _ => unreachable!("the third request is a percentile"),
                },
            ];
            if resps.as_slice() == want {
                Ok(())
            } else {
                Err(format!("version {v} (base graph) answered {resps:?}"))
            }
        });
        o.check(
            "read batch is single-version and matches the oracle",
            verdict,
        );
    }
    o.check("versions never go backwards", gates::monotone(&versions));
}

/// When a pass's writer stops.
#[derive(Debug, Clone, Copy)]
enum Until {
    /// Once the budget is spent and at least `MIN_SWAPS` swaps are in.
    Budget(Duration),
    /// After this many add/remove cycles, to repeat another pass's edges.
    Cycles(usize),
}

/// One pass: the reader and the writer against a running server until
/// `until`, then the final-snapshot check and shutdown.
#[allow(clippy::too_many_arguments)]
fn pass(
    g: &Graph,
    base: &[f64],
    seed: u64,
    until: Until,
    (env, [mut reader, mut writer]): (Env, [QueryClient; 2]),
    spans: Option<&Spans>,
    run: u32,
    o: &mut Outcome,
) -> Pass {
    let stop = AtomicBool::new(false);
    let mut edges = non_edges(g, seed);
    let mut swaps_ms = Vec::new();
    let reference = Reference::new();
    let mut refs = vec![reference.time()];
    let mut cycles = 0;
    // (version, when the writer saw its flush ack, whether it is the base graph)
    let mut acks: Vec<(u64, Instant, bool)> = Vec::new();
    let reads = thread::scope(|s| {
        let reading = s.spawn(|| read_loop(&mut reader, g.n(), seed, &stop, spans, run));
        let parent = spans.map(|s| s.begin("serve.writer", None, run));
        let start = Instant::now();
        let more = |cycles: usize, swaps: usize| match until {
            Until::Budget(b) => {
                (swaps < MIN_SWAPS || start.elapsed() < b)
                    && start.elapsed() < b * 4 + Duration::from_secs(30)
            }
            Until::Cycles(c) => cycles < c,
        };
        'write: while more(cycles, swaps_ms.len()) {
            cycles += 1;
            let (u, v) = edges.next().expect("endless edge stream");
            for m in [
                QueryRequest::AddEdge { u, v },
                QueryRequest::RemoveEdge { u, v },
            ] {
                let is_base = matches!(m, QueryRequest::RemoveEdge { .. });
                let t0 = Instant::now();
                let r = traced(spans, "serve.mutation", parent, run, |_| {
                    writer.batch(&[m, QueryRequest::Flush])
                });
                let took = t0.elapsed();
                let acked = match r.as_deref() {
                    Ok(
                        [QueryResponse::MutationQueued { .. }, QueryResponse::Flushed { version }],
                    ) => Ok(*version),
                    Ok(other) => Err(format!("answered {other:?}")),
                    Err(e) => Err(e.to_string()),
                };
                match o.op("mutation + flush", acked) {
                    Some(version) => {
                        swaps_ms.push(ms(took));
                        acks.push((version, Instant::now(), is_base));
                        refs.push(reference.time());
                    }
                    None => break 'write,
                }
            }
        }
        if let (Some(s), Some(id)) = (spans, parent) {
            s.end(id);
        }
        stop.store(true, Ordering::Release);
        reading.join().expect("reader thread panicked")
    });

    // Final snapshot: one more insertion, then the whole ranking (a batch
    // reads one snapshot, so the ranking goes in a batch of its own).
    let (u, v) = edges.next().expect("endless edge stream");
    let last = writer
        .batch(&[QueryRequest::AddEdge { u, v }, QueryRequest::Flush])
        .and_then(|_| writer.batch(&[QueryRequest::TopK { k: g.n() as u32 }]));
    reader.close();
    writer.close();
    let stats = o.op("server shutdown", env.stop());

    // Checks, after all timing.
    o.check(
        "pass collected enough swaps",
        if swaps_ms.len() >= MIN_SWAPS {
            Ok(())
        } else {
            Err(format!("{} of {MIN_SWAPS} swaps", swaps_ms.len()))
        },
    );
    for r in &reads {
        o.op("read batch", r.resps.as_ref().map(|_| ()));
    }
    let base_versions: HashSet<u64> = std::iter::once(1)
        .chain(acks.iter().filter(|a| a.2).map(|a| a.0))
        .collect();
    check_reads(&reads, &base_versions, base, o);
    let mutated = g.add_edge(u, v).expect("a non-edge can be added");
    let oracle = betweenness_f64(&mutated);
    let last = last
        .map_err(|e| e.to_string())
        .and_then(|resps| match resps.as_slice() {
            [ranking] => gates::scores_from_ranking(ranking, g.n()),
            other => Err(format!("answered {other:?}")),
        });
    if let Some(scores) = o.op("final snapshot read", last) {
        o.check(
            "final snapshot bit-identical to offline Brandes",
            gates::bit_identical(&scores, &oracle),
        );
        o.set("max_rel_err", gates::max_rel_err(&scores, &oracle));
    }
    if let Some(stats) = &stats {
        o.check(
            "one version per mutation, no malformed frames",
            if stats.snapshots_published == acks.len() as u64 + 1 && stats.malformed == 0 {
                Ok(())
            } else {
                Err(format!("{stats:?} after {} swaps", acks.len()))
            },
        );
    }

    // Generation lag: from each flush ack until the reader first sees that
    // version or a later one (negative when the reader saw it first).
    let origin = reads.first().map_or_else(Instant::now, |r| r.due);
    let at = |t: Instant| {
        t.saturating_duration_since(origin).as_secs_f64()
            - origin.saturating_duration_since(t).as_secs_f64()
    };
    let seen: Vec<(u64, f64)> = reads
        .iter()
        .filter_map(|r| {
            let v = gates::batch_version(r.resps.as_ref().ok()?).ok()?;
            Some((v, at(r.done)))
        })
        .collect();
    let gen_lag_ms = acks
        .iter()
        .filter_map(|&(version, acked, _)| {
            let first = seen.iter().find(|(v, _)| *v >= version)?;
            Some((first.1 - at(acked)) * 1e3)
        })
        .collect();
    Pass {
        cycles,
        swaps_ms,
        refs,
        query_ms: reads.iter().map(|r| ms(r.done - r.due)).collect(),
        service_ms: reads.iter().map(|r| ms(r.done - r.sent)).collect(),
        send_lag_ms: reads.iter().map(|r| ms(r.sent - r.due)).collect(),
        gen_lag_ms,
        versions: stats.map_or(0, |s| s.snapshots_published),
    }
}

/// Replays the churn's first mutations on an `IncrementalEngine` directly
/// and times each `apply`.
fn replay(g: &Graph, base: &[f64], seed: u64, spans: Option<&Spans>, o: &mut Outcome) {
    let mut engine = IncrementalEngine::new(g.clone(), g.n());
    engine.scores();
    engine.take_cache_stats();
    let root = spans.map(|s| s.begin("serve.replay", None, 0));
    let mut times = Vec::with_capacity(2 * REPLAY_CYCLES);
    let mut affected = 0u64;
    for (u, v) in non_edges(g, seed).take(REPLAY_CYCLES) {
        for m in [Mutation::AddEdge(u, v), Mutation::RemoveEdge(u, v)] {
            let t0 = Instant::now();
            let r = traced(spans, "serve.recompute", root, 0, |_| engine.apply(m));
            times.push(ms(t0.elapsed()));
            if o.op("incremental recompute", r).is_some() {
                affected += engine.last_recomputed() as u64;
            }
        }
    }
    if let (Some(s), Some(id)) = (spans, root) {
        s.end(id);
    }
    let (hits, misses) = engine.take_cache_stats();
    o.check(
        "replay ends on the base scores",
        gates::bit_identical(&engine.scores(), base),
    );
    o.count("serve.affected_sources", affected);
    o.set("serve.affected_sources", affected as f64);
    o.set_opt("serve.recompute_ms", median(&times));
    o.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
}

/// Runs the serving workload for `seconds` and checks every answer.
pub fn run(w: &Workload, seed: u64, seconds: f64, spans: Option<&Spans>, o: &mut Outcome) {
    // Set-up: generate the graph, bind the server (initial snapshot), and
    // connect both clients.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut connect_ms = Vec::with_capacity(2 * SETUP_REPS);
    let mut ready = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let g = w.graph(seed);
        let Some((env, clients, conn)) = o.op("server set-up", Env::start(&g, true, None, 0))
        else {
            return;
        };
        setup.push(t0.elapsed().as_secs_f64());
        connect_ms.extend(conn);
        if rep + 1 < SETUP_REPS {
            clients.into_iter().for_each(QueryClient::close);
            o.op("server shutdown", env.stop());
        } else {
            ready = Some((g, env, clients));
        }
    }
    o.set_opt("setup_s", median(&setup));
    o.set_opt("serve.connect_ms", median(&connect_ms));
    let (g, env, clients) = ready.expect("at least one set-up");
    let base = betweenness_f64(&g);

    let tracing = spans.is_some();
    let budget = Duration::from_secs_f64(if tracing { seconds / 3.0 } else { seconds });
    let main = pass(
        &g,
        &base,
        seed,
        Until::Budget(budget),
        (env, clients),
        None,
        0,
        o,
    );
    o.set_opt("peak_rss_mb", host::peak_rss_mb());
    print_samples("set-up", "s", &setup);
    print_samples("swap", "ms", &main.swaps_ms);
    print_samples("reference", "s", &main.refs);
    print_samples("query", "ms", &main.query_ms);
    o.set_opt(
        "wall_s",
        reference::scaled(&main.swaps_ms, &main.refs).map(|x| x / 1e3),
    );
    o.set_opt(
        "wall_unscaled_s",
        interquartile_mean(&main.swaps_ms).map(|x| x / 1e3),
    );
    o.set_opt(
        "host.reference_ms",
        interquartile_mean(&main.refs).map(|r| r * 1e3),
    );
    o.set_opt("swap_p50_ms", main.swap_p50_ms());
    o.set_opt("swap_p90_ms", percentile(&main.swaps_ms, 90.0));
    o.set_opt("query_p50_ms", median(&main.query_ms));
    o.set_opt("query_p99_ms", percentile(&main.query_ms, 99.0));
    o.set_opt("serve.service_ms_p50", median(&main.service_ms));
    o.set_opt("serve.send_lag_ms_p99", percentile(&main.send_lag_ms, 99.0));
    o.set_opt("serve.gen_lag_ms", median(&main.gen_lag_ms));
    o.set("serve.versions", main.versions as f64);
    o.set("serve.query_samples", main.query_ms.len() as f64);
    o.set("serve.swaps", main.swaps_ms.len() as f64);
    if !tracing {
        return;
    }

    let other = |telemetry: bool, spans: Option<&Spans>, run: u32, o: &mut Outcome| {
        let env = o.op("server set-up", Env::start(&g, telemetry, spans, run))?;
        let (env, clients, _) = env;
        // The same edges as the main pass, so the swap medians compare.
        let until = Until::Cycles(main.cycles);
        pass(&g, &base, seed, until, (env, clients), spans, run, o).swap_p50_ms()
    };
    let no_telemetry = other(false, None, 1, o);
    let traced_p50 = other(true, spans, 2, o);
    if let (Some(p), Some(n), Some(t)) = (main.swap_p50_ms(), no_telemetry, traced_p50) {
        o.set("telemetry.cost_ms", p - n);
        o.set("trace.overhead_ratio", t / p - 1.0);
    }
    replay(&g, &base, seed, spans, o);
}
