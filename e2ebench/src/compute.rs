//! The two compute workloads, exact and sampled BC on the serial engine,
//! and the wire calls of the exact workload's traced pass: exact BC through
//! the socket leader and its shards.
//!
//! One call is timed from outside, around `run_distributed_bc` (untraced),
//! `run_distributed_bc_profiled` (traced) or `run_leader`. With tracing the
//! run alternates three kinds of call — telemetry attached (the CLI's
//! default), telemetry off, and traced — so telemetry's cost and the
//! tracing overhead are differences between neighbouring calls.

use crate::gates;
use crate::host;
use crate::metrics::{interquartile_mean, median, ms, print_samples, Outcome};
use crate::reference::{self, Reference};
use crate::spans::{traced, Spans};
use crate::workload::{Kind, Workload};
use bc_brandes::betweenness_f64;
use bc_congest::{Counter, ProfileReport, Telemetry};
use bc_core::{
    run_distributed_bc, run_distributed_bc_profiled, run_leader, serve_shard, DistBcConfig,
    DistBcResult, SourceIndex, SourceSelection,
};
use bc_graph::Graph;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Flight-recorder depth the CLI attaches telemetry with.
const FLIGHT_RECORDER_ROUNDS: usize = 64;
/// Fewest calls a run makes of each kind.
const MIN_CALLS: usize = 3;
/// Wire calls the exact workload's traced pass makes, after its other
/// calls, and the shard threads each runs with. They time the transport
/// layer from outside; they make no end-to-end figure, because a wire
/// call's time also follows how fast an idle core of the host wakes up at
/// every round's hand-off between the shards, which no reference pass
/// measures (its per-run figure spread 0.16–0.35 over 10 seeds, where the
/// in-process workloads spread below 0.05).
const WIRE_CALLS: usize = 3;
const WIRE_SHARDS: usize = 2;

/// Typical seconds of one call on a 2-core x86 host. With `--seconds` it
/// fixes how many calls a run makes, so every run at one `--seconds`, on
/// any build, takes the same number of samples; the time budget only caps
/// a run that is far slower than this.
fn nominal_call_s(kind: Kind) -> f64 {
    match kind {
        Kind::Exact => 0.25,
        Kind::Sampled { .. } => 0.8,
        Kind::Wire { .. } => unreachable!("wire calls are counted by WIRE_CALLS"),
        Kind::Serve => unreachable!("the serving workload makes no BC calls"),
    }
}

/// How many rounds of calls a run makes: `seconds` worth of calls at the
/// nominal call time, shared among the `per_round` kinds of call.
fn rounds(kind: Kind, seconds: f64, per_round: usize) -> usize {
    let calls = (seconds / nominal_call_s(kind)).floor() as usize;
    (calls / per_round).max(MIN_CALLS)
}

/// What one call runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Telemetry attached, no spans: the end-to-end call.
    Plain,
    /// Telemetry off.
    NoTelemetry,
    /// Telemetry attached, spans recorded, profiler on in-process.
    Traced,
}

/// The configuration the CLI builds by default for the workload: serial
/// engine, telemetry attached with one shard per engine worker or socket
/// shard.
fn config(w: &Workload, seed: u64, telemetry: bool) -> DistBcConfig {
    let shards = match w.kind {
        Kind::Wire { shards } => shards,
        _ => 1,
    };
    let sources = match w.kind {
        Kind::Sampled { k } => SourceSelection::Sample {
            k,
            seed: w.sample_seed(seed),
        },
        _ => SourceSelection::All,
    };
    DistBcConfig {
        sources,
        telemetry: telemetry.then(|| Arc::new(Telemetry::new(shards, FLIGHT_RECORDER_ROUNDS))),
        ..DistBcConfig::default()
    }
}

/// Whether a Unix socket is bound at `path` and listening. The socket file
/// appears at `bind`, before `listen`, so its existence is not enough: a
/// connect in between is refused.
fn listening(path: &str) -> bool {
    const ACCEPTING: u32 = 0x0001_0000;
    std::fs::read_to_string("/proc/net/unix").is_ok_and(|table| {
        table.lines().skip(1).any(|line| {
            let cols: Vec<&str> = line.split_whitespace().collect();
            cols.len() == 8
                && cols[7] == path
                && u32::from_str_radix(cols[3], 16).is_ok_and(|f| f & ACCEPTING != 0)
        })
    })
}

/// One finished shard thread: when it ran and how `serve_shard` ended.
type ShardRun = (Instant, Instant, Result<(), String>);

/// Shard threads listening on fresh Unix sockets, ready for one run.
struct Shards {
    paths: Vec<String>,
    handles: Vec<JoinHandle<ShardRun>>,
}

impl Shards {
    /// Spawns `k` shards and waits until every socket is bound.
    fn start(k: usize) -> Result<Shards, String> {
        let paths: Vec<String> = (0..k).map(|_| host::socket_path("shard")).collect();
        let handles = paths
            .iter()
            .map(|p| {
                let addr = format!("unix:{p}");
                thread::spawn(move || {
                    let start = Instant::now();
                    let r = serve_shard(&addr).map_err(|e| e.to_string());
                    (start, Instant::now(), r)
                })
            })
            .collect();
        let shards = Shards { paths, handles };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if shards.paths.iter().all(|p| listening(p)) {
                return Ok(shards);
            }
            if shards.handles.iter().any(JoinHandle::is_finished) || Instant::now() > deadline {
                let ended = shards.finish(Duration::ZERO);
                let why: Vec<String> = ended.into_iter().filter_map(|(_, _, r)| r.err()).collect();
                return Err(format!("shards did not come up: {why:?}"));
            }
            thread::sleep(Duration::from_micros(20));
        }
    }

    /// The addresses the leader dials, in shard order.
    fn addrs(&self) -> Vec<String> {
        self.paths.iter().map(|p| format!("unix:{p}")).collect()
    }

    /// Joins every shard. A shard still waiting for a leader after `grace`
    /// is woken with bare connections, which make it return.
    fn finish(self, grace: Duration) -> Vec<ShardRun> {
        let grace = Instant::now() + grace;
        let ended = self
            .handles
            .into_iter()
            .zip(&self.paths)
            .map(|(h, path)| {
                while !h.is_finished() {
                    if Instant::now() >= grace {
                        drop(std::os::unix::net::UnixStream::connect(path));
                    }
                    thread::sleep(Duration::from_micros(200));
                }
                h.join().unwrap_or_else(|_| {
                    let now = Instant::now();
                    (now, now, Err("shard thread panicked".to_string()))
                })
            })
            .collect();
        for p in &self.paths {
            let _ = std::fs::remove_file(p);
        }
        ended
    }
}

/// What one call returned.
struct Call {
    wall_s: f64,
    result: DistBcResult,
    /// Node steps counted by telemetry, when attached.
    nodes_stepped: Option<u64>,
    profile: Option<ProfileReport>,
    /// Each shard's `serve_shard` time, for wire calls.
    shard_ms: Vec<f64>,
}

/// A call's inputs, made by one timed set-up.
struct Ready {
    g: Graph,
    cfg: DistBcConfig,
    /// Shards listening for the leader, for wire calls.
    shards: Option<Shards>,
}

/// Sets one call up and times it: generate the graph and build the
/// configuration; for a wire call also bring the shards up until
/// they listen.
fn set_up(w: &Workload, seed: u64, mode: Mode) -> Result<(f64, Ready), String> {
    let t0 = Instant::now();
    let g = w.graph(seed);
    let cfg = config(w, seed, mode != Mode::NoTelemetry);
    let shards = match w.kind {
        Kind::Wire { shards } => Some(Shards::start(shards)?),
        _ => None,
    };
    Ok((t0.elapsed().as_secs_f64(), Ready { g, cfg, shards }))
}

/// Runs and times one call on the inputs `set_up` made.
fn call(ready: &mut Ready, mode: Mode, spans: Option<&Spans>, run: u32) -> Result<Call, String> {
    let (g, cfg) = (&ready.g, ready.cfg.clone());
    let telemetry = cfg.telemetry.clone();
    let spans = spans.filter(|_| mode == Mode::Traced);
    let root = spans.map(|s| s.begin("iteration", None, run));
    let (wall, result, profile, shard_ms) = match ready.shards.take() {
        Some(set) => {
            let addrs = set.addrs();
            let t0 = Instant::now();
            let out = traced(spans, "wire.run_leader", root, run, |_| {
                run_leader(g, &cfg, &addrs, false)
            });
            let wall = t0.elapsed();
            let ended = set.finish(Duration::from_secs(5));
            let mut shard_ms = Vec::with_capacity(ended.len());
            for (start, end, r) in ended {
                if let Some(s) = spans {
                    s.record("wire.serve_shard", root, run, start, end);
                }
                r.map_err(|e| format!("shard: {e}"))?;
                shard_ms.push(ms(end - start));
            }
            let (result, _) = out.map_err(|e| e.to_string())?;
            (wall, result, None, shard_ms)
        }
        None if mode == Mode::Traced => {
            let t0 = Instant::now();
            let out = traced(
                spans,
                "network.run_distributed_bc_profiled",
                root,
                run,
                |_| run_distributed_bc_profiled(g, cfg),
            );
            let wall = t0.elapsed();
            let (result, profile) = out.map_err(|e| e.to_string())?;
            (wall, result, Some(profile), Vec::new())
        }
        None => {
            let t0 = Instant::now();
            let out = run_distributed_bc(g, cfg);
            let wall = t0.elapsed();
            (wall, out.map_err(|e| e.to_string())?, None, Vec::new())
        }
    };
    if let (Some(s), Some(id)) = (spans, root) {
        s.end(id);
    }
    Ok(Call {
        wall_s: wall.as_secs_f64(),
        result,
        nodes_stepped: telemetry.map(|t| t.snapshot().get(Counter::NodesStepped)),
        profile,
        shard_ms,
    })
}

/// Per-layer values of the traced calls, one entry per call; each metric
/// reports the median over calls.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, Vec<f64>>);

impl Layers {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// The profile's compute/overhead split and phase rows.
fn profile_layers(p: &ProfileReport, layers: &mut Layers) {
    let ns = |x: u64| x as f64 / 1e6;
    layers.push("network.overhead_ms", ns(p.overhead_ns));
    layers.push("network.max_inbox_depth", p.max_inbox_depth as f64);
    layers.push("node.compute_ms", ns(p.compute_ns));
    layers.push("node.compute_share", p.compute_fraction());
    for ph in &p.phases {
        let names = match ph.name.chars().next() {
            Some('A') => ("phase.tree_ms", "phase.tree_overhead_ms"),
            Some('B') => ("phase.counting_ms", "phase.counting_overhead_ms"),
            Some('C') => ("phase.reduce_ms", "phase.reduce_overhead_ms"),
            Some('D') => ("phase.aggregation_ms", "phase.aggregation_overhead_ms"),
            _ => continue,
        };
        layers.push(names.0, ns(ph.wall_ns));
        layers.push(names.1, ns(ph.overhead_ns));
    }
}

/// Makes the wire calls of the exact workload's traced pass, with run ids
/// from `first_run` on, and returns their scores, which must repeat.
fn wire_calls(
    w: &Workload,
    seed: u64,
    spans: Option<&Spans>,
    first_run: u32,
    layers: &mut Layers,
    o: &mut Outcome,
) -> Option<DistBcResult> {
    let wire = Workload {
        kind: Kind::Wire {
            shards: WIRE_SHARDS,
        },
        ..*w
    };
    let mut first: Option<DistBcResult> = None;
    for run in first_run..first_run + WIRE_CALLS as u32 {
        let (_, mut ready) = o.op("wire set-up", set_up(&wire, seed, Mode::Traced))?;
        let c = o.op("wire call", call(&mut ready, Mode::Traced, spans, run))?;
        layers.push("wire.leader_ms", c.wall_s * 1e3);
        let max = c.shard_ms.iter().copied().fold(f64::MIN, f64::max);
        let min = c.shard_ms.iter().copied().fold(f64::MAX, f64::min);
        layers.push("wire.shard_ms_max", max);
        layers.push("wire.shard_ms_min", min);
        match &first {
            None => first = Some(c.result),
            Some(f) => o.check(
                "every wire call returns the same scores",
                gates::bit_identical(&c.result.betweenness, &f.betweenness),
            ),
        }
    }
    first
}

/// Runs a compute workload's calls and checks their result. Each call is
/// set up on its own; `setup_s` is the median set-up and `wall_s` the
/// interquartile mean of the calls at the reference host speed.
pub fn run(w: &Workload, seed: u64, seconds: f64, spans: Option<&Spans>, o: &mut Outcome) {
    let modes: &[Mode] = if spans.is_some() {
        &[Mode::Plain, Mode::NoTelemetry, Mode::Traced]
    } else {
        &[Mode::Plain]
    };
    let planned = rounds(w.kind, seconds, modes.len());
    let cap = Duration::from_secs_f64(seconds * 1.5);
    let mut setup = Vec::new();
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut layers = Layers::default();
    let mut first: Option<DistBcResult> = None;
    let mut graph = None;
    let reference = Reference::new();
    // Reference passes between the end-to-end calls: some before the first
    // and as many after each.
    let passes = reference::passes_per_gap(nominal_call_s(w.kind));
    let mut refs: Vec<f64> = (0..passes).map(|_| reference.time()).collect();
    let start = Instant::now();
    'measure: for run in 0..planned as u32 {
        if start.elapsed() >= cap {
            println!("# stopped after {run} of {planned} rounds: over 1.5x the time budget");
            break;
        }
        for &mode in modes {
            let Some((took, mut ready)) = o.op("set-up", set_up(w, seed, mode)) else {
                break 'measure;
            };
            setup.push(took);
            let c = o.op("distributed BC call", call(&mut ready, mode, spans, run));
            if mode == Mode::Plain {
                refs.extend((0..passes).map(|_| reference.time()));
            }
            graph = Some(ready.g);
            let Some(c) = c else {
                break 'measure;
            };
            walls[mode as usize].push(c.wall_s);
            let r = &c.result;
            o.count("network.rounds", r.rounds);
            o.count("congest.messages", r.metrics.total_messages);
            o.count("congest.bits", r.metrics.total_bits);
            o.count("node.state_bytes_total", r.state_bytes_total);
            if let Some(stepped) = c.nodes_stepped {
                o.count("network.nodes_stepped", stepped);
            }
            if let Some(p) = &c.profile {
                o.count("network.nodes_stepped", p.nodes_stepped);
                profile_layers(p, &mut layers);
            }
            match &first {
                None => first = Some(c.result),
                Some(f) => o.check(
                    "every call returns the same scores",
                    gates::bit_identical(&c.result.betweenness, &f.betweenness),
                ),
            }
        }
    }
    o.set_opt("peak_rss_mb", host::peak_rss_mb());
    let wire = match (w.kind, spans) {
        (Kind::Exact, Some(_)) => wire_calls(w, seed, spans, planned as u32, &mut layers, o),
        _ => None,
    };
    let [plain, no_telemetry, traced_walls] = &walls;
    print_samples("set-up", "s", &setup);
    print_samples("call", "s", plain);
    print_samples("reference", "s", &refs);
    // The number of calls is fixed (see `rounds`), so the figures rest on
    // the same count of samples on every build.
    o.set_opt("setup_s", median(&setup));
    o.set_opt("wall_s", reference::scaled(plain, &refs));
    o.set_opt("wall_unscaled_s", interquartile_mean(plain));
    o.set_opt(
        "host.reference_ms",
        interquartile_mean(&refs).map(|r| r * 1e3),
    );
    let (Some(r), Some(g)) = (first, graph) else {
        return;
    };

    // Correctness gate, after every timed call.
    let budget = gates::ceilfloat_budget(r.fp.mantissa_bits());
    let oracle = match w.kind {
        Kind::Sampled { .. } => {
            let sources = config(w, seed, false).sources;
            gates::centralized_fold(&g, SourceIndex::build(&sources, g.n()).ids())
        }
        _ => betweenness_f64(&g),
    };
    let (err, verdict) = gates::within(&r.betweenness, &oracle, budget);
    o.check("scores within the CeilFloat bound of the oracle", verdict);
    o.set("max_rel_err", err);
    // The transport figures are the wire calls' where there are any.
    let transport = match &wire {
        Some(wr) => {
            o.check(
                "wire scores bit-identical to the in-process run",
                gates::bit_identical(&wr.betweenness, &r.betweenness),
            );
            &wr.metrics
        }
        None => &r.metrics,
    };
    let inflation = transport.total_messages as f64 / r.metrics.total_messages.max(1) as f64;

    // Per-layer values (counts are cheap, so they are printed untraced too).
    o.set("network.rounds", r.rounds as f64);
    if let Some(&stepped) = o.counts.get("network.nodes_stepped") {
        o.set("network.nodes_stepped", stepped as f64);
        o.set(
            "network.step_ratio",
            stepped as f64 / (g.n() as f64 * r.rounds.max(1) as f64),
        );
    }
    o.set("node.state_bytes_peak", r.state_bytes_peak as f64);
    o.set("node.state_bytes_total", r.state_bytes_total as f64);
    o.set("congest.messages", r.metrics.total_messages as f64);
    o.set("congest.bits", r.metrics.total_bits as f64);
    o.set("congest.max_msg_bits", r.metrics.max_message_bits as f64);
    o.set("transport.msg_inflation", inflation);
    o.set(
        "transport.retransmits",
        transport.messages_retransmitted as f64,
    );
    o.set("transport.deduped", transport.messages_deduped as f64);
    for (name, xs) in &layers.0 {
        o.set_opt(name, median(xs));
    }
    if let (Some(p), Some(n), Some(t)) = (median(plain), median(no_telemetry), median(traced_walls))
    {
        o.set("telemetry.cost_ms", (p - n) * 1e3);
        o.set("trace.overhead_ratio", t / p - 1.0);
    }
}
