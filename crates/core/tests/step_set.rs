//! Pins the round engines' step set: which nodes each engine steps in
//! which round.
//!
//! Skipping a node is only sound when stepping it would have been a no-op,
//! so a skipping engine must step exactly the nodes the protocol's wake
//! rule names — no more (wasted work), no fewer (a missed self-timed
//! action). Result comparisons alone cannot see a surplus step, so this
//! test pins the exact `rounds` and nodes-stepped totals (telemetry's
//! `NodesStepped` counter) of fixed runs on every engine: serial, pooled
//! free-running, pooled orchestrated (a trace sink attached), and the
//! socket engine. It also checks that `skip_idle = false`, the reference
//! path that steps every node every round, gives bit-identical results.

use bc_congest::trace::NoopSink;
use bc_congest::{Counter, FaultPlan, Telemetry};
use bc_core::wire::{run_leader, serve_shard};
use bc_core::{
    run_distributed_bc, run_distributed_bc_traced, DistBcConfig, DistBcResult, Estimator,
    Scheduling, SourceSelection,
};
use bc_graph::{generators, Graph};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// One pinned run: a configuration and the counts every engine must
/// reproduce. `wire` is `None` for configurations the socket engine
/// rejects (fault plans); its counts differ from the in-process ones
/// because every wire node runs behind the reliable transport.
struct Case {
    name: &'static str,
    config: DistBcConfig,
    /// `(rounds, nodes stepped)` of the in-process engines.
    local: (u64, u64),
    /// `(rounds, nodes stepped)` of the 2-shard socket engine.
    wire: Option<(u64, u64)>,
}

fn graph() -> Graph {
    generators::barabasi_albert(40, 2, 7)
}

fn cases() -> Vec<Case> {
    let sampled = SourceSelection::Sample { k: 16, seed: 3 };
    vec![
        Case {
            name: "all-sources pipelined",
            config: DistBcConfig::default(),
            local: (416, 5093),
            wire: Some((418, 16720)),
        },
        Case {
            name: "adaptive",
            config: DistBcConfig {
                scheduling: Scheduling::Adaptive,
                ..DistBcConfig::default()
            },
            local: (267, 5131),
            wire: Some((269, 10760)),
        },
        Case {
            name: "sequential",
            config: DistBcConfig {
                scheduling: Scheduling::Sequential,
                ..DistBcConfig::default()
            },
            local: (3499, 5262),
            wire: Some((3501, 140040)),
        },
        Case {
            name: "sampled:16",
            config: DistBcConfig {
                sources: sampled.clone(),
                ..DistBcConfig::default()
            },
            local: (391, 2232),
            wire: Some((393, 15720)),
        },
        Case {
            name: "stress",
            config: DistBcConfig {
                compute_stress: true,
                ..DistBcConfig::default()
            },
            local: (416, 5093),
            wire: Some((418, 16720)),
        },
        Case {
            name: "sampled:16 jiyan",
            config: DistBcConfig {
                sources: sampled,
                estimator: Estimator::JiYan,
                ..DistBcConfig::default()
            },
            local: (391, 2232),
            wire: Some((393, 15720)),
        },
        Case {
            name: "reliable, delays and a crash window",
            config: DistBcConfig {
                faults: Some(FaultPlan {
                    delay: 0.2,
                    max_delay: 2,
                    ..FaultPlan::parse("seed=5,crash=3@20..40").expect("valid plan")
                }),
                reliable: true,
                ..DistBcConfig::default()
            },
            local: (1128, 45100),
            wire: None,
        },
    ]
}

/// How a run is driven.
#[derive(Debug, Clone, Copy)]
enum Engine {
    Serial,
    /// Pooled workers over the spin barrier (no sink, no faults).
    Pooled,
    /// Pooled workers driven round by round by the main thread.
    PooledTraced,
    /// Two `serve_shard` threads over Unix sockets.
    Wire,
}

static SOCKET_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Runs `config` on `engine`; returns the result and the nodes stepped.
fn run(g: &Graph, config: &DistBcConfig, engine: Engine) -> (DistBcResult, u64) {
    let shards = match engine {
        Engine::Serial => 1,
        _ => 2,
    };
    let telemetry = Arc::new(Telemetry::new(shards, 8));
    let config = DistBcConfig {
        threads: if matches!(engine, Engine::Serial) {
            0
        } else {
            2
        },
        telemetry: Some(telemetry.clone()),
        ..config.clone()
    };
    let result = match engine {
        Engine::Serial | Engine::Pooled => run_distributed_bc(g, config).expect("runs"),
        Engine::PooledTraced => {
            run_distributed_bc_traced(g, config, Box::new(NoopSink))
                .expect("runs")
                .0
        }
        Engine::Wire => {
            let addrs: Vec<String> = (0..shards)
                .map(|_| {
                    let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
                    let path = std::env::temp_dir()
                        .join(format!("bcstep-{}-{seq}.sock", std::process::id()));
                    format!("unix:{}", path.display())
                })
                .collect();
            let handles: Vec<_> = addrs
                .iter()
                .map(|a| {
                    let a = a.clone();
                    thread::spawn(move || serve_shard(&a))
                })
                .collect();
            let result = run_leader(g, &config, &addrs, false).expect("wire run").0;
            for h in handles {
                h.join()
                    .expect("shard thread")
                    .expect("shard exits cleanly");
            }
            result
        }
    };
    (result, telemetry.snapshot().get(Counter::NodesStepped))
}

/// Everything a run computes, compared bit for bit.
fn assert_same_result(a: &DistBcResult, b: &DistBcResult, what: &str) {
    assert_eq!(a.betweenness, b.betweenness, "{what}: betweenness");
    assert_eq!(a.closeness, b.closeness, "{what}: closeness");
    assert_eq!(a.stress, b.stress, "{what}: stress");
    assert_eq!(a.diameter, b.diameter, "{what}: diameter");
    assert_eq!(a.rounds, b.rounds, "{what}: rounds");
    assert_eq!(a.metrics, b.metrics, "{what}: metrics");
    assert_eq!(
        a.state_bytes_total, b.state_bytes_total,
        "{what}: state bytes"
    );
}

#[test]
fn engines_step_exactly_the_pinned_node_set() {
    let g = graph();
    for case in cases() {
        let (serial, stepped) = run(&g, &case.config, Engine::Serial);
        assert_eq!(
            (serial.rounds, stepped),
            case.local,
            "{}: serial",
            case.name
        );
        for engine in [Engine::Pooled, Engine::PooledTraced] {
            let (result, stepped) = run(&g, &case.config, engine);
            let what = format!("{}: {engine:?}", case.name);
            assert_eq!((result.rounds, stepped), case.local, "{what}");
            assert_same_result(&result, &serial, &what);
        }
        if let Some(pinned) = case.wire {
            let (result, stepped) = run(&g, &case.config, Engine::Wire);
            assert_eq!((result.rounds, stepped), pinned, "{}: wire", case.name);
            assert_eq!(
                result.betweenness, serial.betweenness,
                "{}: wire",
                case.name
            );
        }

        // The reference path: every node, every round, same result.
        let reference = DistBcConfig {
            skip_idle: false,
            ..case.config.clone()
        };
        for engine in [Engine::Serial, Engine::Pooled] {
            let (result, stepped) = run(&g, &reference, engine);
            let what = format!("{}: {engine:?} without skipping", case.name);
            assert_same_result(&result, &serial, &what);
            if reference.faults.is_none() {
                assert_eq!(stepped, g.n() as u64 * result.rounds, "{what}");
            }
        }
    }
}
