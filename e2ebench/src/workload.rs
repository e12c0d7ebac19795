//! The three workloads and the seeded streams every input comes from.
//!
//! The run seed drives everything the program receives: the graph
//! (`ba:N:3:SEED`), the sampled source set, the mutation edges and the
//! reader's request mix. Each derived stream is a SplitMix64 sequence keyed
//! by the seed and a stream tag, so the same seed gives the same inputs.

use bc_graph::{generators, Graph};

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// All-sources distributed BC on the serial engine.
    Exact,
    /// `sampled:K` distributed BC on the serial engine.
    Sampled {
        /// Number of drawn sources.
        k: usize,
    },
    /// Exact distributed BC through `run_leader` and `serve_shard`
    /// threads over Unix sockets; the exact workload's traced pass makes
    /// these calls, no workload of its own.
    Wire {
        /// Number of shard threads.
        shards: usize,
    },
    /// A `bc-serve` server on the incremental Brandes engine, with one
    /// open-loop reader and one churn writer.
    Serve,
}

/// One workload: a generated Barabási–Albert graph and what runs on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Node count.
    pub n: usize,
    /// What runs on the graph.
    pub kind: Kind,
}

/// Edges each new Barabási–Albert node attaches with.
const BA_EDGES_PER_NODE: usize = 3;

/// Every workload the benchmark knows, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "exact-ba256",
        n: 256,
        kind: Kind::Exact,
    },
    Workload {
        name: "sampled-ba1536-k64",
        n: 1536,
        kind: Kind::Sampled { k: 64 },
    },
    Workload {
        name: "serve-churn",
        n: 1024,
        kind: Kind::Serve,
    },
];

/// Stream tags for [`Rng::new`].
pub const STREAM_SAMPLE: u64 = 1;
/// Mutation edges of `serve-churn`.
pub const STREAM_MUTATIONS: u64 = 2;
/// Reader request mix of `serve-churn`.
pub const STREAM_REQUESTS: u64 = 3;

impl Workload {
    /// Looks a workload up by its `--workload` name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload on a graph small enough for the self-test.
    #[cfg(test)]
    pub fn tiny(self) -> Workload {
        let (n, kind) = match self.kind {
            Kind::Sampled { .. } => (48, Kind::Sampled { k: 6 }),
            kind => (24, kind),
        };
        Workload { n, kind, ..self }
    }

    /// The workload's input graph, `ba:N:3:SEED`.
    pub fn graph(&self, seed: u64) -> Graph {
        generators::barabasi_albert(self.n, BA_EDGES_PER_NODE, seed)
    }

    /// Seed of the sampled source set.
    pub fn sample_seed(&self, seed: u64) -> u64 {
        Rng::new(seed, STREAM_SAMPLE).next_u64()
    }
}

/// SplitMix64: a tiny seeded generator for the derived input streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of run seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
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
}

/// The endless seeded sequence of node pairs that are not edges of `g`:
/// the edges `serve-churn` adds and removes again.
pub fn non_edges(g: &Graph, seed: u64) -> impl Iterator<Item = (u32, u32)> + '_ {
    let mut rng = Rng::new(seed, STREAM_MUTATIONS);
    let n = g.n() as u64;
    std::iter::repeat_with(move || loop {
        let u = rng.below(n) as u32;
        let v = rng.below(n) as u32;
        if u != v && !g.has_edge(u, v) {
            return (u.min(v), u.max(v));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let w = WORKLOADS[0].tiny();
        let a: Vec<_> = w.graph(7).edges().collect();
        let b: Vec<_> = w.graph(7).edges().collect();
        assert_eq!(a, b);
        let g = w.graph(7);
        let e1: Vec<_> = non_edges(&g, 7).take(20).collect();
        let e2: Vec<_> = non_edges(&g, 7).take(20).collect();
        assert_eq!(e1, e2);
        assert!(e1.iter().all(|&(u, v)| u < v && !g.has_edge(u, v)));
        assert_ne!(w.sample_seed(1), w.sample_seed(2));
    }
}
