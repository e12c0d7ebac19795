//! The host-speed reference: a fixed kernel written here, apart from the
//! program, that a run times between its own calls.
//!
//! On a shared host each core this process gets switches, every second or
//! so, between a fast and a slow state (about 1.4x apart) as other tenants
//! load the machine, and the share of time spent in each drifts over
//! minutes. The two cores switch independently, so the reference runs on
//! the thread that makes the calls, in the gaps between them.
//!
//! The kernel is a miniature of the program's own work: a synchronous
//! message-passing simulation that floods breadth-first waves from a few
//! sources over a fixed graph, with one inbox per node, per-node distance
//! and path-count arrays, and every message pushed to a neighbour's inbox
//! for the next round. Such a pass slows down with the host by about as
//! much as the program does: over the same stream of calls, cut into
//! 10-second windows, calls divided by this pass spread 0.03 (exact) and
//! 0.04 (sampled) in quartile distance over median, calls divided by a
//! single-source Brandes pass over a 65,536-node graph 0.10 and 0.12. Its
//! code and input are fixed, so a change to the program never moves it,
//! and `wall_s` divides the host's drift out with it.

use crate::metrics::interquartile_mean;
use crate::workload::Rng;
use std::time::Instant;

/// Nodes of the reference graph.
const NODES: usize = 2048;
/// Edges each new node attaches with.
const EDGES_PER_NODE: usize = 3;
/// Sources whose waves the pass floods, all from round 0.
const SOURCES: usize = 16;
/// Seed of the reference graph; fixed, so every run and build times the
/// same input.
const SEED: u64 = 0x005E_ED0F_5EED;

/// A reference pass on a 2-core x86 (Xeon) host in its fast state. It
/// only sets the unit of `wall_s`: two builds compared scale by the same
/// constant.
pub const NOMINAL_S: f64 = 0.007;

/// Reference passes timed in each gap between two calls: about one per
/// quarter second of call, so the passes sample the host through the run
/// at a steady rate, whatever the call length.
pub fn passes_per_gap(call_s: f64) -> usize {
    (call_s / 0.25).round().max(1.0) as usize
}

/// A run's timings at the nominal host speed: the interquartile mean of
/// the timings, divided by that of the reference passes timed between
/// them, times the nominal pass time. `None` when either list is empty.
///
/// One factor per run: a pass lasts milliseconds and catches the host in
/// whichever state it is in at that instant, so a call scaled by the passes
/// just around it inherits their noise, while the passes of a whole run
/// measure the share of time the host spent slow during it.
pub fn scaled(times: &[f64], refs: &[f64]) -> Option<f64> {
    Some(interquartile_mean(times)? * NOMINAL_S / interquartile_mean(refs)?)
}

/// A wave message: source slot, distance from that source, path count.
type Wave = (u32, u32, f64);

/// The reference input: a preferential-attachment graph, node ids shuffled,
/// as adjacency lists.
pub struct Reference {
    adj: Vec<Vec<u32>>,
}

/// What one pass computed: per node and source slot (`v * SOURCES + j`),
/// the distance and the number of shortest paths.
struct Flood {
    dist: Vec<u32>,
    sigma: Vec<f64>,
}

impl Reference {
    /// Builds the fixed reference graph.
    pub fn new() -> Reference {
        let mut rng = Rng::new(SEED, 0);
        let mut adj = vec![Vec::new(); NODES];
        // Every edge end, so a uniform draw from it picks a node by degree.
        let mut ends: Vec<u32> = Vec::new();
        for u in 0..=EDGES_PER_NODE {
            for v in 0..u {
                adj[u].push(v as u32);
                adj[v].push(u as u32);
                ends.extend([u as u32, v as u32]);
            }
        }
        for u in EDGES_PER_NODE + 1..NODES {
            let mut picked: Vec<u32> = Vec::with_capacity(EDGES_PER_NODE);
            while picked.len() < EDGES_PER_NODE {
                let v = ends[rng.below(ends.len() as u64) as usize];
                if !picked.contains(&v) {
                    picked.push(v);
                }
            }
            for v in picked {
                adj[u].push(v);
                adj[v as usize].push(u as u32);
                ends.extend([u as u32, v]);
            }
        }
        // Shuffled ids scatter neighbours across memory, as the program's
        // per-node state is scattered.
        let mut id: Vec<u32> = (0..NODES as u32).collect();
        for i in (1..NODES).rev() {
            id.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut shuffled = vec![Vec::new(); NODES];
        for (u, vs) in adj.into_iter().enumerate() {
            shuffled[id[u] as usize] = vs.into_iter().map(|v| id[v as usize]).collect();
        }
        Reference { adj: shuffled }
    }

    /// Source of slot `j`.
    fn source(j: usize) -> usize {
        j * (NODES / SOURCES)
    }

    /// Floods one wave per source, round by round, until no message is in
    /// flight. A node learns its distance from a source with the first
    /// wave message it receives and sums the path counts of that round's.
    fn flood(&self) -> Flood {
        let mut dist = vec![u32::MAX; NODES * SOURCES];
        let mut sigma = vec![0.0f64; NODES * SOURCES];
        let mut inbox: Vec<Vec<Wave>> = vec![Vec::new(); NODES];
        let mut next: Vec<Vec<Wave>> = vec![Vec::new(); NODES];
        for j in 0..SOURCES {
            let s = Self::source(j);
            dist[s * SOURCES + j] = 0;
            sigma[s * SOURCES + j] = 1.0;
            for &v in &self.adj[s] {
                next[v as usize].push((j as u32, 1, 1.0));
            }
        }
        let mut reached: Vec<u32> = Vec::new();
        let mut in_flight = true;
        while in_flight {
            in_flight = false;
            std::mem::swap(&mut inbox, &mut next);
            for v in 0..NODES {
                if inbox[v].is_empty() {
                    continue;
                }
                for &(j, d, paths) in &inbox[v] {
                    let i = v * SOURCES + j as usize;
                    if dist[i] == u32::MAX {
                        dist[i] = d;
                        reached.push(j);
                    }
                    if dist[i] == d {
                        sigma[i] += paths;
                    }
                }
                inbox[v].clear();
                for j in reached.drain(..) {
                    let i = v * SOURCES + j as usize;
                    for &w in &self.adj[v] {
                        next[w as usize].push((j, dist[i] + 1, sigma[i]));
                        in_flight = true;
                    }
                }
            }
        }
        Flood { dist, sigma }
    }

    /// Times one reference pass, in seconds.
    pub fn time(&self) -> f64 {
        let t0 = Instant::now();
        let f = self.flood();
        std::hint::black_box((&f.dist, &f.sigma));
        t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_reference_passes() {
        let refs = [NOMINAL_S, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S, 9.0 * NOMINAL_S];
        // Interquartile means: 3.0 for the times, 2x nominal for the passes.
        assert_eq!(scaled(&[1.0, 3.0, 3.0, 50.0], &refs), Some(1.5));
        assert_eq!(scaled(&[], &refs), None);
        assert_eq!(scaled(&[1.0], &[]), None);
        assert_eq!(passes_per_gap(0.1), 1);
        assert_eq!(passes_per_gap(2.0), 8);
    }

    /// The flood computes breadth-first distances and shortest-path counts:
    /// every node is reached, neighbours differ by at most one hop, and each
    /// count is the sum of its predecessors' counts.
    #[test]
    fn flood_counts_shortest_paths() {
        let r = Reference::new();
        let degrees: usize = r.adj.iter().map(Vec::len).sum();
        assert_eq!(degrees, 2 * (6 + (NODES - 4) * EDGES_PER_NODE));
        let f = r.flood();
        for j in 0..SOURCES {
            let at = |v: usize| v * SOURCES + j;
            let s = Reference::source(j);
            assert_eq!((f.dist[at(s)], f.sigma[at(s)]), (0, 1.0));
            for v in (0..NODES).filter(|&v| v != s) {
                let d = f.dist[at(v)];
                assert!(d != u32::MAX && d > 0, "node {v} unreached from {s}");
                let mut paths = 0.0;
                for &u in &r.adj[v] {
                    let du = f.dist[at(u as usize)];
                    assert!(du.abs_diff(d) <= 1, "edge {u}-{v}: {du} vs {d}");
                    if du + 1 == d {
                        paths += f.sigma[at(u as usize)];
                    }
                }
                assert_eq!(f.sigma[at(v)], paths, "node {v} from {s}");
            }
        }
    }
}
