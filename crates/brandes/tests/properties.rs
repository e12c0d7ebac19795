//! Property-based tests of the centralized baselines: three independent
//! betweenness implementations agree, exact rationals match floats,
//! centralities respect their invariants, and the weighted machinery is
//! consistent with its unweighted specialization.

use bc_brandes::{
    betweenness_exact, betweenness_f64, betweenness_naive, closeness_centrality, dependencies_from,
    graph_centrality, stress_centrality, weighted, Workspace,
};
use bc_graph::algo::{bfs, sigma_f64};
use bc_graph::weighted::WeightedGraph;
use bc_graph::{generators, Graph, GraphBuilder, NodeId};
use proptest::prelude::*;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n, any::<u64>(), 0usize..60).prop_map(|(n, seed, extra)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for _ in 0..extra {
            let (u, v) = (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId));
            if u != v {
                b.add_edge(u, v).expect("valid");
            }
        }
        b.build()
    })
}

/// The textbook dependency accumulation over an explicit shortest-path
/// DAG (`bfs` + `sigma_f64` + the loop over predecessor lists): the
/// reference the fused kernel must match bit for bit.
fn dag_dependencies(g: &Graph, s: NodeId) -> Vec<f64> {
    let dag = bfs(g, s);
    let sigma = sigma_f64(&dag);
    let mut delta = vec![0.0f64; g.n()];
    for &w in dag.order.iter().rev() {
        let coeff = (1.0 + delta[w as usize]) / sigma[w as usize];
        for &v in &dag.preds[w as usize] {
            delta[v as usize] += sigma[v as usize] * coeff;
        }
    }
    delta
}

fn assert_kernel_matches_dag(g: &Graph, sources: impl IntoIterator<Item = NodeId>) {
    let mut ws = Workspace::new(g.n());
    let mut reused = vec![0.0f64; g.n()];
    for s in sources {
        let want = dag_dependencies(g, s);
        ws.dependencies_into(g, s, &mut reused);
        for (label, got) in [("fresh", &dependencies_from(g, s)), ("reused", &reused)] {
            for (v, (x, y)) in got.iter().zip(&want).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{label} s={s} v={v}: {x} vs {y}");
            }
        }
    }
}

#[test]
fn kernel_bit_identical_where_sigma_exceeds_2_pow_53() {
    // Corner-to-corner path counts on a 40×40 grid are C(78, 39) ≈ 2.7e22,
    // so σ sums round and any change in addition order shows in the bits.
    let g = generators::grid(40, 40);
    assert!(sigma_f64(&bfs(&g, 0)).iter().any(|&x| x > 2f64.powi(53)));
    let corners = [0, 39, 1560, 1599];
    assert_kernel_matches_dag(&g, corners.into_iter().chain((0..1600).step_by(37)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernel_bit_identical_to_dag_accumulation(g in arb_graph(40)) {
        // arb_graph yields disconnected graphs: unreachable nodes keep δ = 0.
        assert_kernel_matches_dag(&g, 0..g.n() as NodeId);
    }

    #[test]
    fn brandes_equals_naive(g in arb_graph(22)) {
        let a = betweenness_f64(&g);
        let b = betweenness_naive(&g);
        for (v, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y), "node {}", v);
        }
    }

    #[test]
    fn brandes_equals_exact_rationals(g in arb_graph(16)) {
        let a = betweenness_f64(&g);
        let e = betweenness_exact(&g);
        for (v, (x, y)) in a.iter().zip(&e).enumerate() {
            prop_assert!((x - y.to_f64()).abs() <= 1e-9 * (1.0 + x), "node {}", v);
        }
    }

    #[test]
    fn betweenness_invariants(g in arb_graph(25)) {
        let cb = betweenness_f64(&g);
        let n = g.n() as f64;
        for (v, &b) in cb.iter().enumerate() {
            prop_assert!(b >= -1e-12, "nonnegative");
            // Upper bound: (n-1)(n-2)/2 (star center).
            prop_assert!(b <= (n - 1.0) * (n - 2.0) / 2.0 + 1e-9, "node {}", v);
            // Degree-0 and degree-1 nodes have zero betweenness.
            if g.degree(v as NodeId) <= 1 {
                prop_assert!(b.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn dependency_sum_consistency(g in arb_graph(20)) {
        // Σ_v δ_s·(v) summed over sources equals 2·ΣCB + (endpoint terms);
        // simpler invariant: CB(v) = Σ_s δ_s(v)/2 by definition of the
        // implementation — recompute independently.
        let cb = betweenness_f64(&g);
        let n = g.n();
        let mut acc = vec![0.0; n];
        for s in 0..n as NodeId {
            for (v, d) in dependencies_from(&g, s).into_iter().enumerate() {
                if v != s as usize {
                    acc[v] += d;
                }
            }
        }
        for (x, y) in acc.iter().zip(&cb) {
            prop_assert!((x / 2.0 - y).abs() <= 1e-9 * (1.0 + y));
        }
    }

    #[test]
    fn stress_dominates_betweenness(g in arb_graph(18)) {
        // σ_st(v) ≥ σ_st(v)/σ_st, so CS(v) ≥ CB(v) pointwise.
        let cs = stress_centrality(&g);
        let cb = betweenness_f64(&g);
        for (v, (s, b)) in cs.iter().zip(&cb).enumerate() {
            prop_assert!(s + 1e-9 >= *b, "node {}: stress {} < bc {}", v, s, b);
        }
    }

    #[test]
    fn closeness_and_graph_centrality_bounds(g in arb_graph(25)) {
        let cc = closeness_centrality(&g);
        let cg = graph_centrality(&g);
        for v in 0..g.n() {
            prop_assert!(cc[v] >= 0.0 && cc[v] <= 1.0);
            prop_assert!(cg[v] >= 0.0 && cg[v] <= 1.0);
            // 1/Σd ≤ 1/max d.
            prop_assert!(cc[v] <= cg[v] + 1e-12);
        }
    }

    #[test]
    fn unit_weighted_equals_unweighted(g in arb_graph(20)) {
        let wg = WeightedGraph::from_edges(g.n(), g.edges().map(|(u, v)| (u, v, 1))).unwrap();
        let a = weighted::betweenness_weighted_f64(&wg);
        let b = betweenness_f64(&g);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y));
        }
    }

    #[test]
    fn subdivision_equals_dijkstra(g in arb_graph(14), wmax in 1u32..5, seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let wg = WeightedGraph::from_edges(
            g.n(),
            g.edges().map(|(u, v)| (u, v, rng.gen_range(1..=wmax))),
        )
        .unwrap();
        let direct = weighted::betweenness_weighted_f64(&wg);
        let via_sub = weighted::betweenness_weighted_via_subdivision(&wg);
        for (v, (x, y)) in via_sub.iter().zip(&direct).enumerate() {
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + y), "node {}", v);
        }
    }

    #[test]
    fn scaling_weights_preserves_betweenness(g in arb_graph(14), c in 2u32..5) {
        // Multiplying all weights by a constant leaves shortest paths (and
        // hence betweenness) unchanged.
        let w1 = WeightedGraph::from_edges(g.n(), g.edges().map(|(u, v)| (u, v, 2))).unwrap();
        let w2 = WeightedGraph::from_edges(g.n(), g.edges().map(|(u, v)| (u, v, 2 * c))).unwrap();
        let a = weighted::betweenness_weighted_f64(&w1);
        let b = weighted::betweenness_weighted_f64(&w2);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() <= 1e-9);
        }
    }
}
