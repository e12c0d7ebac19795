//! Correctness gates. Each takes a result and its oracle and says whether
//! the result passes; none of them runs inside a timed region.

use bc_brandes::dependencies_from;
use bc_graph::Graph;
use bc_serve::QueryResponse;

/// Largest deviation of `got` from `want`, relative to `1 + |want|` (the
/// repository's E2 convention, which keeps near-zero scores from
/// dominating). A NaN anywhere reads as an infinite error.
pub fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(a, e)| (a - e).abs() / (1.0 + e.abs()))
        .map(|x| if x.is_nan() { f64::INFINITY } else { x })
        .fold(0.0, f64::max)
}

/// The CeilFloat error budget for an `L`-bit mantissa: `256 · 2^-L`, the
/// Theorem 1 / Corollary 1 bound `O(2^-L)` with the constant the E2
/// correctness experiment asserts.
pub fn ceilfloat_budget(mantissa_bits: u32) -> f64 {
    256.0 * (-(mantissa_bits as f64)).exp2()
}

/// Passes when `got` is within `budget` of `want` on every node; returns
/// the measured error either way.
pub fn within(got: &[f64], want: &[f64], budget: f64) -> (f64, Result<(), String>) {
    if got.len() != want.len() {
        return (
            f64::INFINITY,
            Err(format!("{} scores for {} nodes", got.len(), want.len())),
        );
    }
    let err = max_rel_err(got, want);
    let verdict = if err > budget {
        Err(format!("max relative error {err:e} exceeds {budget:e}"))
    } else {
        Ok(())
    };
    (err, verdict)
}

/// Passes when `got` and `want` agree bit for bit.
pub fn bit_identical(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} scores for {} nodes", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(v) => Err(format!("node {v}: {} vs {}", got[v], want[v])),
    }
}

/// The centralized Brandes–Pich fold over `sources`:
/// `(n / |S|) · Σ_{s ∈ S} δ_s(v) / 2`, the sampled run's oracle.
pub fn centralized_fold(g: &Graph, sources: &[u32]) -> Vec<f64> {
    let mut sum = vec![0.0f64; g.n()];
    for &s in sources {
        for (v, d) in dependencies_from(g, s).into_iter().enumerate() {
            if v as u32 != s {
                sum[v] += d;
            }
        }
    }
    let scale = g.n() as f64 / sources.len() as f64;
    sum.iter().map(|d| d * scale / 2.0).collect()
}

/// The snapshot version a read batch was answered from: every response
/// must be a read and carry the same version.
pub fn batch_version(resps: &[QueryResponse]) -> Result<u64, String> {
    let mut version = None;
    for r in resps {
        let v = match r {
            QueryResponse::Ranked { version, .. }
            | QueryResponse::Score { version, .. }
            | QueryResponse::Value { version, .. }
            | QueryResponse::Meta { version, .. } => *version,
            other => return Err(format!("read answered with {other:?}")),
        };
        match version {
            Some(prev) if prev != v => {
                return Err(format!("one batch answered from versions {prev} and {v}"))
            }
            _ => version = Some(v),
        }
    }
    version.ok_or_else(|| "empty response batch".to_string())
}

/// Passes when versions never go backwards.
pub fn monotone(versions: &[u64]) -> Result<(), String> {
    match versions.windows(2).find(|w| w[1] < w[0]) {
        None => Ok(()),
        Some(w) => Err(format!("version went back from {} to {}", w[0], w[1])),
    }
}

/// Rebuilds the full score vector from a `TopK { k: n }` answer.
pub fn scores_from_ranking(resp: &QueryResponse, n: usize) -> Result<Vec<f64>, String> {
    let QueryResponse::Ranked { entries, .. } = resp else {
        return Err(format!("expected a ranking, got {resp:?}"));
    };
    if entries.len() != n {
        return Err(format!("ranking has {} of {n} nodes", entries.len()));
    }
    let mut scores = vec![f64::NAN; n];
    for &(v, s) in entries {
        *scores
            .get_mut(v as usize)
            .ok_or_else(|| format!("node {v} out of range"))? = s;
    }
    Ok(scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_brandes::betweenness_f64;
    use bc_graph::generators;

    /// A result nudged at its top node by `rel` of its value.
    fn perturbed(xs: &[f64], rel: f64) -> Vec<f64> {
        let mut v = xs.to_vec();
        let top = (0..v.len())
            .max_by(|&a, &b| v[a].total_cmp(&v[b]))
            .expect("scores");
        v[top] *= 1.0 + rel;
        v
    }

    #[test]
    fn exact_gate_rejects_a_perturbed_result() {
        let g = generators::barabasi_albert(30, 3, 5);
        let exact = betweenness_f64(&g);
        // The budget of a 1024-node run (L = 22): 256 · 2^-22 ≈ 6.1e-5.
        let budget = ceilfloat_budget(22);
        assert!(within(&exact, &exact, budget).1.is_ok());
        assert!(within(&perturbed(&exact, 1e-6), &exact, budget).1.is_ok());
        assert!(within(&perturbed(&exact, 1e-3), &exact, budget).1.is_err());
        let mut nan = exact.clone();
        nan[0] = f64::NAN;
        assert!(within(&nan, &exact, budget).1.is_err());
        assert!(within(&exact[1..], &exact, budget).1.is_err());
    }

    #[test]
    fn bit_identity_gate_rejects_one_ulp() {
        let g = generators::barabasi_albert(30, 3, 5);
        let exact = betweenness_f64(&g);
        assert!(bit_identical(&exact, &exact).is_ok());
        let mut off = exact.clone();
        let i = off.iter().position(|&x| x > 0.0).expect("a positive score");
        off[i] = f64::from_bits(off[i].to_bits() + 1);
        assert!(bit_identical(&off, &exact).is_err());
    }

    #[test]
    fn fold_over_every_source_is_brandes() {
        let g = generators::barabasi_albert(30, 3, 5);
        let all: Vec<u32> = (0..30).collect();
        let fold = centralized_fold(&g, &all);
        let (err, ok) = within(&fold, &betweenness_f64(&g), 1e-12);
        assert!(ok.is_ok(), "{err}");
        let some = [1, 4, 9];
        let sampled = centralized_fold(&g, &some);
        assert!(
            within(&perturbed(&sampled, 1e-3), &sampled, ceilfloat_budget(22))
                .1
                .is_err()
        );
    }

    #[test]
    fn serving_gates_reject_torn_and_backward_reads() {
        let read = |version| QueryResponse::Value {
            version,
            value: 1.0,
        };
        assert_eq!(batch_version(&[read(3), read(3)]), Ok(3));
        assert!(batch_version(&[read(3), read(4)]).is_err());
        assert!(batch_version(&[QueryResponse::Flushed { version: 3 }]).is_err());
        assert!(batch_version(&[]).is_err());
        assert!(monotone(&[1, 1, 2, 5]).is_ok());
        assert!(monotone(&[1, 3, 2]).is_err());
        let ranking = QueryResponse::Ranked {
            version: 1,
            entries: vec![(1, 2.0), (0, 1.0)],
        };
        assert_eq!(scores_from_ranking(&ranking, 2), Ok(vec![1.0, 2.0]));
        assert!(scores_from_ranking(&ranking, 3).is_err());
    }
}
