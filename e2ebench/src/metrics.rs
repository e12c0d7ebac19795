//! Metric names and units, the statistics runs report, and the outcome of
//! one run: its measured values, its attempted and failed operations and
//! checks, and the deterministic counts that must repeat.

use crate::workload::Kind;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`. Every workload sets each.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("wall_unscaled_s", "s"),
    ("host.reference_ms", "ms"),
    ("network.overhead_ms", "ms"),
    ("network.rounds", "count"),
    ("network.nodes_stepped", "count"),
    ("network.step_ratio", "ratio"),
    ("network.max_inbox_depth", "count"),
    ("node.compute_ms", "ms"),
    ("node.compute_share", "ratio"),
    ("node.state_bytes_peak", "B"),
    ("node.state_bytes_total", "B"),
    ("phase.tree_ms", "ms"),
    ("phase.counting_ms", "ms"),
    ("phase.reduce_ms", "ms"),
    ("phase.aggregation_ms", "ms"),
    ("phase.tree_overhead_ms", "ms"),
    ("phase.counting_overhead_ms", "ms"),
    ("phase.reduce_overhead_ms", "ms"),
    ("phase.aggregation_overhead_ms", "ms"),
    ("congest.messages", "count"),
    ("congest.bits", "bit"),
    ("congest.max_msg_bits", "bit"),
    ("transport.msg_inflation", "ratio"),
    ("transport.retransmits", "count"),
    ("transport.deduped", "count"),
    ("wire.leader_ms", "ms"),
    ("wire.shard_ms_max", "ms"),
    ("wire.shard_ms_min", "ms"),
    ("telemetry.cost_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("serve.connect_ms", "ms"),
    ("serve.recompute_ms", "ms"),
    ("serve.affected_sources", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.service_ms_p50", "ms"),
    ("serve.send_lag_ms_p99", "ms"),
    ("serve.gen_lag_ms", "ms"),
    ("serve.versions", "count"),
    ("serve.query_samples", "count"),
    ("serve.swaps", "count"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("swap_p50_ms", "ms"),
    ("swap_p90_ms", "ms"),
    ("max_rel_err", "ratio"),
    ("fail_ratio", "ratio"),
];

/// Per-layer metrics a workload never reaches, by name prefix. They are
/// printed as 0 so every `--trace 1` line carries the full set.
pub fn bypassed(kind: Kind) -> &'static [&'static str] {
    match kind {
        // The exact workload's traced pass also makes the wire calls.
        Kind::Exact => &["serve.", "query_", "swap_"],
        Kind::Sampled { .. } => &["wire.", "serve.", "query_", "swap_"],
        Kind::Wire { .. } => unreachable!("wire calls run inside the exact workload"),
        Kind::Serve => &[
            "network.",
            "node.",
            "phase.",
            "congest.",
            "transport.",
            "wire.",
        ],
    }
}

/// The unit of a known metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Nearest-rank percentile (`p` in `0..=100`) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Interquartile mean of `xs`: the mean of its middle half, without the
/// lowest and the highest quarter; `None` when empty.
///
/// The times of one run spread over two modes, as each core of a shared
/// host switches between a fast and a slow state. The median jumps between
/// the modes as their shares drift from run to run; a mean moves smoothly
/// with them, and dropping the outer quarters keeps calls stalled by other
/// tenants out of it.
pub fn interquartile_mean(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    (!kept.is_empty()).then(|| kept.iter().sum::<f64>() / kept.len() as f64)
}

/// Prints how many samples a timing rests on and their spread.
pub fn print_samples(what: &str, unit: &str, xs: &[f64]) {
    let q = |p| percentile(xs, p).unwrap_or(f64::NAN);
    println!(
        "# {what}: {} samples, min {:.6} p25 {:.6} p50 {:.6} p75 {:.6} max {:.6} {unit}",
        xs.len(),
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0)
    );
}

/// Seconds as milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// Deterministic counts: first value seen per name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Outcome {
    /// Records a measured value.
    ///
    /// # Panics
    ///
    /// On a name missing from [`END_TO_END`] and [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Records a measured value when there is one.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Counts one operation; `Err` counts it as failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one correctness check; `Err` counts it as failed.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.op(what, r);
    }

    /// Records a deterministic count. A later value for the same name
    /// that differs is a failed check: such counts must repeat exactly.
    pub fn count(&mut self, name: &'static str, value: u64) {
        match self.counts.get(name) {
            None => {
                self.counts.insert(name, value);
            }
            Some(&first) => self.check(
                &format!("{name} repeats"),
                if first == value {
                    Ok(())
                } else {
                    Err(format!("{first} then {value}"))
                },
            ),
        }
    }

    /// Failed share of attempted operations and checks.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_keeps_the_middle_half() {
        let mut xs: Vec<f64> = (1..=7).map(f64::from).collect();
        xs.push(1000.0);
        // Drops 1, 2, 7 and 1000; keeps 3..=6.
        assert_eq!(interquartile_mean(&xs), Some(4.5));
        assert_eq!(interquartile_mean(&[4.0, 2.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn a_count_that_changes_fails() {
        let mut o = Outcome::default();
        o.count("network.rounds", 10);
        o.count("network.rounds", 10);
        assert_eq!(o.failed, 0);
        o.count("network.rounds", 11);
        assert_eq!((o.attempted, o.failed), (2, 1));
    }
}
