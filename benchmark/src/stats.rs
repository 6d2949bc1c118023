//! Order statistics the metrics are built from. Every reported timing
//! is a median — of ops, or of per-block rates — never a whole-run
//! mean: a multi-second noisy-neighbour burst then moves a few samples
//! of one block instead of the number the regression gate reads.

/// The `p`-th percentile (0–100) of an ascending slice, nearest rank.
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted values: the mean of the two middle ones for
/// an even count.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The highest of the usual percentiles that still has at least ten of
/// `n` samples beyond it (the median when none has).
pub fn tail_percent(n: usize) -> f64 {
    // In per-mille, so that 10 of 10 000 beyond p99.9 is exact.
    [999, 990, 950, 900]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// One block of the timed section: `ops` operations, the wall time they
/// took and the process CPU they cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    pub ops: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

/// Median over blocks of ops-in-block per second of block wall time.
pub fn ops_per_s(blocks: &[Block]) -> f64 {
    median(blocks.iter().map(|b| b.ops as f64 / (b.wall_ns as f64 / 1e9)).collect())
}

/// Median over blocks of process-CPU milliseconds per op.
pub fn cpu_ms_per_op(blocks: &[Block]) -> f64 {
    median(blocks.iter().map(|b| b.cpu_ns as f64 / 1e6 / b.ops as f64).collect())
}

/// Median op latency in milliseconds from nanosecond samples.
pub fn op_ms_p50(lat_ns: &[u32]) -> f64 {
    median(lat_ns.iter().map(|&ns| f64::from(ns) / 1e6).collect())
}

/// A metric-name component from free text: everything outside letters,
/// digits, `_`, `.` and `-` becomes `_` (`rodinia/b+tree` →
/// `rodinia_b_tree`), which is the alphabet `BENCHMARK.json` allows.
pub fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_a_hand_made_series() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percent(28), 50.0);
        assert_eq!(tail_percent(100), 90.0);
        assert_eq!(tail_percent(200), 95.0);
        assert_eq!(tail_percent(1_000), 99.0);
        assert_eq!(tail_percent(10_000), 99.9);
    }

    #[test]
    fn one_block_five_times_slower_leaves_the_medians_unmoved() {
        let quiet = Block { ops: 100, wall_ns: 1_000_000_000, cpu_ns: 500_000_000 };
        let mut blocks = vec![quiet; 12];
        let (rate, cpu) = (ops_per_s(&blocks), cpu_ms_per_op(&blocks));
        assert_eq!(rate, 100.0);
        assert_eq!(cpu, 5.0);
        blocks[7] = Block { wall_ns: 5 * quiet.wall_ns, cpu_ns: 5 * quiet.cpu_ns, ..quiet };
        assert_eq!(ops_per_s(&blocks), rate);
        assert_eq!(cpu_ms_per_op(&blocks), cpu);
        // The whole-run mean the rejected harness reported would have moved by a quarter.
        let mean = blocks.iter().map(|b| b.ops).sum::<u64>() as f64
            / (blocks.iter().map(|b| b.wall_ns).sum::<u64>() as f64 / 1e9);
        assert!(mean < 0.76 * rate, "{mean}");

        let mut lat = vec![1_000_000u32; 99];
        lat.push(5_000_000);
        assert_eq!(op_ms_p50(&lat), 1.0);
    }

    #[test]
    fn sanitised_names_use_only_the_allowed_alphabet() {
        assert_eq!(sanitise("rodinia/b+tree"), "rodinia_b_tree");
        assert_eq!(sanitise("Quicksilver"), "Quicksilver");
        assert_eq!(sanitise("a b\tc/d.e-f_g"), "a_b_c_d.e-f_g");
        assert!(sanitise("µ/λ+π")
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
    }
}
