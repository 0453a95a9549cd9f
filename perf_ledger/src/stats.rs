//! The estimators. Every time a workload records has already been
//! divided by the host's slowdown around it
//! ([`crate::host::calibrated`]); each end-to-end figure is then a
//! median over the run's blocks (or rounds), so a disturbance the probe
//! missed — which hits a whole block — cannot move it.

/// One timed block: `k` operations back to back. Times are at the
/// host's reference speed.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Wall time of the block's timed windows, seconds.
    pub wall_s: f64,
    /// Process CPU time spent inside the block, milliseconds.
    pub cpu_ms: f64,
    /// Mean reading of the calibration probe around the block's
    /// operations, milliseconds as the clock read them.
    pub calib_ms: f64,
    /// Latency of each operation, milliseconds.
    pub op_ms: Vec<f64>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Nearest-rank percentile of unsorted `values`: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty series");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty series");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// `ops_per_s`: median over blocks of operations / block wall time.
pub fn block_median_throughput(blocks: &[Block]) -> f64 {
    median(
        &blocks
            .iter()
            .map(|b| b.op_ms.len() as f64 / b.wall_s)
            .collect::<Vec<_>>(),
    )
}

/// `op_p50_ms`: median of every operation time of the run.
pub fn pooled_median_ms(blocks: &[Block]) -> f64 {
    median(
        &blocks
            .iter()
            .flat_map(|b| b.op_ms.iter().copied())
            .collect::<Vec<_>>(),
    )
}

/// `op_p90_ms`: median over blocks of each block's nearest-rank p90,
/// so a tenth of *every* block must be slow to move it.
pub fn block_median_p90_ms(blocks: &[Block]) -> f64 {
    median(
        &blocks
            .iter()
            .map(|b| percentile(&b.op_ms, 90.0))
            .collect::<Vec<_>>(),
    )
}

/// `cpu_ms_per_op`: CPU time of all timed blocks over their
/// operations: the cost of the whole run, so pooled, not a block median.
pub fn pooled_cpu_ms_per_op(blocks: &[Block]) -> f64 {
    let ops: usize = blocks.iter().map(|b| b.op_ms.len()).sum();
    blocks.iter().map(|b| b.cpu_ms).sum::<f64>() / ops as f64
}

/// Coefficient of variation of the block throughputs.
pub fn block_cv(blocks: &[Block]) -> f64 {
    let t: Vec<f64> = blocks
        .iter()
        .map(|b| b.op_ms.len() as f64 / b.wall_s)
        .collect();
    let mean = t.iter().sum::<f64>() / t.len() as f64;
    let var = t.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / t.len() as f64;
    var.sqrt() / mean
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's rule
/// for the run-to-run spread). Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(op_ms: &[f64]) -> Block {
        Block {
            wall_s: op_ms.iter().sum::<f64>() / 1e3,
            cpu_ms: op_ms.iter().sum(),
            calib_ms: 1.0,
            op_ms: op_ms.to_vec(),
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Four samples: p90 is the maximum, p50 the second.
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 90.0), 4.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_series() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    /// Nine blocks of ten operations, each with one slow tail sample.
    fn steady_run() -> Vec<Block> {
        (0..9)
            .map(|_| {
                let mut ops = vec![10.0; 8];
                ops.push(12.0);
                ops.push(30.0);
                block(&ops)
            })
            .collect()
    }

    #[test]
    fn block_estimators_on_a_steady_series() {
        let run = steady_run();
        assert!((block_median_throughput(&run) - 10.0 / 0.122).abs() < 1e-9);
        assert_eq!(pooled_median_ms(&run), 10.0);
        assert_eq!(block_median_p90_ms(&run), 12.0);
        assert!((pooled_cpu_ms_per_op(&run) - 12.2).abs() < 1e-12);
        assert!(block_cv(&run) < 1e-12);
    }

    #[test]
    fn one_block_three_times_slow_moves_no_block_median() {
        let steady = steady_run();
        let mut disturbed = steady.clone();
        let slow: Vec<f64> = disturbed[4].op_ms.iter().map(|t| t * 3.0).collect();
        disturbed[4] = block(&slow);
        assert_eq!(
            block_median_throughput(&disturbed),
            block_median_throughput(&steady)
        );
        assert_eq!(pooled_median_ms(&disturbed), pooled_median_ms(&steady));
        assert_eq!(
            block_median_p90_ms(&disturbed),
            block_median_p90_ms(&steady)
        );
        // The spread metric is the one that is meant to see it; pooled
        // CPU time sees the extra CPU the slow block really burnt.
        assert!(block_cv(&disturbed) > 0.1);
        assert!(pooled_cpu_ms_per_op(&disturbed) > pooled_cpu_ms_per_op(&steady));
    }
}
