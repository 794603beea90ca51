//! Property tests for the latency-histogram math in `metrics`: merging
//! two snapshots must behave like pooling their samples — counts and sums
//! add, min/max combine, and every percentile of the merge is bracketed by
//! the element-wise min/max of the parts' percentiles (the merged CDF is a
//! count-weighted mixture of the parts' CDFs, so its inverse cannot escape
//! the envelope of the two inverses).
//!
//! One refinement: `percentile` clamps its interpolation to each
//! snapshot's observed `[min, max]` (a percentile of real samples can
//! never escape them — see the hardening notes on
//! `HistogramSnapshot::percentile`). The clamp bound is data-dependent,
//! so when it engages for one of the three snapshots at some `p` the
//! pure-mixture envelope no longer applies at that point; the tests below
//! fall back to the clamp's own guarantee — the merged percentile stays
//! inside the merged observed range — and assert the strict envelope
//! whenever no clamp was active.

use dcfa_mpi::HistogramSnapshot;
use proptest::prelude::*;

/// Latencies spanning several log2 buckets, biased toward the small end
/// the way real phase durations are.
fn sample_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..64, 64u64..4096, 4096u64..1_048_576,]
}

fn samples_strategy() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(sample_strategy(), 1..200)
}

const EPS: f64 = 1e-6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_percentiles_bracketed_by_parts(
        a in samples_strategy(),
        b in samples_strategy(),
    ) {
        let sa = HistogramSnapshot::from_samples(&a);
        let sb = HistogramSnapshot::from_samples(&b);
        let merged = sa.merge(&sb);

        prop_assert_eq!(merged.count, sa.count + sb.count);
        prop_assert_eq!(merged.sum, sa.sum + sb.sum);
        prop_assert_eq!(merged.min, sa.min.min(sb.min));
        prop_assert_eq!(merged.max, sa.max.max(sb.max));

        let clamped = |s: &HistogramSnapshot, v: f64| {
            (v - s.min as f64).abs() < EPS || (v - s.max as f64).abs() < EPS
        };
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let pa = sa.percentile(p);
            let pb = sb.percentile(p);
            let pm = merged.percentile(p);
            // The clamp's guarantee holds unconditionally: the merged
            // percentile never escapes the merged observed range.
            prop_assert!(
                pm >= merged.min as f64 - EPS && pm <= merged.max as f64 + EPS,
                "p{:.0}: merged {} outside observed [{}, {}]",
                p, pm, merged.min, merged.max
            );
            // The mixture envelope holds whenever no snapshot's clamp was
            // active at this p (a value sitting exactly on its snapshot's
            // min/max may have been clamped there, shrinking the parts'
            // envelope below what the raw mixture argument covers).
            if clamped(&sa, pa) || clamped(&sb, pb) || clamped(&merged, pm) {
                continue;
            }
            let lo = pa.min(pb);
            let hi = pa.max(pb);
            prop_assert!(
                pm >= lo - EPS && pm <= hi + EPS,
                "p{:.0}: merged {} outside [{}, {}]",
                p, pm, lo, hi
            );
        }
    }

    #[test]
    fn merge_is_commutative(
        a in samples_strategy(),
        b in samples_strategy(),
    ) {
        let sa = HistogramSnapshot::from_samples(&a);
        let sb = HistogramSnapshot::from_samples(&b);
        prop_assert_eq!(sa.merge(&sb), sb.merge(&sa));
    }

    #[test]
    fn merge_with_empty_is_identity(a in samples_strategy()) {
        let sa = HistogramSnapshot::from_samples(&a);
        let empty = HistogramSnapshot::from_samples(&[]);
        prop_assert_eq!(sa.merge(&empty), sa);
    }

    #[test]
    fn percentiles_are_monotone_in_p(a in samples_strategy()) {
        let s = HistogramSnapshot::from_samples(&a);
        let qs: Vec<f64> = (0..=20).map(|i| s.percentile(i as f64 * 5.0)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[1] >= w[0] - EPS, "percentile not monotone: {:?}", w);
        }
    }
}
