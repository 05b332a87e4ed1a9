//! Properties of the log2 latency histograms: deterministic bucket
//! geometry, merge algebra, quantile monotonicity, snapshot round-trips,
//! and the zero-overhead-when-idle guarantee for `record_hist`.

use proptest::prelude::*;
use qc_obs::{Hist, Histogram, HistogramSnapshot, Histograms};

#[test]
fn bucket_boundaries_are_the_bit_lengths() {
    // Bucket index = bit length: 0 sits alone, then [2^(i-1), 2^i - 1].
    assert_eq!(Histogram::bucket_index(0), 0);
    assert_eq!(Histogram::bucket_index(1), 1);
    assert_eq!(Histogram::bucket_index(2), 2);
    assert_eq!(Histogram::bucket_index(3), 2);
    assert_eq!(Histogram::bucket_index(4), 3);
    assert_eq!(Histogram::bucket_index(7), 3);
    assert_eq!(Histogram::bucket_index(8), 4);
    assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    assert_eq!(Histogram::bucket_upper(0), 0);
    assert_eq!(Histogram::bucket_upper(1), 1);
    assert_eq!(Histogram::bucket_upper(2), 3);
    assert_eq!(Histogram::bucket_upper(10), 1023);
    assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    // Every value lands in the bucket whose bounds contain it.
    for v in [
        0u64,
        1,
        2,
        3,
        4,
        63,
        64,
        65,
        1 << 20,
        u64::MAX - 1,
        u64::MAX,
    ] {
        let i = Histogram::bucket_index(v);
        assert!(v <= Histogram::bucket_upper(i), "{v} above bucket {i}");
        if i > 0 {
            assert!(v > Histogram::bucket_upper(i - 1), "{v} below bucket {i}");
        }
    }
}

#[test]
fn empty_histogram_is_all_zeros() {
    let h = Histogram::new();
    assert!(h.is_empty());
    assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
    assert_eq!(h.quantile(0.5), 0);
    let s = h.snapshot();
    assert_eq!(s.count, 0);
    assert!(s.buckets.is_empty(), "trailing zeros trimmed to nothing");
}

#[test]
fn single_sample_quantiles_hit_its_bucket() {
    let h = Histogram::new();
    h.record(100);
    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(h.quantile(q), Histogram::bucket_upper(7), "q={q}");
    }
    assert_eq!((h.min(), h.max(), h.sum()), (100, 100, 100));
}

fn of_samples(samples: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn merge_is_commutative_and_associative(
        a in proptest::collection::vec(0u64..1 << 40, 0..32),
        b in proptest::collection::vec(0u64..1 << 40, 0..32),
        c in proptest::collection::vec(0u64..1 << 40, 0..32),
    ) {
        let (ha, hb, hc) = (of_samples(&a), of_samples(&b), of_samples(&c));

        // a ∪ b == b ∪ a
        let ab = Histogram::new();
        ab.merge_from(&ha);
        ab.merge_from(&hb);
        let ba = Histogram::new();
        ba.merge_from(&hb);
        ba.merge_from(&ha);
        prop_assert_eq!(ab.snapshot(), ba.snapshot());

        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let ab_c = Histogram::new();
        ab_c.merge_from(&ab);
        ab_c.merge_from(&hc);
        let bc = Histogram::new();
        bc.merge_from(&hb);
        bc.merge_from(&hc);
        let a_bc = Histogram::new();
        a_bc.merge_from(&ha);
        a_bc.merge_from(&bc);
        prop_assert_eq!(ab_c.snapshot(), a_bc.snapshot());

        // And both equal recording everything into one histogram.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(ab_c.snapshot(), of_samples(&all).snapshot());
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(
        samples in proptest::collection::vec(0u64..1 << 48, 1..64),
    ) {
        let h = of_samples(&samples);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        let values: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in values.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles regressed: {values:?}");
        }
        // Every quantile is within the histogram's occupied bucket range:
        // at least the min's bucket lower bound, at most the max's upper.
        let lo = Histogram::bucket_upper(Histogram::bucket_index(h.min()));
        let hi = Histogram::bucket_upper(Histogram::bucket_index(h.max()));
        for (&q, &v) in qs.iter().zip(&values) {
            prop_assert!(v <= hi, "q={q}: {v} above max bucket {hi}");
            prop_assert!(v >= h.min().min(lo), "q={q}: {v} below min bucket");
        }
        // p100 is exactly the max's bucket upper bound.
        prop_assert_eq!(h.quantile(1.0), hi);
    }

    #[test]
    fn snapshot_round_trips_through_json(
        samples in proptest::collection::vec(0u64..1 << 52, 0..48),
    ) {
        let snap = of_samples(&samples).snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &snap);
        // And rebuilding a live histogram from the snapshot preserves all
        // derived statistics.
        let rebuilt = Histogram::from_snapshot(&back);
        prop_assert_eq!(rebuilt.snapshot(), snap);
    }
}

#[test]
fn registry_merges_slot_wise() {
    let a = Histograms::new();
    let b = Histograms::new();
    a.record(Hist::EvalNs, 10);
    b.record(Hist::EvalNs, 20);
    b.record(Hist::HomSearchNs, 5);
    a.merge_from(&b);
    assert_eq!(a.get(Hist::EvalNs).count(), 2);
    assert_eq!(a.get(Hist::EvalNs).sum(), 30);
    assert_eq!(a.get(Hist::HomSearchNs).count(), 1);
    assert_eq!(a.get(Hist::FixpointNs).count(), 0);
}

#[test]
fn registry_json_carries_the_full_schema() {
    let bank = Histograms::new();
    bank.record(Hist::ServeE2eNs, 1_000);
    let v = bank.to_json();
    // Every histogram is present by name, populated or not.
    for h in Hist::ALL {
        let snap = v.get_field(h.name());
        assert!(
            !matches!(snap, serde::Value::Null),
            "{} missing from to_json",
            h.name()
        );
        for q in ["p50", "p90", "p99", "p999"] {
            assert!(
                matches!(
                    snap.get_field(q),
                    serde::Value::UInt(_) | serde::Value::Int(_)
                ),
                "{}.{q} missing",
                h.name()
            );
        }
    }
}

/// `record_hist` with no recorder installed must be nothing but a
/// thread-local load and a branch — same budget as the counter path's
/// `uninstalled_instrumentation_is_cheap`.
#[test]
fn uninstalled_record_hist_is_cheap() {
    let t0 = std::time::Instant::now();
    for i in 0..10_000_000u64 {
        qc_obs::record_hist(Hist::EvalNs, i);
    }
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(2),
        "10M no-op hist records took {:?}",
        t0.elapsed()
    );
}
