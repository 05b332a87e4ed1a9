//! Differential tests for the rewriting pipelines across engine
//! configurations: MiniCon and the Theorem 3.1 enumeration must produce
//! *identical* plans (not merely equivalent ones — candidate order is
//! preserved through the batched parallel checks) under the naïve
//! reference engine, the optimized sequential engine, and the parallel
//! fan-out.

use proptest::prelude::*;
use qc_containment::{engine, EngineOptions};
use qc_mediator::enumerate::{enumerated_plan, EnumerationLimits};
use qc_mediator::minicon::minicon_rewritings;
use qc_mediator::workloads::{random_query, random_views, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::canon;

fn configs() -> [(&'static str, EngineOptions); 2] {
    [
        ("sequential", EngineOptions::sequential()),
        ("parallel4", EngineOptions::sequential().with_parallelism(4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn minicon_plan_is_identical_across_engines(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = if rng.gen_bool(0.5) { Shape::Chain } else { Shape::Star };
        let q = random_query(shape, rng.gen_range(1..=3), 2, &mut rng);
        let views = random_views(rng.gen_range(1..=3), 2, &mut rng);
        let oracle = engine::with_options(EngineOptions::naive(), || {
            minicon_rewritings(&q, &views)
        });
        for (name, opts) in configs() {
            let got = engine::with_options(opts, || minicon_rewritings(&q, &views));
            prop_assert_eq!(
                canon(&oracle),
                canon(&got),
                "{}: query: {}\noracle: {}\ngot: {}",
                name, q, &oracle, &got
            );
        }
    }

    #[test]
    fn enumerated_plan_is_identical_across_engines(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Keep the instance tiny: the enumeration is exponential.
        let q = random_query(Shape::Chain, rng.gen_range(1..=2), 2, &mut rng);
        let views = random_views(rng.gen_range(1..=2), 2, &mut rng);
        let limits = EnumerationLimits {
            max_candidates: 200_000,
            ..EnumerationLimits::default()
        };
        let oracle = engine::with_options(EngineOptions::naive(), || {
            enumerated_plan(&q, &views, &limits)
        });
        for (name, opts) in configs() {
            let got = engine::with_options(opts, || enumerated_plan(&q, &views, &limits));
            match (&oracle, &got) {
                (Some(a), Some(b)) => prop_assert_eq!(
                    canon(a),
                    canon(b),
                    "{}: query: {}\noracle: {}\ngot: {}",
                    name, q, a, b
                ),
                (None, None) => {}
                _ => prop_assert!(
                    false,
                    "{}: budget verdicts differ for query {}",
                    name, q
                ),
            }
        }
    }
}
