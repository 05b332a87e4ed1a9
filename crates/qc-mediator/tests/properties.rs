//! Property tests for the data-integration layer: certain-answer laws,
//! binding-pattern invariants, and reduction correctness.

use proptest::prelude::*;
use qc_datalog::eval::EvalOptions;
use qc_datalog::{Database, Symbol, Term};
use qc_mediator::binding::reachable_certain_answers;
use qc_mediator::certain::certain_answers;
use qc_mediator::reductions::{random_cnf3, thm33_reduction};
use qc_mediator::relative::relatively_contained;
use qc_mediator::schema::LavSetting;
use qc_mediator::workloads::{query_program, random_instance, random_query, random_views, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod common;
use common::canon;

fn s(n: &str) -> Symbol {
    Symbol::new(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn certain_answers_monotone_in_instance(seed in any::<u64>()) {
        // More source tuples can only add certain answers (open world).
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(Shape::Chain, 1 + (seed as usize) % 2, 2, &mut rng);
        let views = random_views(3, 2, &mut rng);
        let p = query_program(&q);
        let small = random_instance(&views, 2, 3, &mut rng);
        let mut big = small.clone();
        big.merge(&random_instance(&views, 2, 3, &mut rng));
        let opts = EvalOptions::default();
        let a_small = certain_answers(&p, &s("q"), &views, &small, &opts).unwrap();
        let a_big = certain_answers(&p, &s("q"), &views, &big, &opts).unwrap();
        for t in a_small.tuples() {
            prop_assert!(a_big.contains(&t), "lost {t:?} when the instance grew");
        }
    }

    #[test]
    fn certain_answers_shrink_when_sources_disappear(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_query(Shape::Chain, 1 + (seed as usize) % 2, 2, &mut rng);
        let views = random_views(3, 2, &mut rng);
        let fewer = LavSetting { sources: views.sources[..2].to_vec() };
        let p = query_program(&q);
        let inst = random_instance(&views, 3, 3, &mut rng);
        let opts = EvalOptions::default();
        let all = certain_answers(&p, &s("q"), &views, &inst, &opts).unwrap();
        let some = certain_answers(&p, &s("q"), &fewer, &inst, &opts).unwrap();
        for t in some.tuples() {
            prop_assert!(all.contains(&t), "answer {t:?} appeared from nowhere");
        }
    }

    #[test]
    fn reachable_is_a_subset_of_certain(seed in any::<u64>()) {
        // Access restrictions can only lose answers (Def 4.3 refines 2.1).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut views = LavSetting::parse(&[
            "V0(A, B) :- p0(A, B).",
            "V1(A, B) :- p1(A, B).",
        ]).unwrap();
        let q = random_query(Shape::Chain, 1 + (seed as usize) % 2, 2, &mut rng);
        // Give the query a constant seed so dom is nonempty: replace the
        // head-start variable... simpler: pose the query as-is; dom may be
        // empty, which only strengthens the subset claim.
        let p = query_program(&q);
        let mut db = Database::new();
        for v in ["V0", "V1"] {
            for _ in 0..4 {
                db.insert(v, vec![
                    Term::sym(format!("c{}", rng.gen_range(0..3))),
                    Term::sym(format!("c{}", rng.gen_range(0..3))),
                ]);
            }
        }
        let opts = EvalOptions::default();
        let unrestricted = certain_answers(&p, &s("q"), &views, &db, &opts).unwrap();
        views.sources[0] = views.sources[0].clone().with_adornment("bf");
        views.sources[1] = views.sources[1].clone().with_adornment("bf");
        let restricted = reachable_certain_answers(&p, &s("q"), &views, &db, &opts).unwrap();
        for t in restricted.tuples() {
            prop_assert!(
                unrestricted.contains(&t),
                "reachable answer {t:?} is not certain\nq: {}", q
            );
        }
    }

    #[test]
    fn extra_adornments_only_add_reachable_answers(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut one = LavSetting::parse(&["V(A, B) :- p0(A, B)."]).unwrap();
        one.sources[0] = one.sources[0].clone().with_adornment("bf");
        let mut two = LavSetting::parse(&["V(A, B) :- p0(A, B)."]).unwrap();
        two.sources[0] = two.sources[0].clone().with_adornment("bf").with_adornment("fb");
        // A query seeded with a constant.
        let p = qc_datalog::parse_program("q(Y) :- p0(c0, X), p0(X, Y).").unwrap();
        let mut db = Database::new();
        for _ in 0..6 {
            db.insert("V", vec![
                Term::sym(format!("c{}", rng.gen_range(0..3))),
                Term::sym(format!("c{}", rng.gen_range(0..3))),
            ]);
        }
        let opts = EvalOptions::default();
        let fewer = reachable_certain_answers(&p, &s("q"), &one, &db, &opts).unwrap();
        let more = reachable_certain_answers(&p, &s("q"), &two, &db, &opts).unwrap();
        for t in fewer.tuples() {
            prop_assert!(more.contains(&t), "second access path lost {t:?}");
        }
    }

    #[test]
    fn bp_decision_sound_on_instances(seed in any::<u64>()) {
        // If Thm 4.2 decides Q1 ⊑_V,B Q2, then on sampled instances the
        // reachable certain answers must be contained.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut views = LavSetting::parse(&[
            "Va(A, B) :- p0(A, B).",
            "Vb(A, B) :- p1(A, B).",
        ]).unwrap();
        if rng.gen_bool(0.5) {
            views.sources[0] = views.sources[0].clone().with_adornment("bf");
        }
        if rng.gen_bool(0.5) {
            views.sources[1] = views.sources[1].clone().with_adornment("bf");
        }
        // Queries seeded with the shared constant c0 so dom is nonempty.
        let bodies = [
            "p0(c0, X)",
            "p0(c0, X), p1(X, Y)",
            "p0(c0, X), p0(X, Y)",
            "p1(c0, X)",
        ];
        let b1 = bodies[rng.gen_range(0..bodies.len())];
        let b2 = bodies[rng.gen_range(0..bodies.len())];
        let q1 = qc_datalog::parse_program(&format!("q(X) :- {b1}.")).unwrap();
        let q2 = qc_datalog::parse_program(&format!("q(X) :- {b2}.")).unwrap();
        let question = qc_mediator::relative::Question {
            binding_patterns: true,
            ..qc_mediator::relative::Question::new(&q1, &s("q"), &q2, &s("q"))
        };
        let decided = match qc_mediator::relative::decide(
            &question,
            qc_mediator::relative::Sources::Views(&views),
        )
        .and_then(|d| d.holds())
        {
            Ok(d) => d,
            Err(_) => return Ok(()), // e.g. constants precondition
        };
        if decided {
            for _ in 0..3 {
                let mut db = Database::new();
                for v in ["Va", "Vb"] {
                    for _ in 0..rng.gen_range(0..5) {
                        db.insert(v, vec![
                            Term::sym(format!("c{}", rng.gen_range(0..3))),
                            Term::sym(format!("c{}", rng.gen_range(0..3))),
                        ]);
                    }
                }
                let opts = EvalOptions::default();
                let a1 = reachable_certain_answers(&q1, &s("q"), &views, &db, &opts).unwrap();
                let a2 = reachable_certain_answers(&q2, &s("q"), &views, &db, &opts).unwrap();
                for t in a1.tuples() {
                    prop_assert!(
                        a2.contains(&t),
                        "BP-decided contained but {t:?} escapes\nq1: {}\nq2: {}\nadorned: {:?}",
                        q1, q2,
                        views.sources.iter().map(|v| v.adornments.len()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }

    #[test]
    fn thm33_reduction_matches_brute_force(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = random_cnf3(2, 1 + (seed as usize) % 2, 1 + (seed as usize) % 3, &mut rng);
        let inst = thm33_reduction(&f);
        let got = relatively_contained(
            &inst.contained,
            &inst.contained_ans,
            &inst.container,
            &inst.container_ans,
            &inst.views,
        ).unwrap();
        prop_assert_eq!(got, f.is_forall_exists_satisfiable(), "{:?}", f);
    }
}

// ---------------------------------------------------------------------------
// Catalog delta maintenance (live churn)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delta-maintained compiled artifacts (inverse-rule blocks and
    /// MiniCon view preparations) must be bit-for-bit what a from-scratch
    /// compile of the final setting produces, for any delta sequence —
    /// and the rewritings built from them must agree with the stock
    /// MiniCon path.
    #[test]
    fn catalog_delta_maintenance_matches_from_scratch(seed in any::<u64>()) {
        use qc_mediator::catalog::{CatalogDelta, CatalogOp, CompiledCatalog};
        use qc_mediator::minicon::{minicon_rewritings, minicon_rewritings_catalog};
        use qc_mediator::schema::SourceDescription;

        let mut rng = StdRng::seed_from_u64(seed);
        let views = random_views(3, 2, &mut rng);
        let mut cat = CompiledCatalog::compile(&views);
        let mut fresh = 0usize;
        for step in 1..=(1 + (seed as usize) % 5) {
            let names: Vec<String> = cat
                .views()
                .sources
                .iter()
                .map(|s| s.name.to_string())
                .collect();
            let op = match rng.gen_range(0..3u8) {
                0 => {
                    fresh += 1;
                    let p = rng.gen_range(0..2u8);
                    CatalogOp::Add(
                        SourceDescription::parse(&format!(
                            "w{fresh}(A, C) :- p{p}(A, B), p{}(B, C).",
                            rng.gen_range(0..2u8)
                        ))
                        .unwrap(),
                    )
                }
                1 if !names.is_empty() => {
                    CatalogOp::Remove(names[rng.gen_range(0..names.len())].clone())
                }
                _ if !names.is_empty() => {
                    let name = &names[rng.gen_range(0..names.len())];
                    CatalogOp::Replace(
                        SourceDescription::parse(&format!(
                            "{name}(A, B) :- p{}(A, B).",
                            rng.gen_range(0..2u8)
                        ))
                        .unwrap(),
                    )
                }
                _ => {
                    fresh += 1;
                    CatalogOp::Add(
                        SourceDescription::parse(&format!("w{fresh}(A, B) :- p0(A, B)."))
                            .unwrap(),
                    )
                }
            };
            cat.apply(&CatalogDelta::one(op), step as u64).unwrap();
        }

        // Oracle: recompile the final setting from scratch; versions are
        // maintenance metadata, so align them before comparing.
        let mut oracle = CompiledCatalog::compile(cat.views());
        let names: Vec<String> = cat
            .entries()
            .iter()
            .map(|e| e.source.name.to_string())
            .collect();
        let versions: Vec<u64> = cat.entries().iter().map(|e| e.version).collect();
        oracle.restore_versions(&names, &versions);
        prop_assert_eq!(
            format!("{:?}", cat),
            format!("{:?}", oracle),
            "delta-maintained catalog diverged from from-scratch compile"
        );

        // And the compiled rewritings agree with the stock path.
        let q = random_query(Shape::Chain, 1 + (seed as usize) % 2, 2, &mut rng);
        let from_cat = minicon_rewritings_catalog(&q, &cat);
        let from_oracle = minicon_rewritings_catalog(&q, &oracle);
        prop_assert_eq!(
            format!("{from_cat}"),
            format!("{from_oracle}"),
            "rewritings over maintained vs rebuilt catalog differ"
        );
        let stock = minicon_rewritings(&q, cat.views());
        prop_assert!(
            qc_containment::cq::ucq_equivalent(&from_cat, &stock),
            "catalog rewritings {} not equivalent to stock {}",
            from_cat,
            stock
        );
    }
}

// ---------------------------------------------------------------------------
// Plan scoping (serve-side plans draw only on the views Q1 can reach)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Appending views over fresh predicates leaves a catalog plan's
    /// disjuncts, and their order, unchanged — even when the new views
    /// have existential variables, whose Skolem terms would send
    /// function-term elimination over the whole catalog down its
    /// canonicalizing (reordering) path. The plan stays equivalent to the
    /// plan over the full setting, the full-catalog oracle.
    #[test]
    fn catalog_plan_ignores_views_over_other_predicates(seed in any::<u64>()) {
        use qc_containment::cq::ucq_equivalent;
        use qc_mediator::catalog::CompiledCatalog;
        use qc_mediator::relative::{max_contained_ucq_plan, max_contained_ucq_plan_catalog};
        use qc_mediator::schema::SourceDescription;
        use rand::seq::SliceRandom;

        let mut rng = StdRng::seed_from_u64(seed);
        let q = query_program(&random_query(Shape::Chain, rng.gen_range(1..=3), 2, &mut rng));
        let mut views = random_views(rng.gen_range(1..=3), 2, &mut rng);
        // The generator names views in sorted order; shuffle so catalog
        // order can differ from the canonicalizing path's sorted order.
        views.sources.shuffle(&mut rng);
        let base = max_contained_ucq_plan_catalog(&q, &s("q"), &CompiledCatalog::compile(&views))
            .unwrap();
        let mut more = views.clone();
        for k in 0..rng.gen_range(1..=3) {
            let text = if rng.gen_bool(0.5) {
                format!("u{k}(A) :- r{k}(A, B).")
            } else {
                format!("u{k}(A, B) :- r{k}(A, B), r{}(B, A).", k + 1)
            };
            more.sources.push(SourceDescription::parse(&text).unwrap());
        }
        let grown = max_contained_ucq_plan_catalog(&q, &s("q"), &CompiledCatalog::compile(&more))
            .unwrap();
        prop_assert_eq!(
            canon(&base),
            canon(&grown),
            "views: {:?}\nquery: {}",
            views.sources.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            q
        );
        let oracle = max_contained_ucq_plan(&q, &s("q"), &more).unwrap();
        prop_assert!(
            ucq_equivalent(&grown, &oracle),
            "catalog plan {} not equivalent to full-setting plan {}",
            grown,
            oracle
        );
    }
}
