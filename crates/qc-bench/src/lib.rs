//! Shared workload builders for the benchmark harness.
//!
//! The `bench_snapshot` bin times and counts fixed scenarios of each
//! experiment of the evaluation suite (`DESIGN.md` §6) against the
//! committed `BENCH_PR2.json`; `EXPERIMENTS.md` quotes those numbers, each
//! with the scenario that reproduces it.

use qc_datalog::{parse_program, Program, Symbol};
use qc_mediator::schema::LavSetting;

/// The Example 1 setting: views and the three queries.
pub fn example1() -> (LavSetting, Vec<(Program, Symbol)>) {
    let views = LavSetting::parse(&[
        "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).",
        "AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.",
        "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
    ])
    .expect("views parse");
    let queries = vec![
        (
            parse_program(
                "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
            )
            .unwrap(),
            Symbol::new("q1"),
        ),
        (
            parse_program(
                "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
            )
            .unwrap(),
            Symbol::new("q2"),
        ),
        (
            parse_program(
                "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
            )
            .unwrap(),
            Symbol::new("q3"),
        ),
    ];
    (views, queries)
}

/// A chain query `q(X0, Xn) :- e(X0,X1), …` of the given length.
pub fn chain_query(len: usize) -> (Program, Symbol) {
    let mut body = Vec::new();
    for i in 0..len {
        body.push(format!("e(X{}, X{})", i, i + 1));
    }
    let src = format!("q(X0, X{len}) :- {}.", body.join(", "));
    (parse_program(&src).unwrap(), Symbol::new("q"))
}

/// Views exporting chains of each length `1..=max_len` over `e`.
pub fn chain_views(max_len: usize) -> LavSetting {
    let defs: Vec<String> = (1..=max_len)
        .map(|l| {
            let mut body = Vec::new();
            for i in 0..l {
                body.push(format!("e(Z{}, Z{})", i, i + 1));
            }
            format!("v{l}(Z0, Z{l}) :- {}.", body.join(", "))
        })
        .collect();
    let refs: Vec<&str> = defs.iter().map(String::as_str).collect();
    LavSetting::parse(&refs).expect("chain views parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_valid_workloads() {
        let (views, queries) = example1();
        assert_eq!(views.sources.len(), 3);
        assert_eq!(queries.len(), 3);
        let (q, _) = chain_query(4);
        assert_eq!(q.rules()[0].body_atoms().count(), 4);
        let v = chain_views(3);
        assert_eq!(v.sources.len(), 3);
    }
}
