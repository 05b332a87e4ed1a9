//! Seeded input generators and the answer keys that go with them.
//!
//! Every key here comes from the paper or from elementary reasoning about
//! the generated shape, never from the engine being timed:
//!
//! * Thm 3.3 instances: `Q2' ⊑_V Q1'` iff the formula is ∀∃-satisfiable,
//!   decided by brute force ([`Cnf3::is_forall_exists_satisfiable`]).
//! * Chain questions over chain views: every plan disjunct expands to the
//!   chain itself, and a head-preserving homomorphism between two chains is
//!   forced position by position, so `Q1 ⊑_V Q2` iff both chains have the
//!   same predicate word and the same head positions.
//! * Example 1: the relations the paper states between q1, q2 and q3.

use qc_mediator::reductions::{Cnf3, CnfVar, Lit};

/// SplitMix64: a small, fully specified generator, so a seed names the same
/// inputs on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A random 3-CNF over `num_x` existential and `num_y` universal variables,
/// three distinct variables per clause (as the reduction requires).
pub fn formula(rng: &mut Rng, num_x: usize, num_y: usize, clauses: usize) -> Cnf3 {
    let vars: Vec<CnfVar> = (0..num_x)
        .map(CnfVar::X)
        .chain((0..num_y).map(CnfVar::Y))
        .collect();
    let clauses = (0..clauses)
        .map(|_| {
            let mut pick = vars.clone();
            rng.shuffle(&mut pick);
            [0, 1, 2].map(|k| Lit {
                var: pick[k],
                positive: rng.coin(),
            })
        })
        .collect();
    Cnf3 {
        num_x,
        num_y,
        clauses,
    }
}

/// A random formula whose ∀∃-satisfiability is `sat` (rejection sampling),
/// so each question slot has a fixed expected verdict.
pub fn formula_with(rng: &mut Rng, num_x: usize, num_y: usize, clauses: usize, sat: bool) -> Cnf3 {
    loop {
        let f = formula(rng, num_x, num_y, clauses);
        if f.is_forall_exists_satisfiable() == sat {
            return f;
        }
    }
}

/// A chain question: the predicate word (one predicate per edge) and the
/// interior positions exported in the head besides both endpoints.
#[derive(Clone, PartialEq, Eq)]
pub struct Chain {
    pub word: Vec<String>,
    pub interior: Vec<usize>,
}

impl Chain {
    /// A random chain of `len` edges over `alphabet` exporting `interior`
    /// random interior positions.
    pub fn random(rng: &mut Rng, alphabet: &[String], len: usize, interior: usize) -> Chain {
        let word = (0..len)
            .map(|_| alphabet[rng.below(alphabet.len())].clone())
            .collect();
        let mut pos: Vec<usize> = (1..len).collect();
        rng.shuffle(&mut pos);
        let mut interior: Vec<usize> = pos.into_iter().take(interior).collect();
        interior.sort_unstable();
        Chain { word, interior }
    }

    /// A random chain of the same length and head arity that differs from
    /// `self` (so the pair is not contained).
    pub fn other(&self, rng: &mut Rng, alphabet: &[String]) -> Chain {
        loop {
            let c = Chain::random(rng, alphabet, self.word.len(), self.interior.len());
            if c != *self {
                return c;
            }
        }
    }

    /// The datalog rule `head(X0, [interior], Xn) :- w0(X0, X1), ...`.
    pub fn rule(&self, head: &str) -> String {
        let n = self.word.len();
        let mut heads = vec![0];
        heads.extend(&self.interior);
        heads.push(n);
        let head_args: Vec<String> = heads.iter().map(|i| format!("X{i}")).collect();
        let body: Vec<String> = self
            .word
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{p}(X{i}, X{})", i + 1))
            .collect();
        format!("{head}({}) :- {}.", head_args.join(", "), body.join(", "))
    }
}

/// Chain views `{p}_v{l}(X0, Xl) :- p(X0, X1), ..., p(Xl-1, Xl)` for every
/// base predicate `p` and every length `1..=max_len`.
pub fn chain_views(bases: &[String], max_len: usize) -> Vec<String> {
    let mut out = Vec::new();
    for p in bases {
        for l in 1..=max_len {
            out.push(chain_view(p, l, "X"));
        }
    }
    out
}

/// One chain view; `var` names its variables, so two calls with different
/// `var`s give α-renamed copies of the same view.
pub fn chain_view(p: &str, len: usize, var: &str) -> String {
    let body: Vec<String> = (0..len)
        .map(|i| format!("{p}({var}{i}, {var}{})", i + 1))
        .collect();
    format!("{p}_v{len}({var}0, {var}{len}) :- {}.", body.join(", "))
}

/// The paper's Example 1: three sources and three queries.
pub const EXAMPLE1_VIEWS: [&str; 3] = [
    "RedCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, red, Year).",
    "AntiqueCars(CarNo, Model, Year) :- CarDesc(CarNo, Model, Color, Year), Year < 1970.",
    "CarAndDriver(Model, Review) :- Review(Model, Review, 10).",
];

/// Example 1's queries, `(answer predicate, rule)`.
pub const EXAMPLE1_QUERIES: [(&str, &str); 3] = [
    (
        "q1",
        "q1(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, Rating).",
    ),
    (
        "q2",
        "q2(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10).",
    ),
    (
        "q3",
        "q3(CarNo, Review) :- CarDesc(CarNo, Model, C, Y), Review(Model, Review, 10), Y < 1970.",
    ),
];

/// Example 1's key for `qa ⊑_V qb` (indices into [`EXAMPLE1_QUERIES`]).
/// The paper: q2 ⊆ q1 and q3 ⊆ q2 classically; q1 ⊑_V q2 (the two are
/// relatively equivalent); q1 ⋢_V q3. Hence q2 ⋢_V q3 as well, since q2
/// has the same certain answers as q1.
pub fn example1_key(a: usize, b: usize) -> bool {
    !matches!((a, b), (0, 2) | (1, 2))
}
