//! Helpers shared by the qc-mediator integration tests.

/// Canonicalizes each disjunct (in order). Fresh variables minted during
/// rewriting carry globally unique gensym names, so two runs produce
/// α-equivalent but not textually identical plans; canonicalization
/// erases exactly that difference while preserving disjunct order and
/// structure.
pub fn canon(u: &qc_datalog::Ucq) -> Vec<qc_datalog::Rule> {
    u.disjuncts
        .iter()
        .map(|d| d.to_rule().canonicalize())
        .collect()
}
