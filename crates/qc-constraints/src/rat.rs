//! Arbitrary-precision-free rational numbers over `i64`.
//!
//! Rationals are the canonical dense linear order, which is the domain the
//! paper interprets comparison predicates over. We only ever need to compare
//! values, pick midpoints, and step above/below extremes, so a normalized
//! `i64 / i64` pair with `i128` intermediate arithmetic suffices for every
//! workload in this repository.

use std::cmp::Ordering;
use std::fmt;

/// A rational number `num / den`, kept normalized with `den > 0` and
/// `gcd(|num|, den) == 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Rat {
    num: i64,
    den: i64,
}

fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.abs().max(1)
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// Creates an integer-valued rational.
    pub fn int(n: i64) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The midpoint `(self + other) / 2` — witnesses density.
    pub fn midpoint(self, other: Rat) -> Rat {
        // (a/b + c/d) / 2 = (ad + cb) / 2bd
        let a = self.num as i128;
        let b = self.den as i128;
        let c = other.num as i128;
        let d = other.den as i128;
        let num = a * d + c * b;
        let den = 2 * b * d;
        let g = gcd128(num, den);
        Rat::new((num / g) as i64, (den / g) as i64)
    }

    /// A value strictly below `self` (`self - 1`).
    pub fn below(self) -> Rat {
        Rat::new(self.num - self.den, self.den)
    }

    /// A value strictly above `self` (`self + 1`).
    pub fn above(self) -> Rat {
        Rat::new(self.num + self.den, self.den)
    }
}

fn gcd128(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    if a == 0 {
        1
    } else {
        a.abs()
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b <=> c/d with b, d > 0 iff ad <=> cb.
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::int(-1) < Rat::ZERO);
        assert!(Rat::int(1970) < Rat::int(2000));
        assert_eq!(Rat::new(3, 3), Rat::ONE);
    }

    #[test]
    fn midpoint_is_strictly_between() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 2);
        let m = a.midpoint(b);
        assert!(a < m && m < b);
        // Midpoint of equal values is the value itself.
        assert_eq!(a.midpoint(a), a);
    }

    #[test]
    fn above_below() {
        let a = Rat::new(7, 2);
        assert!(a.below() < a);
        assert!(a < a.above());
    }

    #[test]
    fn display() {
        assert_eq!(Rat::int(10).to_string(), "10");
        assert_eq!(Rat::new(1, 2).to_string(), "1/2");
        assert_eq!(Rat::new(-1, 2).to_string(), "-1/2");
    }
}
