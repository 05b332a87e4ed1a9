//! The degradation ladder: how much of the budget pool a request gets.
//!
//! Relative containment is Π₂ᵖ-hard (Thm 3.3), so under sustained
//! resource pressure the service stops granting each request the whole
//! pool instead of burning it on requests that keep tripping. Repeated
//! definite answers step it back up. Every tier runs the same
//! [`qc_mediator::relative::decide`] on the sequential engine, so a
//! definite answer at either tier is exact, and a checkpoint cut at one
//! tier resumes at the other.
//!
//! | tier | grant | answers |
//! |------|-------|---------|
//! | [`Tier::Full`] | the capacity model's grant | exact when it finishes, `Unknown` otherwise |
//! | [`Tier::Bounded`] | that grant ÷ `bounded_divisor`, floored at `min_budget` | exact when it finishes, `Unknown` otherwise |
//!
//! A request's explicit budget overrides the grant at both tiers.

/// A rung of the degradation ladder, cheapest last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The capacity model's whole grant.
    Full,
    /// A capped grant: the same decision with less budget.
    Bounded,
}

impl Tier {
    /// Stable lower-case name (used in responses, stats, and metrics).
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Bounded => "bounded",
        }
    }

    /// Whether this tier is below [`Tier::Full`].
    pub fn degraded(&self) -> bool {
        *self != Tier::Full
    }

    fn down(self) -> Option<Tier> {
        match self {
            Tier::Full => Some(Tier::Bounded),
            Tier::Bounded => None,
        }
    }

    fn up(self) -> Option<Tier> {
        match self {
            Tier::Full => None,
            Tier::Bounded => Some(Tier::Full),
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Steps the active [`Tier`] down after `trip_threshold` *consecutive*
/// resource trips and back up after `recover_threshold` consecutive
/// definite answers. Any step resets both streaks.
#[derive(Debug)]
pub struct DegradationController {
    tier: Tier,
    trips: u32,
    oks: u32,
    trip_threshold: u32,
    recover_threshold: u32,
}

impl DegradationController {
    /// A controller starting at [`Tier::Full`]. Thresholds are clamped to
    /// at least 1 (a threshold of 0 would step on every observation).
    pub fn new(trip_threshold: u32, recover_threshold: u32) -> DegradationController {
        DegradationController {
            tier: Tier::Full,
            trips: 0,
            oks: 0,
            trip_threshold: trip_threshold.max(1),
            recover_threshold: recover_threshold.max(1),
        }
    }

    /// The active tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Records a resource trip; returns the new tier when this one
    /// crossed the downgrade threshold.
    pub fn on_resource_trip(&mut self) -> Option<Tier> {
        self.oks = 0;
        self.trips += 1;
        if self.trips >= self.trip_threshold {
            if let Some(t) = self.tier.down() {
                self.tier = t;
                self.trips = 0;
                return Some(t);
            }
            // Already at the bottom: keep the streak saturated so state
            // stays bounded.
            self.trips = self.trip_threshold;
        }
        None
    }

    /// Records a definite (Contained / NotContained) answer; returns the
    /// new tier when this one crossed the recovery threshold.
    pub fn on_definite(&mut self) -> Option<Tier> {
        self.trips = 0;
        self.oks += 1;
        if self.oks >= self.recover_threshold {
            if let Some(t) = self.tier.up() {
                self.tier = t;
                self.oks = 0;
                return Some(t);
            }
            self.oks = self.recover_threshold;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downgrades_after_consecutive_trips_and_bottoms_out() {
        let mut c = DegradationController::new(2, 2);
        assert_eq!(c.tier(), Tier::Full);
        assert_eq!(c.on_resource_trip(), None);
        assert_eq!(c.on_resource_trip(), Some(Tier::Bounded));
        // At the bottom the ladder holds.
        for _ in 0..10 {
            assert_eq!(c.on_resource_trip(), None);
            assert_eq!(c.tier(), Tier::Bounded);
        }
    }

    #[test]
    fn definite_answers_recover_toward_full() {
        let mut c = DegradationController::new(1, 3);
        c.on_resource_trip();
        c.on_resource_trip();
        assert_eq!(c.tier(), Tier::Bounded);
        assert_eq!(c.on_definite(), None);
        assert_eq!(c.on_definite(), None);
        assert_eq!(c.on_definite(), Some(Tier::Full));
        for _ in 0..10 {
            assert_eq!(c.on_definite(), None);
            assert_eq!(c.tier(), Tier::Full);
        }
    }

    #[test]
    fn a_definite_answer_resets_the_trip_streak() {
        let mut c = DegradationController::new(2, 100);
        assert_eq!(c.on_resource_trip(), None);
        assert_eq!(c.on_definite(), None);
        // The earlier trip no longer counts toward the threshold.
        assert_eq!(c.on_resource_trip(), None);
        assert_eq!(c.tier(), Tier::Full);
        assert_eq!(c.on_resource_trip(), Some(Tier::Bounded));
    }
}
