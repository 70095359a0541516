//! Virtual time for the discrete-event engine.
//!
//! All simulation time is kept as integer **microseconds** so that event
//! ordering is exact and runs are bit-reproducible. Floating-point seconds
//! are only used at the edges (cost models, reporting).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the virtual clock (microseconds since simulation
/// start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const MICROS_PER_SEC: u64 = 1_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    /// Time as fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid time: {secs}");
        SimTime((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Duration since an earlier instant. Panics if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }

    /// Saturating version of [`SimTime::since`].
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MICROS_PER_SEC)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs >= 0.0 && secs.is_finite(), "invalid duration: {secs}");
        SimDuration((secs * MICROS_PER_SEC as f64).round() as u64)
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale a duration by a non-negative factor.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite());
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000);
        let t2 = t + SimDuration::from_millis(250);
        assert_eq!(t2.as_secs_f64(), 1.75);
    }

    #[test]
    fn since_measures_span() {
        let a = SimTime::from_secs_f64(2.0);
        let b = SimTime::from_secs_f64(5.0);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn since_panics_on_future() {
        let a = SimTime::from_secs_f64(2.0);
        let b = SimTime::from_secs_f64(5.0);
        let _ = a.since(b);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250s");
        assert_eq!(format!("{}", SimDuration::from_millis(30)), "0.030s");
    }
}
