//! Simulated time.
//!
//! [`SimTime`] is an absolute instant, [`SimDuration`] a span; both are
//! nanosecond-resolution `u64`s. One simulated year fits comfortably, which
//! is far beyond any experiment in this repository (seconds-scale runs).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute simulated instant, in nanoseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the start of the run.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only; never for simulation logic).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The span from `earlier` to `self`. Panics (in debug) on negative spans.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self.0 >= earlier.0, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds; negative values clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Milliseconds as a float (reporting only).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float (reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = u64;
    #[inline]
    fn div(self, rhs: SimDuration) -> u64 {
        self.0 / rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Human-scale rendering of a nanosecond count ("1.500ms", "2.000s", "750ns").
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn negative_float_durations_clamp() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        assert_eq!(t.as_nanos(), 10_000);
        let u = t + SimDuration::from_nanos(5);
        assert_eq!((u - t).as_nanos(), 5);
        assert_eq!(u.since(t).as_nanos(), 5);
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(4);
        assert_eq!((d * 3).as_nanos(), 12_000);
        assert_eq!((d / 2).as_nanos(), 2_000);
        assert_eq!(d / SimDuration::from_micros(1), 4);
    }

    #[test]
    fn saturating_and_checked_sub() {
        let a = SimDuration::from_nanos(5);
        let b = SimDuration::from_nanos(7);
        assert_eq!(a.saturating_sub(b), SimDuration::ZERO);
        assert_eq!(b.saturating_sub(a).as_nanos(), 2);
    }

    #[test]
    fn display_is_human_scale() {
        assert_eq!(format!("{}", SimDuration::from_nanos(750)), "750ns");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_nanos(1_500)), "t+1.500us");
    }

    #[test]
    fn float_accessors() {
        let d = SimDuration::from_millis(2);
        assert!((d.as_millis_f64() - 2.0).abs() < 1e-12);
        assert!((d.as_micros_f64() - 2000.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.002).abs() < 1e-12);
    }
}
