//! Named epoch time-series.
//!
//! The simulator samples a handful of gauges (cache occupancy, queue
//! depths, health EWMAs, admission credits) on a fixed sim-time epoch.
//! Each gauge is one [`Series`]; samples append to a plain vector, so
//! recording is a push and nothing else.

use rt_sim::SimTime;

/// One named gauge sampled over simulated time.
#[derive(Clone, Debug)]
pub struct Series {
    /// Stable series name (becomes the Perfetto counter-track name).
    pub name: String,
    /// `(sample instant, value)` pairs in recording order.
    pub points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a sample; a sample at the same instant as the last one
    /// replaces it (a gauge has one value per instant).
    #[inline]
    pub fn record(&mut self, at: SimTime, value: f64) {
        match self.points.last_mut() {
            Some(last) if last.0 == at => last.1 = value,
            _ => self.points.push((at, value)),
        }
    }

    /// Largest sampled value, or 0.0 for an empty series.
    pub fn max(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }

    /// Value of the last sample, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|p| p.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut s = Series::new("queue-depth");
        assert_eq!(s.last(), None);
        assert_eq!(s.max(), 0.0);
        s.record(SimTime::from_nanos(10), 2.0);
        s.record(SimTime::from_nanos(20), 5.0);
        s.record(SimTime::from_nanos(30), 1.0);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.last(), Some(1.0));
        s.record(SimTime::from_nanos(30), 0.0);
        assert_eq!(s.points.len(), 3, "same-instant sample replaces");
        assert_eq!(s.last(), Some(0.0));
    }
}
