//! # rt-sim — deterministic discrete-event simulation engine
//!
//! The substrate every other crate in this workspace builds on. The
//! reproduction of Kotz & Ellis (1989) replaces the BBN Butterfly Plus with
//! a discrete-event simulation; this crate provides the engine: a virtual
//! clock ([`SimTime`]), a deterministic pending-event set, an event loop
//! ([`run`]), an analytic FIFO lock ([`SimLock`]), reproducible random
//! streams ([`Rng`]), and run statistics ([`Tally`], [`Sampled`],
//! [`Ratio`]).
//!
//! Determinism guarantees: with the same model and seeds, every run produces
//! the identical event sequence — events at equal times fire in schedule
//! order, and all randomness flows from explicitly seeded [`Rng`] streams.
//!
//! ```
//! use rt_sim::{run, Model, Scheduler, SimDuration, SimTime};
//!
//! struct Pinger { count: u32 }
//! impl Model for Pinger {
//!     type Event = ();
//!     fn handle(&mut self, _e: (), sched: &mut Scheduler<()>) {
//!         self.count += 1;
//!         if self.count < 3 {
//!             sched.schedule_in(SimDuration::from_millis(10), ());
//!         }
//!     }
//! }
//!
//! let mut model = Pinger { count: 0 };
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::ZERO, ());
//! let outcome = run(&mut model, &mut sched, u64::MAX);
//! assert_eq!(model.count, 3);
//! assert_eq!(outcome.end_time, SimTime::ZERO + SimDuration::from_millis(20));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{
    run, run_observed, run_until, run_with_stats, EngineStats, Model, ObservedEnd, RunOutcome,
    Scheduler,
};
pub use event::{EventId, EventQueue};
pub use resource::SimLock;
pub use rng::Rng;
pub use stats::{Ratio, Sampled, Tally};
pub use time::{SimDuration, SimTime};
