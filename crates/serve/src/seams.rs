//! The daemon's one test seam: the clock its timers read, a peer-fault
//! closure and a hook before each job. A release daemon runs
//! [`Seams::default`] — the system clock and no hooks — and no flag,
//! config field or wire op reaches any of it; tests hand their own to
//! [`serve_on_with`](crate::serve_on_with).

use crate::peer::{FaultAction, PeerOp};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Consulted by every peer call before any I/O: `Some(action)` fails
/// the call as scripted. A closure that wants a slow peer sleeps
/// before answering `None`.
pub type PeerFault = Arc<dyn Fn(&str, PeerOp) -> Option<FaultAction> + Send + Sync>;

/// What the heartbeat due-time, the peer breaker's cooldown and the
/// idle sweep read as "now". Real-time waits (the reactor and chore
/// polling cadence, the shutdown drain deadline) never read it, so a
/// manual clock decides *whether* a deadline has passed while the
/// daemon keeps checking at its usual pace.
#[derive(Clone, Default)]
pub enum Clock {
    /// Wall time.
    #[default]
    System,
    /// A clock that moves only when [`Clock::advance`] moves it.
    Manual(Arc<Mutex<Instant>>),
}

impl Clock {
    /// A manual clock standing at the current instant.
    pub fn manual() -> Clock {
        Clock::Manual(Arc::new(Mutex::new(Instant::now())))
    }

    /// The current instant on this clock.
    pub fn now(&self) -> Instant {
        match self {
            Clock::System => Instant::now(),
            Clock::Manual(now) => *now.lock().expect("manual clock"),
        }
    }

    /// Moves a manual clock forward by `by`, for every holder of a
    /// clone.
    ///
    /// # Panics
    ///
    /// On [`Clock::System`], which only time moves.
    pub fn advance(&self, by: Duration) {
        let Clock::Manual(now) = self else { panic!("only a manual clock advances") };
        *now.lock().expect("manual clock") += by;
    }
}

/// Everything a test may inject into a daemon.
#[derive(Default)]
pub struct Seams {
    /// The clock behind the daemon's deadlines.
    pub clock: Clock,
    /// Scripted peer-call failures; `None` injects nothing.
    pub peer_fault: Option<PeerFault>,
    /// Called by a worker before it runs each job it dequeued — where a
    /// test parks a worker to fill the queue deterministically.
    pub before_job: Option<Arc<dyn Fn() + Send + Sync>>,
}
