//! Per-worker last-N event log.
//!
//! Each worker owns one [`EventRing`] for the duration of a run — no
//! sharing, no locks, no atomics; pushing an event is an array write and
//! a cursor bump. The ring keeps only the newest [`EventRing::capacity`]
//! events (older ones are overwritten), which is exactly what a
//! post-mortem of a slow or cancelled run needs: the *tail* of what each
//! worker was doing, at a cost that never grows with run length. Rings
//! are flushed into the owning [`crate::trace::Trace`] when the worker
//! finishes (or is cancelled).

/// What happened, in one worker, at one instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A morsel began executing (`arg` = morsel sequence number).
    MorselStart,
    /// A morsel finished (`arg` = morsel sequence number).
    MorselFinish,
    /// The run's cancel token fired (`arg`: 0 = stop/cap, 1 = deadline).
    Cancel,
    /// This worker drove the global match count to the cap (`arg` = cap).
    CapHit,
    /// A filter refinement round completed (`arg` = candidates pruned in
    /// the round).
    FilterRound,
}

impl EventKind {
    /// Stable snake_case name — the JSONL field value.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::MorselStart => "morsel_start",
            EventKind::MorselFinish => "morsel_finish",
            EventKind::Cancel => "cancel",
            EventKind::CapHit => "cap_hit",
            EventKind::FilterRound => "filter_round",
        }
    }

    /// Look an event kind up by its JSONL name.
    pub fn from_name(name: &str) -> Option<EventKind> {
        [
            EventKind::MorselStart,
            EventKind::MorselFinish,
            EventKind::Cancel,
            EventKind::CapHit,
            EventKind::FilterRound,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }
}

/// One logged event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace epoch (monotonic clock).
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific argument (see [`EventKind`]).
    pub arg: u64,
}

/// Default ring capacity: enough tail to see the last few morsels of
/// every worker without the log growing with run length.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// A fixed-capacity overwrite-oldest event log owned by one worker.
#[derive(Clone, Debug)]
pub struct EventRing {
    buf: Vec<Event>,
    cap: usize,
    /// Total events ever pushed (>= buf.len(); the difference is how many
    /// were overwritten).
    pushed: u64,
}

impl EventRing {
    /// A ring holding the newest `cap` events (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            cap,
            pushed: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever pushed, including overwritten ones.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Events overwritten (lost from the tail).
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Log one event, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, t_ns: u64, kind: EventKind, arg: u64) {
        let e = Event { t_ns, kind, arg };
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[(self.pushed as usize) % self.cap] = e;
        }
        self.pushed += 1;
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> Vec<Event> {
        if self.buf.len() < self.cap {
            return self.buf.clone();
        }
        let split = (self.pushed as usize) % self.cap;
        let mut out = Vec::with_capacity(self.cap);
        out.extend_from_slice(&self.buf[split..]);
        out.extend_from_slice(&self.buf[..split]);
        out
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new(DEFAULT_RING_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_in_order() {
        let mut r = EventRing::new(4);
        for i in 0..10u64 {
            r.push(i, EventKind::MorselStart, i);
        }
        assert_eq!(r.total_pushed(), 10);
        assert_eq!(r.dropped(), 6);
        let tail = r.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(
            tail.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // timestamps stay monotone in the tail
        assert!(tail.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let mut r = EventRing::new(8);
        r.push(1, EventKind::MorselStart, 2);
        r.push(2, EventKind::Cancel, 0);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.tail().len(), 2);
        assert_eq!(r.tail()[1].kind, EventKind::Cancel);
    }

    #[test]
    fn kind_names_round_trip() {
        for k in [
            EventKind::MorselStart,
            EventKind::MorselFinish,
            EventKind::Cancel,
            EventKind::CapHit,
            EventKind::FilterRound,
        ] {
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_name("nope"), None);
    }
}
