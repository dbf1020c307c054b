//! Stream/event execution model: per-device command queues, events, and
//! the start-time rule.
//!
//! The simulator's execution model mirrors CUDA streams:
//!
//! * every device owns one in-order **command queue** (its stream):
//!   kernels and copies issued to a device execute in issue order, each
//!   starting at `max(queue_predecessor_finish, waited_events)` — the
//!   start-time rule. The queue tail is the device clock; a [`Cmd`] trace
//!   of the queue can be recorded for replay verification;
//! * an [`Event`] is a handle to a recorded completion timestamp; any
//!   queue (or the host) can wait on it — the only cross-queue
//!   synchronization primitive;
//! * each device's PCIe link is a **copy engine** ([`CopyEngine`]) with
//!   its own timeline: copies occupy the link, overlap with the device's
//!   compute queue, and serialize against other copies on the same link;
//! * end-to-end simulated time is therefore computed from the dependency
//!   graph, not from global barriers.
//!   [`MultiGpu::sync`](crate::MultiGpu::sync) survives as a scheduling
//!   *policy*: under [`Schedule::Barrier`] (the default, the pre-stream
//!   phase model) it flattens every clock for clean per-phase attribution;
//!   under [`Schedule::EventDriven`] it is a no-op and only real
//!   dependencies order the timeline.
//!
//! The arithmetic side is unaffected by the schedule: commands execute
//! their (real, f64) computation when issued, in program order, so
//! numerical results are bit-identical under either policy — only the
//! clocks differ. That invariant is what lets the overlap study
//! (`ext_overlap`) attribute every saved microsecond to scheduling alone.

/// Scheduling policy of a [`MultiGpu`](crate::MultiGpu).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Phase-barrier model (default): `sync()` flattens every clock to the
    /// global max at phase boundaries — the fully synchronous schedule,
    /// and the cleanest per-phase time attribution.
    #[default]
    Barrier,
    /// Event-driven model: `sync()` is a no-op; start times follow only
    /// from queue order, waited events, and transfer dependencies, so
    /// compute–transfer overlap actually overlaps.
    EventDriven,
}

/// Handle to a recorded completion timestamp in the executor's
/// [`EventTable`]. Handles do not survive
/// [`MultiGpu::reset_time`](crate::MultiGpu::reset_time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event(pub(crate) u32);

impl Event {
    /// Index into the owning [`EventTable`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One command of a device stream, as recorded in the optional per-device
/// trace. Timestamps are resolved at issue time by the start-time rule,
/// so a trace doubles as the scheduled timeline of the queue — two runs
/// of the same program (same seeds, same `FaultPlan`) produce equal
/// traces, which the determinism suite asserts.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// A compute kernel occupying the device queue for `dur` seconds.
    Kernel {
        /// Kernel name (BLAS-style mnemonic, e.g. `spmv`, `syrk`, `trsm`).
        name: &'static str,
        /// Queue-tail timestamp the kernel started at.
        start: f64,
        /// Kernel duration (seconds) as charged, including any injected
        /// fail-slow perturbation (slowdown multiplier, queue stall).
        dur: f64,
        /// Fault-free modeled duration (seconds). Equal to `dur` on a
        /// healthy device; the `dur / modeled` ratio is the observed
        /// slowdown that trace-driven calibration fits parameters from.
        modeled: f64,
    },
    /// A device→host copy on this device's link.
    CopyToHost {
        /// Payload size.
        bytes: usize,
        /// Link occupancy start (start-time rule over the link timeline).
        start: f64,
        /// Arrival time on the host side.
        finish: f64,
    },
    /// A host→device copy on this device's link.
    CopyToDevice {
        /// Payload size.
        bytes: usize,
        /// Link occupancy start.
        start: f64,
        /// Arrival time on the device side.
        finish: f64,
    },
    /// An event recorded at `at` (a completion timestamp made waitable).
    EventRecord {
        /// The recorded event handle.
        event: Event,
        /// Timestamp the event carries.
        at: f64,
    },
    /// The queue waited for an event; `until` is the queue tail afterward.
    WaitEvent {
        /// The event waited on.
        event: Event,
        /// Queue tail after the wait (`max(tail, event time)`).
        until: f64,
    },
}

/// Table of recorded event timestamps, owned by the executor.
#[derive(Debug, Default)]
pub struct EventTable {
    times: Vec<f64>,
}

impl EventTable {
    /// Record a completion timestamp, returning its handle.
    pub fn record(&mut self, t: f64) -> Event {
        assert!(self.times.len() < u32::MAX as usize, "event table full");
        self.times.push(t);
        Event(self.times.len() as u32 - 1)
    }

    /// The completion timestamp an event carries.
    pub fn time(&self, e: Event) -> f64 {
        self.times[e.0 as usize]
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Forget all events (handles become invalid).
    pub fn clear(&mut self) {
        self.times.clear();
    }
}

/// One PCIe link's copy-engine timeline. Copies on the same link
/// serialize; copies on different links (different devices) overlap — the
/// Keeneland per-GPU-link topology the paper's transfer model assumes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CopyEngine {
    busy_until: f64,
}

impl CopyEngine {
    /// Occupy the link for `dur` seconds starting no earlier than
    /// `earliest` (the start-time rule applied to the link timeline).
    /// Returns `(start, finish)`.
    pub fn occupy(&mut self, earliest: f64, dur: f64) -> (f64, f64) {
        debug_assert!(dur >= 0.0);
        let start = earliest.max(self.busy_until);
        let finish = start + dur;
        self.busy_until = finish;
        (start, finish)
    }

    /// When the link becomes idle.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }

    /// Clear the timeline (fresh timing run).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Optional per-device command trace: when enabled, every command issued
/// to the device's stream is recorded with its resolved timestamps.
#[derive(Debug, Default)]
pub struct StreamTrace {
    enabled: bool,
    cmds: Vec<Cmd>,
}

impl StreamTrace {
    /// Start recording commands.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn push(&mut self, cmd: Cmd) {
        self.cmds.push(cmd);
    }

    /// Commands recorded since enablement.
    pub fn cmds(&self) -> &[Cmd] {
        &self.cmds
    }

    /// Drain the recorded commands.
    pub fn take(&mut self) -> Vec<Cmd> {
        std::mem::take(&mut self.cmds)
    }

    /// Drop buffered commands without disabling recording (used when the
    /// executor's clocks are reset: stale pre-reset timestamps would break
    /// the monotone-timeline invariant of the trace).
    pub fn clear(&mut self) {
        self.cmds.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_table_roundtrip() {
        let mut t = EventTable::default();
        assert!(t.is_empty());
        let a = t.record(1.5);
        let b = t.record(0.5);
        assert_ne!(a, b);
        assert_eq!(t.time(a), 1.5);
        assert_eq!(t.time(b), 0.5);
        assert_eq!(t.len(), 2);
        assert_eq!(a.index(), 0);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn copy_engine_applies_start_time_rule() {
        let mut link = CopyEngine::default();
        // idle link: starts at the requested time
        let (s1, f1) = link.occupy(2.0, 3.0);
        assert_eq!((s1, f1), (2.0, 5.0));
        // busy link: a second copy serializes behind the first
        let (s2, f2) = link.occupy(1.0, 1.0);
        assert_eq!((s2, f2), (5.0, 6.0));
        // a later request after the link drained starts on request
        let (s3, _) = link.occupy(10.0, 0.5);
        assert_eq!(s3, 10.0);
        link.reset();
        assert_eq!(link.busy_until(), 0.0);
    }

    #[test]
    fn trace_records_only_when_enabled() {
        let mut tr = StreamTrace::default();
        tr.push(Cmd::Kernel { name: "spmv", start: 0.0, dur: 1.0, modeled: 1.0 });
        // pushes land regardless; callers gate on is_enabled()
        assert_eq!(tr.cmds().len(), 1);
        assert!(!tr.is_enabled());
        tr.enable();
        assert!(tr.is_enabled());
        let drained = tr.take();
        assert_eq!(drained, vec![Cmd::Kernel { name: "spmv", start: 0.0, dur: 1.0, modeled: 1.0 }]);
        assert!(tr.cmds().is_empty());
    }

    #[test]
    fn schedule_defaults_to_barrier() {
        assert_eq!(Schedule::default(), Schedule::Barrier);
    }
}
