//! The multi-GPU executor: parallel device phases, PCIe transfers with
//! overlap across per-GPU links, host compute, and communication counters.
//!
//! Timing semantics mirror the paper's execution model:
//!
//! * device kernels launched in a phase run concurrently across GPUs on
//!   the simulated clock: [`MultiGpu::run_map`] advances each device's
//!   private clock independently (and, above a size grain, runs whole
//!   devices on host threads, which changes no bit);
//! * device→host transfers are asynchronous per-GPU (each Keeneland GPU
//!   has its own PCIe link): the host becomes ready at
//!   `max_d(device_finish_d + transfer_d)` plus a per-message host
//!   overhead — so aggregating messages still pays off, exactly the
//!   latency effect CA methods exploit;
//! * host→device transfers make each device wait for `host_ready +
//!   transfer_d`;
//! * nothing ever waits unless a transfer creates the dependency, so MPK's
//!   communication-free flops genuinely overlap in the model.
//!
//! Transfers are built on the stream/event substrate ([`crate::stream`]):
//! every copy occupies the device's per-link [`CopyEngine`] (copies on one
//! link serialize, links overlap) and records an [`Event`] carrying its
//! completion timestamp. The blocking `to_host`/`to_devices` API is a thin
//! wrapper — enqueue the async copies, then wait on their events — so
//! callers migrate incrementally. Which waits `sync()` actually performs
//! is a [`Schedule`] policy: `Barrier` (default) flattens clocks at phase
//! boundaries; `EventDriven` makes `sync()` a no-op so only real
//! dependencies (queue order, events, transfers) order the timeline.

use crate::device::Device;
use crate::faults::{FaultPlan, GpuSimError, Result};
use crate::model::{KernelConfig, PerfModel};
use crate::retry::RetryPolicy;
use crate::stream::{Cmd, CopyEngine, Event, EventTable, Schedule};
use crate::team::Team;
use ca_obs as obs;
use ca_scalar::Precision;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Rows of the dense panel every device must hold before
/// [`MultiGpu::run_map`] hands devices to threads: below it a hand-off per
/// launch costs more than a device's share of the launch. The service's
/// slices (≤ ~2000 rows per device) stay on one thread and the `ca-perf`
/// solver workloads (≥ 13 824 rows per device) split; see DESIGN.md, "Host
/// threads".
pub(crate) const PAR_ROWS: usize = 4096;

/// Host cores, read once: `available_parallelism` reads cgroup files on
/// every call, which costs more than a small launch.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Why a `run_map` mutex cannot be poisoned: none is held while a device
/// closure runs.
const UNPOISONED: &str = "no lock is held across a device closure";

/// Counters for the traffic study (Fig. 7 and the "# GPU-CPU comm." column
/// of Fig. 10). Totals cover all traffic regardless of precision; the
/// `*_f32` fields count the subset of messages the caller tagged as
/// single-precision payloads (mixed-precision halos), so a study can
/// assert what fraction of the wire traffic moved at half width.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommCounters {
    /// Device→host messages.
    pub msgs_to_host: u64,
    /// Host→device messages.
    pub msgs_to_dev: u64,
    /// Device→host bytes.
    pub bytes_to_host: u64,
    /// Host→device bytes.
    pub bytes_to_dev: u64,
    /// Device→host messages carrying f32 payloads (subset of the total).
    pub msgs_to_host_f32: u64,
    /// Host→device messages carrying f32 payloads (subset of the total).
    pub msgs_to_dev_f32: u64,
    /// Device→host bytes in f32 payloads (subset of the total).
    pub bytes_to_host_f32: u64,
    /// Host→device bytes in f32 payloads (subset of the total).
    pub bytes_to_dev_f32: u64,
    /// Transfer attempts repeated after an injected transient fault (each
    /// retry also paid link time + stall, so resilience cost is visible).
    pub transfer_retries: u64,
}

impl CommCounters {
    /// Total messages both directions.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_to_host + self.msgs_to_dev
    }

    /// Total bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_to_host + self.bytes_to_dev
    }

    /// Total f32-tagged bytes both directions (subset of
    /// [`CommCounters::total_bytes`]).
    pub fn total_bytes_f32(&self) -> u64 {
        self.bytes_to_host_f32 + self.bytes_to_dev_f32
    }
}

/// One device's entry in a [`HealthReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceHealth {
    /// Device index.
    pub device: usize,
    /// Whether the device is still reachable (not lost).
    pub alive: bool,
    /// Kernel ops retired.
    pub ops: u64,
    /// Observed kernel seconds (includes fail-slow perturbation).
    pub busy_s: f64,
    /// Modeled kernel seconds (healthy-device cost of the same commands).
    pub modeled_busy_s: f64,
    /// EWMA of per-command observed/modeled latency (1.0 = healthy).
    pub ewma_slowdown: f64,
    /// Worst single-command overshoot, seconds.
    pub max_overshoot_s: f64,
}

/// Per-device health snapshot the driver consults at restart boundaries:
/// who is alive, how far each device's observed command latency has
/// drifted from the model, and the relative throughput weights a
/// row-rebalancing step should use.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// One entry per device, in device order.
    pub devices: Vec<DeviceHealth>,
}

impl HealthReport {
    /// Relative throughput per device: the reciprocal of the latency EWMA
    /// for alive devices, 0.0 for lost ones. A row partition proportional
    /// to these weights equalizes per-device compute time.
    pub fn throughput_weights(&self) -> Vec<f64> {
        self.devices
            .iter()
            .map(|d| if d.alive { 1.0 / d.ewma_slowdown.max(f64::MIN_POSITIVE) } else { 0.0 })
            .collect()
    }

    /// Max/min latency EWMA over alive devices (1.0 = perfectly even;
    /// grows toward the slowdown factor as one device degrades).
    pub fn imbalance(&self) -> f64 {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for d in self.devices.iter().filter(|d| d.alive) {
            lo = lo.min(d.ewma_slowdown);
            hi = hi.max(d.ewma_slowdown);
        }
        if lo > 0.0 && lo.is_finite() {
            hi / lo
        } else {
            1.0
        }
    }
}

/// A host plus `n` simulated GPUs, optionally spread over several compute
/// nodes (the paper's §VII outlook). Devices on node 0 talk to the root
/// host over PCIe only; devices on other nodes pay an additional network
/// hop per message.
#[derive(Debug)]
pub struct MultiGpu {
    devices: Vec<Device>,
    host_time: f64,
    model: Arc<PerfModel>,
    /// Kernel variants orthogonalization routines should use.
    pub config: KernelConfig,
    counters: CommCounters,
    /// Compute-node assignment per device (all zeros = single node).
    node_of: Vec<usize>,
    /// Installed fault schedule (None = perfect machine).
    faults: Option<Arc<FaultPlan>>,
    /// Monotone transfer-message counter (fault-plan coordinate).
    msg_counter: u64,
    /// Bounded attempts (plus optional simulated-time backoff) per
    /// transfer message before giving up.
    transfer_retry: RetryPolicy,
    /// Scheduling policy: `Barrier` (default) or `EventDriven`.
    schedule: Schedule,
    /// Recorded event timestamps (copies, explicit records).
    events: EventTable,
    /// Per-device PCIe link timelines (one copy engine each).
    links: Vec<CopyEngine>,
    /// Simulated seconds the watchdog took back by rewinding a hung
    /// device's projected queue tail to its detection instant. An earlier
    /// [`MultiGpu::time`] sample may have included the rewound tail, so
    /// observers that charged phase time from such samples can overcount
    /// end-to-end time by at most this much.
    time_reclaimed: f64,
    /// Commands recorded by the executors this one replaced
    /// ([`MultiGpu::respawn`]), per device index.
    retired: Vec<Vec<Cmd>>,
    /// The host threads [`MultiGpu::run_map`] shares devices with: started
    /// by the first launch above the grain, joined when the machine drops.
    team: Option<Team>,
}

/// Direction of a copy over a device's link.
#[derive(Clone, Copy)]
enum Dir {
    ToHost,
    ToDevice,
}

impl MultiGpu {
    /// Create `n_gpus` devices with the given model and kernel config.
    pub fn new(n_gpus: usize, model: PerfModel, config: KernelConfig) -> Self {
        Self::build(n_gpus, model, config, false)
    }

    /// The same machine, cost-only: its devices' buffers carry their shape
    /// and no storage, and every kernel is charged its modeled time without
    /// computing, answering with the neutral value of its contract (see
    /// [`Device`]). Memory accounting, op counts, clocks, links, events,
    /// counters and command traces are those of [`MultiGpu::new`] running
    /// the same program, so timing a program here predicts it there.
    pub fn cost_only(n_gpus: usize, model: PerfModel, config: KernelConfig) -> Self {
        Self::build(n_gpus, model, config, true)
    }

    fn build(n_gpus: usize, model: PerfModel, config: KernelConfig, shape_only: bool) -> Self {
        assert!(n_gpus >= 1);
        let model = Arc::new(model);
        let devices = (0..n_gpus).map(|i| Device::new(i, Arc::clone(&model), shape_only)).collect();
        Self {
            devices,
            host_time: 0.0,
            model,
            config,
            counters: CommCounters::default(),
            node_of: vec![0; n_gpus],
            faults: None,
            msg_counter: 0,
            transfer_retry: RetryPolicy::default(),
            schedule: Schedule::default(),
            events: EventTable::default(),
            links: vec![CopyEngine::default(); n_gpus],
            time_reclaimed: 0.0,
            retired: Vec::new(),
            team: None,
        }
    }

    /// Replace this executor with `n_gpus` fresh devices — no allocations,
    /// fault plan, op counts or health history — at the current simulated
    /// time: what a rebuild onto a new partition, or a slice whose solve
    /// leaked allocations, starts from. The model, kernel config, schedule,
    /// transfer-retry policy, trace recording (with the commands recorded
    /// so far), communication counters and reclaimed time carry over.
    pub fn respawn(&mut self, n_gpus: usize) {
        let mut fresh = Self::new(n_gpus, (*self.model).clone(), self.config);
        fresh.schedule = self.schedule;
        fresh.transfer_retry = self.transfer_retry;
        if self.devices.iter().any(Device::is_tracing) {
            fresh.enable_trace();
            fresh.retired = self.take_traces();
        }
        fresh.fast_forward(self.time());
        fresh.counters = self.counters;
        fresh.time_reclaimed = self.time_reclaimed;
        *self = fresh;
    }

    /// A cost-only ([`MultiGpu::cost_only`]) machine of this one's shape:
    /// its model, kernel config, topology and schedule, with clocks at zero
    /// and no fault plan — somewhere to time a program without running it
    /// here.
    pub fn cost_only_twin(&self) -> Self {
        let mut twin = Self::cost_only(self.n_gpus(), (*self.model).clone(), self.config);
        twin.node_of.clone_from(&self.node_of);
        twin.schedule = self.schedule;
        twin
    }

    /// Whether this machine was built by [`MultiGpu::cost_only`].
    pub fn is_cost_only(&self) -> bool {
        self.devices[0].is_cost_only()
    }

    /// Whether every device is alive and none has a fault plan installed, a
    /// zero-rate one included: then no device's copy of a value can differ
    /// from its owner's, and a device may read a row another computed
    /// instead of computing it again.
    pub fn is_fault_free(&self) -> bool {
        self.devices.iter().all(|d| !d.has_faults() && !d.is_lost())
    }

    /// Set the scheduling policy. Numerics are unaffected — commands
    /// execute eagerly in program order under either policy; only the
    /// simulated clocks differ (and event-driven time never exceeds
    /// barrier time for the same program).
    pub fn set_schedule(&mut self, schedule: Schedule) {
        self.schedule = schedule;
    }

    /// Current scheduling policy.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Install a fault schedule, shared by the executor (transfer faults)
    /// and every device (SDC, loss, allocation faults). A plan with all
    /// rates at zero is bit-identical to no plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let plan = Arc::new(plan);
        for d in &mut self.devices {
            d.set_faults(Some(Arc::clone(&plan)));
        }
        self.faults = Some(plan);
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_deref()
    }

    /// Install the transfer retry policy (attempt bound plus optional
    /// capped exponential simulated-time backoff between attempts).
    pub fn set_transfer_retry(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1);
        self.transfer_retry = policy;
    }

    /// The transfer retry policy in effect.
    pub fn transfer_retry(&self) -> RetryPolicy {
        self.transfer_retry
    }

    // ---------- health monitoring ----------

    /// Snapshot every device's health: observed vs. modeled busy time and
    /// the per-command latency EWMA the devices maintain as commands
    /// retire (the same observed/modeled ratio a host-side monitor would
    /// extract from `StreamTrace` timestamps, kept incrementally so it is
    /// available without enabling the trace).
    pub fn health_report(&self) -> HealthReport {
        let devices = self
            .devices
            .iter()
            .map(|d| DeviceHealth {
                device: d.id(),
                alive: !d.is_lost(),
                ops: d.ops(),
                busy_s: d.busy_time(),
                modeled_busy_s: d.modeled_busy_time(),
                ewma_slowdown: d.ewma_slowdown(),
                max_overshoot_s: d.max_overshoot(),
            })
            .collect();
        HealthReport { devices }
    }

    /// Watchdog sweep: any alive device whose worst single-command
    /// overshoot (observed − modeled latency) exceeds `hang_timeout_s` is
    /// declared hung and marked lost, feeding the same skip-lost-devices
    /// degradation path a fault-plan device loss takes. The hung device's
    /// frozen clock is set to the instant the watchdog gave up — the rest
    /// of the machine's progress plus the timeout — not the (possibly
    /// enormous) stalled queue tail, so end-to-end time stays honest.
    /// Returns the devices newly declared lost.
    pub fn watchdog(&mut self, hang_timeout_s: f64) -> Vec<usize> {
        assert!(hang_timeout_s > 0.0);
        let hung: Vec<usize> = (0..self.devices.len())
            .filter(|&d| {
                !self.devices[d].is_lost() && self.devices[d].max_overshoot() > hang_timeout_s
            })
            .collect();
        if hung.is_empty() {
            return hung;
        }
        let t_before = self.time();
        // progress of everything that is not hung, at the moment of detection
        let t_rest = self
            .devices
            .iter()
            .filter(|d| !d.is_lost() && !hung.contains(&d.id()))
            .map(|d| d.clock())
            .fold(self.host_time, f64::max);
        for &d in &hung {
            let overshoot = self.devices[d].max_overshoot();
            self.devices[d].set_clock(t_rest + hang_timeout_s);
            self.devices[d].mark_lost();
            if obs::enabled() {
                obs::instant_cause(
                    "watchdog.hang",
                    obs::Track::Device(d as u32),
                    t_rest + hang_timeout_s,
                    &format!(
                        "overshoot {overshoot:.6}s > timeout {hang_timeout_s:.6}s; \
                         device {d} marked lost"
                    ),
                );
                obs::counter_add(obs::names::WATCHDOG_ESCALATIONS, 1);
            }
        }
        // the rewind can lower the end-to-end clock below values already
        // observed through `time()` — account the difference so phase
        // attribution charged from those samples stays auditable
        self.time_reclaimed += (t_before - self.time()).max(0.0);
        hung
    }

    /// Total simulated seconds of projected (but never completed) stall
    /// tail the watchdog has taken back from the end-to-end clock.
    pub fn time_reclaimed(&self) -> f64 {
        self.time_reclaimed
    }

    /// One transfer message on device `d`'s link: draw transient faults,
    /// retry up to the attempt bound, and return the simulated duration the
    /// message occupied the link (successful attempt plus every failed one,
    /// each failed attempt costing the wasted link time plus the stall).
    fn message_time(&mut self, d: usize, bytes: usize) -> Result<f64> {
        if self.devices[d].is_lost() {
            return Err(GpuSimError::DeviceLost { device: d });
        }
        let mut base = self.link_time(d, bytes);
        let msg = self.msg_counter;
        self.msg_counter += 1;
        let Some(plan) = self.faults.as_ref() else {
            return Ok(base);
        };
        // degraded link (fail-slow): every attempt on this link runs slow.
        // Gated on a non-unit factor so a zero-rate plan stays bit-identical.
        let lm = plan.link_multiplier(d);
        if lm != 1.0 {
            base *= lm;
        }
        let mut elapsed = 0.0;
        let policy = self.transfer_retry;
        for attempt in 0..policy.max_attempts {
            // backoff before re-try `attempt`; zero (the default) adds
            // nothing, keeping pre-backoff runs bit-identical
            let wait = policy.backoff_s(attempt);
            if wait > 0.0 {
                elapsed += wait;
            }
            if !plan.transfer_fails(d, msg, attempt) {
                if attempt > 0 {
                    obs::counter_add(obs::names::COMM_TRANSFER_RETRIES, u64::from(attempt));
                }
                return Ok(elapsed + base);
            }
            elapsed += base + plan.transfer_stall_s;
            self.counters.transfer_retries += 1;
        }
        // the final drawn attempt failed too: the message is abandoned, but
        // the wasted attempts still happened in simulated time
        self.counters.transfer_retries -= 1; // last attempt was not retried
        self.host_time += elapsed;
        if obs::enabled() {
            obs::counter_add(obs::names::COMM_TRANSFER_RETRIES, u64::from(policy.max_attempts - 1));
            obs::counter_add(obs::names::COMM_TRANSFERS_ABANDONED, 1);
        }
        Err(GpuSimError::TransferFailed { device: d, attempts: policy.max_attempts })
    }

    /// Create devices spread over compute nodes: `node_of[d]` is device
    /// d's node; devices off node 0 pay a network hop per host message.
    pub fn with_topology(node_of: Vec<usize>, model: PerfModel, config: KernelConfig) -> Self {
        let mut mg = Self::new(node_of.len(), model, config);
        mg.node_of = node_of;
        mg
    }

    /// Node assignment of a device.
    pub fn node_of(&self, d: usize) -> usize {
        self.node_of[d]
    }

    fn link_time(&self, d: usize, bytes: usize) -> f64 {
        if self.node_of[d] == 0 {
            self.model.pcie_time(bytes)
        } else {
            self.model.remote_link_time(bytes)
        }
    }

    /// Default model + default (optimized-kernel) config.
    pub fn with_defaults(n_gpus: usize) -> Self {
        Self::new(n_gpus, PerfModel::default(), KernelConfig::default())
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.devices.len()
    }

    /// The machine model.
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// Borrow a device (host-side inspection).
    pub fn device(&self, d: usize) -> &Device {
        &self.devices[d]
    }

    /// Mutably borrow a device (setup-time loading).
    pub fn device_mut(&mut self, d: usize) -> &mut Device {
        &mut self.devices[d]
    }

    // ---------- execution ----------

    /// Run `f` on every device, collecting the per-device results in device
    /// order. On the simulated clock the devices are concurrent: each one's
    /// private clock advances by what `f` launches on it — no implicit
    /// barrier. On the host, owner computes over whole devices: the calling
    /// thread and the machine's team of `min(cores, devices) − 1` persistent
    /// workers take devices from one shared cursor, and one thread issues
    /// all of a device's commands in program order; a participant with no
    /// device left helps the owners with row windows and output blocks of
    /// their kernels, each computed whole as the sequential kernel computes
    /// it. So results, clocks, op counts and traces are those of a
    /// sequential run. The machine runs on the calling
    /// thread alone when it is cost-only (its launches compute nothing),
    /// when the host has one core, or when some device holds no dense panel
    /// of `PAR_ROWS` (4096) rows (a hand-off would cost more than a device's
    /// share of a launch). A panic in `f` resumes on the caller
    /// with its own payload. `f` must not record to `ca-obs`: its recorder
    /// is per thread.
    pub fn run_map<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Device) -> R + Sync,
    {
        self.run_map_on(self.workers(), f)
    }

    /// The grain rule: how many threads besides the caller a
    /// [`MultiGpu::run_map`] on this machine gets.
    fn workers(&self) -> usize {
        if self.is_cost_only() || !self.devices.iter().all(Device::holds_par_panel) {
            return 0;
        }
        host_cores().min(self.devices.len()) - 1
    }

    /// [`MultiGpu::run_map`] on the calling thread plus a team of `workers`
    /// threads (none: the calling thread alone).
    fn run_map_on<R, F>(&mut self, workers: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut Device) -> R + Sync,
    {
        if workers == 0 {
            return self.devices.iter_mut().enumerate().map(|(i, d)| f(i, d)).collect();
        }
        let out: Vec<Mutex<Option<R>>> = self.devices.iter().map(|_| Mutex::new(None)).collect();
        self.split(workers, &|i, d| {
            let r = f(i, d);
            *out[i].lock().expect(UNPOISONED) = Some(r);
        });
        let done =
            |r: Mutex<Option<R>>| r.into_inner().expect(UNPOISONED).expect("every device ran");
        out.into_iter().map(done).collect()
    }

    /// The threaded half of [`MultiGpu::run_map_on`], compiled once instead
    /// of once per closure: `f` runs on every device over the calling thread
    /// and the machine's team of `workers` threads (started by the first
    /// call), which take devices from one shared cursor. A participant that
    /// finds the cursor empty helps the owners of the devices still running
    /// with pieces of their kernels until every device is done.
    fn split(&mut self, workers: usize, f: &(dyn Fn(usize, &mut Device) + Sync)) {
        let devices = self.devices.len();
        if self.team.is_none() {
            let team = Team::start(workers, devices);
            for (dev, slot) in self.devices.iter_mut().zip(&team.slots) {
                dev.crew = Some(Arc::clone(slot));
            }
            self.team = Some(team);
        }
        let team = self.team.as_ref().expect("started above");
        let cursor = Mutex::new(self.devices.iter_mut().enumerate());
        let done = AtomicUsize::new(0);
        /// Counts a device done when its closure ends, by return or unwind.
        struct Done<'a>(&'a AtomicUsize);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::Release);
            }
        }
        team.launch(&|| {
            loop {
                // the guard is a temporary of this statement: `f` runs unlocked
                let Some((i, dev)) = cursor.lock().expect(UNPOISONED).next() else { break };
                let _done = Done(&done);
                f(i, dev);
            }
            team.help(&done, devices);
        });
    }

    /// Run `f` on every device, discarding results.
    pub fn run<F>(&mut self, f: F)
    where
        F: Fn(usize, &mut Device) + Sync,
    {
        self.run_map(f);
    }

    // ---------- simulated time ----------

    /// Current end-to-end simulated time (max over host and devices).
    pub fn time(&self) -> f64 {
        self.devices.iter().map(|d| d.clock()).fold(self.host_time, f64::max)
    }

    /// Host clock only.
    pub fn host_time(&self) -> f64 {
        self.host_time
    }

    /// Barrier: align every clock to the current max (used at phase
    /// boundaries so per-phase timings attribute cleanly). Lost devices
    /// are skipped — their clocks are frozen at the instant of loss and a
    /// barrier must not thaw them. Under [`Schedule::EventDriven`] this is
    /// a no-op: time is computed from the dependency graph, and end-to-end
    /// time remains observable via [`MultiGpu::time`] without flattening.
    pub fn sync(&mut self) {
        if self.schedule == Schedule::EventDriven {
            return;
        }
        let t = self.time();
        self.host_time = t;
        for d in &mut self.devices {
            if d.is_lost() {
                continue;
            }
            d.set_clock(t);
        }
    }

    /// Advance every clock to at least `t`. Used when a degraded executor
    /// (rebuilt on the surviving devices after a loss) inherits the
    /// simulated time already spent on its predecessor, so end-to-end
    /// timing stays honest across the recovery. Lost devices keep their
    /// frozen clocks.
    pub fn fast_forward(&mut self, t: f64) {
        self.host_time = self.host_time.max(t);
        for d in &mut self.devices {
            if d.is_lost() {
                continue;
            }
            d.set_clock(d.clock().max(t));
        }
    }

    /// Charge host compute (small dense factorizations, reductions).
    pub fn host_compute(&mut self, flops: f64, bytes: f64) {
        self.host_time += self.model.host_time(flops, bytes);
    }

    /// Advance the host clock by an explicit amount (CPU-side reference
    /// kernels whose cost is computed by the caller).
    pub fn advance_host(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0);
        self.host_time += dt;
    }

    // ---------- events ----------

    /// Make device `d`'s queue wait for an event: its next command starts
    /// no earlier than the event's timestamp (the `waited_events` term of
    /// the start-time rule).
    ///
    /// # Errors
    /// [`GpuSimError::DeviceLost`] if the device has died — including
    /// *after* the copy that recorded the event was issued. An in-flight
    /// transfer to a device that is lost mid-flight resolves typed here
    /// instead of leaving the consumer stuck on a dangling event.
    pub fn wait_event(&mut self, d: usize, e: Event) -> Result<()> {
        if self.devices[d].is_lost() {
            return Err(GpuSimError::DeviceLost { device: d });
        }
        let t = self.events.time(e);
        self.devices[d].wait_until(t, e);
        Ok(())
    }

    /// Host-side completion of a batch of async device→host copies: wait
    /// until every event has fired, then pay per-message host handling —
    /// exactly the blocking [`MultiGpu::to_host`] semantics.
    pub fn host_wait_all(&mut self, events: &[Option<Event>]) {
        let mut ready = self.host_time;
        let mut msgs = 0u64;
        for e in events.iter().flatten() {
            ready = ready.max(self.events.time(*e));
            msgs += 1;
        }
        self.host_time = ready + msgs as f64 * self.model.host_msg_s;
    }

    // ---------- transfers ----------

    /// One async copy over device `d`'s link, either way: the link is
    /// occupied from when the sender's clock (the device queue, or the host)
    /// reaches the copy and the link is free (start-time rule over the link
    /// timeline), the message is counted (an `F32` `prec` also in the
    /// f32-split counters and metrics), and the returned event fires on
    /// arrival. Nobody blocks.
    fn copy_async(&mut self, dir: Dir, d: usize, bytes: usize, prec: Precision) -> Result<Event> {
        let dur = self.message_time(d, bytes)?;
        let ready = match dir {
            Dir::ToHost => self.devices[d].clock(),
            Dir::ToDevice => self.host_time,
        };
        let (start, finish) = self.links[d].occupy(ready, dur);
        let c = &mut self.counters;
        let (msgs, total, msgs_f32, total_f32, tag) = match dir {
            Dir::ToHost => (
                &mut c.msgs_to_host,
                &mut c.bytes_to_host,
                &mut c.msgs_to_host_f32,
                &mut c.bytes_to_host_f32,
                "d2h",
            ),
            Dir::ToDevice => (
                &mut c.msgs_to_dev,
                &mut c.bytes_to_dev,
                &mut c.msgs_to_dev_f32,
                &mut c.bytes_to_dev_f32,
                "h2d",
            ),
        };
        let f32_tagged = prec == Precision::F32;
        *msgs += 1;
        *total += bytes as u64;
        if f32_tagged {
            *msgs_f32 += 1;
            *total_f32 += bytes as u64;
        }
        if obs::enabled() {
            use obs::names as n;
            let (m, b, b32) = match dir {
                Dir::ToHost => (n::COMM_D2H_MSGS, n::COMM_D2H_BYTES, n::COMM_D2H_BYTES_F32),
                Dir::ToDevice => (n::COMM_H2D_MSGS, n::COMM_H2D_BYTES, n::COMM_H2D_BYTES_F32),
            };
            obs::counter_add(m, 1);
            obs::counter_add(b, bytes as u64);
            obs::counter_add(&n::comm_link_bytes(d as u32, tag, false), bytes as u64);
            if f32_tagged {
                obs::counter_add(b32, bytes as u64);
                obs::counter_add(&n::comm_link_bytes(d as u32, tag, true), bytes as u64);
            }
        }
        let ev = self.events.record(finish);
        self.devices[d].log_cmd(match dir {
            Dir::ToHost => Cmd::CopyToHost { bytes, start, finish },
            Dir::ToDevice => Cmd::CopyToDevice { bytes, start, finish },
        });
        self.devices[d].log_cmd(Cmd::EventRecord { event: ev, at: finish });
        Ok(ev)
    }

    /// [`MultiGpu::copy_async`] once per device with `bytes[d]` bytes
    /// (0 = no message).
    fn copies_async(
        &mut self,
        dir: Dir,
        bytes: &[usize],
        prec: Precision,
    ) -> Result<Vec<Option<Event>>> {
        assert_eq!(bytes.len(), self.devices.len());
        let copy = |(d, &b): (usize, &usize)| {
            (b > 0).then(|| self.copy_async(dir, d, b, prec)).transpose()
        };
        bytes.iter().enumerate().map(copy).collect()
    }

    /// Enqueue async device→host copies, one per device with `bytes[d]`
    /// bytes (0 = no message), every message tagged with `prec`. Returns
    /// each device's arrival event; links overlap. Combine with
    /// [`MultiGpu::host_wait_all`] to reproduce the blocking semantics, or
    /// wait selectively to overlap host work with in-flight transfers.
    ///
    /// # Errors
    /// [`GpuSimError::DeviceLost`] if a sending device has died;
    /// [`GpuSimError::TransferFailed`] past the retry bound.
    pub fn to_host_async(
        &mut self,
        bytes: &[usize],
        prec: Precision,
    ) -> Result<Vec<Option<Event>>> {
        self.copies_async(Dir::ToHost, bytes, prec)
    }

    /// Enqueue async host→device copies, one per device, every message
    /// tagged with `prec`. Returns each device's arrival event; the
    /// receiving devices do *not* implicitly wait — call
    /// [`MultiGpu::wait_event`] per device before it touches the data (that
    /// wait is what lets other devices and earlier queue entries keep
    /// computing under the arriving payload).
    ///
    /// # Errors
    /// [`GpuSimError::DeviceLost`] if a receiving device has died;
    /// [`GpuSimError::TransferFailed`] past the retry bound.
    pub fn to_devices_async(
        &mut self,
        bytes: &[usize],
        prec: Precision,
    ) -> Result<Vec<Option<Event>>> {
        self.copies_async(Dir::ToDevice, bytes, prec)
    }

    /// Device→host transfers, one message per device with `bytes[d]` bytes
    /// (0 = no message from that device). Links overlap; the host is ready
    /// once the slowest arrives, plus per-message host handling. This is
    /// the blocking wrapper over [`MultiGpu::to_host_async`] +
    /// [`MultiGpu::host_wait_all`].
    ///
    /// # Errors
    /// [`GpuSimError::DeviceLost`] if a sending device has died;
    /// [`GpuSimError::TransferFailed`] if a message keeps failing past the
    /// retry bound. Retries pay simulated link time + stall.
    pub fn to_host(&mut self, bytes: &[usize]) -> Result<()> {
        let events = self.to_host_async(bytes, Precision::F64)?;
        self.host_wait_all(&events);
        Ok(())
    }

    /// Host→device transfers, one message per device. Each receiving
    /// device waits for its own arrival event; the host pays per-message
    /// handling. This is the blocking wrapper over
    /// [`MultiGpu::to_devices_async`] + per-device [`MultiGpu::wait_event`].
    ///
    /// # Errors
    /// [`GpuSimError::DeviceLost`] if a receiving device has died;
    /// [`GpuSimError::TransferFailed`] if a message keeps failing past the
    /// retry bound. Retries pay simulated link time + stall.
    pub fn to_devices(&mut self, bytes: &[usize]) -> Result<()> {
        let events = self.to_devices_async(bytes, Precision::F64)?;
        let mut msgs = 0u64;
        for (i, e) in events.iter().enumerate() {
            if let Some(e) = e {
                self.wait_event(i, *e)?;
                msgs += 1;
            }
        }
        self.host_time += msgs as f64 * self.model.host_msg_s;
        Ok(())
    }

    /// Broadcast the same payload to all devices.
    ///
    /// # Errors
    /// See [`MultiGpu::to_devices`].
    pub fn broadcast(&mut self, bytes: usize) -> Result<()> {
        let v = vec![bytes; self.devices.len()];
        self.to_devices(&v)
    }

    // ---------- counters ----------

    /// Snapshot of the communication counters.
    pub fn counters(&self) -> CommCounters {
        self.counters
    }

    /// Reset the communication counters (per-phase studies).
    pub fn reset_counters(&mut self) {
        self.counters = CommCounters::default();
    }

    /// Reset all clocks, link timelines, events, and counters (fresh
    /// timing run on loaded data). Event handles issued before the reset
    /// are invalidated — do not hold them across this call. Lost devices
    /// keep their frozen clocks.
    pub fn reset_time(&mut self) {
        self.host_time = 0.0;
        for d in &mut self.devices {
            if d.is_lost() {
                continue;
            }
            d.set_clock(0.0);
        }
        for l in &mut self.links {
            l.reset();
        }
        for d in &mut self.devices {
            d.clear_trace();
        }
        self.retired.clear();
        self.events.clear();
        self.reset_counters();
    }

    // ---------- command traces ----------

    /// Start recording every device's command queue (kernels, copies,
    /// event records/waits, with resolved timestamps). Off by default;
    /// used by the determinism suite to assert queue-replay bit-identity.
    pub fn enable_trace(&mut self) {
        for d in &mut self.devices {
            d.enable_trace();
        }
    }

    /// Drain the recorded per-device command traces, each device's
    /// preceded by what the executors this one replaced recorded under
    /// its index.
    pub fn take_traces(&mut self) -> Vec<Vec<Cmd>> {
        let mut traces = std::mem::take(&mut self.retired);
        traces.resize_with(traces.len().max(self.devices.len()), Vec::new);
        for (t, d) in traces.iter_mut().zip(&mut self.devices) {
            t.append(&mut d.take_trace());
        }
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatId, SdcTargets, VecId};
    use ca_dense::Mat;

    #[test]
    fn run_map_touches_every_device() {
        let mut mg = MultiGpu::with_defaults(3);
        let ids = mg.run_map(|i, d| {
            assert_eq!(i, d.id());
            i * 10
        });
        assert_eq!(ids, vec![0, 10, 20]);
    }

    // `run_map` hands `&mut Device` to other threads.
    const _: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<Device>()
    };

    /// Rows of the three devices of [`split_run`]: all above the grain,
    /// and so unequal that the last one runs long after the others.
    const SPLIT_ROWS: [usize; 3] = [PAR_ROWS + 104, 6_000, 40_000];

    /// What [`split_run`] returns: every result bit; per device the clock,
    /// ops, busy seconds and corruptions drawn; the command traces.
    type SplitBits = (Vec<u64>, Vec<[u64; 4]>, Vec<Vec<Cmd>>);

    /// Three devices of [`SPLIT_ROWS`] under an SDC plan, eight rounds of
    /// every kernel that lends pieces to helpers — the SpMV on ELL, HYB and
    /// their f32 forms, MPK steps with and without a level, the CGS
    /// projection and update, the block projection, update and Gram, and
    /// the triangular solve (singular in one round) — launched through
    /// `run_map_on(workers, ..)`, or through the grain rule for `None`.
    fn split_run(workers: Option<usize>) -> SplitBits {
        use crate::device::SpStorage;
        use ca_sparse::{Ell, Hyb};
        let a = ca_sparse::gen::laplace2d(200, 251);
        let n = a.nrows();
        assert_eq!(n, SPLIT_ROWS.iter().sum::<usize>());
        let mut mg = MultiGpu::with_defaults(3);
        mg.set_fault_plan(FaultPlan::new(9).with_sdc(0.2, SdcTargets::all()));
        mg.enable_trace();
        let mut first = 0;
        let ids: Vec<_> = (0..3)
            .map(|d| {
                let (rows, dev) = (SPLIT_ROWS[d], mg.device_mut(d));
                let own = first..first + rows;
                // the level: rows of the neighbour's range, as MPK's are
                let level = if d == 0 { own.end..own.end + 700 } else { first - 700..first };
                first += rows;
                let ids = |r: &std::ops::Range<usize>| r.clone().map(|i| i as u32).collect();
                let (loc, lvl) = match d {
                    0 => (
                        SpStorage::Ell(Ell::from_csr_rows(&a, own.clone())),
                        SpStorage::HybF32(Hyb::from_csr_rows(&a, level.clone(), 0.0)),
                    ),
                    1 => (
                        SpStorage::Hyb(Hyb::from_csr_rows(&a, own.clone(), 0.0)),
                        SpStorage::EllF32(Ell::from_csr_rows(&a, level.clone())),
                    ),
                    _ => (
                        SpStorage::EllF32(Ell::from_csr_rows(&a, own.clone())),
                        SpStorage::Hyb(Hyb::from_csr_rows(&a, level.clone(), 0.0)),
                    ),
                };
                let loc = dev.load_slice_storage(loc, ids(&own)).unwrap();
                let lvl = dev.load_slice_storage(lvl, ids(&level)).unwrap();
                let z: Vec<VecId> = (0..2).map(|_| dev.alloc_vec(n).unwrap()).collect();
                for (k, &z) in z.iter().enumerate() {
                    let x = dev.vec_mut(z);
                    x.iter_mut()
                        .enumerate()
                        .for_each(|(i, x)| *x = ((i * (k + 5)) % 13) as f64 - 6.0);
                }
                let v = dev.alloc_mat(rows, 17).unwrap();
                for c in 0..17 {
                    let col: Vec<f64> =
                        (0..rows).map(|i| ((i * (c + 3) + d) % 17) as f64 - 8.0).collect();
                    dev.mat_mut(v).set_col(c, &col);
                }
                (loc, lvl, [z[0], z[1]], v)
            })
            .collect();
        let cfg = mg.config;
        let mut bits = Vec::new();
        for round in 0..8 {
            let step = (0.25 * round as f64, if round % 2 == 0 { 0.0 } else { 0.5 }, 1.0 / 8.0);
            let mut r = Mat::from_fn(4, 4, |i, j| {
                if i == j {
                    2.0
                } else if i < j {
                    0.1
                } else {
                    0.0
                }
            });
            if round == 5 {
                r[(2, 2)] = 0.0;
            }
            let job = |d: usize, dev: &mut Device| {
                let (loc, lvl, z, v) = ids[d];
                dev.spmv_to_mat_col(loc, z[round % 2], v, 0);
                dev.mpk_step(&[loc, lvl], z[0], z[1], step, (v, 1), None);
                dev.mpk_step(&[loc], z[1], z[0], step, (v, 2), None);
                let proj = dev.gemv_t_cols(v, 0, 12, 12, cfg.gemv);
                dev.gemv_n_update(v, 0, 12, &proj, 12);
                let c = dev.gemm_tn_cols(v, (0, 12), (12, 17), cfg.gemm);
                let scaled = Mat::from_fn(12, 5, |i, j| 1e-3 * c[(i, j)]);
                dev.gemm_nn_update(v, (0, 12), (12, 17), &scaled, cfg.gemm);
                let gram = dev.syrk_cols(v, 0, 12, cfg.gemm);
                let solved = dev.trsm_cols(v, 12, 16, &r).is_ok();
                dev.scal_col(v, 16, 0.5);
                (proj, c, gram, solved)
            };
            let parts = match workers {
                Some(w) => mg.run_map_on(w, job),
                None => mg.run_map(job),
            };
            for (proj, c, gram, solved) in parts {
                bits.extend(proj.iter().map(|p| p.to_bits()));
                bits.extend(c.as_slice().iter().chain(gram.as_slice()).map(|g| g.to_bits()));
                bits.push(u64::from(solved));
            }
            for d in 0..3 {
                let dev = mg.device(d);
                bits.extend(dev.mat(ids[d].3).as_slice().iter().map(|x| x.to_bits()));
                bits.extend(ids[d].2.iter().flat_map(|&z| dev.vec(z)).map(|x| x.to_bits()));
            }
        }
        let devices = (0..3)
            .map(|d| {
                let dev = mg.device(d);
                [dev.clock().to_bits(), dev.ops(), dev.busy_time().to_bits(), dev.sdc_injected()]
            })
            .collect();
        (bits, devices, mg.take_traces())
    }

    #[test]
    fn run_map_split_is_bit_identical_at_every_worker_count() {
        let seq = split_run(Some(0));
        assert!(seq.1.iter().any(|d| d[3] > 0), "the plan must corrupt something");
        let helped = crate::team::HELPED.load(Ordering::Relaxed);
        for workers in 1..=3 {
            let par = split_run(Some(workers));
            assert!(seq.0 == par.0, "{workers} workers: results");
            assert_eq!(seq.1, par.1, "{workers} workers: clocks, ops, busy, SDC draws");
            assert!(seq.2 == par.2, "{workers} workers: stream traces");
        }
        assert!(crate::team::HELPED.load(Ordering::Relaxed) > helped, "nobody ever helped");
    }

    #[test]
    fn two_machines_dispatching_at_once_each_get_their_own_bits() {
        let seq = split_run(Some(0));
        let both = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2).map(|_| s.spawn(|| split_run(None))).collect();
            runs.into_iter().map(|r| r.join().unwrap()).collect::<Vec<_>>()
        });
        for (k, par) in both.iter().enumerate() {
            assert!(seq.0 == par.0, "machine {k}: results");
            assert_eq!(seq.1, par.1, "machine {k}: clocks, ops, busy, SDC draws");
            assert!(seq.2 == par.2, "machine {k}: stream traces");
        }
    }

    #[test]
    fn a_panicking_device_surfaces_its_own_payload() {
        for workers in 0..=2 {
            let mut mg = MultiGpu::with_defaults(3);
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                mg.run_map_on(workers, |d, _| {
                    if d == 2 {
                        panic!("device {d} gave up");
                    }
                })
            }))
            .unwrap_err();
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("device 2 gave up"), "{workers} workers");
        }
    }

    /// `f` on `mg` through its team, with the payload of the panic it must
    /// raise.
    fn panic_of(mg: &mut MultiGpu, f: impl Fn(usize, &mut Device) + Sync) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mg.run_map_on(1, f);
        }))
        .expect_err("the launch must panic");
        payload.downcast_ref::<String>().cloned().expect("a formatted payload")
    }

    #[test]
    fn a_panic_on_a_helper_or_on_the_caller_reaches_the_caller_and_the_team_serves_on() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let caller = std::thread::current().id();
        let on_caller = || std::thread::current().id() == caller;
        let mut mg = MultiGpu::with_defaults(3);
        let starts = crate::team::STARTS.with(std::cell::Cell::get);
        // wait (boundedly) until the other thread has started a device too,
        // so that both threads own one
        let wait_for = |flag: &AtomicBool| {
            let t0 = Instant::now();
            while !flag.load(Ordering::Acquire) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
        };
        for (on_worker, expect) in [(true, "on the worker"), (false, "on the caller")] {
            let (caller_ran, worker_ran) = (AtomicBool::new(false), AtomicBool::new(false));
            let msg = panic_of(&mut mg, |d, _| {
                let mine = if on_caller() { &caller_ran } else { &worker_ran };
                mine.store(true, Ordering::Release);
                wait_for(if on_caller() { &worker_ran } else { &caller_ran });
                if on_caller() != on_worker {
                    panic!("device {d} gave up {expect}");
                }
            });
            assert!(msg.ends_with(expect), "{msg}");
        }
        // a piece of a shared kernel that panics on whoever helps its owner
        let msg = panic_of(&mut mg, |d, dev| {
            if d < 2 {
                return;
            }
            let owner = std::thread::current().id();
            crate::team::share(dev.crew.as_deref(), 0..200, |p| {
                if std::thread::current().id() != owner {
                    panic!("piece {p} gave up on a helper");
                }
                std::thread::sleep(Duration::from_micros(200));
            });
        });
        assert!(msg.ends_with("gave up on a helper"), "{msg}");
        // the same team serves the next launches, all of them
        assert_eq!(crate::team::STARTS.with(std::cell::Cell::get), starts + 1);
        for _ in 0..3 {
            let ids = mg.run_map_on(1, |d, dev| (d, dev.id()));
            assert_eq!(ids, vec![(0, 0), (1, 1), (2, 2)]);
        }
    }

    #[test]
    fn only_an_arithmetic_machine_with_a_panel_on_every_device_starts_a_team() {
        let starts = || crate::team::STARTS.with(std::cell::Cell::get);
        let panels = |mg: &mut MultiGpu, rows: usize, devices: std::ops::Range<usize>| {
            devices.map(|d| mg.device_mut(d).alloc_mat(rows, 2).unwrap()).collect::<Vec<_>>()
        };
        let start = starts();
        // a serve-size machine and a cost-only one never start a team
        let mut below = MultiGpu::with_defaults(3);
        panels(&mut below, PAR_ROWS - 1, 0..3);
        let model = PerfModel::default();
        let mut cost = MultiGpu::cost_only(3, model, KernelConfig::default());
        panels(&mut cost, PAR_ROWS, 0..3);
        let mut mg = MultiGpu::with_defaults(3);
        panels(&mut mg, PAR_ROWS, 0..2);
        for _ in 0..4 {
            below.run(|_, _| {});
            cost.run(|_, _| {});
            mg.run(|_, _| {});
        }
        assert_eq!(starts(), start, "below the grain no team starts");
        // the last device's panel puts the machine above the grain
        let mark = mg.device(2).mem_checkpoint();
        panels(&mut mg, PAR_ROWS, 2..3);
        let team = usize::from(host_cores() > 1);
        for _ in 0..16 {
            mg.run(|_, _| {});
        }
        assert_eq!(starts(), start + team, "one start over any number of launches");
        assert_eq!(
            mg.team.as_ref().map(|t| t.workers()),
            (team > 0).then(|| host_cores().min(3) - 1)
        );
        // a rollback or a free takes it back below, and back above it the
        // same team serves
        mg.device_mut(2).mem_rollback(&mark);
        mg.run(|_, _| {});
        let ids = panels(&mut mg, PAR_ROWS, 2..3);
        mg.run(|_, _| {});
        mg.device_mut(2).free_mat(ids[0]);
        mg.run(|_, _| {});
        assert_eq!(starts(), start + team);
    }

    #[test]
    fn device_clocks_independent_until_transfer() {
        let mut mg = MultiGpu::with_defaults(2);
        let v0 = mg.device_mut(0).alloc_mat(100_000, 2).unwrap();
        let v1 = mg.device_mut(1).alloc_mat(1_000, 2).unwrap();
        mg.run(|i, d| {
            let v = if i == 0 { v0 } else { v1 };
            d.dot_cols(v, 0, 1);
        });
        assert!(mg.device(0).clock() > mg.device(1).clock());
        // a broadcast aligns the laggard to at least host + latency
        mg.broadcast(8).unwrap();
        assert!(mg.device(1).clock() >= mg.model().pcie_latency_s);
    }

    #[test]
    fn to_host_waits_for_slowest() {
        let mut mg = MultiGpu::with_defaults(2);
        let v0 = mg.device_mut(0).alloc_mat(1_000_000, 2).unwrap();
        mg.run(|i, d| {
            if i == 0 {
                d.dot_cols(v0, 0, 1);
            }
        });
        let slow = mg.device(0).clock();
        mg.to_host(&[8, 8]).unwrap();
        assert!(mg.host_time() > slow);
        assert!(mg.host_time() >= slow + mg.model().pcie_latency_s);
    }

    #[test]
    fn zero_byte_messages_skipped() {
        let mut mg = MultiGpu::with_defaults(3);
        mg.to_host(&[0, 0, 0]).unwrap();
        assert_eq!(mg.counters().msgs_to_host, 0);
        assert_eq!(mg.host_time(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut mg = MultiGpu::with_defaults(2);
        mg.to_host(&[100, 50]).unwrap();
        mg.broadcast(8).unwrap();
        let c = mg.counters();
        assert_eq!(c.msgs_to_host, 2);
        assert_eq!(c.bytes_to_host, 150);
        assert_eq!(c.msgs_to_dev, 2);
        assert_eq!(c.bytes_to_dev, 16);
        assert_eq!(c.total_msgs(), 4);
        mg.reset_counters();
        assert_eq!(mg.counters(), CommCounters::default());
    }

    #[test]
    fn f32_tagged_transfers_split_counters() {
        let mut mg = MultiGpu::with_defaults(2);
        // f64-tagged traffic leaves the f32 split at zero
        mg.to_host(&[100, 60]).unwrap();
        assert_eq!(mg.counters().bytes_to_host_f32, 0);
        assert_eq!(mg.counters().msgs_to_host_f32, 0);
        // f32-tagged traffic lands in both the totals and the split
        let up = mg.to_host_async(&[40, 0], Precision::F32).unwrap();
        mg.host_wait_all(&up);
        let down = mg.to_devices_async(&[0, 24], Precision::F32).unwrap();
        for (d, e) in down.iter().enumerate() {
            if let Some(e) = e {
                mg.wait_event(d, *e).unwrap();
            }
        }
        let c = mg.counters();
        assert_eq!(c.bytes_to_host, 200);
        assert_eq!(c.bytes_to_host_f32, 40);
        assert_eq!(c.msgs_to_host_f32, 1);
        assert_eq!(c.bytes_to_dev, 24);
        assert_eq!(c.bytes_to_dev_f32, 24);
        assert_eq!(c.msgs_to_dev_f32, 1);
        assert_eq!(c.total_bytes_f32(), 64);
    }

    #[test]
    fn sync_aligns_clocks() {
        let mut mg = MultiGpu::with_defaults(2);
        let v = mg.device_mut(0).alloc_mat(100_000, 2).unwrap();
        mg.run(|i, d| {
            if i == 0 {
                d.dot_cols(v, 0, 1);
            }
        });
        mg.sync();
        assert_eq!(mg.device(0).clock(), mg.device(1).clock());
        assert_eq!(mg.host_time(), mg.device(0).clock());
    }

    #[test]
    fn transfers_overlap_across_links() {
        // two devices sending the same payload should cost about one
        // transfer, not two (separate links).
        let mut mg1 = MultiGpu::with_defaults(1);
        mg1.to_host(&[1_000_000]).unwrap();
        let t1 = mg1.host_time();
        let mut mg2 = MultiGpu::with_defaults(2);
        mg2.to_host(&[1_000_000, 1_000_000]).unwrap();
        let t2 = mg2.host_time();
        assert!(t2 < 1.2 * t1, "no overlap: {t2} vs {t1}");
    }

    #[test]
    fn remote_node_devices_pay_network_hop() {
        use crate::model::KernelConfig;
        let model = crate::model::PerfModel::default();
        let expected_local = model.pcie_time(1000);
        let expected_remote = model.remote_link_time(1000);
        assert!(expected_remote > expected_local);
        let mut mg = MultiGpu::with_topology(vec![0, 1], model, KernelConfig::default());
        assert_eq!(mg.node_of(0), 0);
        assert_eq!(mg.node_of(1), 1);
        mg.to_host(&[1000, 0]).unwrap();
        let t_local = mg.host_time();
        mg.reset_time();
        mg.to_host(&[0, 1000]).unwrap();
        let t_remote = mg.host_time();
        assert!(t_remote > t_local, "remote {t_remote} vs local {t_local}");
    }

    #[test]
    fn reset_time_clears_everything() {
        let mut mg = MultiGpu::with_defaults(2);
        mg.to_host(&[8, 8]).unwrap();
        mg.host_compute(1e9, 1e6);
        mg.reset_time();
        assert_eq!(mg.time(), 0.0);
        assert_eq!(mg.counters(), CommCounters::default());
    }

    #[test]
    fn transfer_retries_pay_time_and_count() {
        // clean run vs. fault run over the same messages: the faulty run
        // must be strictly slower and must record retries.
        let mut clean = MultiGpu::with_defaults(2);
        for _ in 0..50 {
            clean.to_host(&[1000, 1000]).unwrap();
        }
        let t_clean = clean.host_time();

        let mut faulty = MultiGpu::with_defaults(2);
        faulty.set_fault_plan(FaultPlan::new(11).with_transfer_faults(0.3));
        faulty.set_transfer_retry(RetryPolicy::attempts(12)); // never exhaust at rate 0.3
        for _ in 0..50 {
            faulty.to_host(&[1000, 1000]).unwrap();
        }
        let c = faulty.counters();
        assert!(c.transfer_retries > 0, "rate 0.3 over 100 messages must retry");
        assert!(faulty.host_time() > t_clean, "retries must cost simulated time");
        // message/byte counters count logical messages, not attempts
        assert_eq!(c.msgs_to_host, clean.counters().msgs_to_host);
        assert_eq!(c.bytes_to_host, clean.counters().bytes_to_host);
    }

    #[test]
    fn exhausted_retries_surface_typed_error() {
        let mut mg = MultiGpu::with_defaults(1);
        mg.set_fault_plan(FaultPlan::new(5).with_transfer_faults(1.0));
        mg.set_transfer_retry(RetryPolicy::attempts(3));
        let err = mg.to_host(&[8]).unwrap_err();
        assert_eq!(err, GpuSimError::TransferFailed { device: 0, attempts: 3 });
    }

    #[test]
    fn lost_device_fails_transfers_but_not_others() {
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_fault_plan(FaultPlan::new(0).with_device_loss(1, 0));
        let v = mg.device_mut(1).alloc_mat(10, 2).unwrap();
        mg.run(|i, d| {
            if i == 1 {
                d.dot_cols(v, 0, 1); // first op kills device 1
            }
        });
        assert!(mg.device(1).is_lost());
        assert!(!mg.device(0).is_lost());
        // messages touching only device 0 still work
        mg.to_host(&[8, 0]).unwrap();
        // any message touching device 1 fails typed
        let err = mg.to_host(&[8, 8]).unwrap_err();
        assert_eq!(err, GpuSimError::DeviceLost { device: 1 });
        let err = mg.broadcast(8).unwrap_err();
        assert_eq!(err, GpuSimError::DeviceLost { device: 1 });
    }

    #[test]
    fn zero_rate_plan_transfers_bit_identical() {
        let run = |plan: Option<FaultPlan>| {
            let mut mg = MultiGpu::with_defaults(3);
            if let Some(p) = plan {
                mg.set_fault_plan(p);
            }
            mg.to_host(&[64, 128, 256]).unwrap();
            mg.broadcast(32).unwrap();
            mg.to_host(&[16; 3]).unwrap();
            (mg.time(), mg.host_time(), mg.counters())
        };
        let (t0, h0, c0) = run(None);
        let (t1, h1, c1) = run(Some(FaultPlan::new(999)));
        assert_eq!(t0.to_bits(), t1.to_bits());
        assert_eq!(h0.to_bits(), h1.to_bits());
        assert_eq!(c0, c1);
    }

    #[test]
    fn sync_and_fast_forward_skip_lost_devices() {
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_fault_plan(FaultPlan::new(0).with_device_loss(1, 0));
        let v1 = mg.device_mut(1).alloc_mat(10, 2).unwrap();
        let v0 = mg.device_mut(0).alloc_mat(100_000, 2).unwrap();
        mg.run(|i, d| {
            if i == 1 {
                d.dot_cols(v1, 0, 1); // first op kills device 1
            }
        });
        assert!(mg.device(1).is_lost());
        let frozen = mg.device(1).clock();
        mg.run(|i, d| {
            if i == 0 {
                d.dot_cols(v0, 0, 1);
            }
        });
        mg.sync();
        assert_eq!(mg.device(1).clock(), frozen, "sync must not thaw a frozen clock");
        assert!(mg.device(0).clock() > frozen);
        mg.fast_forward(mg.time() + 1.0);
        assert_eq!(mg.device(1).clock(), frozen, "fast_forward must not thaw a frozen clock");
    }

    #[test]
    fn event_driven_sync_is_noop() {
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_schedule(Schedule::EventDriven);
        assert_eq!(mg.schedule(), Schedule::EventDriven);
        let v = mg.device_mut(0).alloc_mat(100_000, 2).unwrap();
        mg.run(|i, d| {
            if i == 0 {
                d.dot_cols(v, 0, 1);
            }
        });
        let (c0, c1, h) = (mg.device(0).clock(), mg.device(1).clock(), mg.host_time());
        mg.sync();
        assert_eq!(mg.device(0).clock(), c0);
        assert_eq!(mg.device(1).clock(), c1);
        assert_eq!(mg.host_time(), h);
        // end-to-end time is still observable without flattening
        assert_eq!(mg.time(), c0);
    }

    #[test]
    fn events_carry_queue_timestamps() {
        let mut mg = MultiGpu::with_defaults(1);
        let v = mg.device_mut(0).alloc_mat(50_000, 2).unwrap();
        mg.run(|_, d| {
            d.dot_cols(v, 0, 1);
        });
        let e = mg.copy_async(Dir::ToHost, 0, 64, Precision::F64).unwrap();
        assert!(mg.events.time(e) > mg.device(0).clock());
        mg.host_wait_all(&[Some(e)]);
        assert!(mg.host_time() >= mg.events.time(e));
        // waiting on an already-fired event does not move a later queue
        mg.run(|_, d| {
            d.dot_cols(v, 0, 1);
        });
        let tail = mg.device(0).clock();
        mg.wait_event(0, e).unwrap();
        assert_eq!(mg.device(0).clock(), tail);
    }

    #[test]
    fn same_link_copies_serialize_but_links_overlap() {
        let mut mg = MultiGpu::with_defaults(1);
        let e1 = mg.copy_async(Dir::ToHost, 0, 1_000_000, Precision::F64).unwrap();
        let e2 = mg.copy_async(Dir::ToHost, 0, 1_000_000, Precision::F64).unwrap();
        let one = mg.model().pcie_time(1_000_000);
        assert_eq!(mg.events.time(e1), one);
        assert!((mg.events.time(e2) - 2.0 * one).abs() < 1e-12, "same link must serialize");

        let mut mg2 = MultiGpu::with_defaults(2);
        let f0 = mg2.copy_async(Dir::ToHost, 0, 1_000_000, Precision::F64).unwrap();
        let f1 = mg2.copy_async(Dir::ToHost, 1, 1_000_000, Precision::F64).unwrap();
        assert_eq!(mg2.events.time(f0), mg2.events.time(f1), "separate links overlap");
    }

    #[test]
    fn async_prefetch_overlaps_compute() {
        // synchronous schedule: the device waits for the arrival, then
        // computes — transfer and kernel serialize
        let mut sync_mg = MultiGpu::with_defaults(1);
        let v = sync_mg.device_mut(0).alloc_mat(200_000, 2).unwrap();
        sync_mg.to_devices(&[1_000_000]).unwrap();
        sync_mg.run(|_, d| {
            d.dot_cols(v, 0, 1);
        });
        let t_sync = sync_mg.time();

        // stream schedule: enqueue the copy, compute under it, then wait
        let mut ev_mg = MultiGpu::with_defaults(1);
        let v2 = ev_mg.device_mut(0).alloc_mat(200_000, 2).unwrap();
        let e = ev_mg.copy_async(Dir::ToDevice, 0, 1_000_000, Precision::F64).unwrap();
        ev_mg.run(|_, d| {
            d.dot_cols(v2, 0, 1);
        });
        ev_mg.wait_event(0, e).unwrap();
        let t_event = ev_mg.time();
        assert!(t_event < t_sync, "overlap must hide transfer: {t_event} vs {t_sync}");
        assert!(t_event >= ev_mg.events.time(e), "the dependency is still honored");
    }

    #[test]
    fn eager_wrappers_match_async_plus_wait() {
        let run_eager = || {
            let mut mg = MultiGpu::with_defaults(2);
            mg.to_host(&[64, 256]).unwrap();
            mg.to_devices(&[128, 0]).unwrap();
            (mg.host_time(), mg.device(0).clock(), mg.device(1).clock(), mg.counters())
        };
        let run_async = || {
            let mut mg = MultiGpu::with_defaults(2);
            let up = mg.to_host_async(&[64, 256], Precision::F64).unwrap();
            mg.host_wait_all(&up);
            let down = mg.to_devices_async(&[128, 0], Precision::F64).unwrap();
            let mut msgs = 0u64;
            for (d, e) in down.iter().enumerate() {
                if let Some(e) = e {
                    mg.wait_event(d, *e).unwrap();
                    msgs += 1;
                }
            }
            mg.advance_host(msgs as f64 * mg.model().host_msg_s);
            (mg.host_time(), mg.device(0).clock(), mg.device(1).clock(), mg.counters())
        };
        let (h0, a0, b0, c0) = run_eager();
        let (h1, a1, b1, c1) = run_async();
        assert_eq!(h0.to_bits(), h1.to_bits());
        assert_eq!(a0.to_bits(), a1.to_bits());
        assert_eq!(b0.to_bits(), b1.to_bits());
        assert_eq!(c0, c1);
    }

    #[test]
    fn traces_record_copies_and_waits() {
        let mut mg = MultiGpu::with_defaults(2);
        mg.enable_trace();
        mg.to_devices(&[64, 64]).unwrap();
        mg.to_host(&[32, 0]).unwrap();
        let traces = mg.take_traces();
        assert!(traces[0].iter().any(|c| matches!(c, Cmd::CopyToDevice { bytes: 64, .. })));
        assert!(traces[0].iter().any(|c| matches!(c, Cmd::WaitEvent { .. })));
        assert!(traces[0].iter().any(|c| matches!(c, Cmd::CopyToHost { bytes: 32, .. })));
        assert!(traces[1].iter().all(|c| !matches!(c, Cmd::CopyToHost { .. })));
    }

    #[test]
    fn midflight_copy_to_lost_device_resolves_typed() {
        // regression: a copy issued while the device was alive must not
        // leave a silently-ignored dangling event if the device dies
        // before the consumer waits — the wait resolves to DeviceLost.
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_fault_plan(FaultPlan::new(0).with_device_loss(1, 1));
        let v = mg.device_mut(1).alloc_mat(10, 2).unwrap();
        let e = mg.copy_async(Dir::ToDevice, 1, 4096, Precision::F64).unwrap(); // issued alive
        mg.run(|i, d| {
            if i == 1 {
                d.dot_cols(v, 0, 1); // op 1 survives...
                d.dot_cols(v, 0, 1); // ...op 2 kills device 1 mid-flight
            }
        });
        assert!(mg.device(1).is_lost());
        let err = mg.wait_event(1, e).unwrap_err();
        assert_eq!(err, GpuSimError::DeviceLost { device: 1 });
        // the other device's waits are unaffected
        let e0 = mg.copy_async(Dir::ToDevice, 0, 64, Precision::F64).unwrap();
        mg.wait_event(0, e0).unwrap();
    }

    #[test]
    fn slowdown_scales_clock_but_not_results() {
        let work = |mg: &mut MultiGpu| {
            let v = mg.device_mut(0).alloc_mat(50_000, 2).unwrap();
            mg.device_mut(0).mat_mut(v).set_col(0, &vec![2.0; 50_000]);
            mg.device_mut(0).mat_mut(v).set_col(1, &vec![3.0; 50_000]);
            mg.run_map(|_, d| d.dot_cols(v, 0, 1))[0]
        };
        let mut clean = MultiGpu::with_defaults(1);
        let r0 = work(&mut clean);
        let mut slow = MultiGpu::with_defaults(1);
        slow.set_fault_plan(FaultPlan::new(1).with_slowdown(0, 4.0, 0));
        let r1 = work(&mut slow);
        assert_eq!(r0.to_bits(), r1.to_bits(), "slowdown must not touch arithmetic");
        let (tc, ts) = (clean.device(0).clock(), slow.device(0).clock());
        assert!((ts - 4.0 * tc).abs() < 1e-12 * ts, "4x slowdown: {ts} vs {tc}");
        assert!(slow.device(0).ewma_slowdown() > 1.0);
        assert_eq!(clean.device(0).ewma_slowdown(), 1.0);
    }

    #[test]
    fn link_degrade_scales_transfers() {
        let mut clean = MultiGpu::with_defaults(2);
        clean.to_host(&[1_000_000, 1_000_000]).unwrap();
        let mut deg = MultiGpu::with_defaults(2);
        deg.set_fault_plan(FaultPlan::new(1).with_link_degrade(1, 3.0));
        deg.to_host(&[1_000_000, 1_000_000]).unwrap();
        assert!(deg.host_time() > clean.host_time());
        // counters unchanged: degradation is time, not traffic
        assert_eq!(deg.counters(), clean.counters());
    }

    #[test]
    fn zero_rate_perf_plan_bit_identical() {
        // unit factors and zero stall rate must be indistinguishable from
        // no plan at all: clocks, health accounting, counters.
        let run = |plan: Option<FaultPlan>| {
            let mut mg = MultiGpu::with_defaults(2);
            if let Some(p) = plan {
                mg.set_fault_plan(p);
            }
            let v = mg.device_mut(0).alloc_mat(10_000, 2).unwrap();
            mg.run(|i, d| {
                if i == 0 {
                    d.dot_cols(v, 0, 1);
                }
            });
            mg.to_host(&[64, 128]).unwrap();
            mg.broadcast(32).unwrap();
            (
                mg.time().to_bits(),
                mg.device(0).clock().to_bits(),
                mg.device(0).busy_time().to_bits(),
                mg.device(0).ewma_slowdown().to_bits(),
                mg.counters(),
            )
        };
        let a = run(None);
        let b = run(Some(
            FaultPlan::new(77)
                .with_slowdown(0, 1.0, 0)
                .with_link_degrade(1, 1.0)
                .with_stalls(0, 0.0, 5.0),
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn watchdog_declares_hung_device_lost_with_honest_clock() {
        let mut mg = MultiGpu::with_defaults(2);
        // device 1 hangs 50 s on every op; device 0 is healthy
        mg.set_fault_plan(FaultPlan::new(4).with_stalls(1, 1.0, 50.0));
        let v0 = mg.device_mut(0).alloc_mat(10_000, 2).unwrap();
        let v1 = mg.device_mut(1).alloc_mat(10_000, 2).unwrap();
        mg.run(|i, d| {
            let v = if i == 0 { v0 } else { v1 };
            d.dot_cols(v, 0, 1);
        });
        // nothing hung yet by the 100 s standard, everything by 1 s
        assert!(mg.watchdog(100.0).is_empty());
        let hr = mg.health_report();
        assert!(hr.devices[1].max_overshoot_s > 1.0);
        assert!(hr.imbalance() > 1.0);
        let newly = mg.watchdog(1.0);
        assert_eq!(newly, vec![1]);
        assert!(mg.device(1).is_lost());
        // the frozen clock is detection time, not the 50 s queue tail
        let healthy = mg.device(0).clock();
        assert!((mg.device(1).clock() - (healthy + 1.0)).abs() < 1e-12);
        // the rewound tail is accounted: earlier time() samples saw the
        // stalled projection, and the difference is now auditable
        assert!(mg.time_reclaimed() > 40.0, "reclaimed {}", mg.time_reclaimed());
        // idempotent: a second sweep finds nothing new
        assert!(mg.watchdog(1.0).is_empty());
        // weights: lost device gets zero
        let w = mg.health_report().throughput_weights();
        assert_eq!(w[1], 0.0);
        assert!(w[0] > 0.0);
    }

    #[test]
    fn respawn_carries_time_policies_counters_and_traces() {
        let mut mg = MultiGpu::with_defaults(2);
        mg.set_schedule(Schedule::EventDriven);
        mg.set_transfer_retry(RetryPolicy::attempts(3));
        mg.enable_trace();
        let v: Vec<MatId> = (0..2).map(|d| mg.device_mut(d).alloc_mat(1000, 2).unwrap()).collect();
        mg.run(|d, dev| {
            dev.dot_cols(v[d], 0, 1);
        });
        mg.to_host(&[100, 0]).unwrap();
        let (t, counters) = (mg.time(), mg.counters());
        mg.respawn(1);
        assert_eq!(mg.n_gpus(), 1);
        assert_eq!(mg.device(0).mem_used(), 0, "a fresh device holds nothing");
        assert_eq!(mg.time(), t);
        assert_eq!(mg.counters(), counters);
        assert_eq!(mg.schedule(), Schedule::EventDriven);
        assert_eq!(mg.transfer_retry().max_attempts, 3);
        mg.broadcast(50).unwrap();
        // both executors' commands, the retired device's included
        let traces = mg.take_traces();
        assert_eq!(traces.len(), 2);
        let at = |c: fn(&Cmd) -> bool| traces[0].iter().position(c).expect("recorded");
        let up = at(|c| matches!(c, Cmd::CopyToHost { bytes: 100, .. }));
        let down = at(|c| matches!(c, Cmd::CopyToDevice { bytes: 50, .. }));
        assert!(at(|c| matches!(c, Cmd::Kernel { .. })) < up && up < down);
        assert!(!traces[1].is_empty());
        assert!(traces[1].iter().all(|c| matches!(c, Cmd::Kernel { .. })));
        assert!(mg.take_traces().iter().all(Vec::is_empty), "drained");
    }

    #[test]
    fn reset_time_clears_link_timelines_and_events() {
        let mut mg = MultiGpu::with_defaults(1);
        let e = mg.copy_async(Dir::ToHost, 0, 1_000_000, Precision::F64).unwrap();
        let first = mg.events.time(e);
        mg.reset_time();
        // after the reset the link is idle again: the same copy lands at
        // the same finish time instead of queuing behind the first
        let e2 = mg.copy_async(Dir::ToHost, 0, 1_000_000, Precision::F64).unwrap();
        assert_eq!(mg.events.time(e2).to_bits(), first.to_bits());
    }
}
