//! Sharded serving frontend.
//!
//! The library's fleet APIs ([`crate::SmilerSystem`]) are synchronous: one
//! caller drives every sensor in lockstep, and batching lives there — one
//! fleet search per step covers every sensor. A deployment serving heavy
//! traffic looks different — many concurrent clients each asking about one
//! sensor — and this module serves that shape:
//!
//! * the fleet is **partitioned across N shard workers** (sensor `s` lives
//!   on shard `s % N`), each owning its sensors outright — no locks on the
//!   request path;
//! * requests enter through **bounded MPMC queues**; a full queue returns
//!   a typed [`ServeError::Overloaded`] immediately (admission control —
//!   the caller sheds to [`DegradationLevel::LastValue`] locally rather
//!   than blocking) and queue pressure below the shed point maps onto the
//!   degradation ladder via [`DegradationLevel::for_queue_pressure`];
//! * a worker serves **one request at a time**, in queue order: a forecast
//!   predicts off its sensor's own search, an observation advances it;
//! * per-request **deadlines propagate** into the worker's
//!   [`RequestPolicy`]: the budget remaining after queueing is what the
//!   ladder checkpoints see, so a request that waited too long degrades
//!   instead of overshooting;
//! * a sensor that panics is **quarantined shard-locally** (the PR 3
//!   boundary) and its shard keeps draining — one poisoned sensor never
//!   stalls a queue;
//! * shutdown **drains**: queued requests complete, then workers exit;
//!   late requests get a typed [`ServeError::ShuttingDown`].
//!
//! Observability (`serve.*`): per-shard queue-depth gauges, shed/timeout
//! counters and end-to-end request latency. On top of those
//! process-global aggregates the server keeps **request-level
//! accountability**:
//!
//! * when a trace sink is installed ([`smiler_obs::trace`]), admission
//!   allocates a [`RequestTrace`] that rides the queue with the job; the
//!   worker marks dequeue / search / predict milestones, the ladder
//!   annotates *why* a rung answered, and exactly one terminal record per
//!   admitted request reaches the sink (tail-sampled);
//! * always-on windowed telemetry — tail latency overall and per rung,
//!   SLO error-budget burn, WAL-append latency, per-sensor health and
//!   model quality — surfaces through [`ServeHandle::status_report`].
//!
//! Tracing and telemetry never touch the prediction math: forecasts are
//! bitwise identical with tracing on or off.

use crate::degrade::{DegradationLevel, Prediction, RequestPolicy};
use crate::durable::StoreStatus;
use crate::predictor::QualitySnapshot;
use crate::regime::RegimeSnapshot;
use crate::sensor::SensorPredictor;
use crate::system::{panic_message, SensorFault, SensorHealth};
use crossbeam::channel::{self, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use smiler_gpu::Device;
use smiler_obs::trace::RequestTrace;
use smiler_obs::{SloReport, SloTracker, TailQuantiles, WindowedHistogram};
use smiler_store::SharedStore;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Width of one telemetry window; [`TELEMETRY_KEEP`] of them are
/// retained, so status reports cover roughly the last minute.
const TELEMETRY_WINDOW: Duration = Duration::from_secs(1);
/// Closed telemetry windows retained per histogram / SLO ring.
const TELEMETRY_KEEP: usize = 60;

/// Configuration of the serving frontend.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Number of shard workers the fleet is partitioned across.
    pub shards: usize,
    /// Bounded queue capacity per shard; a full queue sheds load with
    /// [`ServeError::Overloaded`] instead of blocking.
    pub queue_capacity: usize,
    /// Base policy for every request; per-request deadlines override
    /// `policy.deadline` with the budget remaining after queueing, and
    /// queue pressure can only push `policy.entry_level` further down the
    /// ladder.
    pub policy: RequestPolicy,
    /// End-to-end latency target for SLO accounting (admission →
    /// terminal). Purely observational: it never changes rung selection.
    pub slo_target: Duration,
    /// Allowed fraction of requests over `slo_target` — the error budget
    /// the burn rate in [`StatusReport`] is measured against.
    pub slo_budget: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 64,
            policy: RequestPolicy::default(),
            slo_target: Duration::from_millis(50),
            slo_budget: 0.01,
        }
    }
}

/// Typed errors of the serving frontend. Admission-control errors are
/// returned to the *caller* — the server itself never blocks or panics on
/// them.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The shard's queue was full; the request was shed at admission.
    /// Callers should degrade locally ([`ServeError::shed_level`]).
    Overloaded {
        /// The shard whose queue was full.
        shard: usize,
        /// Queue depth observed at rejection.
        depth: usize,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The sensor id is outside the fleet.
    UnknownSensor {
        /// The requested sensor id.
        sensor: usize,
        /// Number of sensors the server owns.
        fleet: usize,
    },
    /// The server is draining or already stopped.
    ShuttingDown,
    /// The sensor could not serve the request (typed fault, quarantine, or
    /// a panic that just quarantined it).
    Fault(SensorFault),
    /// The durable store rejected the append; the observation was **not**
    /// absorbed (a value that is not durable must not advance the index).
    Durability {
        /// The store's error, stringified.
        message: String,
    },
    /// This node serves in the follower role: reads are welcome
    /// (slightly stale), but writes must go to the primary.
    NotPrimary {
        /// Where the caller should retry the write — the primary's
        /// address as this follower last knew it (may be empty while a
        /// promotion is in flight).
        leader_hint: String,
    },
}

impl ServeError {
    /// The ladder rung a shed caller should degrade to while the server is
    /// saturated: the last-value hold needs no server round-trip at all.
    /// `None` for errors that are not load-shedding.
    pub fn shed_level(&self) -> Option<DegradationLevel> {
        match self {
            ServeError::Overloaded { .. } => Some(DegradationLevel::LastValue),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { shard, depth, capacity } => {
                write!(f, "shard {shard} overloaded: queue {depth}/{capacity}")
            }
            ServeError::UnknownSensor { sensor, fleet } => {
                write!(f, "sensor {sensor} outside fleet of {fleet}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Fault(fault) => write!(f, "sensor fault: {fault}"),
            ServeError::Durability { message } => {
                write!(f, "durable store rejected the append: {message}")
            }
            ServeError::NotPrimary { leader_hint } => {
                if leader_hint.is_empty() {
                    write!(f, "this node is a follower; writes go to the primary")
                } else {
                    write!(f, "this node is a follower; writes go to the primary at {leader_hint}")
                }
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Fault(fault) => Some(fault),
            _ => None,
        }
    }
}

/// One queued forecast request.
struct ForecastJob {
    sensor: usize,
    h: usize,
    deadline: Option<Instant>,
    enqueued: Instant,
    reply: Sender<Result<Prediction, ServeError>>,
    /// Rides the queue with the job; `None` while no trace sink is
    /// installed, so the inactive path allocates nothing.
    trace: Option<RequestTrace>,
}

/// One queued observation.
struct ObserveJob {
    sensor: usize,
    value: f64,
    reply: Sender<Result<(), ServeError>>,
}

enum ShardMsg {
    Forecast(ForecastJob),
    Observe(ObserveJob),
    Shutdown,
}

/// Shared serving counters (lock-free; read by [`SmilerServer::stats`]).
#[derive(Debug, Default)]
struct ServeStats {
    served: AtomicU64,
    shed: AtomicU64,
    timeouts: AtomicU64,
    faults: AtomicU64,
    observed: AtomicU64,
    not_primary: AtomicU64,
}

/// A point-in-time snapshot of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ServeStatsSnapshot {
    /// Forecasts served (any rung, including degraded ones).
    pub served: u64,
    /// Requests rejected at admission because a queue was full.
    pub shed: u64,
    /// Requests whose deadline had fully expired while queued.
    pub timeouts: u64,
    /// Requests answered with a typed fault (quarantine, panic, error).
    pub faults: u64,
    /// Observations absorbed.
    pub observed: u64,
    /// Writes shed because this node serves in the follower role.
    pub not_primary: u64,
}

impl ServeStatsSnapshot {
    /// Forecasts a worker serves per dequeue: 1.0 once any forecast has
    /// been served, 0.0 before. Shards serve one request at a time, so
    /// this carries no information; it is kept only for the wire
    /// benchmark, which reports it as `serve.batch_mean`.
    pub fn mean_batch_size(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            1.0
        }
    }
}

impl ServeStats {
    fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            served: self.served.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            observed: self.observed.load(Ordering::Relaxed),
            not_primary: self.not_primary.load(Ordering::Relaxed),
        }
    }
}

/// Always-on windowed serving telemetry, shared by the shard workers and
/// every handle. Recording costs one short mutex section per request —
/// negligible against the prediction work — and never feeds back into
/// serving decisions.
struct Telemetry {
    started: Instant,
    /// Windowed end-to-end latency of served requests, seconds.
    latency: Mutex<LatencyWindows>,
    slo: Mutex<SloTracker>,
    /// Windowed WAL-append latency (store-backed serving only), seconds.
    wal_append: Mutex<WindowedHistogram>,
    /// Lifetime served count per ladder rung (`DegradationLevel::index`).
    served_by_rung: [AtomicU64; 4],
    /// Per-sensor health/quality rows, indexed by global sensor id.
    sensors: Mutex<Vec<SensorRow>>,
}

struct LatencyWindows {
    all: WindowedHistogram,
    by_rung: [WindowedHistogram; 4],
}

#[derive(Clone)]
struct SensorRow {
    served: u64,
    faults: u64,
    last_rung: Option<DegradationLevel>,
    quarantined: bool,
    quality: QualitySnapshot,
    regime: RegimeSnapshot,
}

impl Telemetry {
    fn new(fleet: usize, config: &ServeConfig) -> Telemetry {
        let fresh = || WindowedHistogram::new(TELEMETRY_WINDOW, TELEMETRY_KEEP);
        Telemetry {
            started: Instant::now(),
            latency: Mutex::new(LatencyWindows {
                all: fresh(),
                by_rung: std::array::from_fn(|_| fresh()),
            }),
            slo: Mutex::new(SloTracker::new(
                config.slo_target,
                config.slo_budget,
                TELEMETRY_WINDOW,
                TELEMETRY_KEEP,
            )),
            wal_append: Mutex::new(fresh()),
            served_by_rung: std::array::from_fn(|_| AtomicU64::new(0)),
            sensors: Mutex::new(vec![
                SensorRow {
                    served: 0,
                    faults: 0,
                    last_rung: None,
                    quarantined: false,
                    quality: QualitySnapshot::default(),
                    regime: RegimeSnapshot::default(),
                };
                fleet
            ]),
        }
    }

    fn record_served(&self, sensor: usize, level: DegradationLevel, latency: Duration) {
        self.served_by_rung[level.index()].fetch_add(1, Ordering::Relaxed);
        let seconds = latency.as_secs_f64();
        {
            let mut windows = self.latency.lock();
            windows.all.record(seconds);
            windows.by_rung[level.index()].record(seconds);
        }
        self.slo.lock().record(latency);
        let mut rows = self.sensors.lock();
        if let Some(row) = rows.get_mut(sensor) {
            row.served += 1;
            row.last_rung = Some(level);
        }
    }

    fn record_fault(&self, sensor: usize, quarantined: bool) {
        let mut rows = self.sensors.lock();
        if let Some(row) = rows.get_mut(sensor) {
            row.faults += 1;
            row.quarantined = row.quarantined || quarantined;
        }
    }

    fn update_quality(&self, sensor: usize, quality: QualitySnapshot, regime: RegimeSnapshot) {
        let mut rows = self.sensors.lock();
        if let Some(row) = rows.get_mut(sensor) {
            row.quality = quality;
            row.regime = regime;
        }
    }
}

/// Windowed latency breakdown of one ladder rung.
#[derive(Debug, Clone, serde::Serialize)]
pub struct RungStatus {
    /// The rung.
    pub rung: DegradationLevel,
    /// Lifetime forecasts served at this rung.
    pub served: u64,
    /// Windowed latency quantiles at this rung, seconds.
    pub latency: TailQuantiles,
}

/// Per-sensor health and model-quality row of a [`StatusReport`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct SensorStatusRow {
    /// Global sensor id.
    pub sensor: u64,
    /// Whether the sensor is quarantined on its shard.
    pub quarantined: bool,
    /// Lifetime forecasts served for this sensor.
    pub served: u64,
    /// Lifetime faults answered for this sensor.
    pub faults: u64,
    /// The rung that answered its most recent forecast.
    pub last_rung: Option<DegradationLevel>,
    /// Rolling one-step residual MAE and GP-interval coverage.
    pub quality: QualitySnapshot,
    /// Regime-detector state: CUSUM statistics and lifetime
    /// changepoint/outlier counts (all-zero while disabled).
    pub regime: RegimeSnapshot,
}

/// Which role a node plays in a replication cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum ClusterRole {
    /// Accepts writes; ships its WAL to followers.
    Primary,
    /// Tails the primary's WAL; serves slightly-stale reads, sheds writes
    /// with [`ServeError::NotPrimary`].
    Follower,
}

impl ClusterRole {
    /// Stable label for logs and the status line.
    pub fn as_str(self) -> &'static str {
        match self {
            ClusterRole::Primary => "primary",
            ClusterRole::Follower => "follower",
        }
    }
}

/// Per-follower replication lag as the primary sees it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct FollowerLag {
    /// The follower's self-declared id.
    pub follower: String,
    /// Highest WAL seq the follower has durably acknowledged.
    pub acked_seq: u64,
    /// Records the follower is behind the primary's WAL head.
    pub lag_records: u64,
    /// Milliseconds since the follower's last acknowledgement.
    pub lag_ms: f64,
}

/// Replication state surfaced through [`StatusReport`]: role, peers, and
/// either per-follower lag (primary) or the staleness window (follower).
#[derive(Debug, Clone, serde::Serialize)]
pub struct ClusterStatus {
    /// This node's role.
    pub role: ClusterRole,
    /// Peer addresses this node knows about.
    pub peers: Vec<String>,
    /// Where writes should go, as this node last knew it (empty while a
    /// promotion is in flight or when this node *is* the primary).
    pub leader_hint: String,
    /// Primary only: per-follower replication lag.
    pub followers: Vec<FollowerLag>,
    /// Follower only: highest WAL seq applied locally.
    pub applied_seq: u64,
    /// Follower only: milliseconds since the last record or heartbeat
    /// from the primary — the staleness window reads may lag by.
    pub staleness_ms: Option<f64>,
    /// Monotonic promotion epoch: bumped each time a follower is promoted
    /// to primary (0 = the founding primary).
    pub last_promotion_epoch: u64,
}

/// A structured point-in-time snapshot of the serving frontend: what an
/// operator (or the `--status-every` ticker) needs to judge fleet health
/// at a glance. Built by [`ServeHandle::status_report`].
#[derive(Debug, Clone, serde::Serialize)]
pub struct StatusReport {
    /// Seconds since the server started.
    pub uptime_seconds: f64,
    /// Number of sensors the server owns.
    pub fleet: u64,
    /// Number of shard workers.
    pub shards: u64,
    /// Instantaneous queue depth per shard.
    pub queue_depths: Vec<u64>,
    /// Lifetime serving counters.
    pub stats: ServeStatsSnapshot,
    /// Fraction of admission attempts rejected for queue pressure.
    pub shed_rate: f64,
    /// Windowed end-to-end latency quantiles, seconds (roughly the last
    /// minute; see `TELEMETRY_WINDOW`/`TELEMETRY_KEEP`).
    pub latency: TailQuantiles,
    /// The same windowed quantiles broken down per ladder rung, plus the
    /// lifetime rung mix.
    pub latency_by_rung: Vec<RungStatus>,
    /// SLO target, windowed violation counts, and error-budget burn.
    pub slo: SloReport,
    /// Windowed WAL-append latency, seconds (store-backed serving only).
    pub wal_append: Option<TailQuantiles>,
    /// Durable-store position: WAL head vs newest checkpoint.
    pub store: Option<StoreStatus>,
    /// Replication state (role, peers, lag), when clustering is active.
    pub cluster: Option<ClusterStatus>,
    /// Per-sensor health and model-quality telemetry.
    pub sensors: Vec<SensorStatusRow>,
}

impl StatusReport {
    /// One human-readable status line (the `--status-every` ticker).
    pub fn render_line(&self) -> String {
        let ms = |s: f64| s * 1e3;
        let depths = self.queue_depths.iter().map(|d| d.to_string()).collect::<Vec<_>>().join(",");
        let rungs = self
            .latency_by_rung
            .iter()
            .filter(|r| r.served > 0)
            .map(|r| format!("{}:{}", r.rung.as_str(), r.served))
            .collect::<Vec<_>>()
            .join(" ");
        let quarantined = self.sensors.iter().filter(|s| s.quarantined).count();
        let mut line = format!(
            "smiler up {:.1}s | q[{}] | served {} shed {} fault {} obs {} | p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms p999 {:.2}ms | slo {:.0}ms burn {:.2}",
            self.uptime_seconds,
            depths,
            self.stats.served,
            self.stats.shed,
            self.stats.faults,
            self.stats.observed,
            ms(self.latency.p50),
            ms(self.latency.p95),
            ms(self.latency.p99),
            ms(self.latency.p999),
            self.slo.target_ms,
            self.slo.burn_rate,
        );
        if !rungs.is_empty() {
            line.push_str(&format!(" | rungs {rungs}"));
        }
        if let Some(store) = &self.store {
            line.push_str(&format!(" | wal lag {}", store.wal_lag));
        }
        if let Some(cluster) = &self.cluster {
            line.push_str(&format!(" | role {}", cluster.role.as_str()));
            match cluster.role {
                ClusterRole::Primary => {
                    if !cluster.followers.is_empty() {
                        let worst_records =
                            cluster.followers.iter().map(|f| f.lag_records).max().unwrap_or(0);
                        let worst_ms =
                            cluster.followers.iter().map(|f| f.lag_ms).fold(0.0f64, f64::max);
                        line.push_str(&format!(
                            "({} followers, lag {}r/{:.0}ms)",
                            cluster.followers.len(),
                            worst_records,
                            worst_ms
                        ));
                    }
                }
                ClusterRole::Follower => {
                    if let Some(staleness) = cluster.staleness_ms {
                        line.push_str(&format!(
                            "(applied {}, stale {:.0}ms)",
                            cluster.applied_seq, staleness
                        ));
                    }
                }
            }
            if cluster.last_promotion_epoch > 0 {
                line.push_str(&format!(" epoch {}", cluster.last_promotion_epoch));
            }
        }
        if quarantined > 0 {
            line.push_str(&format!(" | quarantined {quarantined}"));
        }
        line
    }
}

/// A forecast submitted but not yet answered. Dropping it abandons the
/// request (the worker's reply is discarded).
pub struct PendingForecast {
    rx: Receiver<Result<Prediction, ServeError>>,
}

impl PendingForecast {
    /// Block until the shard worker answers. A worker that exited before
    /// answering (shutdown race) reads as [`ServeError::ShuttingDown`].
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking completion probe for event-loop callers (the network
    /// reactor polls its in-flight window with this): `None` while the
    /// worker has not answered yet. A worker that exited before answering
    /// reads as [`ServeError::ShuttingDown`].
    pub fn try_wait(&self) -> Option<Result<Prediction, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// An observation submitted but not yet absorbed. Dropping it abandons the
/// acknowledgement (the append itself still happens).
pub struct PendingObserve {
    rx: Receiver<Result<(), ServeError>>,
}

impl PendingObserve {
    /// Block until the shard worker acknowledges the observation.
    pub fn wait(self) -> Result<(), ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking completion probe; `None` while unacknowledged.
    pub fn try_wait(&self) -> Option<Result<(), ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Clonable client handle: routes requests to shard queues.
#[derive(Clone)]
pub struct ServeHandle {
    senders: Vec<Sender<ShardMsg>>,
    fleet: usize,
    stats: Arc<ServeStats>,
    telemetry: Arc<Telemetry>,
    store: Option<SharedStore>,
    /// Replication state, shared with the cluster layer (which refreshes
    /// lag/staleness periodically). `None` when not clustered.
    cluster: Arc<parking_lot::RwLock<Option<ClusterStatus>>>,
}

impl ServeHandle {
    /// Forecast horizon `h` for `sensor`, blocking until served.
    pub fn forecast(&self, sensor: usize, h: usize) -> Result<Prediction, ServeError> {
        self.submit_forecast(sensor, h, None)?.wait()
    }

    /// Forecast with a latency budget measured from *now* (so queueing time
    /// counts against it — the worker sees only the remaining budget).
    pub fn forecast_with_deadline(
        &self,
        sensor: usize,
        h: usize,
        budget: Duration,
    ) -> Result<Prediction, ServeError> {
        self.submit_forecast(sensor, h, Some(budget))?.wait()
    }

    /// Enqueue a forecast without waiting for the answer. Admission control
    /// happens here: a full shard queue returns
    /// [`ServeError::Overloaded`] immediately.
    pub fn submit_forecast(
        &self,
        sensor: usize,
        h: usize,
        budget: Option<Duration>,
    ) -> Result<PendingForecast, ServeError> {
        let trace = smiler_obs::trace::active()
            .then(|| RequestTrace::begin(sensor, h, sensor % self.senders.len()));
        self.submit_forecast_traced(sensor, h, budget, trace)
    }

    /// [`ServeHandle::submit_forecast`] with a caller-provided trace: the
    /// network frontend begins the trace at decode time so connection
    /// read/decode milestones precede admission on the same timeline. The
    /// trace reaches its terminal record on every path, including
    /// rejection here.
    pub fn submit_forecast_traced(
        &self,
        sensor: usize,
        h: usize,
        budget: Option<Duration>,
        trace: Option<RequestTrace>,
    ) -> Result<PendingForecast, ServeError> {
        if sensor >= self.fleet {
            if let Some(mut trace) = trace {
                trace.finish_error("unknown_sensor");
                smiler_obs::trace::submit(trace);
            }
            return Err(ServeError::UnknownSensor { sensor, fleet: self.fleet });
        }
        let shard = sensor % self.senders.len();
        let now = Instant::now();
        let (reply, rx) = channel::bounded(1);
        let job = ForecastJob {
            sensor,
            h,
            deadline: budget.map(|b| now + b),
            enqueued: now,
            reply,
            trace,
        };
        match self.senders[shard].try_send(ShardMsg::Forecast(job)) {
            Ok(()) => Ok(PendingForecast { rx }),
            Err(TrySendError::Full(msg)) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                if smiler_obs::enabled() {
                    smiler_obs::count("serve.shed", &format!("shard={shard}"), 1);
                }
                // The bounced job carries the trace back: finish it here so
                // shed requests get their terminal record too.
                if let ShardMsg::Forecast(job) = msg {
                    if let Some(mut trace) = job.trace {
                        trace.finish_shed();
                        smiler_obs::trace::submit(trace);
                    }
                }
                Err(ServeError::Overloaded {
                    shard,
                    depth: self.senders[shard].len(),
                    capacity: self.senders[shard].capacity(),
                })
            }
            Err(TrySendError::Disconnected(msg)) => {
                if let ShardMsg::Forecast(job) = msg {
                    if let Some(mut trace) = job.trace {
                        trace.finish_error("shutting_down");
                        smiler_obs::trace::submit(trace);
                    }
                }
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Feed `sensor` one observed value, blocking until absorbed. Subject
    /// to the same admission control as forecasts.
    pub fn observe(&self, sensor: usize, value: f64) -> Result<(), ServeError> {
        self.submit_observe(sensor, value)?.wait()
    }

    /// Enqueue an observation without waiting for the acknowledgement.
    /// Admission control happens here, exactly as for forecasts — plus
    /// role-aware admission: a node serving in the follower role sheds
    /// every write with [`ServeError::NotPrimary`] *before* it can touch
    /// a queue (followers absorb state only from the replication stream,
    /// never from clients, or their WAL would diverge from the primary's).
    pub fn submit_observe(&self, sensor: usize, value: f64) -> Result<PendingObserve, ServeError> {
        if let Some(cluster) = self.cluster.read().as_ref() {
            if cluster.role == ClusterRole::Follower {
                self.stats.not_primary.fetch_add(1, Ordering::Relaxed);
                if smiler_obs::enabled() {
                    smiler_obs::count("serve.not_primary", "", 1);
                }
                return Err(ServeError::NotPrimary { leader_hint: cluster.leader_hint.clone() });
            }
        }
        self.enqueue_observe(sensor, value)
    }

    /// Apply one observation that arrived over the **replication stream**,
    /// bypassing role-aware admission. This is the follower's internal
    /// ingest path: the record is already durable in the follower's own
    /// WAL (appended by `smiler-cluster` with the primary's sequence
    /// number), so this only advances the live stale-read predictors.
    /// Clients never reach this — their writes go through
    /// [`ServeHandle::submit_observe`] and are shed with
    /// [`ServeError::NotPrimary`].
    pub fn apply_replicated_observe(
        &self,
        sensor: usize,
        value: f64,
    ) -> Result<PendingObserve, ServeError> {
        self.enqueue_observe(sensor, value)
    }

    fn enqueue_observe(&self, sensor: usize, value: f64) -> Result<PendingObserve, ServeError> {
        if sensor >= self.fleet {
            return Err(ServeError::UnknownSensor { sensor, fleet: self.fleet });
        }
        let shard = sensor % self.senders.len();
        let (reply, rx) = channel::bounded(1);
        let job = ObserveJob { sensor, value, reply };
        match self.senders[shard].try_send(ShardMsg::Observe(job)) {
            Ok(()) => Ok(PendingObserve { rx }),
            Err(TrySendError::Full(_)) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                if smiler_obs::enabled() {
                    smiler_obs::count("serve.shed", &format!("shard={shard}"), 1);
                }
                Err(ServeError::Overloaded {
                    shard,
                    depth: self.senders[shard].len(),
                    capacity: self.senders[shard].capacity(),
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Number of sensors the server owns.
    pub fn fleet_size(&self) -> usize {
        self.fleet
    }

    /// Number of shard workers behind this handle. Sensor `s` is owned by
    /// shard `s % shard_count()`; the network frontend uses this to stamp
    /// the owning shard on traces it begins at decode time.
    pub fn shard_count(&self) -> usize {
        self.senders.len()
    }

    /// A structured snapshot of fleet health: queue depths, rung mix,
    /// windowed tail latency (overall and per rung), SLO burn, store
    /// position, and per-sensor model-quality telemetry.
    pub fn status_report(&self) -> StatusReport {
        let stats = self.stats.snapshot();
        let admissions = stats.served + stats.faults + stats.observed + stats.shed;
        let shed_rate = if admissions == 0 { 0.0 } else { stats.shed as f64 / admissions as f64 };
        let telemetry = &self.telemetry;
        let (latency, latency_by_rung) = {
            let mut windows = telemetry.latency.lock();
            let all = windows.all.quantiles();
            let by_rung = DegradationLevel::ALL
                .iter()
                .map(|&rung| RungStatus {
                    rung,
                    served: telemetry.served_by_rung[rung.index()].load(Ordering::Relaxed),
                    latency: windows.by_rung[rung.index()].quantiles(),
                })
                .collect();
            (all, by_rung)
        };
        let slo = telemetry.slo.lock().report();
        let wal_append = self.store.as_ref().map(|_| telemetry.wal_append.lock().quantiles());
        let store = self.store.as_ref().map(|s| crate::durable::store_status(&s.lock()));
        let sensors = telemetry
            .sensors
            .lock()
            .iter()
            .enumerate()
            .map(|(id, row)| SensorStatusRow {
                sensor: id as u64,
                quarantined: row.quarantined,
                served: row.served,
                faults: row.faults,
                last_rung: row.last_rung,
                quality: row.quality,
                regime: row.regime,
            })
            .collect();
        StatusReport {
            uptime_seconds: telemetry.started.elapsed().as_secs_f64(),
            fleet: self.fleet as u64,
            shards: self.senders.len() as u64,
            queue_depths: self.senders.iter().map(|s| s.len() as u64).collect(),
            stats,
            shed_rate,
            latency,
            latency_by_rung,
            slo,
            wal_append,
            store,
            sensors,
            cluster: self.cluster.read().clone(),
        }
    }

    /// Publish (or clear) this node's cluster role for admission control
    /// and `/status` reporting. `smiler-cluster` calls this when a node
    /// joins as a follower, refreshes its lag figures, or is promoted.
    pub fn set_cluster_status(&self, status: Option<ClusterStatus>) {
        *self.cluster.write() = status;
    }

    /// The most recently published cluster status, if this node runs in a
    /// cluster at all.
    pub fn cluster_status(&self) -> Option<ClusterStatus> {
        self.cluster.read().clone()
    }
}

/// The serving frontend: shard workers plus the client handle factory.
pub struct SmilerServer {
    handle: ServeHandle,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Workers hand their sensors (and health) back through this when they
    /// exit, so a drained server can checkpoint the whole fleet.
    drained: Receiver<(Vec<SensorPredictor>, Vec<SensorHealth>)>,
    store: Option<SharedStore>,
}

impl SmilerServer {
    /// Partition `sensors` across shard workers and start serving. Sensor
    /// ids are their positions in `sensors`; sensor `s` lands on shard
    /// `s % shards`. Each sensor launches on the device it was built
    /// with, so the server itself never touches `_device`; the parameter
    /// stays for existing callers.
    pub fn start(_device: Arc<Device>, sensors: Vec<SensorPredictor>, config: ServeConfig) -> Self {
        Self::start_inner(sensors, config, None)
    }

    /// Like [`SmilerServer::start`], with a durable store attached: every
    /// absorbed observation is WAL-logged *before* the sensor's index
    /// advances, and [`SmilerServer::shutdown`] checkpoints the drained
    /// fleet so a later `serve --data-dir` restart resumes warm.
    pub fn start_with_store(
        _device: Arc<Device>,
        sensors: Vec<SensorPredictor>,
        config: ServeConfig,
        store: SharedStore,
    ) -> Self {
        Self::start_inner(sensors, config, Some(store))
    }

    fn start_inner(
        sensors: Vec<SensorPredictor>,
        config: ServeConfig,
        store: Option<SharedStore>,
    ) -> Self {
        let shards = config.shards.max(1);
        let fleet = sensors.len();
        let stats = Arc::new(ServeStats::default());
        let telemetry = Arc::new(Telemetry::new(fleet, &config));

        let mut partitions: Vec<Vec<SensorPredictor>> = Vec::new();
        partitions.resize_with(shards, Vec::new);
        for (id, sensor) in sensors.into_iter().enumerate() {
            partitions[id % shards].push(sensor);
        }

        let (drained_tx, drained) = channel::bounded(shards);
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, part) in partitions.into_iter().enumerate() {
            let (tx, rx) = channel::bounded::<ShardMsg>(config.queue_capacity.max(1));
            senders.push(tx);
            let worker = ShardWorker {
                shard,
                shards,
                health: vec![SensorHealth::Healthy; part.len()],
                sensors: part,
                config,
                stats: Arc::clone(&stats),
                telemetry: Arc::clone(&telemetry),
                rx,
                store: store.clone(),
                drained: drained_tx.clone(),
            };
            workers.push(std::thread::spawn(move || worker.run()));
        }
        let handle = ServeHandle {
            senders,
            fleet,
            stats,
            telemetry,
            store: store.clone(),
            cluster: Arc::new(parking_lot::RwLock::new(None)),
        };
        SmilerServer { handle, workers, drained, store }
    }

    /// A clonable client handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServeStatsSnapshot {
        self.handle.stats.snapshot()
    }

    /// A structured fleet-health snapshot ([`ServeHandle::status_report`]).
    pub fn status_report(&self) -> StatusReport {
        self.handle.status_report()
    }

    /// Graceful shutdown: every queued request completes (drain), then the
    /// workers exit and are joined. Handles still held by clients answer
    /// [`ServeError::ShuttingDown`] afterwards.
    ///
    /// With a store attached ([`SmilerServer::start_with_store`]), the
    /// drained fleet is checkpointed: healthy sensors contribute their
    /// live state; a quarantined sensor's entry is rebuilt from the prior
    /// durable checkpoint plus its WAL tail (the recovery ladder applied
    /// at checkpoint time) so a torn predictor is never persisted.
    pub fn shutdown(self) -> ServeStatsSnapshot {
        for tx in &self.handle.senders {
            // A blocking send so the drain marker lands even on a full
            // queue; a worker that already exited reads as disconnected.
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for worker in self.workers {
            if let Err(payload) = worker.join() {
                panic::resume_unwind(payload);
            }
        }
        if let Some(store) = &self.store {
            let mut fleet: Vec<(SensorPredictor, SensorHealth)> = Vec::new();
            while let Ok((sensors, health)) = self.drained.try_recv() {
                fleet.extend(sensors.into_iter().zip(health));
            }
            fleet.sort_by_key(|(s, _)| s.sensor_id());
            Self::checkpoint_drained(store, fleet);
        }
        self.handle.stats.snapshot()
    }

    /// Checkpoint a drained fleet, never persisting a torn predictor.
    fn checkpoint_drained(store: &SharedStore, fleet: Vec<(SensorPredictor, SensorHealth)>) {
        let mut store = store.lock();
        // Prior durable state backs the entries of quarantined sensors.
        let prior = store.latest_checkpoint().ok().flatten().and_then(|(seq, payload)| {
            let snaps = crate::durable::decode_fleet(&payload).ok()?;
            let tail = store.read_tail(seq).ok()?;
            Some((snaps, tail))
        });
        let mut snapshots = Vec::with_capacity(fleet.len());
        for (sensor, health) in &fleet {
            match health {
                SensorHealth::Healthy => snapshots.push(sensor.snapshot()),
                SensorHealth::Quarantined { .. } => {
                    let rebuilt = prior.as_ref().and_then(|(snaps, tail)| {
                        let mut snap =
                            snaps.iter().find(|s| s.sensor_id == sensor.sensor_id())?.clone();
                        for record in tail {
                            if let smiler_store::WalRecord::Observe { sensor: id, value, .. } =
                                record
                            {
                                if *id as usize == snap.sensor_id {
                                    snap.history.push(*value);
                                }
                            }
                        }
                        Some(snap)
                    });
                    match rebuilt {
                        Some(snap) => snapshots.push(snap),
                        None => {
                            // No durable fallback: drop the sensor from the
                            // checkpoint rather than persist torn state.
                            smiler_obs::count("store.checkpoint.sensor_dropped", "", 1);
                        }
                    }
                }
            }
        }
        if store.checkpoint(&crate::durable::encode_fleet(&snapshots)).is_err() {
            smiler_obs::count("store.checkpoint_error", "", 1);
        }
    }
}

/// One shard: exclusive owner of its sensors, drained by a single thread.
struct ShardWorker {
    shard: usize,
    shards: usize,
    sensors: Vec<SensorPredictor>,
    health: Vec<SensorHealth>,
    config: ServeConfig,
    stats: Arc<ServeStats>,
    telemetry: Arc<Telemetry>,
    rx: Receiver<ShardMsg>,
    /// Durable log: observations append here before any index advances.
    store: Option<SharedStore>,
    /// Hands the shard's sensors back to the server on exit.
    drained: Sender<(Vec<SensorPredictor>, Vec<SensorHealth>)>,
}

impl ShardWorker {
    fn run(mut self) {
        // Park until work arrives; all handles dropped also ends the shard
        // (nothing can ever arrive again).
        while let Ok(msg) = self.rx.recv() {
            match msg {
                ShardMsg::Forecast(job) => self.serve_forecast(job),
                ShardMsg::Observe(job) => self.serve_observe(job),
                ShardMsg::Shutdown => {
                    self.drain();
                    break;
                }
            }
        }
        // Hand the shard's sensors back so the server can checkpoint the
        // drained fleet (no-op when nobody is listening).
        let _ = self.drained.try_send((self.sensors, self.health));
    }

    /// Serve one forecast behind the per-sensor panic boundary. Exactly
    /// one terminal trace record leaves here per job, whatever path the
    /// request takes (served at any rung, typed fault, quarantine, panic,
    /// or unknown sensor).
    ///
    /// The request's entry rung follows the queue depth it leaves behind.
    fn serve_forecast(&mut self, job: ForecastJob) {
        let ForecastJob { sensor: sensor_id, h, deadline, enqueued, reply, mut trace } = job;
        let depth = self.rx.len();
        let pressure = DegradationLevel::for_queue_pressure(depth, self.config.queue_capacity);
        if smiler_obs::enabled() {
            smiler_obs::gauge_set(
                "serve.queue_depth",
                &format!("shard={}", self.shard),
                depth as f64,
            );
        }
        if let Some(trace) = &mut trace {
            trace.mark("dequeue");
        }
        let now = Instant::now();
        let mut policy = self.config.policy;
        policy.entry_level = policy.entry_level.at_least(pressure);
        if pressure > DegradationLevel::FullEnsemble {
            if let Some(trace) = &mut trace {
                trace.mark("rung.queue_pressure");
                trace.set_reason("queue_pressure");
            }
        }
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(now);
            if remaining.is_zero() {
                self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                smiler_obs::count("serve.timeout", "", 1);
                if let Some(trace) = &mut trace {
                    trace.mark("rung.deadline_queued_out");
                    trace.set_reason("deadline_exhausted_in_queue");
                }
            }
            policy.deadline = Some(remaining);
        }

        let Some(local) = self.local_of(sensor_id) else {
            let _ = reply.try_send(Err(ServeError::UnknownSensor {
                sensor: sensor_id,
                fleet: self.shards * self.sensors.len(),
            }));
            if let Some(mut trace) = trace {
                trace.finish_error("unknown_sensor");
                smiler_obs::trace::submit(trace);
            }
            return;
        };
        if let SensorHealth::Quarantined { message } = &self.health[local] {
            self.stats.faults.fetch_add(1, Ordering::Relaxed);
            self.telemetry.record_fault(sensor_id, true);
            let fault = SensorFault::Quarantined { message: message.clone() };
            let _ = reply.try_send(Err(ServeError::Fault(fault)));
            if let Some(mut trace) = trace {
                trace.set_reason("quarantined");
                trace.finish_fault("quarantined");
                smiler_obs::trace::submit(trace);
            }
            return;
        }

        let sensor = &mut self.sensors[local];
        // Hand the trace to the thread-local so the degradation ladder
        // deep inside `try_predict_with` can annotate it; the thread-local
        // survives the unwind of a panicking prediction.
        smiler_obs::trace::set_current(trace.take());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| sensor.try_predict_with(h, &policy)));
        let mut trace = smiler_obs::trace::take_current();
        let reply_value = match outcome {
            Ok(Ok(mut prediction)) => {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    prediction.deadline_missed = true;
                }
                self.stats.served.fetch_add(1, Ordering::Relaxed);
                let latency = enqueued.elapsed();
                self.telemetry.record_served(sensor_id, prediction.level, latency);
                if smiler_obs::enabled() {
                    smiler_obs::observe("serve.latency_seconds", "", latency.as_secs_f64());
                }
                if let Some(trace) = &mut trace {
                    trace.finish_served(prediction.level.as_str(), prediction.deadline_missed);
                }
                Ok(prediction)
            }
            Ok(Err(e)) => {
                self.stats.faults.fetch_add(1, Ordering::Relaxed);
                self.telemetry.record_fault(sensor_id, false);
                if let Some(trace) = &mut trace {
                    trace.finish_fault("predict_error");
                }
                Err(ServeError::Fault(SensorFault::Predict(e)))
            }
            Err(payload) => {
                // Torn mid-update: fence the sensor off; the shard keeps
                // draining for everyone else.
                let message = panic_message(payload);
                self.health[local] = SensorHealth::Quarantined { message: message.clone() };
                self.stats.faults.fetch_add(1, Ordering::Relaxed);
                self.telemetry.record_fault(sensor_id, true);
                smiler_obs::count("health.sensor_panic", "", 1);
                if let Some(trace) = &mut trace {
                    trace.set_aborted();
                    trace.finish_fault("panic");
                }
                Err(ServeError::Fault(SensorFault::Panicked { message }))
            }
        };
        let _ = reply.try_send(reply_value);
        if let Some(trace) = trace {
            smiler_obs::trace::submit(trace);
        }
    }

    /// Absorb one observation behind the same panic boundary.
    fn serve_observe(&mut self, job: ObserveJob) {
        let Some(local) = self.local_of(job.sensor) else {
            let _ = job.reply.try_send(Err(ServeError::UnknownSensor {
                sensor: job.sensor,
                fleet: self.shards * self.sensors.len(),
            }));
            return;
        };
        if let SensorHealth::Quarantined { message } = &self.health[local] {
            let fault = SensorFault::Quarantined { message: message.clone() };
            let _ = job.reply.try_send(Err(ServeError::Fault(fault)));
            return;
        }
        // Durability first: the value reaches the WAL before the index
        // advances; an append failure absorbs nothing.
        if let Some(store) = &self.store {
            let append_started = Instant::now();
            let appended = store.lock().append_observe(job.sensor as u32, job.value);
            let append_seconds = append_started.elapsed().as_secs_f64();
            self.telemetry.wal_append.lock().record(append_seconds);
            if smiler_obs::enabled() {
                smiler_obs::observe("serve.wal_append_seconds", "", append_seconds);
            }
            if let Err(e) = appended {
                smiler_obs::count("store.append_error", "", 1);
                let _ = job.reply.try_send(Err(ServeError::Durability { message: e.to_string() }));
                return;
            }
        }
        let sensor = &mut self.sensors[local];
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| sensor.observe(job.value)));
        let reply = match outcome {
            Ok(()) => {
                self.stats.observed.fetch_add(1, Ordering::Relaxed);
                // The arriving value may have scored a pending one-step
                // prediction; refresh the sensor's quality telemetry row.
                self.telemetry.update_quality(
                    job.sensor,
                    sensor.quality_snapshot(),
                    sensor.regime_snapshot(),
                );
                Ok(())
            }
            Err(payload) => {
                let message = panic_message(payload);
                self.health[local] = SensorHealth::Quarantined { message: message.clone() };
                smiler_obs::count("health.sensor_panic", "", 1);
                Err(ServeError::Fault(SensorFault::Panicked { message }))
            }
        };
        let _ = job.reply.try_send(reply);
    }

    /// Complete everything already queued, then stop accepting.
    fn drain(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(ShardMsg::Forecast(job)) => self.serve_forecast(job),
                Ok(ShardMsg::Observe(job)) => self.serve_observe(job),
                Ok(ShardMsg::Shutdown) => {}
                Err(_) => break,
            }
        }
    }

    /// Global sensor id → this shard's local index (`None` if the sensor
    /// lives elsewhere or does not exist).
    fn local_of(&self, sensor: usize) -> Option<usize> {
        if sensor % self.shards != self.shard {
            return None;
        }
        let local = sensor / self.shards;
        (local < self.sensors.len()).then_some(local)
    }
}

// ---------------------------------------------------------------------------
// Closed-loop load generator (shared by the CLI `serve` subcommand and the
// serving bench).
// ---------------------------------------------------------------------------

/// Closed-loop load-generation parameters: `clients` threads each issue
/// `requests_per_client` forecasts round-robin over the fleet, waiting for
/// each answer (optionally paced to an aggregate `qps`).
#[derive(Debug, Clone, Copy)]
pub struct LoadGen {
    /// Concurrent closed-loop client threads.
    pub clients: usize,
    /// Forecasts each client issues.
    pub requests_per_client: usize,
    /// Forecast horizon.
    pub horizon: usize,
    /// Aggregate request-rate target; `None` runs unpaced (max pressure).
    pub qps: Option<f64>,
    /// Per-request latency budget handed to the server.
    pub deadline: Option<Duration>,
}

impl Default for LoadGen {
    fn default() -> Self {
        LoadGen { clients: 4, requests_per_client: 64, horizon: 1, qps: None, deadline: None }
    }
}

/// What a load-generation run measured.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LoadReport {
    /// Requests issued.
    pub requests: u64,
    /// Requests answered with a prediction.
    pub ok: u64,
    /// Requests shed at admission ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Requests answered with any other typed error.
    pub errors: u64,
    /// Wall-clock seconds of the whole run.
    pub elapsed_seconds: f64,
    /// Served predictions per wall-clock second.
    pub throughput_rps: f64,
    /// Median end-to-end latency of served requests, milliseconds.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub latency_p99_ms: f64,
    /// Worst served latency, milliseconds.
    pub latency_max_ms: f64,
}

/// Drive the server with closed-loop clients and measure it.
pub fn run_load(handle: &ServeHandle, gen: &LoadGen) -> LoadReport {
    let fleet = handle.fleet_size().max(1);
    let clients = gen.clients.max(1);
    let (tx, results) = channel::bounded::<(Vec<f64>, u64, u64, u64)>(clients);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let handle = handle.clone();
            let tx = tx.clone();
            let gen = *gen;
            scope.spawn(move || {
                let mut latencies = Vec::with_capacity(gen.requests_per_client);
                let (mut ok, mut shed, mut errors) = (0u64, 0u64, 0u64);
                let pace = gen.qps.map(|q| Duration::from_secs_f64(clients as f64 / q.max(1e-9)));
                let mut next_issue = Instant::now();
                for r in 0..gen.requests_per_client {
                    // Coordinated-omission guard: when pacing is active,
                    // latency is measured from the *scheduled* issue time,
                    // not from whenever the client got around to issuing.
                    // A slow response delays every request queued behind it
                    // on this client; measuring from post-sleep `now` would
                    // silently drop that queueing delay from the reported
                    // distribution.
                    let t0 = if let Some(pace) = pace {
                        let scheduled = next_issue;
                        let wait = scheduled.saturating_duration_since(Instant::now());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        next_issue += pace;
                        scheduled
                    } else {
                        Instant::now()
                    };
                    let sensor = (c + r * clients) % fleet;
                    let outcome = match gen.deadline {
                        Some(budget) => handle.forecast_with_deadline(sensor, gen.horizon, budget),
                        None => handle.forecast(sensor, gen.horizon),
                    };
                    match outcome {
                        Ok(_) => {
                            ok += 1;
                            latencies.push(t0.elapsed().as_secs_f64());
                        }
                        Err(ServeError::Overloaded { .. }) => shed += 1,
                        Err(_) => errors += 1,
                    }
                }
                let _ = tx.send((latencies, ok, shed, errors));
            });
        }
        drop(tx);
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let (mut ok, mut shed, mut errors) = (0u64, 0u64, 0u64);
    while let Ok((lat, o, s, e)) = results.recv() {
        latencies.extend(lat);
        ok += o;
        shed += s;
        errors += e;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx.min(latencies.len() - 1)] * 1e3
    };
    LoadReport {
        requests: (clients * gen.requests_per_client) as u64,
        ok,
        shed,
        errors,
        elapsed_seconds: elapsed,
        throughput_rps: if elapsed > 0.0 { ok as f64 / elapsed } else { 0.0 },
        latency_p50_ms: pct(0.50),
        latency_p95_ms: pct(0.95),
        latency_p99_ms: pct(0.99),
        latency_max_ms: latencies.last().copied().map_or(0.0, |v| v * 1e3),
    }
}
