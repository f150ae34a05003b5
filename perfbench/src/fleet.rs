//! Workload definitions, their datasets, and the timed set-up of a served
//! fleet: index build (or durable recovery), shard workers, the wire
//! listener, and one priming forecast per (sensor, horizon).

use crate::sched::{Mix, Phases};
use smiler_core::degrade::Prediction;
use smiler_core::durable::{DurableSystem, RestoreReport};
use smiler_core::serve::{ServeConfig, ServeHandle, SmilerServer};
use smiler_core::{PredictorKind, SensorPredictor, SmilerConfig};
use smiler_gpu::Device;
use smiler_net::{NetConfig, NetServer};
use smiler_store::StoreConfig;
use smiler_timeseries::synthetic::{DatasetKind, SyntheticSpec};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Shard workers behind the frontend.
pub const SHARDS: usize = 2;

/// One benchmark workload. Rates are fixed absolute numbers: a faster
/// commit is offered exactly the same load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Cell predictor of every sensor.
    pub kind: PredictorKind,
    /// Fleet size.
    pub sensors: u32,
    /// Days of ROAD history each sensor starts with.
    pub history_days: usize,
    /// Largest forecast horizon.
    pub h_max: u32,
    /// How observes and forecasts interleave.
    pub mix: Mix,
    /// Offered ops/s in the nominal (latency) phase.
    pub nominal_rate: f64,
    /// Offered ops/s in the overload (throughput) phase.
    pub overload_rate: f64,
    /// WAL rounds written after the initial checkpoint during untimed
    /// preparation; `Some` attaches a store and recovers it in set-up.
    pub durable_tail: Option<usize>,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "continuous",
        kind: PredictorKind::GaussianProcess,
        sensors: 16,
        history_days: 16,
        h_max: 3,
        mix: Mix::Continuous,
        nominal_rate: 20.0,
        overload_rate: 800.0,
        durable_tail: None,
    },
    Workload {
        name: "durable-ingest",
        kind: PredictorKind::Aggregation,
        sensors: 32,
        history_days: 8,
        h_max: 3,
        mix: Mix::Random { observe_share: 10.0 / 11.0 },
        nominal_rate: 300.0,
        overload_rate: 8000.0,
        durable_tail: Some(96),
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The phases of a run that measures for `seconds`: four fifths at
    /// the nominal rate, the rest offered above capacity.
    pub fn phases(&self, seconds: f64) -> Phases {
        Phases {
            nominal_rate: self.nominal_rate,
            nominal_secs: seconds * 0.8,
            overload_rate: self.overload_rate,
            overload_secs: seconds * 0.2,
        }
    }

    /// The sensors' predictor configuration.
    pub fn config(&self) -> SmilerConfig {
        SmilerConfig { h_max: self.h_max as usize, ..SmilerConfig::default() }
    }
}

/// A workload's data: per sensor the starting history, the values the
/// durable preparation logs, and the feed the schedule observes.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Initial history per sensor (z-normalised ROAD).
    pub base: Vec<Vec<f64>>,
    /// Values logged to the WAL tail during preparation (empty without a
    /// store).
    pub prep: Vec<Vec<f64>>,
    /// Values the schedule's observes feed, in order.
    pub feed: Vec<Vec<f64>>,
}

impl Dataset {
    /// Generate enough ROAD data for `needed[s]` observes of sensor `s`
    /// plus forecast targets `h_max` past the last one.
    pub fn generate(w: &Workload, seed: u64, needed: &[u32]) -> Dataset {
        let per_day = DatasetKind::Road.samples_per_day();
        let prep_len = w.durable_tail.unwrap_or(0);
        let most = needed.iter().copied().max().unwrap_or(0) as usize;
        let extra = prep_len + most + w.h_max as usize;
        let days = w.history_days + extra.div_ceil(per_day);
        let data =
            SyntheticSpec { kind: DatasetKind::Road, sensors: w.sensors as usize, days, seed }
                .generate();
        let base_len = w.history_days * per_day;
        let mut out = Dataset { base: Vec::new(), prep: Vec::new(), feed: Vec::new() };
        for series in &data.sensors {
            let v = series.values();
            out.base.push(v[..base_len].to_vec());
            out.prep.push(v[base_len..base_len + prep_len].to_vec());
            out.feed.push(v[base_len + prep_len..].to_vec());
        }
        out
    }

    /// A fresh fleet in the state set-up leaves before priming: built from
    /// the base history, with the prepared WAL values observed directly.
    pub fn fresh_fleet(&self, w: &Workload, device: &Arc<Device>) -> Vec<SensorPredictor> {
        self.base
            .iter()
            .zip(&self.prep)
            .enumerate()
            .map(|(id, (base, prep))| {
                let mut s =
                    SensorPredictor::new(Arc::clone(device), id, base.clone(), w.config(), w.kind);
                for &v in prep {
                    s.observe(v);
                }
                s
            })
            .collect()
    }
}

/// Priming order: every sensor, horizons ascending.
pub fn priming_ops(w: &Workload) -> Vec<(u32, u32)> {
    (1..=w.h_max).flat_map(|h| (0..w.sensors).map(move |s| (s, h))).collect()
}

/// Serve the priming forecasts one horizon at a time (a horizon's batch
/// never exceeds a shard queue). Returns each reply in [`priming_ops`]
/// order.
pub fn prime(handle: &ServeHandle, w: &Workload) -> Vec<Option<Prediction>> {
    let mut out = Vec::new();
    for h in 1..=w.h_max {
        let pending: Vec<_> =
            (0..w.sensors).map(|s| handle.submit_forecast(s as usize, h as usize, None)).collect();
        out.extend(pending.into_iter().map(|p| p.ok().and_then(|p| p.wait().ok())));
    }
    out
}

/// The untimed durable preparation: a fresh fleet checkpointed at
/// `dir`, then the prep rounds logged to the WAL tail and left there (no
/// final checkpoint, as after a crash).
pub fn prepare_durable(w: &Workload, data: &Dataset, dir: &Path) -> Result<(), String> {
    let device = Arc::new(Device::default_gpu());
    let (mut durable, _) = DurableSystem::create(
        device,
        data.base.clone(),
        w.config(),
        w.kind,
        dir,
        StoreConfig::default(),
        0,
    )
    .map_err(|e| format!("durable create: {e}"))?;
    let rounds = data.prep.first().map_or(0, Vec::len);
    for r in 0..rounds {
        let values: Vec<f64> = data.prep.iter().map(|p| p[r]).collect();
        durable.observe_all(&values).map_err(|e| format!("durable prep round: {e}"))?;
    }
    durable.sync().map_err(|e| format!("durable sync: {e}"))?;
    Ok(())
}

/// Copy a flat store directory tree.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// A fleet being served: shard workers plus the wire listener.
pub struct Served {
    /// The shard workers.
    pub server: SmilerServer,
    /// The wire frontend (`None` when driven in-process only).
    pub net: Option<NetServer>,
    /// Where the frontend listens.
    pub addr: Option<SocketAddr>,
    /// Replies to the priming forecasts, in [`priming_ops`] order.
    pub primed: Vec<Option<Prediction>>,
    /// Recovery figures when the fleet came from a store.
    pub restore: Option<RestoreReport>,
    /// Seconds from the first build call to ready-to-serve.
    pub setup_s: f64,
}

impl Served {
    /// Stop the frontend, then drain and join the shard workers.
    pub fn shutdown(self) {
        if let Some(net) = self.net {
            net.shutdown();
        }
        self.server.shutdown();
    }
}

/// Set a fleet up and time it: build the fleet (or recover it from the
/// store at `store_dir`), start the shards, bind the listener when
/// `wire`, and prime every (sensor, horizon).
pub fn setup(
    w: &Workload,
    data: &Dataset,
    store_dir: Option<&PathBuf>,
    wire: bool,
) -> Result<Served, String> {
    let started = Instant::now();
    let device = Arc::new(Device::default_gpu());
    let config = ServeConfig { shards: SHARDS, ..ServeConfig::default() };
    let (server, restore) = match store_dir {
        Some(dir) => {
            let (durable, report) =
                DurableSystem::open(Arc::clone(&device), dir, StoreConfig::default(), 0)
                    .map_err(|e| format!("durable open: {e}"))?;
            let (system, store) = durable.into_parts();
            let server = SmilerServer::start_with_store(
                Arc::clone(&device),
                system.into_sensors(),
                config,
                smiler_store::shared(store),
            );
            (server, Some(report))
        }
        None => {
            let fleet = data.fresh_fleet(w, &device);
            (SmilerServer::start(Arc::clone(&device), fleet, config), None)
        }
    };
    let (net, addr) = if wire {
        let net = NetServer::bind("127.0.0.1:0", server.handle(), NetConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let addr = net.local_addr();
        (Some(net), Some(addr))
    } else {
        (None, None)
    };
    let primed = prime(&server.handle(), w);
    let setup_s = started.elapsed().as_secs_f64();
    Ok(Served { server, net, addr, primed, restore, setup_s })
}
