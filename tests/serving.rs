//! Integration tests for the sharded serving frontend (`smiler_core::serve`):
//! served forecasts must answer exactly what solo prediction answers, with
//! exactly the same simulated GPU launches; a saturated queue must shed
//! typed errors while everything already admitted completes; a quarantined
//! sensor must never stall its shard; and shutdown must drain cleanly.

use smiler_core::serve::{LoadGen, ServeConfig, ServeError, SmilerServer};
use smiler_core::{
    DegradationLevel, FaultKind, PredictorKind, RequestPolicy, SensorFault, SensorPredictor,
    SmilerConfig,
};
use smiler_gpu::Device;
use std::sync::Arc;
use std::time::Duration;

fn histories(count: usize, n: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| {
            (0..n)
                .map(|i| {
                    let t = (i + s * 13) as f64;
                    (t * std::f64::consts::TAU / 24.0).sin() + 0.05 * (t * 0.7).cos()
                })
                .collect()
        })
        .collect()
}

fn fleet(device: &Arc<Device>, count: usize) -> Vec<SensorPredictor> {
    histories(count, 300)
        .into_iter()
        .enumerate()
        .map(|(id, h)| {
            SensorPredictor::new(
                Arc::clone(device),
                id,
                h,
                SmilerConfig::small_for_tests(),
                PredictorKind::Aggregation,
            )
        })
        .collect()
}

/// Served forecasts answer bitwise what solo prediction answers, and the
/// server adds no device work of its own: the served run spends exactly
/// the simulated GPU launches of predicting the same sensors directly.
#[test]
fn served_forecasts_match_solo_prediction() {
    const SENSORS: usize = 6;

    // Served run: all requests queued at once across two shards.
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, SENSORS);
    device.reset_clock();
    let config = ServeConfig { shards: 2, queue_capacity: 64, ..ServeConfig::default() };
    let server = SmilerServer::start(Arc::clone(&device), sensors, config);
    let handle = server.handle();
    let pending: Vec<_> =
        (0..SENSORS).map(|s| handle.submit_forecast(s, 1, None).expect("queue has room")).collect();
    let served: Vec<_> = pending.into_iter().map(|p| p.wait().expect("served")).collect();
    let stats = server.shutdown();
    let served_launches = device.kernel_launches();

    assert_eq!(stats.served, SENSORS as u64);

    // Sequential reference: the same fleet served one sensor at a time.
    let solo_device = Arc::new(Device::default_gpu());
    let mut solo = fleet(&solo_device, SENSORS);
    solo_device.reset_clock();
    let policy = RequestPolicy::default();
    for (s, sensor) in solo.iter_mut().enumerate() {
        let expect = sensor.try_predict_with(1, &policy).expect("solo predict");
        let got = &served[s];
        assert_eq!(got.mean.to_bits(), expect.mean.to_bits(), "sensor {s} mean");
        assert_eq!(got.variance.to_bits(), expect.variance.to_bits(), "sensor {s} variance");
        assert_eq!(got.level, DegradationLevel::FullEnsemble, "sensor {s} rung");
        assert!(!got.deadline_missed);
    }
    let solo_launches = solo_device.kernel_launches();
    assert_eq!(served_launches, solo_launches, "serving must launch exactly what solo does");
}

/// Saturating a shard's queue sheds requests with a typed `Overloaded`
/// error — mapped onto the degradation ladder — while every admitted
/// request still completes. No panics, no deadlocks, no lost replies.
#[test]
fn overload_sheds_typed_errors_while_admitted_requests_complete() {
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 4);
    let config = ServeConfig { shards: 1, queue_capacity: 2, ..ServeConfig::default() };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();

    let mut admitted = Vec::new();
    let mut sheds = 0usize;
    for i in 0..10_000 {
        match handle.submit_forecast(i % 4, 1, None) {
            Ok(pending) => admitted.push(pending),
            Err(err) => {
                let ServeError::Overloaded { shard, depth, capacity } = &err else {
                    panic!("expected Overloaded, got {err}");
                };
                assert_eq!(*shard, 0);
                assert_eq!(*capacity, 2);
                assert!(*depth <= *capacity);
                assert_eq!(err.shed_level(), Some(DegradationLevel::LastValue));
                sheds += 1;
                if sheds >= 3 {
                    break;
                }
            }
        }
    }
    assert!(sheds >= 3, "a 2-deep queue under a tight submit loop must shed");

    let total = admitted.len();
    let served = admitted.into_iter().map(|p| p.wait()).collect::<Vec<_>>();
    assert!(served.iter().all(|r| r.is_ok()), "every admitted request completes");
    let stats = server.shutdown();
    assert_eq!(stats.served, total as u64);
    assert!(stats.shed >= sheds as u64);
}

/// A sensor that panics is quarantined shard-locally: it answers typed
/// faults from then on while its shard keeps serving every other sensor.
#[test]
fn quarantined_sensor_never_stalls_its_shard() {
    let device = Arc::new(Device::default_gpu());
    let mut sensors = fleet(&device, 4);
    sensors[0].inject_fault(FaultKind::PanicOnPredict);
    let config = ServeConfig { shards: 2, queue_capacity: 16, ..ServeConfig::default() };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();

    // The first request trips the panic and quarantines sensor 0.
    match handle.forecast(0, 1) {
        Err(ServeError::Fault(SensorFault::Panicked { .. })) => {}
        other => panic!("expected a panic fault, got {other:?}"),
    }
    // Its shard-mate (sensor 2 also lives on shard 0) keeps being served.
    let p = handle.forecast(2, 1).expect("healthy shard-mate served");
    assert!(p.mean.is_finite());
    // The quarantined sensor now answers a typed quarantine fault at once.
    match handle.forecast(0, 1) {
        Err(ServeError::Fault(SensorFault::Quarantined { .. })) => {}
        other => panic!("expected quarantine, got {other:?}"),
    }
    match handle.observe(0, 0.5) {
        Err(ServeError::Fault(SensorFault::Quarantined { .. })) => {}
        other => panic!("expected quarantine on observe, got {other:?}"),
    }
    // Queued together: the quarantined sensor faults, the healthy one serves.
    let bad = handle.submit_forecast(0, 1, None).expect("admitted");
    let good = handle.submit_forecast(2, 1, None).expect("admitted");
    assert!(matches!(bad.wait(), Err(ServeError::Fault(_))));
    assert!(good.wait().is_ok());
    handle.observe(2, 0.5).expect("healthy observe");

    let stats = server.shutdown();
    assert!(stats.faults >= 3);
    assert_eq!(stats.observed, 1);
}

/// Shutdown drains: everything already queued completes with a real
/// answer, then late requests get a typed `ShuttingDown`.
#[test]
fn shutdown_drains_queued_requests_cleanly() {
    const SENSORS: usize = 6;
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, SENSORS);
    let config = ServeConfig { shards: 2, queue_capacity: 64, ..ServeConfig::default() };
    let server = SmilerServer::start(device, sensors, config);
    let handle = server.handle();
    let pending: Vec<_> =
        (0..SENSORS).map(|s| handle.submit_forecast(s, 1, None).expect("queue has room")).collect();
    let stats = server.shutdown();
    assert_eq!(stats.served, SENSORS as u64, "drain serves everything queued");
    for p in pending {
        let served = p.wait().expect("queued request completed during drain");
        assert!(served.mean.is_finite());
    }
    // Workers are gone: the leftover handle gets a typed shutdown error.
    assert!(matches!(handle.forecast(0, 1), Err(ServeError::ShuttingDown)));
    assert!(matches!(handle.observe(0, 0.5), Err(ServeError::ShuttingDown)));
}

/// Deadlines are measured from submission: a request whose budget is
/// already gone when a worker picks it up degrades to the last-value hold
/// instead of blowing the budget, and is flagged.
#[test]
fn exhausted_deadline_degrades_to_last_value() {
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 2);
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let handle = server.handle();
    let served = handle.forecast_with_deadline(0, 1, Duration::ZERO).expect("still served");
    assert_eq!(served.level, DegradationLevel::LastValue);
    assert!(served.deadline_missed);
    assert!(served.mean.is_finite());
    let stats = server.shutdown();
    assert_eq!(stats.timeouts, 1);
}

/// Requests outside the fleet are rejected at the handle, typed.
#[test]
fn unknown_sensor_is_rejected_at_admission() {
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 2);
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let handle = server.handle();
    assert!(matches!(
        handle.forecast(7, 1),
        Err(ServeError::UnknownSensor { sensor: 7, fleet: 2 })
    ));
    server.shutdown();
}

/// The closed-loop load generator accounts for every request it issues.
#[test]
fn load_generator_accounts_for_every_request() {
    let device = Arc::new(Device::default_gpu());
    let sensors = fleet(&device, 4);
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let handle = server.handle();
    let gen = LoadGen {
        clients: 3,
        requests_per_client: 5,
        horizon: 1,
        qps: Some(500.0),
        deadline: Some(Duration::from_secs(5)),
    };
    let report = smiler_core::serve::run_load(&handle, &gen);
    server.shutdown();
    assert_eq!(report.requests, 15);
    assert_eq!(report.ok + report.shed + report.errors, 15);
    assert!(report.ok > 0);
    assert!(report.latency_p95_ms >= report.latency_p50_ms);
    assert!(report.latency_max_ms >= report.latency_p99_ms);
}

/// Chaos feeds served end-to-end with the adaptation layer armed: every
/// delivered observation of every chaos scenario flows through the
/// server, forecasts ride along, and the ledger closes exactly — every
/// request is served or typed, nothing panics, nothing hangs.
#[test]
fn chaos_feeds_serve_cleanly_with_adaptation_armed() {
    use smiler_timeseries::synthetic::chaos::{ChaosKind, ChaosSpec};

    let device = Arc::new(Device::default_gpu());
    let spec = ChaosSpec::smoke(11);
    let scenarios: Vec<_> = ChaosKind::all().iter().map(|&k| spec.scenario(k)).collect();
    let config = SmilerConfig {
        regime: smiler_core::RegimeConfig::enabled(),
        ..SmilerConfig::small_for_tests()
    };
    let sensors: Vec<_> = scenarios
        .iter()
        .enumerate()
        .map(|(id, s)| {
            SensorPredictor::new(
                Arc::clone(&device),
                id,
                s.history.clone(),
                config.clone(),
                PredictorKind::Aggregation,
            )
        })
        .collect();
    let server = SmilerServer::start(device, sensors, ServeConfig::default());
    let handle = server.handle();

    let mut forecasts = 0u64;
    let mut observed = 0u64;
    for t in 0..scenarios[0].live_len() {
        for (id, s) in scenarios.iter().enumerate() {
            if let Some(v) = s.observed[t] {
                handle.observe(id, v).expect("chaos observation must be absorbed");
                observed += 1;
            }
            if t % 8 == 0 {
                let p = handle.forecast(id, 1).expect("chaos forecast must serve");
                assert!(p.mean.is_finite(), "{}: non-finite mean at tick {t}", s.name);
                assert!(p.variance.is_finite() && p.variance > 0.0);
                forecasts += 1;
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.served, forecasts, "every forecast must be accounted served");
    assert_eq!(stats.observed, observed, "every observation must be accounted");
    assert_eq!(stats.shed, 0, "a blocking caller never overruns the queue");
    assert_eq!(stats.faults, 0, "dirty data is a degrade, never a fault");
}

/// A load spike riding on a dirty feed: a tiny queue under a burst sheds
/// typed `Overloaded` errors (never panics, never hangs), everything
/// admitted completes, and the server serves normally once the spike
/// passes — request-side chaos composes with data-side chaos.
#[test]
fn load_spike_on_a_dirty_feed_sheds_typed_and_recovers() {
    use smiler_timeseries::synthetic::chaos::{ChaosKind, ChaosSpec};

    let device = Arc::new(Device::default_gpu());
    let scenario = ChaosSpec::smoke(13).scenario(ChaosKind::SpikeStorm);
    let config = SmilerConfig {
        regime: smiler_core::RegimeConfig::enabled(),
        ..SmilerConfig::small_for_tests()
    };
    let sensor = SensorPredictor::new(
        Arc::clone(&device),
        0,
        scenario.history.clone(),
        config,
        PredictorKind::Aggregation,
    );
    let serve_config = ServeConfig { shards: 1, queue_capacity: 2, ..ServeConfig::default() };
    let server = SmilerServer::start(device, vec![sensor], serve_config);
    let handle = server.handle();

    // Feed the dirty stream, then slam the queue mid-storm.
    for t in 0..scenario.live_len() / 2 {
        if let Some(v) = scenario.observed[t] {
            handle.observe(0, v).expect("observe");
        }
    }
    let mut admitted = Vec::new();
    let mut sheds = 0usize;
    let mut attempts = 0usize;
    for _ in 0..10_000 {
        attempts += 1;
        match handle.submit_forecast(0, 1, None) {
            Ok(pending) => admitted.push(pending),
            Err(err) => {
                assert!(
                    matches!(err, ServeError::Overloaded { .. }),
                    "spike overload must shed typed, got {err}"
                );
                assert_eq!(err.shed_level(), Some(DegradationLevel::LastValue));
                sheds += 1;
                if sheds >= 3 {
                    break;
                }
            }
        }
    }
    assert!(sheds >= 3, "a 2-deep queue under a burst must shed");
    assert_eq!(admitted.len() + sheds, attempts, "exactly one terminal per attempt");
    for p in admitted {
        let served = p.wait().expect("every admitted request completes");
        assert!(served.mean.is_finite());
    }

    // The spike passed: the rest of the feed and a final forecast serve.
    for t in scenario.live_len() / 2..scenario.live_len() {
        if let Some(v) = scenario.observed[t] {
            handle.observe(0, v).expect("observe after spike");
        }
    }
    let after = handle.forecast(0, 1).expect("server must recover after the spike");
    assert!(after.mean.is_finite());
    let stats = server.shutdown();
    assert!(stats.shed >= 3);
    assert_eq!(stats.faults, 0);
}
