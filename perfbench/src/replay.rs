//! The deepest depths: direct calls on a fresh fleet, with no server.
//!
//! - [`verify_replay`] replays each sensor's exact executed op sequence
//!   (priming included) so [`compare`] can check served forecasts bit for
//!   bit.
//! - [`timed_replay`] replays the stream single-threaded, timing each
//!   `SensorPredictor` call, with a shadow `SmilerIndex` per sensor fed the
//!   same observations and timed on `try_search` / `advance`.
//! - [`gp_probe`] splits GP training from solving on throwaway copies.
//! - [`store_probe`] times `Store::append_observe` on a scratch store.

use crate::drive::{Reply, RunLog};
use crate::fleet::{priming_ops, Dataset, Workload, SHARDS};
use crate::sched::{Op, OpKind};
use smiler_core::degrade::{DegradationLevel, Prediction, RequestPolicy};
use smiler_core::{SensorPredictor, SensorSnapshot};
use smiler_gpu::Device;
use smiler_index::{IndexParams, SmilerIndex};
use smiler_store::{Store, StoreConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What a replay computed.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Priming forecasts, in [`priming_ops`] order.
    pub primed: Vec<Option<Prediction>>,
    /// Forecast per op index (`None` for observes and skipped ops).
    pub preds: Vec<Option<Prediction>>,
    /// Which ops the replay executed.
    pub executed: Vec<bool>,
}

fn prime_direct(w: &Workload, fleet: &mut [SensorPredictor]) -> Vec<Option<Prediction>> {
    let policy = RequestPolicy::default();
    priming_ops(w)
        .into_iter()
        .map(|(s, h)| fleet[s as usize].try_predict_with(h as usize, &policy).ok())
        .collect()
}

fn apply(s: &mut SensorPredictor, op: &Op, feed: &[Vec<f64>]) -> Option<Prediction> {
    match op.kind {
        OpKind::Observe => {
            s.observe(feed[op.sensor as usize][op.seq as usize]);
            None
        }
        OpKind::Forecast { h } => s.try_predict_with(h as usize, &RequestPolicy::default()).ok(),
    }
}

/// Replay, on a fresh fleet, the ops a run executed (`executed[i]`), each
/// sensor in stream order. Sensors are independent, so the fleet is
/// partitioned as the server shards it and each partition replays on its
/// own thread.
pub fn verify_replay(w: &Workload, data: &Dataset, ops: &[Op], executed: &[bool]) -> Replayed {
    let device = Arc::new(Device::default_gpu());
    // Sensor `s` lives in partition `s % SHARDS` at local index `s / SHARDS`.
    let mut parts: Vec<Vec<SensorPredictor>> = (0..SHARDS).map(|_| Vec::new()).collect();
    for (id, sensor) in data.fresh_fleet(w, &device).into_iter().enumerate() {
        parts[id % SHARDS].push(sensor);
    }
    let priming = priming_ops(w);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .enumerate()
            .map(|(shard, mut mine)| {
                let priming = &priming;
                scope.spawn(move || {
                    let policy = RequestPolicy::default();
                    let mut primed = Vec::new();
                    for (i, &(s, h)) in priming.iter().enumerate() {
                        if s as usize % SHARDS == shard {
                            let p = mine[s as usize / SHARDS].try_predict_with(h as usize, &policy);
                            primed.push((i, p.ok()));
                        }
                    }
                    let mut preds = Vec::new();
                    for (i, op) in ops.iter().enumerate() {
                        let s = op.sensor as usize;
                        if executed[i] && s % SHARDS == shard {
                            preds.push((i, apply(&mut mine[s / SHARDS], op, &data.feed)));
                        }
                    }
                    (primed, preds)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let mut out = Replayed {
        primed: vec![None; priming.len()],
        preds: vec![None; ops.len()],
        executed: executed.to_vec(),
    };
    for (primed, preds) in results {
        for (i, p) in primed {
            out.primed[i] = p;
        }
        for (i, p) in preds {
            out.preds[i] = p;
        }
    }
    out
}

/// Bitwise comparison of a run against a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Full-rung forecasts found bitwise equal to the replay.
    pub verified: u64,
    /// Forecasts not compared: degraded rung, or the sensor's sequence
    /// diverged from the replay's (sheds, errors, missing replies).
    pub excluded: u64,
    /// Full-rung forecasts that differ from the replay.
    pub mismatches: u64,
    /// Served forecasts with a non-finite mean or a variance that is not
    /// finite and positive.
    pub bad_values: u64,
    /// Sent requests that did not get exactly one reply (missing, or a
    /// reply the client could not match).
    pub unanswered: u64,
    /// Priming and nominal-phase forecasts that were not verified. With no
    /// deadlines, no faults and a load well under capacity, a healthy
    /// server answers every one of them from the full rung, so any count
    /// here means the gate was dodged (a cheaper rung, a shed, a failure).
    pub nominal_unverified: u64,
}

impl Verdict {
    /// Whether the run passed.
    pub fn ok(&self) -> bool {
        self.mismatches == 0
            && self.bad_values == 0
            && self.unanswered == 0
            && self.nominal_unverified == 0
    }
}

fn same_bits(a: (f64, f64), b: &Prediction) -> bool {
    a.0.to_bits() == b.mean.to_bits() && a.1.to_bits() == b.variance.to_bits()
}

fn sane(mean: f64, variance: f64) -> bool {
    mean.is_finite() && variance.is_finite() && variance > 0.0
}

/// Compare a run's served forecasts (priming and ops) with a replay. A
/// sensor leaves the comparison for good at its first degraded rung, or
/// where the ops it executed stop matching the ops the replay executed;
/// that is allowed only in the overload phase (see
/// [`Verdict::nominal_unverified`]).
pub fn compare(
    w: &Workload,
    ops: &[Op],
    primed: &[Option<Prediction>],
    run: &RunLog,
    replayed: &Replayed,
) -> Verdict {
    let mut v = Verdict { unanswered: run.stray_replies, ..Verdict::default() };
    let mut out = vec![false; w.sensors as usize];
    for (i, (s, _)) in priming_ops(w).into_iter().enumerate() {
        let s = s as usize;
        match (&primed[i], &replayed.primed[i]) {
            (Some(p), Some(r)) => {
                if !sane(p.mean, p.variance) {
                    v.bad_values += 1;
                }
                if out[s] || p.level != DegradationLevel::FullEnsemble {
                    out[s] = true;
                    v.excluded += 1;
                    v.nominal_unverified += 1;
                } else if same_bits((p.mean, p.variance), r) {
                    v.verified += 1;
                } else {
                    v.mismatches += 1;
                }
            }
            _ => {
                out[s] = true;
                v.excluded += 1;
                v.nominal_unverified += 1;
            }
        }
    }
    for (i, op) in ops.iter().enumerate() {
        let s = op.sensor as usize;
        let reply = run.recs[i].reply.map(|(_, r)| r);
        if run.recs[i].sent.is_some() && reply.is_none() {
            v.unanswered += 1;
        }
        // `None`: the run's outcome is unknown (no reply, or a failure
        // after admission).
        let run_executed = match reply {
            Some(r) if r.ok() => Some(true),
            Some(Reply::Refused) => Some(false),
            None if run.recs[i].sent.is_none() => Some(false),
            _ => None,
        };
        if run_executed != Some(replayed.executed[i]) {
            out[s] = true;
        }
        let nominal_forecast = !op.overload && matches!(op.kind, OpKind::Forecast { .. });
        let Some(Reply::Forecast { mean, variance, rung, .. }) = reply else {
            if nominal_forecast {
                v.nominal_unverified += 1;
            }
            continue;
        };
        if !sane(mean, variance) {
            v.bad_values += 1;
        }
        if out[s] || rung != DegradationLevel::FullEnsemble {
            out[s] = true;
            v.excluded += 1;
            if nominal_forecast {
                v.nominal_unverified += 1;
            }
            continue;
        }
        match &replayed.preds[i] {
            Some(r) if same_bits((mean, variance), r) => v.verified += 1,
            _ => v.mismatches += 1,
        }
    }
    v
}

/// Per-call timings of the single-threaded direct replay.
#[derive(Debug, Default)]
pub struct DirectTimes {
    /// Direct `try_predict_with` time per forecast op index, ms.
    pub forecast_ms: Vec<(usize, f64)>,
    /// Forecasts of a (sensor, h) not yet read since the sensor's last
    /// observe, ms.
    pub first_read_ms: Vec<f64>,
    /// Forecasts repeating a (sensor, h) already read since the last
    /// observe, ms.
    pub repeat_read_ms: Vec<f64>,
    /// Direct `observe` time, µs.
    pub observe_us: Vec<f64>,
    /// Shadow `try_search` time, ms, keyed by the forecast op that ran it.
    pub search_ms: Vec<(usize, f64)>,
    /// Shadow `advance` time, µs.
    pub advance_us: Vec<f64>,
    /// Candidates offered to the searches' filters.
    pub candidates: u64,
    /// Candidates that survived filtering and were DTW-verified.
    pub unfiltered: u64,
    /// Device launches the shadow searches made.
    pub search_launches: u64,
}

fn index_params(w: &Workload) -> IndexParams {
    let c = w.config();
    IndexParams {
        rho: c.rho,
        omega: c.omega,
        lengths: c.ensemble.elv.clone(),
        k_max: c.ensemble.ekv.iter().copied().max().unwrap_or_default(),
    }
}

/// The direct depth: a fresh fleet primed as set-up primes it, then the
/// stream replayed single-threaded in order with every call timed. A
/// shadow index per sensor mirrors each search and advance, timed on its
/// own device. Returns the replay, its timings, and snapshots of the fleet
/// right after priming (for [`gp_probe`]).
pub fn timed_replay(
    w: &Workload,
    data: &Dataset,
    ops: &[Op],
) -> (Replayed, DirectTimes, Vec<SensorSnapshot>) {
    let device = Arc::new(Device::default_gpu());
    let shadow_dev = Device::default_gpu();
    let mut fleet = data.fresh_fleet(w, &device);
    let mut out = Replayed {
        primed: prime_direct(w, &mut fleet),
        preds: vec![None; ops.len()],
        executed: vec![true; ops.len()],
    };
    let snapshots = fleet.iter().map(SensorPredictor::snapshot).collect();

    let h_max = w.h_max as usize;
    let mut shadows: Vec<SmilerIndex> = data
        .base
        .iter()
        .zip(&data.prep)
        .map(|(base, prep)| {
            let c = w.config();
            let mut idx = SmilerIndex::build(&shadow_dev, base.clone(), index_params(w))
                .with_threshold(c.threshold);
            for &v in prep {
                idx.advance(&shadow_dev, v);
            }
            // Priming searched once at the current length.
            let max_end = idx.series().len().saturating_sub(h_max);
            let _ = idx.try_search(&shadow_dev, max_end);
            idx
        })
        .collect();
    let mut searched = vec![true; w.sensors as usize];
    let repeats = crate::sched::repeat_reads(ops, w.sensors, w.h_max);
    let mut t = DirectTimes::default();
    for (i, op) in ops.iter().enumerate() {
        let s = op.sensor as usize;
        match op.kind {
            OpKind::Observe => {
                let value = data.feed[s][op.seq as usize];
                let started = Instant::now();
                fleet[s].observe(value);
                t.observe_us.push(started.elapsed().as_secs_f64() * 1e6);
                let started = Instant::now();
                shadows[s].advance(&shadow_dev, value);
                t.advance_us.push(started.elapsed().as_secs_f64() * 1e6);
                searched[s] = false;
            }
            OpKind::Forecast { h } => {
                let policy = RequestPolicy::default();
                let started = Instant::now();
                let p = fleet[s].try_predict_with(h as usize, &policy);
                let ms = started.elapsed().as_secs_f64() * 1e3;
                out.preds[i] = p.ok();
                t.forecast_ms.push((i, ms));
                if repeats[i] {
                    t.repeat_read_ms.push(ms);
                } else {
                    t.first_read_ms.push(ms);
                }
                if !searched[s] {
                    searched[s] = true;
                    let max_end = shadows[s].series().len().saturating_sub(h_max);
                    let launches = shadow_dev.kernel_launches();
                    let started = Instant::now();
                    let found = shadows[s].try_search(&shadow_dev, max_end);
                    t.search_ms.push((i, started.elapsed().as_secs_f64() * 1e3));
                    t.search_launches += shadow_dev.kernel_launches() - launches;
                    if let Ok(found) = found {
                        t.candidates += found.stats.candidates.iter().sum::<usize>() as u64;
                        t.unfiltered += found.stats.unfiltered.iter().sum::<usize>() as u64;
                    }
                }
            }
        }
    }
    (out, t, snapshots)
}

/// What the GP probe timed, per probed forecast.
#[derive(Debug, Default)]
pub struct GpProbe {
    /// Ops the probe walked: a prefix of the stream.
    pub covered: usize,
    /// Per probed forecast: op index, GP training ms (full-rung call minus
    /// cached-hyperparameter call), and the cached-hyperparameter call's ms
    /// (GP solve plus the ensemble step around it).
    pub reads: Vec<(usize, f64, f64)>,
}

/// GP train/solve split: two throwaway copies of the primed fleet follow
/// the stream; at each forecast, with the sensor's search already cached
/// on both, copy A serves the full rung (train + solve) and copy B the
/// cached-hyperparameter rung (solve only). Stops after `budget_s` of
/// probing.
pub fn gp_probe(
    w: &Workload,
    data: &Dataset,
    ops: &[Op],
    snapshots: &[SensorSnapshot],
    budget_s: f64,
) -> GpProbe {
    let device = Arc::new(Device::default_gpu());
    let restore = || -> Vec<SensorPredictor> {
        snapshots.iter().map(|s| SensorPredictor::restore(Arc::clone(&device), s.clone())).collect()
    };
    let (mut a, mut b) = (restore(), restore());
    let full = RequestPolicy::default();
    let cached =
        RequestPolicy { entry_level: DegradationLevel::CachedHyper, ..RequestPolicy::default() };
    let mut searched = vec![true; w.sensors as usize];
    let started = Instant::now();
    let mut out = GpProbe::default();
    for (i, op) in ops.iter().enumerate() {
        if started.elapsed().as_secs_f64() > budget_s {
            break;
        }
        out.covered = i + 1;
        let s = op.sensor as usize;
        match op.kind {
            OpKind::Observe => {
                let value = data.feed[s][op.seq as usize];
                a[s].observe(value);
                b[s].observe(value);
                searched[s] = false;
            }
            OpKind::Forecast { h } => {
                let h = h as usize;
                if !searched[s] {
                    searched[s] = true;
                    let _ = a[s].try_predict_with(h, &cached);
                    let _ = b[s].try_predict_with(h, &cached);
                }
                let t0 = Instant::now();
                let _ = a[s].try_predict_with(h, &full);
                let full_ms = t0.elapsed().as_secs_f64() * 1e3;
                let t1 = Instant::now();
                let _ = b[s].try_predict_with(h, &cached);
                let solve_ms = t1.elapsed().as_secs_f64() * 1e3;
                out.reads.push((i, full_ms - solve_ms, solve_ms));
            }
        }
    }
    out
}

/// Time `appends` `Store::append_observe` calls of the stream's observed
/// values on a scratch store at `dir` (the CLI's default flush policy),
/// then remove it. Returns per-append µs.
pub fn store_probe(dir: &Path, values: &[(u32, f64)], appends: usize) -> Result<Vec<f64>, String> {
    let _ = std::fs::remove_dir_all(dir);
    let (mut store, _) =
        Store::open(dir, StoreConfig::default()).map_err(|e| format!("probe store: {e}"))?;
    let mut out = Vec::with_capacity(appends);
    for i in 0..appends {
        let (sensor, value) = values[i % values.len().max(1)];
        let started = Instant::now();
        store.append_observe(sensor, value).map_err(|e| format!("probe append: {e}"))?;
        out.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Rec;
    use std::time::Duration;

    fn pred(mean: f64, level: DegradationLevel) -> Prediction {
        Prediction {
            mean,
            variance: 0.5,
            level,
            deadline_missed: false,
            elapsed: Duration::from_micros(10),
        }
    }

    /// A continuous-workload stream of one observe and one forecast of
    /// sensor 0, the forecast in the given phase, answered with `reply`.
    fn judge(overload: bool, reply: Option<Reply>) -> Verdict {
        let w = Workload::by_name("continuous").expect("known workload");
        let primed: Vec<_> = priming_ops(&w)
            .iter()
            .map(|_| Some(pred(1.0, DegradationLevel::FullEnsemble)))
            .collect();
        let op = |kind| Op { at: 0.0, overload, sensor: 0, kind, seq: 0 };
        let ops = [op(OpKind::Observe), op(OpKind::Forecast { h: 1 })];
        let replayed = Replayed {
            primed: primed.clone(),
            preds: vec![None, Some(pred(2.0, DegradationLevel::FullEnsemble))],
            executed: vec![true, true],
        };
        let rec = |reply| Rec { due: 0.0, sent: Some(0.0), reply: Some((1.0, reply)), inflight: 0 };
        let mut run = RunLog::default();
        run.recs.push(rec(Reply::Observed));
        run.recs.push(Rec { reply: reply.map(|r| (1.0, r)), ..rec(Reply::Observed) });
        compare(&w, &ops, &primed, &run, &replayed)
    }

    fn forecast(mean: f64, rung: DegradationLevel) -> Option<Reply> {
        Some(Reply::Forecast { mean, variance: 0.5, rung, elapsed_ms: 0.01 })
    }

    #[test]
    fn full_rung_forecasts_are_checked_bit_for_bit() {
        let ok = judge(false, forecast(2.0, DegradationLevel::FullEnsemble));
        let primes = priming_ops(&Workload::by_name("continuous").expect("known")).len() as u64;
        assert!(ok.ok() && ok.verified == primes + 1 && ok.excluded == 0, "{ok:?}");
        let bad = judge(false, forecast(2.0 + 1e-12, DegradationLevel::FullEnsemble));
        assert_eq!(bad.mismatches, 1);
        assert!(!bad.ok());
    }

    #[test]
    fn a_nominal_forecast_that_dodges_the_comparison_fails_the_run() {
        for reply in [
            forecast(9.0, DegradationLevel::LastValue),
            forecast(9.0, DegradationLevel::CachedHyper),
            Some(Reply::Failed),
            Some(Reply::Refused),
            None,
        ] {
            let v = judge(false, reply);
            assert_eq!(v.nominal_unverified, 1, "{reply:?}");
            assert!(!v.ok(), "{reply:?}");
        }
        // In the overload phase a degraded rung or a shed is allowed: the
        // sensor only leaves the comparison.
        for reply in [forecast(9.0, DegradationLevel::LastValue), Some(Reply::Refused)] {
            let v = judge(true, reply);
            assert!(v.ok(), "{reply:?} {v:?}");
        }
    }
}
