//! Open-loop wire-serving benchmark of a SMiLer fleet.
//!
//! One process drives the real `smiler-net` frontend (`NetServer` over a
//! 2-shard `SmilerServer`, loopback) over one connection with open-loop
//! Poisson load, observes and forecasts interleaved at fixed rates. A run
//! has a nominal phase (latency) and an overload phase (throughput). With
//! `--trace 1` the nominal stream is replayed through successively deeper
//! entry points (wire, in-process handle, direct predictor calls with a
//! shadow index) and the difference between depths attributes the time to
//! layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload continuous --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`. Every served full-rung forecast is checked bit for
//! bit against a direct replay; a mismatch exits non-zero.

mod drive;
mod env;
mod fleet;
mod replay;
mod sched;
mod stats;

use drive::{Reply, RunLog};
use fleet::{Dataset, Workload};
use sched::{Op, OpKind, Phases};
use smiler_core::durable::RestoreReport;
use smiler_core::serve::ServeConfig;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Quantile of the traced run's wire latency tails (taken lower where
/// fewer than ten samples lie beyond it).
const TAIL_Q: f64 = 0.90;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Longest time spent splitting GP training from solving. At the
/// workloads' rates the probe walks the whole nominal stream on a calm
/// host; the cap bounds a slow one. The attribution covers the forecasts
/// the probe reaches.
const GP_PROBE_SECS: f64 = 12.0;
/// Appends timed by the store probe.
const STORE_PROBE_APPENDS: usize = 2048;
/// The stated residual: a traced run's layer self times must add up to the
/// wire forecast mean within this share of it, or the run is invalid.
const ATTR_RESIDUAL_LIMIT: f64 = 0.2;
/// A nominal phase whose in-flight count ends more than twice as high as
/// it began, plus this many requests, is growing a backlog.
const BACKLOG_SLACK: f64 = 4.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::by_name(&name).ok_or_else(|| {
                    let known: Vec<_> = fleet::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: if smoke { 2.0 } else { seconds.unwrap_or(10.0) },
        trace,
        smoke,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a run hands to the report.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    verdicts: Vec<(&'static str, replay::Verdict)>,
    /// Why the nominal phase is not a valid latency measurement.
    invalid: Option<String>,
    notes: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<i32, String> {
    progress("start");
    let w = args.workload;
    let phases = w.phases(args.seconds);
    let (ops, needed) = sched::schedule(w.mix, w.sensors, w.h_max, phases, args.seed);
    let data = Dataset::generate(&w, args.seed, &needed);
    let out_root = PathBuf::from(".bench_out");
    let scratch = Scratch(out_root.join(format!("{}-{}", w.name, std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("scratch dir: {e}"))?;
    if w.durable_tail.is_some() {
        fleet::prepare_durable(&w, &data, &scratch.0.join("prep"))?;
    }

    progress("inputs ready");
    header(args, &phases, &ops);
    let outcome = if args.smoke {
        // Both modes on one input: every metric, one command.
        let mut all = untraced(args, &w, &phases, &ops, &data, &scratch.0)?;
        let layers = traced(&w, &phases, &ops, &data, &scratch.0, &out_root)?;
        all.metrics.extend(layers.metrics);
        all.verdicts.extend(layers.verdicts);
        all.notes.extend(layers.notes);
        all.invalid = all.invalid.or(layers.invalid);
        all
    } else if args.trace {
        traced(&w, &phases, &ops, &data, &scratch.0, &out_root)?
    } else {
        untraced(args, &w, &phases, &ops, &data, &scratch.0)?
    };
    drop(scratch);
    progress("done");
    report(&outcome)
}

fn header(args: &Args, phases: &Phases, ops: &[Op]) {
    let w = &args.workload;
    let nominal_ops: Vec<Op> = ops.iter().filter(|o| !o.overload).copied().collect();
    let nominal = nominal_ops.len();
    let forecasts = nominal_ops.iter().filter(|o| is_forecast(o)).count();
    let repeats = sched::repeat_reads(&nominal_ops, w.sensors, w.h_max);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} smoke={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke
    );
    println!(
        "# env cores={} cpu={:?} rustc={:?} commit={} simd={} backend={}",
        env::cores(),
        env::cpu_model(),
        env::rustc(),
        env::commit(),
        smiler_simd::dispatch_label(),
        smiler_gpu::Device::default_gpu().backend_kind()
    );
    println!(
        "# fleet sensors={} kind={:?} history_days={} h_max={} shards={} durable_tail={:?}",
        w.sensors,
        w.kind,
        w.history_days,
        w.h_max,
        fleet::SHARDS,
        w.durable_tail
    );
    println!(
        "# schedule nominal={} ops/s x {:.2} s ({} ops), overload={} ops/s x {:.2} s (up to {} \
         ops), mix={:?}",
        phases.nominal_rate,
        phases.nominal_secs,
        nominal,
        phases.overload_rate,
        phases.overload_secs,
        ops.len() - nominal,
        w.mix
    );
    println!(
        "# shares (nominal schedule) observe={:.4} repeat_read={:.4}",
        (nominal - forecasts) as f64 / nominal.max(1) as f64,
        repeats.iter().filter(|&&r| r).count() as f64 / forecasts.max(1) as f64
    );
}

fn report(o: &Outcome) -> Result<i32, String> {
    for note in &o.notes {
        println!("# {note}");
    }
    let mut correct = true;
    for (run, v) in &o.verdicts {
        println!(
            "# verify run={run} verified={} excluded={} nominal_unverified={} mismatches={} \
             bad_values={} unanswered={}",
            v.verified, v.excluded, v.nominal_unverified, v.mismatches, v.bad_values, v.unanswered
        );
        correct &= v.ok();
    }
    for m in &o.metrics {
        println!("# metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(why) = &o.invalid {
        eprintln!("perfbench: nominal phase invalid: {why}");
        return Ok(3);
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ =
            write!(json, "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    json.push_str("}}");
    println!("{json}");
    let _ = std::io::stdout().flush();
    Ok(if correct { 0 } else { 4 })
}

static STARTED: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();

fn progress(msg: &str) {
    let at = STARTED.get_or_init(std::time::Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench [{at:7.2}s, peak rss {:.1} MB]: {msg}", env::peak_rss_mb());
}

/// A private copy of the prepared store for one set-up (`None` without a
/// store).
fn store_copy(w: &Workload, scratch: &Path, name: &str) -> Result<Option<PathBuf>, String> {
    if w.durable_tail.is_none() {
        return Ok(None);
    }
    let dir = scratch.join(name);
    fleet::copy_dir(&scratch.join("prep"), &dir).map_err(|e| format!("copy store: {e}"))?;
    Ok(Some(dir))
}

/// Latency in ms of every op selected by `pick`, timed from its due time.
/// Failed and missing replies count as misses (infinite latency).
fn latencies(ops: &[Op], log: &RunLog, pick: impl Fn(&Op) -> bool) -> Vec<f64> {
    ops.iter()
        .zip(&log.recs)
        .filter(|(op, rec)| pick(op) && rec.sent.is_some())
        .map(|(_, rec)| match rec.reply {
            Some((at, r)) if r.ok() => (at - rec.due) * 1e3,
            _ => f64::INFINITY,
        })
        .collect()
}

fn is_forecast(op: &Op) -> bool {
    matches!(op.kind, OpKind::Forecast { .. })
}

/// Generator lateness p99 (ms) and backlog growth (requests) over the
/// nominal phase.
fn generator_health(ops: &[Op], log: &RunLog) -> (f64, f64, f64) {
    let nominal: Vec<_> =
        ops.iter().zip(&log.recs).filter(|(op, r)| !op.overload && r.sent.is_some()).collect();
    let lag: Vec<f64> =
        nominal.iter().filter_map(|(_, r)| r.sent.map(|s| (s - r.due) * 1e3)).collect();
    let lag_p99 = stats::tail(&lag, 0.99).map_or(0.0, |(v, _)| v);
    let quarter = (nominal.len() / 4).max(1);
    let inflight = |rs: &[(&Op, &drive::Rec)]| {
        stats::mean(&rs.iter().map(|(_, r)| r.inflight as f64).collect::<Vec<_>>())
    };
    let first = inflight(&nominal[..quarter.min(nominal.len())]);
    let last = inflight(&nominal[nominal.len().saturating_sub(quarter)..]);
    (lag_p99, last - first, first)
}

/// Why a run's nominal phase is not a valid latency measurement: a
/// forecast p99 above the latency limit (`ServeConfig::default()`'s SLO
/// target), or an in-flight backlog that grows across the phase.
fn invalidity(ops: &[Op], log: &RunLog) -> Option<String> {
    let forecast = latencies(ops, log, |op| !op.overload && is_forecast(op));
    let (f99, fq) = stats::tail(&forecast, 0.99).unwrap_or((f64::INFINITY, 0.0));
    let (_, growth, first_inflight) = generator_health(ops, log);
    let limit_ms = ServeConfig::default().slo_target.as_secs_f64() * 1e3;
    if f99.is_nan() || f99 > limit_ms {
        Some(format!("forecast p{:.1} {f99:.2} ms breaks the {limit_ms} ms limit", fq * 100.0))
    } else if growth > first_inflight + BACKLOG_SLACK {
        Some(format!("backlog grew by {growth:.1} requests across the nominal phase"))
    } else {
        None
    }
}

/// Absolute forecast errors (z-normalised units) of the served forecasts
/// and of a last-value hold on the same targets.
struct Errors {
    served: Vec<f64>,
    naive: Vec<f64>,
}

impl Errors {
    /// Median absolute error of the served forecasts over that of the
    /// last-value hold. Medians, because a seed's feed window holds a few
    /// ROAD incidents whose errors would otherwise set a mean.
    fn mdae_ratio(&self) -> f64 {
        stats::median(&self.served) / stats::median(&self.naive)
    }
}

/// Forecast errors against the realised feed values, scored once per
/// distinct target (sensor, observe count, horizon) with the first served
/// forecast of it, so a target read many times over weighs like any
/// other.
fn forecast_errors(ops: &[Op], log: &RunLog, data: &Dataset) -> Errors {
    let mut seen = std::collections::HashSet::new();
    let mut errors = Errors { served: Vec::new(), naive: Vec::new() };
    for (op, rec) in ops.iter().zip(&log.recs) {
        let (OpKind::Forecast { h }, Some((_, Reply::Forecast { mean, .. }))) =
            (op.kind, rec.reply)
        else {
            continue;
        };
        let s = op.sensor as usize;
        let feed = &data.feed[s];
        let Some(&realised) = feed.get((op.seq + h - 1) as usize) else {
            continue;
        };
        if !seen.insert((op.sensor, op.seq, h)) {
            continue;
        }
        let last = match op.seq {
            0 => data.prep[s].last().or(data.base[s].last()).copied().unwrap_or(0.0),
            seq => feed[seq as usize - 1],
        };
        errors.served.push((mean - realised).abs());
        errors.naive.push((last - realised).abs());
    }
    errors
}

/// Completions per second in the overload phase: the median over its
/// whole seconds, so a brief stall of the host does not set the figure.
/// Also returns the phase's total completions.
fn capacity(log: &RunLog, phases: &Phases) -> (f64, usize) {
    let Some(start) = log.overload_start else {
        return (0.0, 0);
    };
    let bins = (phases.overload_secs.floor() as usize).max(1);
    let width = phases.overload_secs / bins as f64;
    let mut counts = vec![0.0; bins];
    for rec in &log.recs {
        if let Some((at, reply)) = rec.reply {
            let bin = ((at - start) / width).floor();
            if reply.ok() && bin >= 0.0 && (bin as usize) < bins {
                counts[bin as usize] += 1.0;
            }
        }
    }
    let total = counts.iter().sum::<f64>() as usize;
    (stats::median(&counts) / width, total)
}

fn executed(log: &RunLog) -> Vec<bool> {
    log.recs.iter().map(|r| r.reply.is_some_and(|(_, reply)| reply.ok())).collect()
}

fn untraced(
    args: &Args,
    w: &Workload,
    phases: &Phases,
    ops: &[Op],
    data: &Dataset,
    scratch: &Path,
) -> Result<Outcome, String> {
    let store = store_copy(w, scratch, "open-0")?;
    let served = fleet::setup(w, data, store.as_ref(), true)?;
    let mut setup_times = vec![served.setup_s];
    let addr = served.addr.ok_or("set-up bound no listener")?;
    progress(&format!("{} driving the wire", w.name));
    let ticks = env::cpu_ticks();
    let log = drive::wire(addr, ops, &data.feed, phases, false)?;
    // A hypervisor taking the host's CPUs slows every timed figure; the
    // note lets a reader tell a slow host from a slow commit.
    let steal = env::steal_pct(ticks, env::cpu_ticks());
    // The serving footprint: one fleet, read before the extra set-ups and
    // the verification replay build more fleets in this process.
    let peak_rss = env::peak_rss_mb();
    let primed = served.primed.clone();
    served.shutdown();
    // The remaining timed set-ups, each torn down at once; `setup_s` is the
    // median over all of them.
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    for rep in 1..reps {
        let store = store_copy(w, scratch, &format!("open-{rep}"))?;
        let again = fleet::setup(w, data, store.as_ref(), true)?;
        setup_times.push(again.setup_s);
        again.shutdown();
    }
    progress(&format!("{} verifying against a direct replay", w.name));
    let replayed = replay::verify_replay(w, data, ops, &executed(&log));
    let verdict = replay::compare(w, ops, &primed, &log, &replayed);

    let forecast = latencies(ops, &log, |op| !op.overload && is_forecast(op));
    let observe = latencies(ops, &log, |op| !op.overload && !is_forecast(op));
    let (f99, fq) = stats::tail(&forecast, 0.99).unwrap_or((f64::INFINITY, 0.0));
    let (capacity, completed) = capacity(&log, phases);
    let errors = forecast_errors(ops, &log, data);
    let attempted = log.recs.iter().filter(|r| r.sent.is_some()).count() as u64;
    let failed = log
        .recs
        .iter()
        .filter(|r| r.sent.is_some() && !r.reply.is_some_and(|(_, reply)| reply.ok()))
        .count() as u64
        + log.stray_replies;
    let (lag_p99, growth, _) = generator_health(ops, &log);
    let notes = vec![
        format!(
            "samples forecasts={} (p{:.2} {f99:.3} ms) observes={} scored_targets={} \
             mae_z={:.5} last_value_mae_z={:.5}",
            forecast.len(),
            fq * 100.0,
            observe.len(),
            errors.served.len(),
            stats::mean(&errors.served),
            stats::mean(&errors.naive),
        ),
        format!("setup_s runs={setup_times:?}"),
        format!("host cpu_steal_pct={steal:.2} during the wire run"),
        format!(
            "generator lag_p99_ms={lag_p99:.3} backlog_growth={growth:.2} overload_completed={completed}"
        ),
    ];
    Ok(Outcome {
        metrics: vec![
            metric("setup_s", stats::median(&setup_times), "s"),
            metric("forecast_p50_ms", stats::median(&forecast), "ms"),
            metric("observe_p50_ms", stats::median(&observe), "ms"),
            metric("capacity_ops_s", capacity, "ops/s"),
            metric("forecast_mdae_ratio", errors.mdae_ratio(), "ratio"),
            metric(
                "served_ratio",
                (attempted - failed.min(attempted)) as f64 / attempted.max(1) as f64,
                "ratio",
            ),
            metric("peak_rss_mb", peak_rss, "MB"),
        ],
        attempted,
        failed,
        verdicts: vec![("wire", verdict)],
        invalid: invalidity(ops, &log),
        notes,
    })
}

/// Per-op latency (ms, from due time) of ok replies, keyed by op index.
fn ok_latency(log: &RunLog, i: usize) -> Option<f64> {
    let rec = &log.recs[i];
    match rec.reply {
        Some((at, r)) if r.ok() => Some((at - rec.due) * 1e3),
        _ => None,
    }
}

fn elapsed_ms(log: &RunLog, i: usize) -> Option<f64> {
    match log.recs[i].reply {
        Some((_, Reply::Forecast { elapsed_ms, .. })) => Some(elapsed_ms),
        _ => None,
    }
}

fn write_spans(path: &Path, w: &Workload, log: &RunLog, handle: &RunLog) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in &log.spans {
        writeln!(
            out,
            "{{\"workload\":\"{}\",\"depth\":\"wire\",\"name\":\"{}\",\"op\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
            w.name, s.name, s.op, s.start_us, s.end_us
        )?;
    }
    for (depth, run) in [("wire", log), ("handle", handle)] {
        for (i, rec) in run.recs.iter().enumerate() {
            if let (Some(sent), Some((at, _))) = (rec.sent, rec.reply) {
                writeln!(
                    out,
                    "{{\"workload\":\"{}\",\"depth\":\"{depth}\",\"name\":\"request\",\"op\":{i},\"due_us\":{:.1},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                    w.name,
                    rec.due * 1e6,
                    sent * 1e6,
                    at * 1e6
                )?;
            }
        }
    }
    out.flush()
}

fn traced(
    w: &Workload,
    phases: &Phases,
    ops: &[Op],
    data: &Dataset,
    scratch: &Path,
    out_root: &Path,
) -> Result<Outcome, String> {
    let nominal: Vec<Op> = ops.iter().filter(|o| !o.overload).copied().collect();
    let ops = &nominal[..];

    // Depth 1, twice: the wire without and with the benchmark's spans.
    let mut wire_runs = Vec::new();
    let mut restore = None;
    let mut serve_stats = None;
    for traced in [false, true] {
        let dir = store_copy(w, scratch, if traced { "open-traced" } else { "open-plain" })?;
        let served = fleet::setup(w, data, dir.as_ref(), true)?;
        let addr = served.addr.ok_or("set-up bound no listener")?;
        progress(&format!("{} wire run (spans {})", w.name, if traced { "on" } else { "off" }));
        let log = drive::wire(addr, ops, &data.feed, phases, traced)?;
        if traced {
            restore = served.restore.clone();
            serve_stats = Some(served.server.stats());
        }
        let primed = served.primed.clone();
        served.shutdown();
        wire_runs.push((log, primed));
    }
    // Depth 2: the same stream through the in-process handle.
    let dir = store_copy(w, scratch, "open-handle")?;
    let served = fleet::setup(w, data, dir.as_ref(), false)?;
    progress(&format!("{} in-process run", w.name));
    let handle_log = drive::in_process(&served.server.handle(), ops, &data.feed, phases)?;
    let handle_primed = served.primed.clone();
    served.shutdown();
    // Depth 3: direct calls, shadow index, GP and store probes.
    progress(&format!("{} direct replay", w.name));
    let (replayed, direct, snapshots) = replay::timed_replay(w, data, ops);
    let gp = replay::gp_probe(w, data, ops, &snapshots, GP_PROBE_SECS);
    let observed: Vec<(u32, f64)> = ops
        .iter()
        .filter(|o| o.kind == OpKind::Observe)
        .map(|o| (o.sensor, data.feed[o.sensor as usize][o.seq as usize]))
        .collect();
    let appends =
        replay::store_probe(&scratch.join("store-probe"), &observed, STORE_PROBE_APPENDS)?;

    let (plain, plain_primed) = &wire_runs[0];
    let (wire, wire_primed) = &wire_runs[1];
    let verdicts = vec![
        ("wire", replay::compare(w, ops, plain_primed, plain, &replayed)),
        ("wire-traced", replay::compare(w, ops, wire_primed, wire, &replayed)),
        ("handle", replay::compare(w, ops, &handle_primed, &handle_log, &replayed)),
    ];
    let _ = std::fs::create_dir_all(out_root);
    let spans_path = out_root.join(format!("spans-{}.jsonl", w.name));
    write_spans(&spans_path, w, wire, &handle_log).map_err(|e| format!("spans: {e}"))?;

    // Per-op latencies at each depth.
    let all: Vec<usize> = (0..ops.len()).collect();
    let forecasts: Vec<usize> = all.iter().copied().filter(|&i| is_forecast(&ops[i])).collect();
    let lat = |log: &RunLog, idx: &[usize]| -> Vec<f64> {
        idx.iter().filter_map(|&i| ok_latency(log, i)).collect()
    };
    let plain_all = lat(plain, &all);
    let wire_all = lat(wire, &all);
    let handle_all = lat(&handle_log, &all);
    let queue_wait: Vec<f64> = forecasts
        .iter()
        .filter_map(|&i| Some(ok_latency(&handle_log, i)? - elapsed_ms(&handle_log, i)?))
        .collect();
    let predict: Vec<f64> = forecasts.iter().filter_map(|&i| elapsed_ms(wire, i)).collect();
    let full = forecasts
        .iter()
        .filter(|&&i| {
            matches!(
                wire.recs[i].reply,
                Some((
                    _,
                    Reply::Forecast {
                        rung: smiler_core::degrade::DegradationLevel::FullEnsemble,
                        ..
                    }
                ))
            )
        })
        .count();
    let codec_us = {
        let per: Vec<f64> = wire
            .spans
            .iter()
            .filter(|s| s.name == "client.encode" || s.name == "client.decode")
            .map(|s| s.end_us - s.start_us)
            .collect();
        per.iter().sum::<f64>() / ops.len().max(1) as f64
    };

    // Attribution over the forecasts the GP probe reached. Net and serve
    // are differences between adjacent depths (serve includes the shard's
    // queueing and any slowdown of the predict step inside the server);
    // index comes from the shadow index and gp from the probe, each timed
    // on its own fleet copy. Their sum is checked against the wire mean:
    // the residual is how far the direct predict call (search included) is
    // from index + gp.
    let probed: Vec<usize> = gp.reads.iter().map(|r| r.0).collect();
    let wire_f = stats::mean(&lat(wire, &probed));
    let handle_f = stats::mean(&lat(&handle_log, &probed));
    let served_f =
        stats::mean(&probed.iter().filter_map(|&i| elapsed_ms(&handle_log, i)).collect::<Vec<_>>());
    let direct_f = stats::mean(
        &direct.forecast_ms.iter().filter(|f| f.0 < gp.covered).map(|f| f.1).collect::<Vec<_>>(),
    );
    let index_share =
        direct.search_ms.iter().filter(|s| s.0 < gp.covered).map(|s| s.1).sum::<f64>()
            / probed.len().max(1) as f64;
    let train = stats::mean(&gp.reads.iter().map(|g| g.1).collect::<Vec<_>>());
    let solve = stats::mean(&gp.reads.iter().map(|g| g.2).collect::<Vec<_>>());
    let attr_net = wire_f - handle_f;
    let attr_serve = handle_f - direct_f;
    let attr_gp = train + solve;
    let attr_sum = attr_net + attr_serve + index_share + attr_gp;
    let residual = if wire_f > 0.0 { (wire_f - attr_sum).abs() / wire_f } else { 0.0 };

    let search_ms: Vec<f64> = direct.search_ms.iter().map(|s| s.1).collect();
    let searches = search_ms.len().max(1) as f64;
    let pruned = if direct.candidates == 0 {
        0.0
    } else {
        1.0 - direct.unfiltered as f64 / direct.candidates as f64
    };
    let (lag_p99, growth, _) = generator_health(ops, plain);
    let plain_mean = stats::mean(&plain_all);
    let trace_overhead =
        if plain_mean > 0.0 { (stats::mean(&wire_all) - plain_mean) / plain_mean } else { 0.0 };
    let serve = serve_stats.ok_or("traced wire run kept no serve stats")?;
    let n_forecasts = direct.forecast_ms.len().max(1) as f64;
    let repeats = direct.repeat_read_ms.len() as f64;
    let observes = ops.iter().filter(|o| o.kind == OpKind::Observe).count() as f64;
    let tail = |xs: &[f64], q| stats::tail(xs, q).map_or(0.0, |(v, _)| v);
    let restored = |field: fn(&RestoreReport) -> f64| restore.as_ref().map_or(0.0, field);

    let attempted = wire.recs.iter().filter(|r| r.sent.is_some()).count() as u64;
    let failed = wire
        .recs
        .iter()
        .filter(|r| r.sent.is_some() && !r.reply.is_some_and(|(_, reply)| reply.ok()))
        .count() as u64
        + wire.stray_replies;
    let invalid = invalidity(ops, plain).or_else(|| invalidity(ops, wire)).or_else(|| {
        (residual > ATTR_RESIDUAL_LIMIT).then(|| {
            format!("attribution residual {residual:.4} exceeds the stated {ATTR_RESIDUAL_LIMIT}")
        })
    });
    let notes = vec![
        format!("spans written to {}", spans_path.display()),
        format!(
            "attribution over {} probed forecasts: wire_mean_ms={wire_f:.4} net={attr_net:.4} \
             serve={attr_serve:.4} index={index_share:.4} gp={attr_gp:.4} sum={attr_sum:.4} \
             residual_ratio={residual:.4} (limit {ATTR_RESIDUAL_LIMIT}; direct predict \
             {direct_f:.4} ms, in-server predict {served_f:.4} ms)",
            probed.len()
        ),
        format!(
            "samples forecasts={} searches={} store_appends={}",
            forecasts.len(),
            search_ms.len(),
            appends.len()
        ),
    ];
    let plain_nominal = |pick: fn(&Op) -> bool| latencies(ops, plain, pick);
    Ok(Outcome {
        metrics: vec![
            metric("wire.forecast_p90_ms", tail(&plain_nominal(is_forecast), TAIL_Q), "ms"),
            metric(
                "wire.observe_p90_ms",
                tail(&plain_nominal(|op| !is_forecast(op)), TAIL_Q),
                "ms",
            ),
            metric("net.overhead_mean_ms", stats::mean(&wire_all) - stats::mean(&handle_all), "ms"),
            metric(
                "net.overhead_p50_ms",
                stats::median(&wire_all) - stats::median(&handle_all),
                "ms",
            ),
            metric("net.codec_us", codec_us, "us"),
            metric("serve.queue_wait_mean_ms", stats::mean(&queue_wait), "ms"),
            metric("serve.queue_wait_p99_ms", tail(&queue_wait, 0.99), "ms"),
            metric("serve.batch_mean", serve.mean_batch_size(), "requests"),
            metric("serve.full_rung_ratio", full as f64 / forecasts.len().max(1) as f64, "ratio"),
            metric("serve.shed", serve.shed as f64, "count"),
            metric("serve.timeouts", serve.timeouts as f64, "count"),
            metric("sensor.predict_mean_ms", stats::mean(&predict), "ms"),
            metric("sensor.predict_p99_ms", tail(&predict, 0.99), "ms"),
            metric("sensor.first_read_ms", stats::mean(&direct.first_read_ms), "ms"),
            metric("sensor.repeat_read_ms", stats::mean(&direct.repeat_read_ms), "ms"),
            metric("sensor.repeat_read_share", repeats / n_forecasts, "ratio"),
            metric("sensor.observe_mean_us", stats::mean(&direct.observe_us), "us"),
            metric(
                "sensor.forecast_mae_z",
                stats::mean(&forecast_errors(ops, wire, data).served),
                "z",
            ),
            metric("gen.observe_share", observes / ops.len().max(1) as f64, "ratio"),
            metric("index.search_mean_ms", stats::mean(&search_ms), "ms"),
            metric("index.search_p99_ms", tail(&search_ms, 0.99), "ms"),
            metric("index.advance_mean_us", stats::mean(&direct.advance_us), "us"),
            metric("index.pruned_ratio", pruned, "ratio"),
            metric("gpu.launches_per_search", direct.search_launches as f64 / searches, "count"),
            metric("gp.train_mean_ms", train, "ms"),
            metric("gp.solve_mean_ms", solve, "ms"),
            metric("store.append_p50_us", stats::median(&appends), "us"),
            metric("store.append_p99_us", tail(&appends, 0.99), "us"),
            metric("store.open_s", restored(|r| r.open_seconds), "s"),
            metric("store.rebuild_s", restored(|r| r.rebuild_seconds), "s"),
            metric("store.replay_s", restored(|r| r.replay_seconds), "s"),
            metric(
                "store.replayed_records",
                restored(|r| (r.replayed_observes + r.replayed_rounds) as f64),
                "count",
            ),
            metric("attr.net_ms", attr_net, "ms"),
            metric("attr.serve_ms", attr_serve, "ms"),
            metric("attr.index_ms", index_share, "ms"),
            metric("attr.gp_ms", attr_gp, "ms"),
            metric("attr.residual_ratio", residual, "ratio"),
            metric("obs.trace_overhead_ratio", trace_overhead, "ratio"),
            metric("gen.lag_p99_ms", lag_p99, "ms"),
            metric("gen.backlog_growth", growth, "requests"),
        ],
        attempted,
        failed,
        verdicts,
        invalid,
        notes,
    })
}
