//! `expt` — reproduce the SMiLer paper's tables and figures.
//!
//! ```text
//! cargo run -p smiler-bench --release --bin expt -- <id> [--smoke]
//!     [--metrics-out <path>] [--trace-out <path>]
//!
//!   ids: table3 fig7 fig8 fig9 fig10 fig11 table4 fig12 fig13 all
//!   --smoke              tiny datasets (CI-sized), same code paths
//!   --metrics-out <path> enable observability; write per-experiment
//!                        metrics (counters/histograms/spans) as JSONL
//!   --trace-out <path>   enable observability; write the event trace
//! ```
//!
//! Each experiment prints the paper-style table and appends JSON rows to
//! `results/<id>.jsonl` for EXPERIMENTS.md. With observability on, the
//! phase-span aggregates are also embedded into the records as extra
//! `obs.*` measurements.

use smiler_bench::experiments::{ablation, predict, scale as scale_expts, search};
use smiler_bench::{report, ExptScale, Measurement};
use std::path::PathBuf;

const USAGE: &str =
    "usage: expt <table3|fig7|fig8|fig9|fig10|fig11|table4|fig12|fig13|ablation|all> \
     [--smoke] [--metrics-out <path>] [--trace-out <path>]\n\
     \x20      expt bench-step [--smoke] [--backend sim|native] [--out <path>]\n\
     \x20                                                  per-step latency snapshot\n\
     \x20      expt bench-kernels [--smoke] [--out <path>] per-kernel roofline snapshot\n\
     \x20      expt bench-net [--smoke] [--out <path>]    open-loop wire-serving snapshot\n\
     \x20      expt bench-ingest [--smoke] [--out <path>] WAL append + recovery snapshot\n\
     \x20      expt bench-obs [--smoke] [--enforce-budget] [--out <path>]\n\
     \x20                                                  request-tracing overhead snapshot\n\
     \x20      expt bench-chaos [--smoke] [--out <path>]  accuracy-under-chaos snapshot\n\
     \x20      expt bench-cluster [--smoke] [--out <path>] replication + failover snapshot";

fn main() {
    let mut smoke = false;
    let mut enforce_budget = false;
    let mut metrics_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut backend = smiler_gpu::BackendKind::Sim;
    let mut ids: Vec<String> = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(arg) = raw.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--enforce-budget" => enforce_budget = true,
            "--backend" => {
                let value = raw.next().unwrap_or_else(|| {
                    eprintln!("--backend requires a value (sim|native)\n{USAGE}");
                    std::process::exit(2);
                });
                backend = value.parse().unwrap_or_else(|e: String| {
                    eprintln!("{e}\n{USAGE}");
                    std::process::exit(2);
                });
            }
            "--out" => {
                let value = raw.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path\n{USAGE}");
                    std::process::exit(2);
                });
                out_path = Some(PathBuf::from(value));
            }
            "--metrics-out" | "--trace-out" => {
                let value = raw.next().unwrap_or_else(|| {
                    eprintln!("{arg} requires a path\n{USAGE}");
                    std::process::exit(2);
                });
                if arg == "--metrics-out" {
                    metrics_out = Some(PathBuf::from(value));
                } else {
                    trace_out = Some(PathBuf::from(value));
                }
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}\n{USAGE}");
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    // bench-step is a standalone latency snapshot, not a paper experiment.
    if ids.iter().any(|i| i == "bench-step") {
        let scale = if smoke {
            smiler_bench::stepbench::StepBenchScale::smoke()
        } else {
            smiler_bench::stepbench::StepBenchScale::default_scale()
        };
        let report = smiler_bench::stepbench::run(scale, backend);
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = out_path.unwrap_or_else(|| PathBuf::from("results/BENCH_step.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!(
            "bench-step[{}/{}]: step median {:.2} ms / p95 {:.2} ms, search median {:.2} ms -> {}",
            report.env.backend,
            report.env.simd_dispatch,
            report.step.median_ms,
            report.step.p95_ms,
            report.search.median_ms,
            path.display()
        );
        return;
    }
    // bench-kernels positions each smiler-simd kernel against an in-process
    // roofline (streaming-triad bandwidth, multiply-add pipeline rate).
    if ids.iter().any(|i| i == "bench-kernels") {
        let scale = if smoke {
            smiler_bench::kernelbench::KernelBenchScale::smoke()
        } else {
            smiler_bench::kernelbench::KernelBenchScale::default_scale()
        };
        let report = smiler_bench::kernelbench::run(scale);
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = out_path.unwrap_or_else(|| PathBuf::from("results/BENCH_kernels.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!(
            "bench-kernels[{}]: roofs {:.2} GB/s mem, {:.2} GFLOP/s compute",
            report.env.simd_dispatch, report.roofline.mem_bw_gbps, report.roofline.flops_gflops
        );
        for k in &report.kernels {
            println!(
                "  {:<18} {:>7.2} GB/s ({:>5.1}% mem roof)  {:>7.2} GFLOP/s ({:>5.1}% flop \
                 roof)  {}-bound",
                k.kernel,
                k.gbps,
                100.0 * k.mem_roof_frac,
                k.gflops,
                100.0 * k.flop_roof_frac,
                k.bound
            );
        }
        println!("bench-kernels: wrote {}", path.display());
        return;
    }
    // bench-net snapshots the wire frontend: open-loop throughput, tail
    // latency, and shed curves vs offered load and connection count.
    if ids.iter().any(|i| i == "bench-net") {
        let scale = if smoke {
            smiler_bench::netbench::NetBenchScale::smoke()
        } else {
            smiler_bench::netbench::NetBenchScale::default_scale()
        };
        let report = smiler_bench::netbench::run(scale);
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = out_path.unwrap_or_else(|| PathBuf::from("results/BENCH_net.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!("bench-net: saturation {:.1} req/s over loopback", report.saturation_rps);
        for point in &report.points {
            println!(
                "  conns={:<3} offered={:>8.1} req/s ({:.2}x) -> achieved {:>8.1} ok={} shed={} \
                 p50={:.2}ms p99={:.2}ms p999={:.2}ms",
                point.connections,
                point.report.offered_rps,
                point.load_fraction,
                point.report.achieved_rps,
                point.report.ok,
                point.report.shed,
                point.report.p50_ms,
                point.report.p99_ms,
                point.report.p999_ms
            );
        }
        println!("bench-net: wrote {}", path.display());
        return;
    }
    // bench-ingest snapshots the durability layer: WAL append throughput
    // per flush policy and recovery time as a function of WAL length.
    if ids.iter().any(|i| i == "bench-ingest") {
        let scale = if smoke {
            smiler_bench::ingestbench::IngestBenchScale::smoke()
        } else {
            smiler_bench::ingestbench::IngestBenchScale::default_scale()
        };
        let report = smiler_bench::ingestbench::run(scale);
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = out_path.unwrap_or_else(|| PathBuf::from("results/BENCH_ingest.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        });
        for a in &report.append {
            println!(
                "bench-ingest: {} -> {:.0} appends/s ({} fsyncs, {:.1} appends/fsync)",
                a.policy, a.appends_per_sec, a.fsyncs, a.appends_per_fsync
            );
        }
        for r in &report.recovery {
            println!(
                "bench-ingest: recover {} rounds in {:.3}s ({:.0} rounds/s; rebuild {:.3}s, \
                 replay {:.3}s)",
                r.wal_rounds,
                r.restore_seconds,
                r.rounds_per_sec,
                r.report.rebuild_seconds,
                r.report.replay_seconds
            );
        }
        println!("bench-ingest: wrote {}", path.display());
        return;
    }
    // bench-obs measures what request tracing itself costs: identical load
    // with and without a trace sink, plus a trace-stream audit and a
    // bitwise prediction-invariance proof. With --enforce-budget it exits
    // nonzero when tracing exceeds its overhead budget or the audit fails.
    if ids.iter().any(|i| i == "bench-obs") {
        let scale = if smoke {
            smiler_bench::obsbench::ObsBenchScale::smoke()
        } else {
            smiler_bench::obsbench::ObsBenchScale::default_scale()
        };
        let report = smiler_bench::obsbench::run(scale);
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = out_path.unwrap_or_else(|| PathBuf::from("results/BENCH_obs.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!(
            "bench-obs: trace path {:.2} us/record = {:.4}% of a {:.2} ms request (budget \
             {:.1}%); A/B context: plain {:.1} req/s vs traced {:.1} req/s ({:+.1}% throughput, \
             {:+.1}% p50); {} trace records, schema_valid={} complete={} bitwise_identical={} \
             -> {}",
            report.overhead.trace_ns_per_record / 1_000.0,
            report.overhead.direct_pct,
            report.plain.best_latency_p50_ms,
            smiler_bench::obsbench::OVERHEAD_BUDGET_PCT,
            report.plain.median_throughput_rps,
            report.traced.median_throughput_rps,
            report.overhead.throughput_pct,
            report.overhead.latency_p50_pct,
            report.trace.records,
            report.trace.schema_valid,
            report.trace.complete,
            report.predictions_bitwise_identical,
            path.display()
        );
        if enforce_budget {
            let ok = report.overhead.within_budget
                && report.trace.schema_valid
                && report.trace.complete
                && report.trace.write_errors == 0
                && report.predictions_bitwise_identical;
            if !ok {
                eprintln!(
                    "bench-obs: observability budget violated (budget {:.1}%): {}",
                    smiler_bench::obsbench::OVERHEAD_BUDGET_PCT,
                    json
                );
                std::process::exit(1);
            }
        }
        return;
    }
    // bench-chaos replays the dirty-feed scenarios through adaptive and
    // fixed-schedule predictors, committing the accuracy deltas and the
    // clean-workload bitwise-invariance proof.
    if ids.iter().any(|i| i == "bench-chaos") {
        let scale = if smoke {
            smiler_bench::chaosbench::ChaosBenchScale::smoke()
        } else {
            smiler_bench::chaosbench::ChaosBenchScale::default_scale()
        };
        let report = smiler_bench::chaosbench::run(scale);
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = out_path.unwrap_or_else(|| PathBuf::from("results/BENCH_chaos.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        });
        for s in &report.scenarios {
            println!(
                "bench-chaos: {:<14} fixed MAE {:>7.2} / adaptive MAE {:>7.2} ({:+.1}%)  \
                 cov95 {:.2}->{:.2}  changepoints={} outliers={}",
                s.scenario,
                s.fixed.mae,
                s.adaptive.mae,
                s.mae_improvement_pct,
                s.fixed.coverage95,
                s.adaptive.coverage95,
                s.adaptive.changepoints,
                s.adaptive.outliers
            );
        }
        println!(
            "bench-chaos: clean-workload bitwise invariance = {} -> {}",
            report.clean_bitwise_identical,
            path.display()
        );
        if !report.clean_bitwise_identical {
            eprintln!("bench-chaos: quiescent detector changed clean-workload forecasts");
            std::process::exit(1);
        }
        return;
    }
    // bench-cluster measures WAL-shipping replication: bootstrap and
    // streaming throughput, follower lag quantiles, and the kill/promote
    // failover time — with the bitwise control check the headline
    // invariant demands.
    if ids.iter().any(|i| i == "bench-cluster") {
        let scale = if smoke {
            smiler_bench::clusterbench::ClusterBenchScale::smoke()
        } else {
            smiler_bench::clusterbench::ClusterBenchScale::default_scale()
        };
        let report = smiler_bench::clusterbench::run(scale);
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        let path = out_path.unwrap_or_else(|| PathBuf::from("results/BENCH_cluster.json"));
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!(
            "bench-cluster: bootstrap {:.0} rec/s ({} records), streaming {:.0} rec/s",
            report.bootstrap.records_per_sec,
            report.bootstrap.records,
            report.streaming.records_per_sec
        );
        println!(
            "bench-cluster: follower lag p50={} p95={} p99={} max={} records ({} samples)",
            report.lag.p50_records,
            report.lag.p95_records,
            report.lag.p99_records,
            report.lag.max_records,
            report.lag.samples
        );
        println!(
            "bench-cluster: failover promote {:.1} ms, first forecast {:.1} ms, \
             bitwise_identical={} -> {}",
            report.failover.promote_seconds * 1e3,
            report.failover.first_forecast_seconds * 1e3,
            report.failover.bitwise_identical,
            path.display()
        );
        if !report.failover.bitwise_identical {
            eprintln!("bench-cluster: promoted forecasts diverged from the dead primary");
            std::process::exit(1);
        }
        return;
    }
    let observing = metrics_out.is_some() || trace_out.is_some();
    if observing {
        smiler_obs::set_enabled(true);
    }
    let scale = if smoke { ExptScale::smoke() } else { ExptScale::default_scale() };
    println!(
        "SMiLer experiment harness — {} sensors/dataset, {} days, seed {}",
        scale.sensors, scale.days, scale.seed
    );
    let results_dir = PathBuf::from("results");
    // Accumulated across experiments: each experiment runs against freshly
    // reset observability state, and its rows are appended here.
    let mut metrics_doc = String::new();
    let mut trace_doc = String::new();

    let mut run = |id: &str| {
        if observing {
            smiler_obs::reset();
        }
        let t0 = std::time::Instant::now();
        let mut records = match id {
            "table3" => search::table3(&scale),
            "fig7" => search::fig7(&scale),
            "fig8" => search::fig8(&scale),
            "fig9" => predict::fig9(&scale),
            "fig10" => predict::fig10(&scale),
            "fig11" => predict::fig11(&scale),
            "table4" => predict::table4(&scale),
            "fig12" => {
                let mut r = scale_expts::fig12_cost(&scale);
                r.extend(scale_expts::fig12_capacity());
                r
            }
            "fig13" => scale_expts::fig13(&scale),
            "ablation" => ablation::run(&scale),
            other => {
                eprintln!("unknown experiment '{other}'");
                std::process::exit(2);
            }
        };
        eprintln!("[{id}] finished in {:.1}s", t0.elapsed().as_secs_f64());
        if observing {
            records.extend(obs_measurements(id));
            metrics_doc.push_str(&smiler_obs::metrics_jsonl_string());
            trace_doc.push_str(&smiler_obs::trace_jsonl_string());
            let table = smiler_obs::summary_table();
            if !table.is_empty() {
                eprintln!("[{id}] observability summary:\n{table}");
            }
        }
        report::write_records(&results_dir, id, &records);
    };

    let all = [
        "table3", "fig7", "fig8", "fig9", "fig10", "fig11", "table4", "fig12", "fig13", "ablation",
    ];
    if ids.iter().any(|i| i == "all") {
        for id in all {
            run(id);
        }
    } else {
        for id in &ids {
            run(id);
        }
    }

    if let Some(path) = &metrics_out {
        if let Err(e) = std::fs::write(path, &metrics_doc) {
            eprintln!("[obs] could not write metrics to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[obs] metrics -> {}", path.display());
    }
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, &trace_doc) {
            eprintln!("[obs] could not write trace to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("[obs] trace -> {}", path.display());
    }
}

/// Fold the observability aggregates into the experiment's record rows so
/// `results/<id>.jsonl` carries the phase breakdown next to the headline
/// numbers.
fn obs_measurements(id: &str) -> Vec<Measurement> {
    let mut extra = Vec::new();
    for s in smiler_obs::span_snapshot() {
        extra.push(Measurement::new(
            id,
            None,
            "obs.span",
            Some(s.path.clone()),
            "total_seconds",
            s.total_seconds,
        ));
        extra.push(Measurement::new(
            id,
            None,
            "obs.span",
            Some(s.path.clone()),
            "count",
            s.count as f64,
        ));
    }
    let snap = smiler_obs::metrics_snapshot();
    for c in &snap.counters {
        extra.push(Measurement::new(
            id,
            None,
            "obs.counter",
            Some(format!("{}{{{}}}", c.name, c.label)),
            "value",
            c.value as f64,
        ));
    }
    for h in &snap.histograms {
        // 0.0, not NaN: NaN serialises to `null` and poisons downstream
        // aggregation of the results rows.
        let mean = if h.count > 0 { h.sum / h.count as f64 } else { 0.0 };
        extra.push(Measurement::new(
            id,
            None,
            "obs.histogram",
            Some(format!("{}{{{}}}", h.name, h.label)),
            "mean",
            mean,
        ));
    }
    extra
}
