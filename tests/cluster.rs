//! Cluster tier-1 suite: WAL-shipping replication, rendezvous placement,
//! and the extended headline invariant — kill the primary mid-run,
//! promote the freshest follower, and every forecast the promoted node
//! serves is **bitwise identical** to what the dead primary would have
//! served.

use proptest::prelude::*;
use smiler_cluster::{
    rebalance_plan, Follower, FollowerConfig, Placement, PrimaryConfig, ReplConn,
    ReplicationPrimary,
};
use smiler_core::{
    ClusterRole, DurableSystem, PredictorKind, ServeConfig, ServeError, SmilerConfig,
};
use smiler_gpu::Device;
use smiler_net::repl::ReplMsg;
use smiler_store::{FlushPolicy, Store, StoreConfig};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smiler_cluster_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn store_config() -> StoreConfig {
    StoreConfig { flush: FlushPolicy::Always, ..StoreConfig::default() }
}

fn histories(count: usize, n: usize) -> Vec<Vec<f64>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..count)
        .map(|s| {
            (0..n)
                .map(|i| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((i + s * 17) as f64 * std::f64::consts::TAU / 24.0).sin()
                        + (state % 1000) as f64 / 2500.0
                })
                .collect()
        })
        .collect()
}

/// Deterministic observation for round `r`, sensor `s`.
fn obs(r: usize, s: usize) -> f64 {
    ((r * 7 + s * 13) as f64 * 0.21).sin() * 0.8
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// The extended headline invariant, full GP pipeline: a primary serving
/// real observe/forecast traffic is killed mid-run (no final
/// checkpoint); the freshest follower is promoted through the recovery
/// ladder; from then on the promoted node's forecasts are bitwise
/// identical to a control fleet recovered from the dead primary's own
/// directory — i.e. to what the dead primary would have served.
#[test]
fn promoted_follower_serves_bitwise_identical_forecasts() {
    let dir_p = tmpdir("head_primary");
    let dir_f1 = tmpdir("head_f1");
    let dir_f2 = tmpdir("head_f2");
    let dir_ctrl = tmpdir("head_ctrl");
    let config = SmilerConfig::small_for_tests();
    let kind = PredictorKind::GaussianProcess;
    let fleet = 6usize;
    let device = Arc::new(Device::default_gpu());
    let serve_config = ServeConfig { shards: 2, ..ServeConfig::default() };

    // Primary: a durable GP fleet behind the ordinary serving path.
    let (durable, oom) = DurableSystem::create(
        Arc::clone(&device),
        histories(fleet, 420),
        config,
        kind,
        &dir_p,
        store_config(),
        0,
    )
    .expect("create primary fleet");
    assert!(oom.is_none());
    let (system, store) = durable.into_parts();
    let shared_store = smiler_store::shared(store);
    let server = smiler_core::SmilerServer::start_with_store(
        Arc::clone(&device),
        system.into_sensors(),
        serve_config,
        Arc::clone(&shared_store),
    );
    let handle = server.handle();
    let repl = ReplicationPrimary::start(
        Arc::clone(&shared_store),
        Some(handle.clone()),
        PrimaryConfig {
            tail_poll: Duration::from_millis(1),
            heartbeat: Duration::from_millis(40),
            ..PrimaryConfig::default()
        },
    )
    .expect("bind replication listener");
    let primary_addr = repl.addr().to_string();

    // Two followers bootstrap from empty directories and tail the log,
    // each serving a stale-read fleet of its own.
    let follower_config = |id: &str, dir: &Path| FollowerConfig {
        store_config: store_config(),
        ack_every: 4,
        poll: Duration::from_millis(2),
        ..FollowerConfig::new(id, &primary_addr, dir)
    };
    let f1 =
        Follower::start(Arc::clone(&device), follower_config("f1", &dir_f1), Some(serve_config))
            .expect("start follower f1");
    let mut f2 =
        Follower::start(Arc::clone(&device), follower_config("f2", &dir_f2), Some(serve_config))
            .expect("start follower f2");

    // Phase 1: live traffic — observes (WAL-logged, replicated) mixed
    // with forecasts.
    for r in 0..6 {
        for s in 0..fleet {
            handle.observe(s, obs(r, s)).expect("primary observe");
        }
        let _ = handle.forecast(r % fleet, 2).expect("primary forecast");
    }
    // f2 falls behind for good: stop it mid-run so f1 is the freshest.
    f2.stop();
    let f2_applied = f2.applied_seq();
    for r in 6..12 {
        for s in 0..fleet {
            handle.observe(s, obs(r, s)).expect("primary observe");
        }
    }

    let head = shared_store.lock().last_seq();
    assert!(f1.wait_applied(head, Duration::from_secs(20)), "f1 must catch up to seq {head}");
    assert!(f1.applied_seq() >= f2_applied, "f1 must be the freshest follower");

    // The follower serves (slightly stale) forecasts through the
    // ordinary handle, and sheds writes with a typed leader hint.
    {
        let fh = f1.serve_handle().expect("f1 serves");
        let report = fh.status_report();
        let cluster = report.cluster.expect("follower publishes cluster status");
        assert_eq!(cluster.role, ClusterRole::Follower);
        assert_eq!(cluster.leader_hint, primary_addr);
        assert!(cluster.staleness_ms.is_some());
        let _ = fh.forecast(0, 2).expect("stale read serves");
        match fh.observe(0, 0.5) {
            Err(ServeError::NotPrimary { leader_hint }) => {
                assert_eq!(leader_hint, primary_addr)
            }
            other => panic!("follower accepted a write: {other:?}"),
        }
        let shed = fh.status_report().stats.not_primary;
        assert!(shed >= 1, "not_primary counter must record the shed write");
    }
    // The primary's status report names its followers and their lag.
    {
        let report = handle.status_report();
        let cluster = report.cluster.expect("primary publishes cluster status");
        assert_eq!(cluster.role, ClusterRole::Primary);
        assert_eq!(cluster.last_promotion_epoch, 0);
        let f1_lag =
            cluster.followers.iter().find(|f| f.follower == "f1").expect("primary tracks f1");
        assert_eq!(f1_lag.acked_seq, head, "caught-up follower acks the head");
        assert_eq!(f1_lag.lag_records, 0);
    }

    // Kill the primary mid-run: stop replication, then abandon the
    // server without the graceful shutdown checkpoint. The control copy
    // of its directory is "what the dead primary would have served".
    drop(repl);
    shared_store.lock().sync().expect("final sync");
    copy_dir(&dir_p, &dir_ctrl);
    drop(server);
    drop(handle);

    // Failover: promote the freshest follower through the recovery
    // ladder, and measure kill → first served forecast.
    let failover_started = Instant::now();
    let promoted =
        f1.into_promoted(Arc::clone(&device), serve_config, 1).expect("promote freshest follower");
    let promoted_handle = promoted.server.handle();
    let first = promoted_handle.forecast(0, 2).expect("first promoted forecast");
    let failover = failover_started.elapsed();
    assert!(failover < Duration::from_secs(30), "failover took {failover:?}");
    assert_eq!(promoted.report.sensors, fleet);
    {
        let cluster = promoted_handle.status_report().cluster.expect("promoted status");
        assert_eq!(cluster.role, ClusterRole::Primary);
        assert_eq!(cluster.last_promotion_epoch, 1);
    }
    // The promoted node accepts writes again.
    promoted_handle.observe(0, obs(12, 0)).expect("promoted write");

    // Control: recover the dead primary's directory through the same
    // ladder and replay the identical post-failover workload.
    let (ctrl_durable, _report) =
        DurableSystem::open(Arc::clone(&device), &dir_ctrl, store_config(), 0)
            .expect("recover control from dead primary's directory");
    let (ctrl_system, ctrl_store) = ctrl_durable.into_parts();
    let ctrl_server = smiler_core::SmilerServer::start_with_store(
        Arc::clone(&device),
        ctrl_system.into_sensors(),
        serve_config,
        smiler_store::shared(ctrl_store),
    );
    let ctrl_handle = ctrl_server.handle();
    let ctrl_first = ctrl_handle.forecast(0, 2).expect("control forecast");
    assert_eq!(
        first.mean.to_bits(),
        ctrl_first.mean.to_bits(),
        "promoted mean {} vs control {}",
        first.mean,
        ctrl_first.mean
    );
    assert_eq!(first.variance.to_bits(), ctrl_first.variance.to_bits());
    ctrl_handle.observe(0, obs(12, 0)).expect("control write");

    // Lockstep continuation: identical observes, bitwise-identical
    // forecasts, across sensors and horizons.
    for r in 13..18 {
        for s in 0..fleet {
            for h in [1usize, 3] {
                let a = promoted_handle.forecast(s, h).expect("promoted forecast");
                let b = ctrl_handle.forecast(s, h).expect("control forecast");
                assert_eq!(
                    a.mean.to_bits(),
                    b.mean.to_bits(),
                    "round {r} sensor {s} h {h}: promoted mean {} vs control {}",
                    a.mean,
                    b.mean
                );
                assert_eq!(
                    a.variance.to_bits(),
                    b.variance.to_bits(),
                    "round {r} sensor {s} h {h}: variance drifted"
                );
            }
        }
        for s in 0..fleet {
            let v = obs(r, s);
            promoted_handle.observe(s, v).expect("promoted observe");
            ctrl_handle.observe(s, v).expect("control observe");
        }
    }

    drop(promoted_handle);
    promoted.server.shutdown();
    drop(ctrl_handle);
    ctrl_server.shutdown();
    drop(f2);
    for dir in [&dir_p, &dir_f1, &dir_f2, &dir_ctrl] {
        let _ = fs::remove_dir_all(dir);
    }
}

/// Regression: a lagging follower's replication cursor pins WAL
/// segments against checkpoint pruning for the whole session, and
/// releases the pin once the follower acks (or disconnects).
#[test]
fn lagging_follower_pins_segments_against_checkpoint_pruning() {
    let dir = tmpdir("pinning");
    let config =
        StoreConfig { flush: FlushPolicy::Always, segment_bytes: 256, keep_checkpoints: 1 };
    let (mut store, _) = Store::open(&dir, config).expect("open primary store");
    for i in 0..40u32 {
        store.append_observe(i % 4, i as f64 * 0.25).expect("append");
    }
    store.sync().expect("sync");
    let shared_store = smiler_store::shared(store);
    let repl = ReplicationPrimary::start(
        Arc::clone(&shared_store),
        None,
        PrimaryConfig {
            tail_poll: Duration::from_millis(1),
            heartbeat: Duration::from_millis(20),
            ..PrimaryConfig::default()
        },
    )
    .expect("bind replication listener");

    // A laggard follower: hellos at seq 5 and never acks. It must keep
    // reading (TCP backpressure would otherwise stall the primary), but
    // its cursor stays pinned at 5.
    let stream = std::net::TcpStream::connect(repl.addr()).expect("connect laggard");
    let mut laggard = ReplConn::new(stream).expect("wrap laggard");
    laggard
        .send(&ReplMsg::Hello { follower_id: "laggard".to_string(), acked_seq: 5 })
        .expect("hello");
    let wait_cursor = |want: Option<u64>| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let cursors = shared_store.lock().cursors();
            let got = cursors.iter().find(|(id, _)| id == "laggard").map(|(_, seq)| *seq);
            if got == want {
                return;
            }
            assert!(Instant::now() < deadline, "cursor never reached {want:?}: {cursors:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    wait_cursor(Some(5));

    // Drive the log through several checkpoints. keep_checkpoints: 1
    // would normally prune everything a checkpoint covers; the pinned
    // cursor must keep every record past seq 5 on disk.
    let mut received = 5u64;
    for batch in 0..4 {
        {
            let mut store = shared_store.lock();
            for i in 0..50u32 {
                store.append_observe(i % 4, (batch * 50 + i) as f64).expect("append");
            }
            store.checkpoint(b"cluster-pinning-test").expect("checkpoint");
        }
        // Keep draining the stream so the primary never blocks on send,
        // remembering how far the laggard has read.
        while let Some(msg) = laggard.recv_timeout(Duration::from_millis(1)).expect("drain") {
            if let ReplMsg::Record { record } = msg {
                received = received.max(record.seq());
            }
        }
    }
    let head = shared_store.lock().last_seq();
    assert_eq!(head, 240);
    let tail = shared_store.lock().read_tail(5).expect("tail behind pinned cursor");
    assert_eq!(tail.len(), 235, "records 6..=240 must all survive pruning");
    assert_eq!(tail.first().map(|r| r.seq()), Some(6));

    // Drain until the laggard has *received* the whole log, then ack the
    // head: the pin lifts and the next checkpoint finally prunes.
    let deadline = Instant::now() + Duration::from_secs(10);
    while received < head {
        if let Some(ReplMsg::Record { record }) =
            laggard.recv_timeout(Duration::from_millis(20)).expect("drain to head")
        {
            received = record.seq();
        }
        assert!(Instant::now() < deadline, "laggard stalled at seq {received}");
    }
    laggard.send(&ReplMsg::Ack { acked_seq: head }).expect("ack head");
    wait_cursor(Some(head));
    shared_store.lock().checkpoint(b"after-catch-up").expect("checkpoint");
    let pruned_tail = shared_store.lock().read_tail(5).expect("tail after release");
    assert!(
        pruned_tail.first().map(|r| r.seq()).unwrap_or(u64::MAX) > 6,
        "catch-up must release the pin and let pruning advance"
    );

    // Disconnect: the primary releases the cursor entirely.
    drop(laggard);
    wait_cursor(None);
    repl.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------- placement

/// Golden owners for a fixed membership: placement is pure arithmetic,
/// so these values must never drift across processes, rebuilds, or
/// platforms. (A drift would silently re-home sensors cluster-wide.)
#[test]
fn placement_is_deterministic_across_processes() {
    let p = Placement::new(["alpha", "bravo", "charlie"]);
    let owners: Vec<&str> = (0..16).map(|s| p.owner(s).unwrap()).collect();
    let again = Placement::new(["charlie", "alpha", "bravo"]);
    let owners_again: Vec<&str> = (0..16).map(|s| again.owner(s).unwrap()).collect();
    assert_eq!(owners, owners_again, "construction order must not matter");
    // Pinned from the hash definition (FNV-1a + SplitMix64): any change
    // to these constants is a placement-breaking change that would
    // silently re-home sensors cluster-wide.
    let golden = [
        "alpha", "alpha", "alpha", "bravo", "charlie", "alpha", "alpha", "alpha", "alpha", "bravo",
        "charlie", "bravo", "bravo", "charlie", "alpha", "bravo",
    ];
    assert_eq!(owners, golden);
}

/// Distinct, deterministic node names from arbitrary integer seeds. The
/// vendored proptest generates numbers, not strings, so membership is
/// derived: the `n` prefix keeps seed-derived names disjoint from the
/// `x`-prefixed "new node" in the growth test.
fn node_names(seeds: &[u64]) -> Vec<String> {
    seeds.iter().map(|s| format!("n{s:x}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Every sensor maps to exactly one owner, and that owner is a
    /// member node.
    #[test]
    fn every_sensor_has_exactly_one_member_owner(
        seeds in prop::collection::vec(0u64..=u64::MAX, 1..8),
        sensors in 1u64..500,
    ) {
        let p = Placement::new(node_names(&seeds));
        let mut per_node = 0usize;
        for node in p.nodes() {
            per_node += p.owned_by(node, sensors).len();
        }
        prop_assert_eq!(per_node, sensors as usize, "ownership must partition the fleet");
        for s in 0..sensors {
            let owner = p.owner(s).expect("nonempty membership always owns");
            prop_assert!(p.nodes().iter().any(|n| n == owner));
        }
    }

    /// (b) Adding one node moves only sensors that land *on* the new
    /// node, and roughly 1/(n+1) of the fleet; removing one node moves
    /// only the sensors it owned.
    #[test]
    fn membership_changes_move_a_minimal_subset(
        seeds in prop::collection::vec(0u64..=u64::MAX, 2..7),
        new_seed in 0u64..=u64::MAX,
    ) {
        let fleet = 300u64;
        let old = Placement::new(node_names(&seeds));
        let new_node = format!("x{new_seed:x}");

        let grown = old.with_node(&new_node);
        let plan = rebalance_plan(&old, &grown, fleet);
        for m in &plan {
            prop_assert_eq!(m.to.as_deref(), Some(&new_node[..]),
                "growth may only move sensors onto the new node");
        }
        let expected = fleet as f64 / grown.len() as f64;
        prop_assert!((plan.len() as f64) < expected * 2.5 + 10.0,
            "added node stole {} of {} sensors (expected ~{:.0})",
            plan.len(), fleet, expected);

        let victim = old.nodes()[0].clone();
        let shrunk = old.without_node(&victim);
        if !shrunk.is_empty() {
            let plan = rebalance_plan(&old, &shrunk, fleet);
            for m in &plan {
                prop_assert_eq!(m.from.as_deref(), Some(&victim[..]),
                    "shrink may only move the removed node's sensors");
            }
            prop_assert_eq!(plan.len(), old.owned_by(&victim, fleet).len());
        }
    }

    /// (c) Placement is a pure function of (membership, sensor): two
    /// independently built instances always agree.
    #[test]
    fn placement_is_deterministic(
        seeds in prop::collection::vec(0u64..=u64::MAX, 1..6),
        sensor in 0u64..10_000,
    ) {
        let names = node_names(&seeds);
        let a = Placement::new(names.clone());
        let mut reversed = names;
        reversed.reverse();
        let b = Placement::new(reversed);
        prop_assert_eq!(a.owner(sensor), b.owner(sensor));
    }
}
