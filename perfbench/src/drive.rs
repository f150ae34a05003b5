//! Open-loop load generators. Each sends the schedule at its due times from one
//! send thread, whatever the replies do, and times every reply from the
//! op's *scheduled* send time.
//!
//! - [`wire`]: one TCP connection to the `smiler-net` frontend, one send
//!   thread and one receive thread, frames built with the public codec.
//! - [`in_process`]: the same stream through `ServeHandle::submit_*`, one
//!   waiter thread per shard (each shard answers in FIFO order).

use crate::sched::{Op, OpKind, Phases};
use smiler_core::degrade::{DegradationLevel, Prediction};
use smiler_core::serve::{ServeError, ServeHandle};
use smiler_net::frame::{self, ErrorCode, Request, Response};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a generator waits for outstanding replies before counting
/// them missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest wait for the nominal backlog to drain before the overload
/// phase starts.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Most requests outstanding in the overload phase. Four times the
/// frontend's default per-connection window keeps the server saturated,
/// while the socket buffers never hold thousands of requests that would
/// have to drain after the phase ends.
const OVERLOAD_OUTSTANDING: u64 = 128;

/// What came back for one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reply {
    /// A served forecast (mean/variance bit-exact).
    Forecast {
        /// Predicted mean.
        mean: f64,
        /// Predicted variance.
        variance: f64,
        /// Ladder rung that answered.
        rung: DegradationLevel,
        /// Server-side time in the predictor, in ms.
        elapsed_ms: f64,
    },
    /// An acknowledged observe.
    Observed,
    /// Refused before the shard ran it (shed or throttled).
    Refused,
    /// Any other typed error.
    Failed,
}

impl Reply {
    fn from_prediction(p: &Prediction) -> Reply {
        Reply::Forecast {
            mean: p.mean,
            variance: p.variance,
            rung: p.level,
            elapsed_ms: p.elapsed.as_secs_f64() * 1e3,
        }
    }

    /// Whether the op was answered successfully.
    pub fn ok(&self) -> bool {
        matches!(self, Reply::Forecast { .. } | Reply::Observed)
    }
}

/// One op's record.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rec {
    /// Seconds from the run's time base when the op was due.
    pub due: f64,
    /// When it actually went out (`None`: never sent).
    pub sent: Option<f64>,
    /// When its reply arrived and what it was (`None`: no reply).
    pub reply: Option<(f64, Reply)>,
    /// Requests outstanding when this op was sent.
    pub inflight: u64,
}

/// A span recorded by the benchmark around one call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Op index (request id − 1).
    pub op: usize,
    /// Start, µs from the run's time base.
    pub start_us: f64,
    /// End, µs from the run's time base.
    pub end_us: f64,
}

/// Everything one generated run measured.
#[derive(Debug, Default)]
pub struct RunLog {
    /// Per op of the schedule.
    pub recs: Vec<Rec>,
    /// Start of the overload phase, seconds from the time base (`None` if
    /// the run had none).
    pub overload_start: Option<f64>,
    /// Replies whose request id was unknown or answered twice.
    pub stray_replies: u64,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Shared pacing state: the send thread blocks on the schedule, the
/// receive side counts completions.
struct Pace {
    base: Instant,
    sent: AtomicU64,
    done: AtomicU64,
    finished_sending: AtomicBool,
}

impl Pace {
    fn new() -> Pace {
        Pace {
            base: Instant::now(),
            sent: AtomicU64::new(0),
            done: AtomicU64::new(0),
            finished_sending: AtomicBool::new(false),
        }
    }

    fn now(&self) -> f64 {
        self.base.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let wait = t - self.now();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }

    fn outstanding(&self) -> u64 {
        self.sent.load(Ordering::SeqCst).saturating_sub(self.done.load(Ordering::SeqCst))
    }

    /// Wait until at most `limit` requests are outstanding, or `until`.
    fn wait_outstanding(&self, limit: u64, until: f64) {
        while self.outstanding() > limit && self.now() < until {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Walk the schedule at its due times, calling `send(index, op)` for each
/// op still inside its phase. Returns per-op due/sent/inflight records and
/// the overload phase start.
fn pace_schedule(
    ops: &[Op],
    phases: &Phases,
    pace: &Pace,
    mut send: impl FnMut(usize, &Op) -> bool,
) -> (Vec<Rec>, Option<f64>) {
    let mut recs = vec![Rec::default(); ops.len()];
    let mut anchor = pace.now();
    let mut overload_start = None;
    for (i, op) in ops.iter().enumerate() {
        if op.overload && overload_start.is_none() {
            pace.wait_outstanding(0, pace.now() + DRAIN_TIMEOUT.as_secs_f64());
            anchor = pace.now();
            overload_start = Some(anchor);
        }
        let due = anchor + op.at;
        recs[i].due = due;
        if op.overload {
            let ends = anchor + phases.overload_secs;
            pace.wait_outstanding(OVERLOAD_OUTSTANDING, ends);
            if pace.now() > ends {
                break;
            }
        }
        pace.sleep_until(due);
        recs[i].inflight = pace.outstanding();
        let t = pace.now();
        if !send(i, op) {
            break;
        }
        recs[i].sent = Some(t);
        pace.sent.fetch_add(1, Ordering::SeqCst);
    }
    pace.finished_sending.store(true, Ordering::SeqCst);
    (recs, overload_start)
}

fn reply_from_wire(resp: &Response) -> Reply {
    match resp {
        Response::Forecast { forecast, .. } => Reply::Forecast {
            mean: forecast.mean,
            variance: forecast.variance,
            rung: DegradationLevel::ALL
                .get(forecast.rung as usize)
                .copied()
                .unwrap_or(DegradationLevel::LastValue),
            elapsed_ms: forecast.elapsed_us as f64 / 1e3,
        },
        Response::ObserveOk { .. } => Reply::Observed,
        Response::Error { code: ErrorCode::Overloaded | ErrorCode::Throttled, .. } => {
            Reply::Refused
        }
        Response::Error { .. } | Response::Pong { .. } => Reply::Failed,
    }
}

/// Drive `ops` over one TCP connection to `addr`. The feed value an
/// observe sends is `feed[sensor][seq]`. With `traced`, spans are kept
/// around request encoding, socket writes, reads and response decoding.
pub fn wire(
    addr: SocketAddr,
    ops: &[Op],
    feed: &[Vec<f64>],
    phases: &Phases,
    traced: bool,
) -> Result<RunLog, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
    let mut reader = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut writer = stream;
    let pace = Pace::new();
    let n = ops.len();

    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut replies: Vec<Option<(f64, Reply)>> = vec![None; n];
            let mut spans = Vec::new();
            let mut stray = 0u64;
            let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
            let mut chunk = [0u8; 1 << 14];
            'read: loop {
                if pace.finished_sending.load(Ordering::SeqCst)
                    && pace.done.load(Ordering::SeqCst) >= pace.sent.load(Ordering::SeqCst)
                {
                    break;
                }
                let read_start = if traced { pace.now() } else { 0.0 };
                let got = match reader.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(got) => got,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                let at = pace.now();
                buf.extend_from_slice(&chunk[..got]);
                let mut consumed_total = 0;
                loop {
                    let (consumed, payload) = match frame::try_frame(&buf[consumed_total..]) {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        // A corrupt stream cannot be resynchronised: every
                        // reply still outstanding counts as missing.
                        Err(_) => {
                            stray += 1;
                            break 'read;
                        }
                    };
                    let decode_start = if traced { pace.now() } else { 0.0 };
                    let resp = Response::decode(payload);
                    let decode_end = if traced { pace.now() } else { 0.0 };
                    consumed_total += consumed;
                    let Ok(resp) = resp else {
                        stray += 1;
                        continue;
                    };
                    let idx = (resp.request_id() as usize).wrapping_sub(1);
                    match replies.get_mut(idx) {
                        Some(slot @ None) => {
                            *slot = Some((at, reply_from_wire(&resp)));
                            pace.done.fetch_add(1, Ordering::SeqCst);
                            if traced {
                                spans.push(Span {
                                    name: "client.read",
                                    op: idx,
                                    start_us: read_start * 1e6,
                                    end_us: at * 1e6,
                                });
                                spans.push(Span {
                                    name: "client.decode",
                                    op: idx,
                                    start_us: decode_start * 1e6,
                                    end_us: decode_end * 1e6,
                                });
                            }
                        }
                        _ => stray += 1,
                    }
                }
                buf.drain(..consumed_total);
            }
            (replies, spans, stray)
        });

        let mut send_spans = Vec::new();
        let mut wire_buf = Vec::with_capacity(64);
        let (mut recs, overload_start) = pace_schedule(ops, phases, &pace, |i, op| {
            let request_id = i as u64 + 1;
            let req = match op.kind {
                OpKind::Observe => Request::Observe {
                    request_id,
                    tenant: 0,
                    sensor: u64::from(op.sensor),
                    value: feed[op.sensor as usize][op.seq as usize],
                },
                OpKind::Forecast { h } => Request::Forecast {
                    request_id,
                    tenant: 0,
                    sensor: u64::from(op.sensor),
                    h,
                    deadline_us: 0,
                },
            };
            let encode_start = if traced { pace.now() } else { 0.0 };
            wire_buf.clear();
            req.encode(&mut wire_buf);
            let write_start = if traced { pace.now() } else { 0.0 };
            let ok = writer.write_all(&wire_buf).is_ok();
            if traced {
                let write_end = pace.now();
                send_spans.push(Span {
                    name: "client.encode",
                    op: i,
                    start_us: encode_start * 1e6,
                    end_us: write_start * 1e6,
                });
                send_spans.push(Span {
                    name: "client.write",
                    op: i,
                    start_us: write_start * 1e6,
                    end_us: write_end * 1e6,
                });
            }
            ok
        });
        // Wait out the replies still in flight, then close the socket so a
        // receive thread blocked in `read` wakes up.
        let until = Instant::now() + REPLY_TIMEOUT;
        while pace.done.load(Ordering::SeqCst) < pace.sent.load(Ordering::SeqCst)
            && Instant::now() < until
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = writer.shutdown(std::net::Shutdown::Both);
        let (replies, mut spans, stray_replies) = match receiver.join() {
            Ok(out) => out,
            Err(_) => return Err("receive thread panicked".to_string()),
        };
        for (rec, reply) in recs.iter_mut().zip(replies) {
            rec.reply = reply;
        }
        spans.extend(send_spans);
        Ok(RunLog { recs, overload_start, stray_replies, spans })
    })
}

type Waiting = (usize, PendingReply);

enum PendingReply {
    Forecast(smiler_core::serve::PendingForecast),
    Observe(smiler_core::serve::PendingObserve),
}

fn reply_from_serve_error(e: &ServeError) -> Reply {
    match e {
        ServeError::Overloaded { .. } => Reply::Refused,
        _ => Reply::Failed,
    }
}

/// Drive `ops` through `ServeHandle::submit_*` in-process, with the same
/// pacing as [`wire`].
pub fn in_process(
    handle: &ServeHandle,
    ops: &[Op],
    feed: &[Vec<f64>],
    phases: &Phases,
) -> Result<RunLog, String> {
    let shards = handle.shard_count();
    let pace = Pace::new();
    std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(shards);
        let mut waiters = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel::<Waiting>();
            txs.push(tx);
            let pace = &pace;
            waiters.push(scope.spawn(move || {
                let mut out = Vec::new();
                for (idx, pending) in rx {
                    let reply = match pending {
                        PendingReply::Forecast(p) => match p.wait() {
                            Ok(pred) => Reply::from_prediction(&pred),
                            Err(e) => reply_from_serve_error(&e),
                        },
                        PendingReply::Observe(p) => match p.wait() {
                            Ok(()) => Reply::Observed,
                            Err(e) => reply_from_serve_error(&e),
                        },
                    };
                    out.push((idx, pace.now(), reply));
                    pace.done.fetch_add(1, Ordering::SeqCst);
                }
                out
            }));
        }
        let mut refused = Vec::new();
        let (mut recs, overload_start) = pace_schedule(ops, phases, &pace, |i, op| {
            let sensor = op.sensor as usize;
            let submitted = match op.kind {
                OpKind::Observe => handle
                    .submit_observe(sensor, feed[sensor][op.seq as usize])
                    .map(PendingReply::Observe),
                OpKind::Forecast { h } => {
                    handle.submit_forecast(sensor, h as usize, None).map(PendingReply::Forecast)
                }
            };
            match submitted {
                Ok(pending) => {
                    // A waiter that is gone has already failed the run.
                    let _ = txs[sensor % shards].send((i, pending));
                }
                Err(e) => {
                    refused.push((i, pace.now(), reply_from_serve_error(&e)));
                    pace.done.fetch_add(1, Ordering::SeqCst);
                }
            }
            true
        });
        drop(txs);
        for waiter in waiters {
            let done = waiter.join().map_err(|_| "waiter thread panicked".to_string())?;
            for (idx, at, reply) in done {
                recs[idx].reply = Some((at, reply));
            }
        }
        for (idx, at, reply) in refused {
            recs[idx].reply = Some((at, reply));
        }
        Ok(RunLog { recs, overload_start, stray_replies: 0, spans: Vec::new() })
    })
}
