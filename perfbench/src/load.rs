//! The load generator: closed-loop clients over at most `nproc`
//! connections, each request checked against its reference scores.

use crate::check::{binary_matches, json_matches};
use crate::client::{Conn, Response};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A serialized request with the scores its response must carry.
pub struct Req {
    pub bytes: Vec<u8>,
    pub binary: bool,
    /// `(JSON key, scores)`; binary responses concatenate the streams in
    /// this order.
    pub expect: Vec<(&'static str, Vec<f64>)>,
    /// Index of the batch the rows came from.
    pub batch: usize,
    pub rows: usize,
    /// The served model's name.
    pub model: &'static str,
}

impl Req {
    /// A 200 whose scores equal the reference bit for bit.
    pub fn accepts(&self, resp: &io::Result<Response>) -> bool {
        match resp {
            Ok(r) if r.status == 200 => {
                if self.binary {
                    let streams: Vec<&[f64]> =
                        self.expect.iter().map(|(_, s)| s.as_slice()).collect();
                    binary_matches(&r.body, &streams)
                } else {
                    let keyed: Vec<(&str, &[f64])> =
                        self.expect.iter().map(|(k, s)| (*k, s.as_slice())).collect();
                    json_matches(&r.body, &keyed)
                }
            }
            _ => false,
        }
    }
}

/// One completed (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
    /// Index into the request list.
    pub req: usize,
}

impl Sample {
    /// Latency from the send, in µs.
    pub fn latency_us(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e6
    }
}

/// A periodic administrative request made between scoring requests.
pub struct Admin {
    pub name: &'static str,
    pub bytes: Vec<u8>,
    /// Offset of the first one from the start of the run.
    pub first: Duration,
    pub every: Duration,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    /// In-memory client spans `(start, end)`, one per scoring request,
    /// recorded only when tracing.
    pub spans: Vec<(Instant, Instant)>,
    pub reconnects: u64,
    /// `(admin name, latency ms, ok)`.
    pub admin: Vec<(&'static str, f64, bool)>,
}

/// Closed loop: each of `conns` connections sends its next request as soon
/// as the previous reply arrives, for `run`, cycling through all of `reqs`
/// from its own offset. Connection `c` also makes `admin[c]`'s request on
/// its schedule, between scoring requests.
pub fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    conns: usize,
    run: Duration,
    admin: &[Option<Admin>],
    trace: bool,
) -> Vec<ConnLog> {
    let t0 = Instant::now();
    let end = t0 + run;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let admin = admin.get(c).and_then(Option::as_ref);
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut log = ConnLog::default();
                    let mut next_admin = admin.map(|a| t0 + a.first);
                    for i in 0.. {
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        if let (Some(a), Some(at)) = (admin, next_admin) {
                            if sent >= at {
                                let resp = conn.send(&a.bytes);
                                let ms = sent.elapsed().as_secs_f64() * 1e3;
                                log.admin.push((
                                    a.name,
                                    ms,
                                    matches!(resp, Ok(r) if r.status == 200),
                                ));
                                next_admin = Some(at + a.every);
                                continue;
                            }
                        }
                        let k = (i + c * reqs.len() / conns) % reqs.len();
                        let resp = conn.send(&reqs[k].bytes);
                        let done = Instant::now();
                        if trace {
                            log.spans.push((sent, done));
                        }
                        log.samples.push(Sample { sent, done, ok: reqs[k].accepts(&resp), req: k });
                    }
                    log.reconnects = conn.reconnects();
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    })
}
