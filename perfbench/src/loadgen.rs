//! Open-loop HTTP load generator: one thread per keep-alive connection
//! sends each request at its scheduled due time, pipelined, without
//! waiting for earlier responses, and reads responses as they arrive.
//! Latency is measured from the due time, so a late send or a server
//! backlog both count against the request (no coordinated omission).
//!
//! Each connection thread blocks in `ppoll(2)` until its socket is
//! readable or the next request is due, so an idle generator costs no CPU
//! and wakes with high-resolution timers rather than at socket-timeout
//! (jiffy) granularity.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One request of a window's plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Seconds after the window start at which the request is due.
    pub due: f64,
    /// HTTP method.
    pub method: &'static str,
    /// Request target (`/recommend?...`).
    pub target: String,
    /// Caller's tag (e.g. the index of the query's key).
    pub tag: usize,
}

/// What happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// A complete response with this HTTP status arrived.
    Http(u16),
    /// The connection failed or the response did not arrive in time.
    IoError,
}

/// One request's measurements.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the window's plan.
    pub index: usize,
    /// The plan's tag.
    pub tag: usize,
    /// The plan's due time, seconds from the window start.
    pub due: f64,
    /// Send time minus due time, seconds.
    pub late_s: f64,
    /// Response time minus due time, seconds (`NaN` on I/O error).
    pub latency_s: f64,
    /// Outcome.
    pub status: Status,
    /// Index into [`WindowResult::bodies`] of the response body.
    pub body: usize,
    /// Whether the daemon served the response from its cache.
    pub cache_hit: bool,
}

/// Result of one window: per-request samples plus the distinct response
/// bodies they refer to (deduplicated, so memory stays bounded by the key
/// set rather than the request count).
#[derive(Debug, Default)]
pub struct WindowResult {
    /// One sample per planned request, in plan order.
    pub samples: Vec<Sample>,
    /// Distinct response bodies.
    pub bodies: Vec<String>,
    /// Whether the window was cut short because a request waited longer
    /// than the abort threshold.
    pub aborted: bool,
    /// Wall time from the window start to the last response, seconds.
    pub wall_s: f64,
}

/// How a window is driven.
#[derive(Debug, Clone, Copy)]
pub struct WindowConfig {
    /// Parallel keep-alive connections (one thread each).
    pub connections: usize,
    /// Give up on requests still unanswered this long after the last due
    /// time.
    pub grace: Duration,
    /// Abort the window once any outstanding request has waited this long
    /// (the window then certainly fails a tail-latency criterion). `None`
    /// never aborts.
    pub abort_after: Option<Duration>,
    /// Closed loop with this many requests in flight per connection:
    /// send the next request as soon as fewer are outstanding, ignoring
    /// due times. `None` is open loop.
    pub closed_loop: Option<usize>,
}

/// Drive one window against `addr`. Request `i` of `plan` goes to
/// connection `i % connections`; each connection is opened at the start
/// and closed at the end of the window. `before_send` runs on the sending
/// thread right before each request is written (e.g. to rewrite the
/// dataset file ahead of a `POST /reload`).
pub fn run_window(
    addr: SocketAddr,
    plan: &[Planned],
    config: WindowConfig,
    before_send: &(dyn Fn(&Planned) + Sync),
) -> WindowResult {
    let connections = config.connections.max(1);
    let start = Instant::now() + Duration::from_millis(5);
    let per_conn: Vec<Vec<usize>> =
        (0..connections).map(|c| (c..plan.len()).step_by(connections).collect()).collect();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_conn
            .iter()
            .map(|indices| {
                scope.spawn(move || drive(addr, plan, indices, start, config, before_send))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load-generator thread")).collect()
    });

    let mut result = WindowResult::default();
    let mut body_ids: HashMap<String, usize> = HashMap::new();
    let mut samples: Vec<Sample> = Vec::with_capacity(plan.len());
    let mut last_done = 0.0f64;
    for outcome in outcomes {
        result.aborted |= outcome.aborted;
        for (mut sample, body) in outcome.samples {
            if let Some(body) = body {
                let next = body_ids.len();
                sample.body = *body_ids.entry(body).or_insert(next);
            }
            if sample.latency_s.is_finite() {
                last_done = last_done.max(plan[sample.index].due + sample.latency_s);
            }
            samples.push(sample);
        }
    }
    samples.sort_by_key(|s| s.index);
    result.samples = samples;
    result.bodies = vec![String::new(); body_ids.len()];
    for (body, id) in body_ids {
        result.bodies[id] = body;
    }
    result.wall_s = last_done;
    result
}

/// Reconnections one connection thread attempts per window before it
/// gives up and reports its remaining requests as I/O errors.
const MAX_RECONNECTS: u32 = 16;

struct ConnOutcome {
    samples: Vec<(Sample, Option<String>)>,
    aborted: bool,
}

/// Minimal `ppoll(2)` binding: wait until `fd` is readable (or writable,
/// when `want_write`) or `timeout` passes.
mod poll {
    use std::ffi::{c_int, c_long, c_ulong, c_void};
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;

    pub fn wait(fd: c_int, want_write: bool, timeout: Duration) {
        let mut pfd =
            PollFd { fd, events: POLLIN | if want_write { POLLOUT } else { 0 }, revents: 0 };
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(3600) as c_long,
            tv_nsec: c_long::from(timeout.subsec_nanos() as i32),
        };
        // SAFETY: `pfd` and `ts` are valid for the duration of the call,
        // nfds matches the single descriptor, and a null sigmask leaves
        // the signal mask untouched. The result only reports readiness,
        // which the caller rediscovers with non-blocking I/O.
        unsafe {
            ppoll(&mut pfd, 1, &ts, std::ptr::null());
        }
    }
}

/// One parsed response.
#[derive(Debug, PartialEq)]
struct Response {
    status: u16,
    cache_hit: bool,
    /// The server will close the connection after this response.
    close: bool,
    body: String,
}

/// Parse the next complete HTTP/1.1 response from `buf`, returning it and
/// the bytes it spans; `None` until a whole response has arrived.
fn parse_response(buf: &[u8]) -> Option<(Response, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse::<u16>().ok()?;
    let mut content_length = 0usize;
    let (mut cache_hit, mut close) = (false, false);
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-cache") {
                cache_hit = value.eq_ignore_ascii_case("hit");
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let total = head_end + 4 + content_length;
    if buf.len() < total {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
    Some((Response { status, cache_hit, close, body }, total))
}

fn request_bytes(p: &Planned) -> Vec<u8> {
    format!("{} {} HTTP/1.1\r\nHost: llmpilot\r\n\r\n", p.method, p.target).into_bytes()
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_nonblocking(true)?;
    Ok(s)
}

/// Drive one connection through its share of the plan.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    indices: &[usize],
    start: Instant,
    config: WindowConfig,
    before_send: &(dyn Fn(&Planned) + Sync),
) -> ConnOutcome {
    let io_error = |i: usize, late_s: f64| {
        let sample = Sample {
            index: i,
            tag: plan[i].tag,
            due: plan[i].due,
            late_s,
            latency_s: f64::NAN,
            status: Status::IoError,
            body: 0,
            cache_hit: false,
        };
        (sample, None)
    };
    let mut samples = Vec::with_capacity(indices.len());
    let Ok(mut stream) = connect(addr) else {
        samples.extend(indices.iter().map(|&i| io_error(i, 0.0)));
        return ConnOutcome { samples, aborted: false };
    };
    // Connected ahead of time; the window (and a closed loop's clock)
    // starts for every connection at once.
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let last_due = indices.last().map_or(0.0, |&i| plan[i].due);
    let deadline = start + Duration::from_secs_f64(last_due) + config.grace;

    let mut out: Vec<u8> = Vec::new();
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    // Sent but unanswered: (plan index, send offset from start, seconds).
    let mut in_flight: std::collections::VecDeque<(usize, f64)> = Default::default();
    let mut next = 0usize;
    let mut broken = false;
    let mut aborted = false;
    let mut reconnects = 0u32;
    let secs = |t: Instant| t.saturating_duration_since(start).as_secs_f64();

    while (next < indices.len() || !in_flight.is_empty()) && !broken {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if let (Some(limit), Some(&(i, _))) = (config.abort_after, in_flight.front()) {
            if secs(now) - plan[i].due > limit.as_secs_f64() {
                aborted = true;
                break;
            }
        }
        // Queue every request that is due (or, closed loop, the next one
        // once the previous was answered).
        while next < indices.len() {
            let i = indices[next];
            let ready = if let Some(depth) = config.closed_loop {
                in_flight.len() < depth
            } else {
                start + Duration::from_secs_f64(plan[i].due) <= now
            };
            if !ready {
                break;
            }
            before_send(&plan[i]);
            out.extend_from_slice(&request_bytes(&plan[i]));
            in_flight.push_back((i, secs(Instant::now())));
            next += 1;
        }
        // Flush what the socket accepts. A write or read failure, or the
        // server ending the keep-alive session (it does so after a
        // per-connection request budget), loses the connection.
        let mut lost = false;
        while !out.is_empty() && !lost {
            match stream.write(&out) {
                Ok(0) => lost = true,
                Ok(n) => {
                    out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => lost = true,
            }
        }
        // Read and match whatever responses have arrived.
        let mut progressed = false;
        while !lost {
            match stream.read(&mut chunk) {
                Ok(0) => lost = true,
                Ok(n) => {
                    inbuf.extend_from_slice(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => lost = true,
            }
        }
        if progressed {
            let done = secs(Instant::now());
            let mut consumed = 0;
            while let Some((resp, len)) = parse_response(&inbuf[consumed..]) {
                consumed += len;
                let Some((i, sent)) = in_flight.pop_front() else {
                    broken = true;
                    break;
                };
                let due = plan[i].due;
                let sample = Sample {
                    index: i,
                    tag: plan[i].tag,
                    due,
                    late_s: (sent - due).max(0.0),
                    latency_s: done - due,
                    status: Status::Http(resp.status),
                    body: 0,
                    cache_hit: resp.cache_hit,
                };
                samples.push((sample, Some(resp.body)));
                if resp.close {
                    lost = true;
                    break;
                }
            }
            inbuf.drain(..consumed);
        }
        if lost && !broken {
            // Reconnect and resend every request still unanswered; their
            // latency keeps counting from the original due time.
            reconnects += 1;
            match connect(addr) {
                Ok(s) if reconnects <= MAX_RECONNECTS => stream = s,
                _ => broken = true,
            }
            inbuf.clear();
            out.clear();
            for &(i, _) in &in_flight {
                out.extend_from_slice(&request_bytes(&plan[i]));
            }
            continue;
        }
        if progressed {
            continue;
        }
        // Nothing to do until the socket is ready or the next request is
        // due.
        let now = Instant::now();
        let mut wake = deadline;
        if next < indices.len() && config.closed_loop.is_none() {
            wake = wake.min(start + Duration::from_secs_f64(plan[indices[next]].due));
        }
        if let (Some(limit), Some(&(i, _))) = (config.abort_after, in_flight.front()) {
            wake = wake.min(start + Duration::from_secs_f64(plan[i].due) + limit);
        }
        if wake > now {
            poll::wait(stream.as_raw_fd(), !out.is_empty(), wake - now);
        }
    }
    for (i, sent) in in_flight {
        samples.push(io_error(i, (sent - plan[i].due).max(0.0)));
    }
    for &i in &indices[next..] {
        samples.push(io_error(i, 0.0));
    }
    ConnOutcome { samples, aborted }
}

/// Whether the server fell behind during a window: the median latency of
/// the last quarter of requests (by due time) is more than twice that of
/// the first quarter and at least 5 ms higher (a backlog, not a burst of
/// scheduling noise). `latencies` must be in due-time order.
pub fn backlog_growing(latencies: &[f64]) -> bool {
    let n = latencies.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = crate::stats::median(&latencies[..q]).unwrap_or(0.0);
    let last = crate::stats::median(&latencies[n - q..]).unwrap_or(0.0);
    last > 2.0 * first && last - first > 5e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_and_partial_responses() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Cache: hit\r\n\r\n{}\
            HTTP/1.1 404 Not Found\r\nConnection: close\r\nContent-Length: 5\r\n\r\nab"
            .to_vec();
        let (first, len) = parse_response(&buf).unwrap();
        assert_eq!(
            first,
            Response { status: 200, cache_hit: true, close: false, body: "{}".into() }
        );
        assert_eq!(parse_response(&buf[len..]), None);
        buf.extend_from_slice(b"cde");
        let (second, len2) = parse_response(&buf[len..]).unwrap();
        assert_eq!(
            second,
            Response { status: 404, cache_hit: false, close: true, body: "abcde".into() }
        );
        assert_eq!(len + len2, buf.len());
    }

    #[test]
    fn detects_a_growing_backlog_but_not_noise() {
        let steady: Vec<f64> = (0..400).map(|i| 3e-4 + 1e-4 * f64::from(i % 7)).collect();
        assert!(!backlog_growing(&steady));
        let growing: Vec<f64> = (0..400).map(|i| 3e-4 + 1e-4 * f64::from(i)).collect();
        assert!(backlog_growing(&growing));
        // A tail spike in the middle is not a trend.
        let mut spiky = steady.clone();
        spiky[200] = 0.05;
        assert!(!backlog_growing(&spiky));
    }
}
