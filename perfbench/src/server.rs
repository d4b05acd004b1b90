//! The server under test: `uadb_serve::cli::run(["serve", …])`, the same
//! entry point as `uadb-serve serve`, run in a child process re-executed
//! from this binary, with the default `ServerConfig` and `PoolConfig`.

use crate::client::{get, Conn};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// First argument that makes this binary act as the server.
pub const SERVE_ARG: &str = "__serve";

/// Longest wait for a spawned server to answer `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs the server in this process (the child side of [`Server::spawn`]).
/// The server exits when the parent closes our stdin, so it cannot
/// outlive the benchmark even if the benchmark is killed.
pub fn serve_child(args: &[String]) -> i32 {
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin().lock(), &mut io::sink());
        std::process::exit(0);
    });
    let mut cli = vec!["serve".to_string()];
    cli.extend_from_slice(args);
    uadb_serve::cli::run(&cli)
}

/// A running server child process.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns a server for the `--model` values and waits for its first
    /// `200` from `/healthz`. Returns the server and the time from spawn to
    /// that answer, which includes loading the model files.
    pub fn spawn(models: &[String]) -> io::Result<(Self, Duration)> {
        let t0 = Instant::now();
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg(SERVE_ARG);
        for m in models {
            cmd.args(["--model", m]);
        }
        // A pinned backtrace setting keeps results independent of the
        // caller's environment: printing a panic backtrace costs
        // milliseconds of server CPU (see NOTES.md, known defect).
        cmd.args(["--addr", "127.0.0.1:0"])
            .env("RUST_BACKTRACE", "0")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server { child, stdin, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let mut lines = BufReader::new(stdout).lines();
        // "serving N model(s) [default: x] on http://ADDR (backend)", then
        // the endpoint list; the server writes nothing more to stdout.
        let banner = lines.next().transpose()?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server exited before binding")
        })?;
        server.addr = banner
            .split("http://")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, banner.clone()))?;
        let _endpoints = lines.next();
        let mut conn = Conn::new(server.addr);
        loop {
            if matches!(conn.send(&get("/healthz")), Ok(r) if r.status == 200) {
                return Ok((server, t0.elapsed()));
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no 200 from /healthz"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The server's `/proc/<pid>/stat` path.
    pub fn stat_path(&self) -> String {
        format!("/proc/{}/stat", self.child.id())
    }

    /// The server's `/proc/<pid>/status` path.
    pub fn status_path(&self) -> String {
        format!("/proc/{}/status", self.child.id())
    }

    /// Stops the server and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// CPU time of a process, user plus system over all its threads (exited
/// ones included), from a `/proc/<pid>/stat` file, in seconds. The kernel
/// leaves out time the hypervisor gave to other guests (steal).
pub fn cpu_s(stat_path: &str) -> io::Result<f64> {
    stat_cpu_s(&std::fs::read_to_string(stat_path)?)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad {stat_path}")))
}

fn stat_cpu_s(text: &str) -> Option<f64> {
    // The command name may hold spaces and parentheses; the fields after
    // its last `)` do not. utime and stime are fields 14 and 15 of the
    // line, the 12th and 13th after the name.
    let mut fields = text.rsplit_once(')')?.1.split_whitespace().skip(11);
    let mut ticks = || fields.next()?.parse::<f64>().ok();
    Some((ticks()? + ticks()?) / CLOCK_TICKS_PER_S)
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat` times: 100 on every Linux
/// architecture this benchmark builds for.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// VmHWM (peak resident set) from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    status_mb(status_path, "VmHWM:")
}

/// VmRSS (current resident set) from a `/proc/<pid>/status` file, in MiB.
pub fn rss_mb(status_path: &str) -> io::Result<f64> {
    status_mb(status_path, "VmRSS:")
}

fn status_mb(status_path: &str, field: &str) -> io::Result<f64> {
    let mut text = String::new();
    std::fs::File::open(status_path)?.read_to_string(&mut text)?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no {field} line")))
}

/// Runs `f` while sampling the resident set of the process whose status
/// file is `status_path` every 100 ms; returns `f`'s result and the
/// samples in MiB (at least one, taken when `f` returns).
pub fn sample_rss<T>(status_path: &str, f: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut samples = Vec::new();
    let out = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut v = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                v.extend(rss_mb(status_path).ok());
                std::thread::sleep(Duration::from_millis(100));
            }
            v
        });
        let out = f();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        samples = sampler.join().expect("RSS sampler panicked");
        out
    });
    samples.extend(rss_mb(status_path).ok());
    (out, samples)
}

/// A `/metrics` exposition as `series → value`, where a series is the
/// metric name with its label set as printed (`name{label="v"}`).
pub type Exposition = HashMap<String, f64>;

/// Scrapes and parses `/metrics`.
pub fn scrape(conn: &mut Conn) -> io::Result<Exposition> {
    let r = conn.send(&get("/metrics"))?;
    if r.status != 200 {
        return Err(io::Error::other(format!("/metrics answered {}", r.status)));
    }
    Ok(parse_exposition(&String::from_utf8_lossy(&r.body)))
}

/// Parses Prometheus text exposition, skipping comments.
pub fn parse_exposition(text: &str) -> Exposition {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after − before` for one series (missing series count as 0).
pub fn delta(before: &Exposition, after: &Exposition, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// Sum of `after − before` over every series of a metric family
/// (all label sets).
pub fn family_delta(before: &Exposition, after: &Exposition, name: &str) -> f64 {
    let in_family = |s: &String| s == name || s.starts_with(&format!("{name}{{"));
    after.iter().filter(|(s, _)| in_family(s)).map(|(_, v)| v).sum::<f64>()
        - before.iter().filter(|(s, _)| in_family(s)).map(|(_, v)| v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_deltas() {
        let before = parse_exposition(
            "# HELP x y\nuadb_reactor_events_total{shard=\"0\"} 5\n\
             uadb_reactor_events_total{shard=\"1\"} 1\nuadb_http_requests_total 10\n",
        );
        let after = parse_exposition(
            "uadb_reactor_events_total{shard=\"0\"} 9\nuadb_reactor_events_total{shard=\"1\"} 4\n\
             uadb_http_requests_total 15\nuadb_reactor_events_total_extra 100\n",
        );
        assert_eq!(delta(&before, &after, "uadb_http_requests_total"), 5.0);
        assert_eq!(family_delta(&before, &after, "uadb_reactor_events_total"), 7.0);
        assert_eq!(delta(&before, &after, "missing"), 0.0);
    }

    #[test]
    fn cpu_time_from_a_stat_line() {
        let line = "42 (a (b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 31 0 0 20 0 3 0 9\n";
        assert_eq!(stat_cpu_s(line), Some(2.81));
        assert_eq!(stat_cpu_s("42 (x) S 1"), None);

        // This process's CPU time advances while it computes.
        let t0 = cpu_s("/proc/self/stat").unwrap();
        let start = Instant::now();
        let mut x = 0u64;
        while cpu_s("/proc/self/stat").unwrap() < t0 + 0.05 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
            assert!(start.elapsed() < Duration::from_secs(30), "CPU time did not advance");
        }
    }

    #[test]
    fn resident_set_of_this_process() {
        let peak = peak_rss_mb("/proc/self/status").unwrap();
        let (sum, samples) = sample_rss("/proc/self/status", || (0..1000u64).sum::<u64>());
        assert_eq!(sum, 499_500);
        assert!(!samples.is_empty());
        assert!(
            samples.iter().all(|&mb| mb > 0.0 && mb <= peak + 1.0),
            "{samples:?} vs peak {peak}"
        );
    }
}
