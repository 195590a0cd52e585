//! The serve-churn workload: a `mcds-serve` daemon in a child process
//! holds a resident uniform topology.  One open-loop writer connection
//! sends single-event admitted churn batches on a fixed schedule and
//! times each from when it was due; one closed-loop reader connection
//! sends a fixed query mix.  Afterwards the admitted batches are
//! replayed through an in-process `Maintainer`, which must reproduce
//! every acknowledgement, every `stats` answer and the final state.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mcds_maintain::{MaintainConfig, Maintainer, StabilityMetrics, TopologyEvent};
use mcds_obs::profile::Profile;
use mcds_serve::json::Value;
use mcds_serve::proto::render_event;
use mcds_serve::{Client, ServeConfig, Server};
use mcds_udg::Udg;

use crate::inputs::{serve_inputs, serve_points, RADIUS};
use crate::report::{peak_rss_mb, setup_s, Report};
use crate::stats::Samples;

/// Writer schedule: one single-event batch due every this often.  An
/// admitted event holds the daemon's engine mutex for about 13 ms on a
/// 4k-node topology, so writes hold it about a quarter of the time; the
/// reader's `stats` queries (a UDG rebuild under the same lock) take
/// most of the rest.  At a 36 ms interval (writes about 40 %) a spell
/// of 1.5x slower host pushed the writer into a backlog, and its
/// due-time latency ran away (p90 from 20 ms to 130 ms).
pub const CHURN_INTERVAL: Duration = Duration::from_millis(50);

/// Daemon launches per untraced run, half before the live phase and half
/// after the replay, so that they sample the host over the whole run;
/// `setup_s` is the median time from spawn to first answer.
const SETUP_REPEATS: usize = 16;

/// Distinct reader requests generated; the reader cycles through them.
const QUERY_MIX_LEN: usize = 4096;

/// Runs the daemon for `seed` in this process (the child side of
/// [`Daemon::launch`]): prints `listening <addr>` and serves until a
/// `shutdown` request.
pub fn daemon_main(seed: u64) -> std::io::Result<()> {
    // The metrics op reports the registry, so record like the CLI daemon.
    mcds_obs::enable();
    let cfg = ServeConfig {
        radius: RADIUS,
        threads: 2,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg, serve_points(seed))?;
    println!("listening {}", server.local_addr()?);
    server.run()
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn launch(seed: u64) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // One glibc malloc arena: with one arena per worker thread, which
        // worker happened to serve which request moved the daemon's peak
        // RSS between 9 and 12 MiB from run to run.
        let mut child = Command::new(exe)
            .args(["daemon", "--seed", &seed.to_string()])
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        match (read, line.trim().strip_prefix("listening ")) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr.to_string();
                Ok(daemon)
            }
            _ => Err(format!("daemon did not report its address: {line:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to stop over `client` and reaps it.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let ack = client
            .request(r#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown: {e}"))?;
        expect_ok(&ack, "shutdown")?;
        let status = self.child.wait().map_err(|e| format!("reaping: {e}"))?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("daemon exited with {status}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn expect_ok(line: &str, op: &str) -> Result<Value, String> {
    let doc = Value::parse(line).map_err(|e| format!("bad response {line:?}: {e}"))?;
    let ok = doc.get("ok").and_then(Value::as_bool) == Some(true);
    let same_op = doc.get("op").and_then(Value::as_str) == Some(op);
    if ok && same_op {
        Ok(doc)
    } else {
        Err(format!("{op}: unexpected response {line}"))
    }
}

fn field(doc: &Value, key: &str) -> Result<usize, String> {
    doc.get(key)
        .and_then(Value::as_usize)
        .ok_or_else(|| format!("response lacks {key:?}"))
}

/// Whether a write is in flight, shared by the writer and the reader.
#[derive(Debug, Default)]
pub struct InFlight {
    busy: AtomicBool,
    sent: AtomicU64,
}

impl InFlight {
    fn state(&self) -> (bool, u64) {
        (
            self.busy.load(Ordering::SeqCst),
            self.sent.load(Ordering::SeqCst),
        )
    }
}

/// What the open-loop writer observed.
#[derive(Debug, Default)]
pub struct WriterLog {
    /// Per batch: from when it was due to its acknowledgement.
    pub latency: Vec<Duration>,
    /// Per batch: from when it was due to when it was sent.
    pub late: Vec<Duration>,
    /// Per batch: the acknowledgement line.
    pub acks: Vec<String>,
}

/// Sends `lines` over one connection, line `i` due at `start + i *
/// interval`; a line is never sent before it is due, and is sent late
/// when the previous acknowledgement arrives after its due time.
pub fn open_loop_writer(
    client: &mut Client,
    lines: &[String],
    interval: Duration,
    in_flight: &InFlight,
) -> std::io::Result<WriterLog> {
    let mut log = WriterLog::default();
    let start = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        let due = start + interval * u32::try_from(i).expect("batch count fits u32");
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        in_flight.busy.store(true, Ordering::SeqCst);
        in_flight.sent.fetch_add(1, Ordering::SeqCst);
        let sent = Instant::now();
        let ack = client.request(line);
        let done = Instant::now();
        in_flight.busy.store(false, Ordering::SeqCst);
        log.acks.push(ack?);
        log.late.push(sent - due);
        log.latency.push(done - due);
    }
    Ok(log)
}

/// What the closed-loop reader observed.
#[derive(Debug, Default)]
struct ReaderLog {
    all: Samples,
    idle: Samples,
    busy: Samples,
    /// `(request, response)` of every read, for checking afterwards.
    responses: Vec<(usize, Result<String, String>)>,
    wall: Duration,
}

fn read_until(
    client: &mut Client,
    queries: &[String],
    stop: &AtomicBool,
    in_flight: &InFlight,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let start = Instant::now();
    let mut i = 0;
    while !stop.load(Ordering::SeqCst) {
        let q = i % queries.len();
        let before = in_flight.state();
        let t = Instant::now();
        let response = client.request(&queries[q]).map_err(|e| e.to_string());
        let d = t.elapsed();
        let after = in_flight.state();
        log.all.push(d);
        if before.0 || after.0 || before.1 != after.1 {
            log.busy.push(d);
        } else {
            log.idle.push(d);
        }
        let failed = response.is_err();
        log.responses.push((q, response));
        if failed {
            break;
        }
        i += 1;
    }
    log.wall = start.elapsed();
    log
}

/// The replayed engine's counts after each tick (index 0 = initial).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    population: usize,
    dominators: usize,
    connectors: usize,
}

fn counts(engine: &Maintainer) -> Counts {
    Counts {
        population: engine.population(),
        dominators: engine.dominators().len(),
        connectors: engine.connectors().len(),
    }
}

fn fresh_engine(points: Vec<mcds_geom::Point>) -> Maintainer {
    let cfg = MaintainConfig {
        radius: RADIUS,
        ..MaintainConfig::default()
    };
    Maintainer::with_population(cfg, points)
}

/// Replays `events` one per tick; returns per-tick counts and each
/// apply's wall time.
fn replay(points: Vec<mcds_geom::Point>, events: &[TopologyEvent]) -> (Vec<Counts>, Vec<Duration>) {
    let mut engine = fresh_engine(points);
    let mut ticks = vec![counts(&engine)];
    let mut walls = Vec::with_capacity(events.len());
    for &event in events {
        let t = Instant::now();
        std::hint::black_box(engine.apply(event));
        walls.push(t.elapsed());
        ticks.push(counts(&engine));
    }
    (ticks, walls)
}

/// Checks a writer acknowledgement against the replayed state after
/// that tick.
fn check_ack(ack: &str, tick: usize, expect: Counts) -> Result<(), String> {
    let doc = expect_ok(ack, "churn")?;
    let got = (
        field(&doc, "tick")?,
        field(&doc, "admitted")?,
        field(&doc, "rejected")?,
        field(&doc, "population")?,
        field(&doc, "backbone")?,
    );
    let backbone = expect.dominators + expect.connectors;
    let want = (tick, 1, 0, expect.population, backbone);
    (got == want)
        .then_some(())
        .ok_or_else(|| format!("churn tick {tick}: ack {got:?}, replay {want:?}"))
}

/// Checks a reader response; `stats` answers must match the replayed
/// state at the tick they report.
fn check_read(query: &str, response: &str, ticks: &[Counts]) -> Result<(), String> {
    if query.contains("metrics") {
        return expect_ok(response, "metrics").map(drop);
    }
    let doc = expect_ok(response, "query")?;
    if !query.contains("stats") {
        return Ok(());
    }
    let tick = field(&doc, "tick")?;
    let want = ticks
        .get(tick)
        .ok_or_else(|| format!("stats reports unknown tick {tick}"))?;
    let got = Counts {
        population: field(&doc, "population")?,
        dominators: field(&doc, "dominators")?,
        connectors: field(&doc, "connectors")?,
    };
    (got == *want)
        .then_some(())
        .ok_or_else(|| format!("stats at tick {tick}: daemon {got:?}, replay {want:?}"))
}

/// Launches the daemon and times it from spawn to its first answer.
fn launch_timed(seed: u64) -> Result<(Daemon, Client, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::launch(seed)?;
    let mut client = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let first = client
        .request(r#"{"op":"query","what":"stats"}"#)
        .map_err(|e| format!("first request: {e}"))?;
    let elapsed = t.elapsed().as_secs_f64();
    expect_ok(&first, "query")?;
    Ok((daemon, client, elapsed))
}

/// Times `count` launches, shutting each daemon down again.
fn timed_launches(seed: u64, count: usize, times: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..count {
        let (daemon, mut client, elapsed) = launch_timed(seed)?;
        times.push(elapsed);
        daemon.shutdown(&mut client)?;
    }
    Ok(())
}

/// Runs serve-churn for `seed`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    if let Err(msg) = run_inner(seed, seconds, traced, &mut report) {
        report.fail(msg);
    }
    report
}

fn run_inner(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let batches = ((seconds / CHURN_INTERVAL.as_secs_f64()) as usize).max(1);
    let inputs = serve_inputs(seed, batches, QUERY_MIX_LEN);
    let lines: Vec<String> = inputs
        .churn
        .iter()
        .map(|e| {
            format!(
                r#"{{"op":"churn","events":[{}],"admit":true}}"#,
                render_event(e)
            )
        })
        .collect();
    let mut setups = Vec::new();
    if !traced {
        timed_launches(seed, SETUP_REPEATS / 2 - 1, &mut setups)?;
    }
    let (daemon, first_client, elapsed) = launch_timed(seed)?;
    setups.push(elapsed);
    drop(first_client);
    let connect = || Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"));
    let (mut writer_client, mut reader_client) = (connect()?, connect()?);

    // Live phase: two connections on two threads.
    let in_flight = InFlight::default();
    let stop = AtomicBool::new(false);
    let (written, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_until(&mut reader_client, &inputs.queries, &stop, &in_flight));
        let written = open_loop_writer(&mut writer_client, &lines, CHURN_INTERVAL, &in_flight);
        stop.store(true, Ordering::SeqCst);
        (written, reader.join().expect("reader thread"))
    });
    let written = written.map_err(|e| format!("writer: {e}"))?;

    // Final state, the daemon's own counters and memory, then shutdown.
    let final_stats = expect_ok(
        &reader_client
            .request(r#"{"op":"query","what":"stats"}"#)
            .map_err(|e| format!("final stats: {e}"))?,
        "query",
    )?;
    let metrics = expect_ok(
        &reader_client
            .request(r#"{"op":"metrics"}"#)
            .map_err(|e| format!("metrics: {e}"))?,
        "metrics",
    )?;
    let rss = peak_rss_mb(&daemon.pid()).unwrap_or(0.0);
    daemon.shutdown(&mut reader_client)?;

    // Replay and check every answer against it.
    let (ticks, walls) = replay(inputs.points.clone(), &inputs.churn);
    for (i, ack) in written.acks.iter().enumerate() {
        report.attempt(check_ack(ack, i + 1, ticks[i + 1]));
    }
    for (q, response) in &read.responses {
        let outcome = response
            .clone()
            .and_then(|r| check_read(&inputs.queries[*q], &r, &ticks));
        report.attempt(outcome);
    }
    let last = *ticks.last().expect("initial tick");
    let final_counts = Counts {
        population: field(&final_stats, "population")?,
        dominators: field(&final_stats, "dominators")?,
        connectors: field(&final_stats, "connectors")?,
    };
    report.attempt(
        (final_counts == last)
            .then_some(())
            .ok_or_else(|| format!("final state: daemon {final_counts:?}, replay {last:?}")),
    );
    eprintln!(
        "{} churn batches, {} reads, {} failed",
        written.latency.len(),
        read.all.len(),
        report.failures.len()
    );

    if traced {
        traced_layers(
            &inputs.points,
            &inputs.churn,
            &walls,
            &written,
            &read,
            &metrics,
            report,
        );
        return Ok(());
    }
    timed_launches(seed, SETUP_REPEATS - SETUP_REPEATS / 2, &mut setups)?;
    let mut churn = Samples::default();
    written.latency.iter().for_each(|&d| churn.push(d));
    report.set("setup_s", setup_s(&setups));
    report.set("peak_rss_mb", rss);
    report.set("ok_frac", report.ok_frac());
    report.set("backbone_cost", (last.dominators + last.connectors) as f64);
    report.set("req_ms_p50", churn.pct_ms(50));
    report.set("req_ms_p90", churn.pct_ms(90));
    // Reader throughput over the time no write was in flight (reader
    // wall time minus the writer's send-to-ack time).  Taking the
    // writes' share of the lock out leaves a rate that moves with the
    // cost of a read, not with how long writes hold the lock.
    let service: Duration = written
        .latency
        .iter()
        .zip(&written.late)
        .map(|(&latency, &late)| latency - late)
        .sum();
    let free = read.wall.saturating_sub(service);
    report.set("work_per_s", read.all.len() as f64 / free.as_secs_f64());
    Ok(())
}

/// The per-layer metrics of serve-churn: a second replay with the
/// program's spans on (maintain and its inner solves), the client-side
/// split of reader latency, and the daemon's own counters.
fn traced_layers(
    points: &[mcds_geom::Point],
    events: &[TopologyEvent],
    plain_walls: &[Duration],
    written: &WriterLog,
    read: &ReaderLog,
    metrics: &Value,
    report: &mut Report,
) {
    let mut engine = fresh_engine(points.to_vec());
    let mut stability = StabilityMetrics::new();
    let mut apply = Samples::default();
    let (mut traced_total, mut udg_total, mut edges) = (Duration::ZERO, Duration::ZERO, 0);
    let (mut phase1, mut phase2) = (0u64, 0u64);
    let mut min_coverage = f64::INFINITY;
    mcds_obs::reset();
    for &event in events {
        mcds_obs::enable();
        let t = Instant::now();
        let rep = engine.apply(event);
        let wall = t.elapsed();
        mcds_obs::disable();
        traced_total += wall;
        apply.push(wall);
        stability.record(&rep);
        let profile = Profile::from_trace(&mcds_obs::trace::drain_jsonl())
            .expect("the program's own trace parses");
        let labels = profile.labels();
        let total = |label: &str| {
            labels
                .iter()
                .find(|s| s.label == label)
                .map_or(0, |s| s.total_ns)
        };
        phase1 += total("solve.phase1");
        phase2 += total("solve.phase2");
        let covered = total("solve") as f64 / total("maintain.apply").max(1) as f64;
        min_coverage = min_coverage.min(covered);
        // The live topology's unit-disk build, as maintain's snapshot
        // and the stats query run it.
        let live: Vec<mcds_geom::Point> = engine.alive().iter().map(|&(_, p)| p).collect();
        let t = Instant::now();
        let udg = std::hint::black_box(Udg::with_radius(live, RADIUS));
        udg_total += t.elapsed();
        edges += udg.graph().num_edges();
    }
    let n = events.len().max(1) as f64;
    let plain_total: Duration = plain_walls.iter().sum();
    let counter = |name: &str| mcds_obs::counter_value(name) as f64 / n;
    report.set("udg.build_ms", udg_total.as_secs_f64() * 1e3 / n);
    report.set("udg.edges", edges as f64 / n);
    report.set("mis.ms", phase1 as f64 / 1e6 / n);
    report.set("mis.dominators", counter("solve.dominators"));
    report.set("connect.ms", phase2 as f64 / 1e6 / n);
    report.set("connect.connectors", counter("solve.connectors"));
    report.set("maintain.apply_ms_p50", apply.pct_ms(50));
    report.set("maintain.apply_ms_p95", apply.pct_ms(95));
    report.set("maintain.events", stability.events as f64);
    report.set("maintain.repaired", stability.repaired as f64);
    report.set("maintain.recomputed", stability.recompute_total() as f64);
    report.set("maintain.repair_ratio", stability.repair_rate());
    report.set("maintain.touched_mean", stability.mean_touched());

    let mut churn = Samples::default();
    let mut overhead = Samples::default();
    for (&lat, &apply) in written.latency.iter().zip(plain_walls) {
        churn.push(lat);
        overhead.push(lat.saturating_sub(apply));
    }
    let daemon_counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let mut late = Samples::default();
    written.late.iter().for_each(|&d| late.push(d));
    report.set("serve.read_us_p50", read.all.pct_us(50));
    report.set("serve.read_us_p99", read.all.pct_us(99));
    report.set(
        "serve.read_per_s",
        read.all.len() as f64 / read.wall.as_secs_f64(),
    );
    report.set("serve.read_us_p50_idle", read.idle.pct_us(50));
    report.set("serve.read_us_p50_busy", read.busy.pct_us(50));
    report.set("serve.churn_ms_p95", churn.pct_ms(95));
    report.set("serve.write_overhead_ms_p50", overhead.pct_ms(50));
    report.set("serve.ticks", daemon_counter("serve.ticks"));
    report.set("serve.admitted", daemon_counter("serve.churn_admitted"));
    report.set("serve.rejected", daemon_counter("serve.churn_rejected"));
    report.set("loadgen.late_ms_p95", late.pct_ms(95));
    report.set("loadgen.writes", written.acks.len() as f64);
    report.set("loadgen.reads", read.all.len() as f64);
    report.set(
        "trace.overhead_pct",
        (traced_total.as_secs_f64() / plain_total.as_secs_f64() - 1.0) * 100.0,
    );
    report.set("trace.coverage_pct", min_coverage * 100.0);
    report.set("samples", n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A server that answers each line only after `delay`.
    fn slow_server(delay: Duration, lines: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            for _ in 0..lines {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read");
                std::thread::sleep(delay);
                writeln!(writer, r#"{{"ok":true,"op":"churn"}}"#).expect("write");
            }
        });
        (addr, handle)
    }

    fn write_to(delay: Duration, interval: Duration, count: usize) -> WriterLog {
        let (addr, server) = slow_server(delay, count);
        let mut client = Client::connect(&addr).expect("connect");
        let lines = vec![r#"{"op":"churn"}"#.to_string(); count];
        let log = open_loop_writer(&mut client, &lines, interval, &InFlight::default())
            .expect("writes succeed");
        server.join().expect("server thread");
        log
    }

    #[test]
    fn writer_times_from_due_time_and_reports_lateness() {
        // Each answer takes 30 ms but a batch is due every 10 ms, so
        // batch i is sent about 20·i ms late and answered about
        // 30 + 20·i ms after it was due.
        let log = write_to(Duration::from_millis(30), Duration::from_millis(10), 10);
        assert_eq!(log.acks.len(), 10);
        for i in 0..10u32 {
            let (lat, late) = (log.latency[i as usize], log.late[i as usize]);
            assert!(
                lat >= Duration::from_millis(30 + 20 * u64::from(i)),
                "{i}: {lat:?}"
            );
            assert!(late + Duration::from_millis(2) >= Duration::from_millis(20 * u64::from(i)));
            assert!(lat > late);
        }
        let mut late = Samples::default();
        log.late.iter().for_each(|&d| late.push(d));
        assert!(late.pct_ms(95) >= 150.0, "p95 lateness {}", late.pct_ms(95));
    }

    #[test]
    fn writer_on_a_fast_server_is_on_time() {
        let log = write_to(Duration::ZERO, Duration::from_millis(10), 10);
        let mut late = Samples::default();
        log.late.iter().for_each(|&d| late.push(d));
        assert!(late.pct_ms(50) < 5.0, "median lateness {}", late.pct_ms(50));
        // Never sent early: the last batch goes out 90 ms in.
        assert!(log.latency.iter().all(|&d| d < Duration::from_millis(50)));
    }

    #[test]
    fn replay_matches_a_real_daemon_tick_by_tick() {
        let points: Vec<mcds_geom::Point> = (0..30)
            .map(|i| mcds_geom::Point::new((i % 6) as f64 * 0.7, (i / 6) as f64 * 0.7))
            .collect();
        let events = vec![
            TopologyEvent::Leave { node: 3 },
            TopologyEvent::Join {
                pos: mcds_geom::Point::new(1.0, 1.0),
            },
            TopologyEvent::Move {
                node: 7,
                to: mcds_geom::Point::new(2.0, 0.5),
            },
        ];
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                threads: 2,
                ..ServeConfig::default()
            },
            points.clone(),
        )
        .expect("bind");
        let addr = server.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(&addr).expect("connect");
        let (ticks, walls) = replay(points, &events);
        assert_eq!(walls.len(), 3);
        for (i, e) in events.iter().enumerate() {
            let line = format!(
                r#"{{"op":"churn","events":[{}],"admit":true}}"#,
                render_event(e)
            );
            let ack = client.request(&line).expect("ack");
            check_ack(&ack, i + 1, ticks[i + 1]).expect("ack matches");
            let stats = client
                .request(r#"{"op":"query","what":"stats"}"#)
                .expect("stats");
            check_read(r#"{"op":"query","what":"stats"}"#, &stats, &ticks).expect("stats match");
        }
        // A wrong expectation is reported, not accepted.
        let stats = client
            .request(r#"{"op":"query","what":"stats"}"#)
            .expect("stats");
        assert!(check_read("stats", &stats, &ticks[..1]).is_err());
        client.request(r#"{"op":"shutdown"}"#).expect("shutdown");
        handle.join().expect("server thread").expect("server ran");
    }
}
