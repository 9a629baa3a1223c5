//! The untraced end-to-end run: set-up timed several times, then a
//! timed closed-loop window against one `igen-cli serve --socket`
//! process, then every distinct reply checked.

use crate::check::{self, Expected};
use crate::client::{self, ConnLog, Feed, Server};
use crate::gen::{Plan, Sequence, Workload, CALIBRATION_SEED};
use crate::stats;
use igen_telemetry::json::{self, Json};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Settings shared by the end-to-end and traced runs.
#[derive(Debug, Clone)]
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// The `igen-cli` binary.
    pub igen_cli: std::path::PathBuf,
    /// Directory for the socket and written traces.
    pub work_dir: std::path::PathBuf,
    /// Client connections = server workers (at most `nproc`).
    pub conns: usize,
}

impl Env {
    /// Spawns a server for `plan` and connects one client.
    ///
    /// # Errors
    ///
    /// If the process cannot be started or does not accept.
    pub fn spawn(&self, plan: &Plan, tag: &str) -> Result<(Server, client::Conn), String> {
        let socket = self.work_dir.join(format!("{tag}-{}.sock", std::process::id()));
        let mut server = Server::spawn(&self.igen_cli, &socket, self.conns, plan.cache_cap)
            .map_err(|e| format!("cannot start {}: {e}", self.igen_cli.display()))?;
        let conn = server
            .connect(Duration::from_secs(30))
            .map_err(|e| format!("serve did not accept: {e}"))?;
        Ok((server, conn))
    }
}

/// Sends `line` and requires an `"ok":true` reply.
///
/// # Errors
///
/// On transport failure or an error reply.
pub fn call_ok(conn: &mut client::Conn, line: &str) -> Result<Json, String> {
    let reply = conn.call(line).map_err(|e| format!("request failed: {e}"))?;
    let v = json::parse(&reply).map_err(|e| format!("bad reply: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("request failed: {reply}"));
    }
    Ok(v)
}

/// Spawns, waits for the first `ping` reply and primes the warm set;
/// returns the server, its connection and the seconds it took.
///
/// # Errors
///
/// If any step fails.
pub fn setup(env: &Env, plan: &Plan) -> Result<(Server, client::Conn, f64), String> {
    let t0 = Instant::now();
    let (server, mut conn) = env.spawn(plan, "e2e")?;
    call_ok(&mut conn, "{\"kind\":\"ping\"}")?;
    for w in &plan.warm {
        call_ok(&mut conn, w)?;
    }
    Ok((server, conn, t0.elapsed().as_secs_f64()))
}

/// Refuses instrumented numbers: the serve binary must report a build
/// without telemetry, and so must this benchmark binary.
///
/// # Errors
///
/// If either has telemetry compiled in.
pub fn refuse_instrumented(conn: &mut client::Conn) -> Result<(), String> {
    if igen_telemetry::COMPILED_IN {
        return Err("igen-perfbench was built with telemetry; refusing to record".into());
    }
    let v = call_ok(
        conn,
        "{\"kind\":\"profile\",\"source\":\"double sq(double x) { return x * x; }\",\"batch\":4}",
    )?;
    match v.get("telemetry").and_then(Json::as_bool) {
        Some(false) => Ok(()),
        _ => Err("igen-cli serve reports an instrumented build; refusing to record".into()),
    }
}

/// Everything the end-to-end run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Metric name, value and unit, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Requests attempted (timed window plus calibration).
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// First failure messages.
    pub errors: Vec<String>,
    /// Human-readable notes (tail rule, sample counts).
    pub notes: Vec<String>,
}

/// Checks every distinct reply of the window logs plus the calibration
/// replies; returns the failure count and messages.
pub fn check_logs(plan: &Plan, logs: &[ConnLog], expect: &mut ExpectCache) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    for log in logs {
        for (&i, reply) in &log.memo {
            let verdict =
                expect.get(plan, i).and_then(|want| check::check(&plan.pool[i], want, reply));
            if let Err(e) = verdict {
                failed += log.hits.get(&i).copied().unwrap_or(0);
                errors.push(format!("request {i} ({}): {e}", plan.pool[i].unit.label()));
            }
        }
    }
    (failed, errors)
}

/// Reference results per pool entry, computed once.
#[derive(Default)]
pub struct ExpectCache(HashMap<usize, Result<Expected, String>>);

impl ExpectCache {
    /// The expectation for pool entry `i`.
    ///
    /// # Errors
    ///
    /// If the reference itself failed (compile, interpreter or oracle).
    pub fn get(&mut self, plan: &Plan, i: usize) -> Result<&Expected, String> {
        self.0
            .entry(i)
            .or_insert_with(|| check::expected(&plan.pool[i]))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The already computed, successful expectation for entry `i`.
    pub fn ready(&self, i: usize) -> Option<&Expected> {
        self.0.get(&i).and_then(|r| r.as_ref().ok())
    }
}

/// Completions per window: the p99 of a full window has exactly ten
/// samples beyond it.
pub const WINDOW: usize = 1000;

/// Statistics of one window of consecutive completions. Every timing
/// metric is the median over windows, so a stall of the shared host
/// moves one window instead of the whole run.
#[derive(Debug, Clone)]
pub struct Window {
    /// Completions in the window.
    pub n: usize,
    /// Completions per second of window wall time.
    pub throughput_rps: f64,
    /// Median round trip.
    pub p50_ms: f64,
    /// Tail round trip (at least ten samples beyond).
    pub p99: stats::Tail,
    /// Server CPU per completion over the window.
    pub cpu_ms_per_req: f64,
}

/// Linear interpolation of the cumulative CPU samples at `t`.
fn cpu_at(cpu: &[(Instant, u64)], t: Instant) -> f64 {
    let i = cpu.partition_point(|(s, _)| *s <= t);
    match (i.checked_sub(1).map(|j| cpu[j]), cpu.get(i)) {
        (Some((t0, c0)), Some(&(t1, c1))) => {
            let f = (t - t0).as_secs_f64() / (t1 - t0).as_secs_f64().max(1e-12);
            c0 as f64 + f * (c1 as f64 - c0 as f64)
        }
        (Some((_, c)), None) | (None, Some(&(_, c))) => c as f64,
        (None, None) => f64::NAN,
    }
}

/// Splits time-ordered completions `(instant, round trip ns)` into
/// consecutive windows of [`WINDOW`] (a trailing partial window is
/// dropped unless it is the only one and holds more than ten).
pub fn windows(start: Instant, done: &[(Instant, u64)], cpu: &[(Instant, u64)]) -> Vec<Window> {
    let mut out = Vec::new();
    let mut from = start;
    let chunks: Vec<&[(Instant, u64)]> =
        if done.len() < WINDOW { vec![done] } else { done.chunks_exact(WINDOW).collect() };
    for chunk in chunks {
        let lat: Vec<f64> = chunk.iter().map(|&(_, ns)| ns as f64 / 1e6).collect();
        let Some(p99) = stats::tail(&lat, 99.0) else { continue };
        let to = chunk[chunk.len() - 1].0;
        let secs = (to - from).as_secs_f64();
        let cpu_ms = (cpu_at(cpu, to) - cpu_at(cpu, from)) / 1e6;
        out.push(Window {
            n: chunk.len(),
            throughput_rps: chunk.len() as f64 / secs,
            p50_ms: stats::median(&lat),
            p99,
            cpu_ms_per_req: cpu_ms / chunk.len() as f64,
        });
        from = to;
    }
    out
}

/// Runs the end-to-end measurement.
///
/// # Errors
///
/// Set-up failures (spawn, priming, an instrumented build).
pub fn run(env: &Env) -> Result<Outcome, String> {
    let plan = env.workload.plan(env.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for k in 0..SETUPS {
        let (server, conn, secs) = setup(env, &plan)?;
        setups.push(secs);
        if k + 1 < SETUPS {
            drop(conn);
            server.shutdown().map_err(|e| format!("serve shutdown: {e}"))?;
        } else {
            live = Some((server, conn));
        }
    }
    let (server, mut conn0) = live.expect("at least one set-up");
    refuse_instrumented(&mut conn0)?;
    // Warm-up outside the window: each line of a warm workload once, so
    // lazy allocation and scratch pools are filled before timing.
    if !env.workload.is_cold() {
        for line in &plan.lines {
            conn0.call(line).map_err(|e| format!("warm-up failed: {e}"))?;
        }
    }
    let mut conns = vec![conn0];
    let mut server = server;
    for _ in 1..env.conns {
        conns.push(server.connect(Duration::from_secs(30)).map_err(|e| format!("connect: {e}"))?);
    }

    let start = Instant::now();
    let feed =
        Feed::new(Sequence::new(&plan, env.seed), start + Duration::from_secs_f64(env.seconds));
    let running = AtomicBool::new(true);
    let (logs, cpu) = std::thread::scope(|s| {
        // Server CPU, sampled so each window gets its own share.
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            loop {
                let stop = !running.load(Ordering::Relaxed);
                samples.push((Instant::now(), server.cpu_ns()));
                if stop {
                    return samples;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let handles: Vec<_> =
            conns.iter_mut().map(|c| s.spawn(|| client::drive(c, &plan.lines, &feed))).collect();
        let logs: Vec<ConnLog> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        running.store(false, Ordering::Relaxed);
        (logs, sampler.join().expect("cpu sampler panicked"))
    });
    let cpu: Vec<(Instant, u64)> = cpu
        .into_iter()
        .map(|(t, c)| c.map(|c| (t, c)))
        .collect::<std::io::Result<_>>()
        .map_err(|e| format!("/proc: {e}"))?;

    // Calibration: the fixed-seed pool, sent once each after the window.
    let calib = env.workload.plan(CALIBRATION_SEED);
    let mut calib_replies = Vec::with_capacity(calib.lines.len());
    for line in &calib.lines {
        calib_replies.push(conns[0].call(line));
    }
    let rss = server.peak_rss_mib().map_err(|e| format!("/proc: {e}"))?;
    drop(conns);
    server.shutdown().map_err(|e| format!("serve shutdown: {e}"))?;

    let mut expect = ExpectCache::default();
    let (mut failed, mut errors) = check_logs(&plan, &logs, &mut expect);
    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    failed += logs.iter().map(|l| l.failed).sum::<u64>();
    let mut calib_expect = ExpectCache::default();
    let mut widths = Vec::new();
    for (i, reply) in calib_replies.into_iter().enumerate() {
        attempted += 1;
        let verdict = reply.map_err(|e| format!("reply dropped: {e}")).and_then(|r| {
            calib_expect.get(&calib, i).and_then(|w| check::check(&calib.pool[i], w, &r))
        });
        match verdict {
            Ok(()) => widths.push(i),
            Err(e) => {
                failed += 1;
                errors
                    .push(format!("calibration request {i} ({}): {e}", calib.pool[i].unit.label()));
            }
        }
    }
    let (width, n_width) =
        check::rel_width_log2_mean(widths.iter().filter_map(|&i| calib_expect.ready(i)));

    let mut done: Vec<(Instant, u64)> = logs
        .iter()
        .flat_map(|l| l.done.iter().copied().zip(l.latencies_ns.iter().copied()))
        .collect();
    done.sort_unstable();
    let wins = windows(start, &done, &cpu);
    if wins.is_empty() {
        return Err(format!("only {} requests completed; need more than 10", done.len()));
    }
    let mut notes = vec![format!(
        "{} windows of {} completions; latency_p99_ms: p{:.2} of each window ({} beyond), median over windows",
        wins.len(),
        wins[0].n,
        wins[0].p99.percentile,
        wins[0].p99.beyond,
    )];
    let med = |f: fn(&Window) -> f64| stats::median(&wins.iter().map(f).collect::<Vec<_>>());
    let (q1, q3) = stats::quartiles(&wins.iter().map(|w| w.throughput_rps).collect::<Vec<_>>());
    notes.push(format!("window throughput quartiles: {q1:.1} .. {q3:.1} req/s"));
    notes.push(format!("setup_s samples: {setups:?}"));
    notes.push(format!("rel_width_log2_mean over {n_width} calibration outputs"));
    notes.push(format!("failed_share: {}", failed as f64 / attempted.max(1) as f64));
    let metrics = vec![
        ("setup_s", stats::median(&setups), "s"),
        ("throughput_rps", med(|w| w.throughput_rps), "req/s"),
        ("latency_p50_ms", med(|w| w.p50_ms), "ms"),
        ("latency_p99_ms", med(|w| w.p99.value), "ms"),
        ("server_cpu_ms_per_req", med(|w| w.cpu_ms_per_req), "ms"),
        ("server_peak_rss_mb", rss, "MiB"),
        ("rel_width_log2_mean", width, "log2"),
    ];
    errors.truncate(20);
    Ok(Outcome { metrics, attempted, failed, errors, notes })
}
