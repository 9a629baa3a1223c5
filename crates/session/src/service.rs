//! The always-on interval service behind `igen-cli serve`: a
//! persistent worker pool draining a bounded queue of JSON-lines
//! requests against a shared [`Session`] compile cache.
//!
//! # Protocol
//!
//! One request per line, one response per line. Every request is an
//! object with a `"kind"` and an optional `"id"` (string or integer,
//! echoed back verbatim):
//!
//! ```text
//! {"id":1,"kind":"compile","source":"double sq(double x){return x*x;}"}
//! {"id":1,"ok":true,"kind":"compile","fn":"sq","insns":1,"inputs":1,"outputs":1}
//! ```
//!
//! Kinds: `compile` (compile + cache, report the program shape), `run`
//! (compile + execute over a seeded or explicit input batch), `profile`
//! (compile + profiled run, report per-site counts and width
//! amplification), `metrics` (Prometheus-style text: the telemetry
//! snapshot plus session cache/queue counters), `ping` (liveness, with
//! an optional `sleep_ms` for queue tests) and `shutdown`. Failures are
//! one-line structured errors — `{"id":…,"ok":false,"error":"…"}` —
//! mirroring the CLI's one-line exit-2 convention; the server never
//! dies on a bad request.
//!
//! # Determinism
//!
//! A `compile`/`run`/`profile` response is a **pure function of its
//! request line** (and of the build): no timings, no cache-state flags,
//! no worker identity. Combined with the batch engine's bit-identity
//! invariant this makes response lines byte-identical whether the pool
//! runs 1 worker or 16 and whether the cache is cold or warm — pinned
//! by the service determinism tests. `metrics` is the deliberate
//! exception (it reports live counters) and is excluded from
//! byte-identity goldens.
//!
//! # Deadlines and backpressure
//!
//! The queue is bounded (`queue_cap`); a submit against a full queue
//! fails immediately with `queue full (N queued): retry later` instead
//! of stalling the reader. A request carrying `"deadline_ms"` (or a
//! server-wide `--deadline-ms` default) that waits in the queue past
//! its deadline is answered with `deadline expired after Nms in queue`
//! instead of being executed late. Both are ordinary error responses:
//! the connection and the server stay up.
//!
//! # Panics
//!
//! A request whose handler panics is answered with the deterministic
//! error line `internal error`; the worker that ran it goes on to the
//! next job, and `metrics` counts it as `igen_session_worker_panics`.

use crate::pipeline::{workload_dd, workload_f64, BindRequest, CompileRequest};
use crate::Session;
use igen_batch::{available_threads, BatchConfig, BatchDdI, BatchF64I};
use igen_core::{Config, OptLevel, Precision};
use igen_interval::{DdI, F64I};
use igen_telemetry::json::{self, Json};
use igen_telemetry::Counter;
use std::collections::VecDeque;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

static QUEUE_DEPTH_MAX: Counter = Counter::new("session.queue.depth_max");

/// Serializes profile handling: the telemetry profile registry is
/// global, so concurrent profiled runs of the same unit would blur
/// each other's before/after diffs.
static PROFILE_LOCK: Mutex<()> = Mutex::new(());

/// Hard ceiling on per-request batch sizes (a service must not let one
/// request allocate unbounded memory).
const MAX_BATCH: u64 = 1 << 20;

/// Hard ceiling on a `run` request's `"tile"` (packed groups per
/// executor tile): 8× the default, past the 4–16 range measured flat. A
/// tile sizes every worker's register bank (`n_regs × tile` lane
/// vectors), so an unclamped value would let one request allocate
/// without bound.
const MAX_TILE_GROUPS: u64 = 64;

/// Hard ceiling on `ping` `sleep_ms` (tests use sleeps to fill the
/// queue deterministically; nothing should park a worker for minutes).
const MAX_SLEEP_MS: u64 = 10_000;

const KINDS: &str = "compile, run, profile, metrics, ping or shutdown";

/// Configuration for [`Service::start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Worker threads draining the queue (0 = one per core).
    pub workers: usize,
    /// Default per-request queue deadline in milliseconds (0 = none;
    /// a request's own `"deadline_ms"` overrides).
    pub deadline_ms: u64,
    /// Compile-cache capacity (0 = [`crate::CompileCache::DEFAULT_CAP`]).
    pub cache_cap: usize,
    /// Bounded-queue capacity (0 = [`ServiceConfig::DEFAULT_QUEUE_CAP`]).
    pub queue_cap: usize,
}

impl ServiceConfig {
    /// Default queue bound: deep enough for bursts, shallow enough
    /// that a stuck pool surfaces as backpressure, not memory growth.
    pub const DEFAULT_QUEUE_CAP: usize = 64;
}

/// A handle to one submitted request's eventual response line.
pub struct Ticket {
    slot: Arc<Slot>,
    shutdown: bool,
}

impl Ticket {
    /// Blocks until the response line is ready and returns it.
    pub fn wait(self) -> String {
        let mut out = self.slot.out.lock().expect("response slot poisoned");
        loop {
            if let Some(line) = out.take() {
                return line;
            }
            out = self.slot.ready.wait(out).expect("response slot poisoned");
        }
    }

    /// True when this ticket answers a `shutdown` request — the caller
    /// should stop reading after writing the response.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }
}

struct Slot {
    out: Mutex<Option<String>>,
    ready: Condvar,
}

impl Slot {
    fn empty() -> Arc<Slot> {
        Arc::new(Slot { out: Mutex::new(None), ready: Condvar::new() })
    }

    fn ready(line: String) -> Arc<Slot> {
        Arc::new(Slot { out: Mutex::new(Some(line)), ready: Condvar::new() })
    }

    fn fill(&self, line: String) {
        *self.out.lock().expect("response slot poisoned") = Some(line);
        self.ready.notify_all();
    }
}

/// The kinds a worker executes (metrics and shutdown are answered
/// inline by `submit`, so they keep working when the queue is full).
enum Work {
    Compile,
    Run,
    Profile,
    Ping,
}

struct Job {
    id: Option<String>,
    work: Work,
    body: Json,
    /// `(expiry instant, configured ms)` — the message reports the
    /// configured value, not a measured one, so it stays deterministic.
    deadline: Option<(Instant, u64)>,
    slot: Arc<Slot>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    stop: bool,
}

struct Shared {
    session: Session,
    queue: Mutex<QueueState>,
    job_ready: Condvar,
    depth_max: AtomicU64,
    /// Jobs whose handler panicked (each answered `internal error`).
    panics: AtomicU64,
}

/// The long-running interval service (see module docs).
pub struct Service {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    queue_cap: usize,
    deadline_ms: u64,
}

impl Service {
    /// Starts the worker pool.
    pub fn start(cfg: ServiceConfig) -> Service {
        let workers = if cfg.workers == 0 { available_threads() } else { cfg.workers };
        let queue_cap =
            if cfg.queue_cap == 0 { ServiceConfig::DEFAULT_QUEUE_CAP } else { cfg.queue_cap };
        let shared = Arc::new(Shared {
            session: Session::new(cfg.cache_cap),
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), stop: false }),
            job_ready: Condvar::new(),
            depth_max: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker(&shared))
            })
            .collect();
        Service { shared, handles, queue_cap, deadline_ms: cfg.deadline_ms }
    }

    /// Submits one request line. Always returns a ticket; protocol
    /// errors, full-queue rejections, `metrics` and `shutdown` come
    /// back pre-answered.
    pub fn submit(&self, line: &str) -> Ticket {
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                return Ticket {
                    slot: Slot::ready(error_line(&None, &format!("bad request: {e}"))),
                    shutdown: false,
                }
            }
        };
        let id = match request_id(&parsed) {
            Ok(id) => id,
            Err(e) => return Ticket { slot: Slot::ready(error_line(&None, &e)), shutdown: false },
        };
        let fail = |msg: &str| Ticket { slot: Slot::ready(error_line(&id, msg)), shutdown: false };
        let Some(kind) = parsed.get("kind").and_then(Json::as_str) else {
            return fail(&format!("request needs a \"kind\" (expected {KINDS})"));
        };
        let work = match kind {
            "compile" => Work::Compile,
            "run" => Work::Run,
            "profile" => Work::Profile,
            "ping" => Work::Ping,
            "metrics" => {
                let line = ok_line(
                    &id,
                    &format!(
                        "\"kind\":\"metrics\",\"text\":{}",
                        json::escape(&self.metrics_text())
                    ),
                );
                return Ticket { slot: Slot::ready(line), shutdown: false };
            }
            "shutdown" => {
                {
                    let mut q = self.shared.queue.lock().expect("service queue poisoned");
                    q.stop = true;
                }
                self.shared.job_ready.notify_all();
                let line = ok_line(&id, "\"kind\":\"shutdown\"");
                return Ticket { slot: Slot::ready(line), shutdown: true };
            }
            k => return fail(&format!("unknown kind '{k}' (expected {KINDS})")),
        };
        let deadline = match parsed.get("deadline_ms") {
            Some(v) => match v.as_u64() {
                Some(ms) => Some((Instant::now() + Duration::from_millis(ms), ms)),
                None => return fail("\"deadline_ms\" must be an unsigned integer"),
            },
            None if self.deadline_ms > 0 => {
                Some((Instant::now() + Duration::from_millis(self.deadline_ms), self.deadline_ms))
            }
            None => None,
        };
        let slot = Slot::empty();
        let job = Job { id, work, body: parsed, deadline, slot: Arc::clone(&slot) };
        {
            let mut q = self.shared.queue.lock().expect("service queue poisoned");
            if q.stop {
                return Ticket {
                    slot: Slot::ready(error_line(&job.id, "service is shutting down")),
                    shutdown: false,
                };
            }
            if q.jobs.len() >= self.queue_cap {
                return Ticket {
                    slot: Slot::ready(error_line(
                        &job.id,
                        &format!("queue full ({} queued): retry later", self.queue_cap),
                    )),
                    shutdown: false,
                };
            }
            q.jobs.push_back(job);
            let depth = q.jobs.len() as u64;
            self.shared.depth_max.fetch_max(depth, Ordering::Relaxed);
            QUEUE_DEPTH_MAX.record_max(depth);
        }
        self.shared.job_ready.notify_one();
        Ticket { slot, shutdown: false }
    }

    /// The `metrics` payload: the telemetry snapshot in Prometheus
    /// text format plus the session cache/queue counters (the latter
    /// are tracked directly, so they report even in builds without the
    /// `telemetry` feature).
    pub fn metrics_text(&self) -> String {
        let mut text = igen_telemetry::snapshot().to_metrics_text();
        let cs = self.shared.session.cache_stats();
        text.push_str(&format!("igen_session_cache_hits {}\n", cs.hits));
        text.push_str(&format!("igen_session_cache_misses {}\n", cs.misses));
        text.push_str(&format!("igen_session_cache_evictions {}\n", cs.evictions));
        text.push_str(&format!("igen_session_cache_len {}\n", cs.len));
        text.push_str(&format!(
            "igen_session_queue_depth_max {}\n",
            self.shared.depth_max.load(Ordering::Relaxed)
        ));
        text.push_str(&format!(
            "igen_session_worker_panics {}\n",
            self.shared.panics.load(Ordering::Relaxed)
        ));
        text
    }

    /// Cache statistics of the underlying [`Session`].
    pub fn cache_stats(&self) -> crate::CacheStats {
        self.shared.session.cache_stats()
    }

    /// Requests currently waiting in the queue (tests use this to
    /// sequence backpressure scenarios deterministically).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("service queue poisoned").jobs.len()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("service queue poisoned");
            q.stop = true;
        }
        self.shared.job_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker loop: drain jobs until the queue is empty *and* the service
/// is stopping — queued requests submitted before a shutdown still get
/// answered.
fn worker(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("service queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.stop {
                    return;
                }
                q = shared.job_ready.wait(q).expect("service queue poisoned");
            }
        };
        let line = match job.deadline {
            Some((expiry, ms)) if Instant::now() >= expiry => {
                error_line(&job.id, &format!("deadline expired after {ms}ms in queue"))
            }
            _ => isolate(&job.id, &shared.panics, || handle(&shared.session, &job)),
        };
        job.slot.fill(line);
    }
}

/// Runs one job's handler so that a panic in it answers the job with a
/// deterministic `internal error` line (and bumps `panics`) instead of
/// leaving its ticket unfilled and killing the worker.
fn isolate(id: &Option<String>, panics: &AtomicU64, run: impl FnOnce() -> String) -> String {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
        panics.fetch_add(1, Ordering::Relaxed);
        error_line(id, "internal error")
    })
}

fn handle(session: &Session, job: &Job) -> String {
    let result = match job.work {
        Work::Ping => handle_ping(&job.body),
        Work::Compile => handle_compile(session, &job.body),
        Work::Run => handle_run(session, &job.body),
        Work::Profile => handle_profile(session, &job.body),
    };
    match result {
        Ok(body) => ok_line(&job.id, &body),
        Err(msg) => error_line(&job.id, &msg),
    }
}

fn handle_ping(body: &Json) -> Result<String, String> {
    let sleep_ms = get_u64(body, "sleep_ms", 0)?.min(MAX_SLEEP_MS);
    if sleep_ms > 0 {
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
    Ok("\"kind\":\"pong\"".to_string())
}

fn handle_compile(session: &Session, body: &Json) -> Result<String, String> {
    let req = compile_request("compile", body)?;
    let unit = session.compile(&req).map_err(|e| e.to_string())?;
    let mut out = format!(
        "\"kind\":\"compile\",\"fn\":{},\"insns\":{},\"inputs\":{},\"outputs\":{}",
        json::escape(&unit.fn_name),
        unit.batch.program().insns.len(),
        unit.n_inputs(),
        unit.n_outputs(),
    );
    if get_bool(body, "emit_bytecode", false)? {
        out.push_str(&format!(",\"bytecode\":{}", json::escape(&unit.batch.program().dump())));
    }
    Ok(out)
}

fn handle_run(session: &Session, body: &Json) -> Result<String, String> {
    let req = compile_request("run", body)?;
    let unit = session.compile(&req).map_err(|e| e.to_string())?;
    let bcfg = run_config(body)?;
    let nin = unit.n_inputs();
    let (batch, seed) = seeded_batch(body)?;
    let (items, outputs) = match req.cfg.precision {
        Precision::Dd => {
            let soa = match body.get("inputs") {
                Some(v) => {
                    let ivals: Vec<DdI> =
                        parse_input_pairs(v, nin)?.iter().map(DdI::from_f64i).collect();
                    BatchDdI::from_intervals(&ivals)
                }
                None => workload_dd(&unit, batch, seed),
            };
            let out = unit.batch.run(&bcfg, &soa);
            (soa.len() / nin, render_dd_outputs(&out))
        }
        _ => {
            let soa = match body.get("inputs") {
                Some(v) => BatchF64I::from_intervals(&parse_input_pairs(v, nin)?),
                None => workload_f64(&unit, batch, seed),
            };
            let out = unit.batch.run(&bcfg, &soa);
            (soa.len() / nin, render_f64_outputs(&out))
        }
    };
    Ok(format!(
        "\"kind\":\"run\",\"fn\":{},\"items\":{items},\"outputs\":{outputs}",
        json::escape(&unit.fn_name),
    ))
}

/// The batch configuration a `run` request asks for, with `"threads"`
/// clamped to the machine's available parallelism (a request must not
/// start one OS thread per tile) and `"tile"` to [`MAX_TILE_GROUPS`].
/// seq_threshold 0 plus the engine's bit-identity invariant: the same
/// request yields the same output bits at any thread/tile setting, so
/// the clamps never change a response.
fn run_config(body: &Json) -> Result<BatchConfig, String> {
    let threads = get_u64(body, "threads", 1)?.min(available_threads() as u64) as usize;
    let tile = get_u64(body, "tile", 0)?.min(MAX_TILE_GROUPS) as usize;
    Ok(BatchConfig::new().with_threads(threads).with_seq_threshold(0).with_tile_groups(tile))
}

fn handle_profile(session: &Session, body: &Json) -> Result<String, String> {
    let req = compile_request("profile", body)?;
    let unit = session.compile(&req).map_err(|e| e.to_string())?;
    let (batch, seed) = seeded_batch(body)?;
    let n_insns = unit.batch.program().insns.len();
    let bcfg = BatchConfig::new().with_threads(1).with_seq_threshold(0);

    // The profile registry is global and accumulates across requests,
    // so diff this run's contribution under a lock and restore the
    // recording flag — responses stay a pure function of the request.
    // The lock guards no data, so a panic under it (answered by
    // `isolate`) must not disable every later profile request.
    let _guard = PROFILE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let before = igen_telemetry::snapshot().profiles;
    let was_recording = igen_telemetry::recording();
    igen_telemetry::set_recording(true);
    let mut prof = igen_telemetry::UnitProfiler::start(&unit.fn_name, n_insns);
    match req.cfg.precision {
        Precision::Dd => {
            let soa = workload_dd(&unit, batch, seed);
            unit.batch.run_profiled(&bcfg, &soa, &mut prof);
        }
        _ => {
            let soa = workload_f64(&unit, batch, seed);
            unit.batch.run_profiled(&bcfg, &soa, &mut prof);
        }
    }
    prof.finish();
    igen_telemetry::set_recording(was_recording);
    let after = igen_telemetry::snapshot().profiles;

    let mut sites = Vec::new();
    for rec in after.iter().filter(|r| r.unit == unit.fn_name) {
        let prev = before.iter().find(|r| r.site == rec.site && r.unit == rec.unit);
        let count = rec.count - prev.map_or(0, |r| r.count);
        if count == 0 {
            continue;
        }
        // Width amplification of *this* run: subtract the previous
        // bucket counts, then reuse the standard mean.
        let amp: Vec<(i32, u64)> = rec
            .amp
            .iter()
            .map(|&(i, v)| {
                let prior = prev
                    .and_then(|p| p.amp.iter().find(|(pi, _)| *pi == i))
                    .map_or(0, |(_, pv)| *pv);
                (i, v - prior)
            })
            .filter(|(_, v)| *v > 0)
            .collect();
        let diff = igen_telemetry::ProfileRec { amp, count, ..rec.clone() };
        let amp_json = diff.mean_amp_log2().map_or("null".to_string(), |a| format!("{a:?}"));
        sites.push(format!(
            "{{\"site\":{},\"op\":{},\"line\":{},\"col\":{},\"count\":{count},\"amp\":{amp_json}}}",
            rec.site,
            json::escape(&rec.op),
            rec.line,
            rec.col,
        ));
    }
    Ok(format!(
        "\"kind\":\"profile\",\"fn\":{},\"insns\":{n_insns},\"telemetry\":{},\"sites\":[{}]",
        json::escape(&unit.fn_name),
        igen_telemetry::COMPILED_IN,
        sites.join(","),
    ))
}

/// Builds the cache-keyed [`CompileRequest`] shared by the compile,
/// run and profile kinds.
fn compile_request(kind: &str, body: &Json) -> Result<CompileRequest, String> {
    let Some(source) = body.get("source").and_then(Json::as_str) else {
        return Err(format!("{kind} needs a \"source\" string"));
    };
    let fn_name = match body.get("fn") {
        Some(v) => Some(v.as_str().ok_or("\"fn\" must be a string")?.to_string()),
        None => None,
    };
    let mut cfg = Config { opt_level: OptLevel::O2, ..Config::default() };
    cfg.opt_level = match get_u64(body, "opt_level", 2)? {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        2 => OptLevel::O2,
        _ => return Err("\"opt_level\" must be 0, 1 or 2".to_string()),
    };
    cfg.precision = match body.get("precision").map(|v| v.as_str()) {
        None => Precision::F64,
        Some(Some("f64")) => Precision::F64,
        Some(Some("dd")) => Precision::Dd,
        _ => return Err("\"precision\" must be \"f64\" or \"dd\"".to_string()),
    };
    let peephole = get_bool(body, "peephole", true)?;
    let size = get_u64(body, "size", 8)? as usize;
    let int_args = named_values(body, "args", "integers", Json::as_i64)?;
    let lens = named_values(body, "lens", "counts", |v| v.as_u64().map(|n| n as usize))?;
    Ok(CompileRequest {
        source: source.into(),
        origin: "request".to_string(),
        fn_name,
        cfg,
        bind: BindRequest::FromParams { int_args, lens, size },
        peephole,
    })
}

/// `"args"`/`"lens"`-style objects mapping parameter names to numbers.
/// BTreeMap iteration sorts keys, so two spellings of the same mapping
/// produce the same cache key.
fn named_values<T>(
    body: &Json,
    key: &str,
    what: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, String> {
    match body.get(key) {
        None => Ok(Vec::new()),
        Some(Json::Obj(map)) => map
            .iter()
            .map(|(name, v)| {
                conv(v)
                    .map(|x| (name.clone(), x))
                    .ok_or_else(|| format!("\"{key}\" must map parameter names to {what}"))
            })
            .collect(),
        Some(_) => Err(format!("\"{key}\" must map parameter names to {what}")),
    }
}

/// The seeded-workload parameters shared by run and profile.
fn seeded_batch(body: &Json) -> Result<(usize, u64), String> {
    let batch = get_u64(body, "batch", 8)?;
    if batch == 0 || batch > MAX_BATCH {
        return Err(format!("\"batch\" must be between 1 and {MAX_BATCH}"));
    }
    let seed = get_u64(body, "seed", 0x16e0)?;
    Ok((batch as usize, seed))
}

/// Parses an explicit `"inputs"` array of `[lo, hi]` pairs.
fn parse_input_pairs(v: &Json, nin: usize) -> Result<Vec<F64I>, String> {
    let arr = v.as_arr().ok_or("\"inputs\" must be an array of [lo,hi] pairs")?;
    if arr.is_empty() || arr.len() % nin != 0 {
        return Err(format!(
            "\"inputs\" needs a positive multiple of {nin} [lo,hi] pairs (got {})",
            arr.len()
        ));
    }
    arr.iter()
        .map(|pair| {
            let p = pair.as_arr().filter(|p| p.len() == 2);
            let (lo, hi) = match p.map(|p| (p[0].as_f64(), p[1].as_f64())) {
                Some((Some(lo), Some(hi))) => (lo, hi),
                _ => return Err("\"inputs\" entries must be [lo,hi] number pairs".to_string()),
            };
            F64I::new(lo, hi).map_err(|e| format!("bad input interval [{lo:?}, {hi:?}]: {e}"))
        })
        .collect()
}

fn render_f64_outputs(out: &BatchF64I) -> String {
    let mut s = String::from("[");
    for i in 0..out.len() {
        if i > 0 {
            s.push(',');
        }
        let v = out.get(i);
        s.push_str(&format!("[{},{}]", num(v.lo()), num(v.hi())));
    }
    s.push(']');
    s
}

/// Double-double outputs carry each endpoint as its exact `[hi, lo]`
/// component pair: `[lo.hi, lo.lo, hi.hi, hi.lo]` per interval.
fn render_dd_outputs(out: &BatchDdI) -> String {
    let mut s = String::from("[");
    for i in 0..out.len() {
        if i > 0 {
            s.push(',');
        }
        let v = out.get(i);
        let (lo, hi) = (v.lo(), v.hi());
        s.push_str(&format!(
            "[{},{},{},{}]",
            num(lo.hi()),
            num(lo.lo()),
            num(hi.hi()),
            num(hi.lo())
        ));
    }
    s.push(']');
    s
}

/// One endpoint as JSON: shortest-roundtrip decimal for finite values;
/// NaN/infinities (legal interval endpoints, illegal JSON numbers) as
/// strings.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "\"NaN\"".to_string()
    } else if v > 0.0 {
        "\"inf\"".to_string()
    } else {
        "\"-inf\"".to_string()
    }
}

fn get_u64(body: &Json, key: &str, default: u64) -> Result<u64, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| format!("\"{key}\" must be an unsigned integer")),
    }
}

fn get_bool(body: &Json, key: &str, default: bool) -> Result<bool, String> {
    match body.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or_else(|| format!("\"{key}\" must be a boolean")),
    }
}

/// The request's `"id"`, re-serialized for the echo (string or
/// integer; anything else is a protocol error).
fn request_id(req: &Json) -> Result<Option<String>, String> {
    match req.get("id") {
        None => Ok(None),
        Some(Json::Str(s)) => Ok(Some(json::escape(s))),
        Some(v) => match v.as_i64() {
            Some(n) => Ok(Some(n.to_string())),
            None => Err("\"id\" must be a string or an integer".to_string()),
        },
    }
}

fn ok_line(id: &Option<String>, body: &str) -> String {
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":true,{body}}}"),
        None => format!("{{\"ok\":true,{body}}}"),
    }
}

fn error_line(id: &Option<String>, msg: &str) -> String {
    let msg = json::escape(msg);
    match id {
        Some(id) => format!("{{\"id\":{id},\"ok\":false,\"error\":{msg}}}"),
        None => format!("{{\"ok\":false,\"error\":{msg}}}"),
    }
}

/// Drives the service over a line stream (stdio transport): requests
/// are answered **in submission order** — a writer thread waits on the
/// tickets in sequence while the workers process them in parallel.
/// Returns `Ok(true)` when a `shutdown` request ended the stream,
/// `Ok(false)` on EOF.
pub fn serve_lines<R, W>(svc: &Service, reader: R, writer: W) -> io::Result<bool>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel::<Ticket>();
    let writer_thread = std::thread::spawn(move || -> io::Result<bool> {
        let mut w = writer;
        let mut shut = false;
        for ticket in rx {
            shut |= ticket.is_shutdown();
            writeln!(w, "{}", ticket.wait())?;
            w.flush()?;
        }
        Ok(shut)
    });
    let mut read_err = None;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                read_err = Some(e);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let ticket = svc.submit(&line);
        let shutdown = ticket.is_shutdown();
        if tx.send(ticket).is_err() {
            break; // writer failed; its error surfaces below
        }
        if shutdown {
            break;
        }
    }
    drop(tx);
    let shut =
        writer_thread.join().map_err(|_| io::Error::other("serve writer thread panicked"))??;
    match read_err {
        Some(e) => Err(e),
        None => Ok(shut),
    }
}

/// Drives the service over a Unix socket at `path`: one thread per
/// connection, each running the same line protocol (pipelining across
/// connections; in-order responses within one). Returns when any
/// connection submits `shutdown`.
#[cfg(unix)]
pub fn serve_unix(svc: &Service, path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;
    use std::sync::atomic::AtomicBool;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let shut = AtomicBool::new(false);
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if shut.load(Ordering::Relaxed) {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let (svc, shut) = (&*svc, &shut);
                    scope.spawn(move || serve_connection(svc, stream, shut));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    })?;
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// One socket connection: read a line, submit, wait, write. Read
/// timeouts let the loop notice a shutdown issued on another
/// connection instead of blocking forever on an idle client.
#[cfg(unix)]
fn serve_connection(
    svc: &Service,
    stream: std::os::unix::net::UnixStream,
    shut: &std::sync::atomic::AtomicBool,
) {
    use std::io::BufReader;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(write_half) = stream.try_clone() else { return };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        if shut.load(Ordering::Relaxed) {
            return;
        }
        match reader.read_line(&mut buf) {
            Ok(0) => return, // EOF
            Ok(_) => {
                let line = std::mem::take(&mut buf);
                if line.trim().is_empty() {
                    continue;
                }
                let ticket = svc.submit(&line);
                let shutdown = ticket.is_shutdown();
                let resp = ticket.wait();
                if writeln!(write_half, "{resp}").and_then(|()| write_half.flush()).is_err() {
                    return;
                }
                if shutdown {
                    shut.store(true, Ordering::Relaxed);
                    return;
                }
            }
            // Timeout mid-wait (or mid-line: read_line keeps the
            // partial text in `buf` and the next call appends).
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_job_is_answered_and_its_worker_goes_on() {
        let panics = AtomicU64::new(0);
        let id = Some("7".to_string());
        let line = isolate(&id, &panics, || panic!("handler bug"));
        assert_eq!(line, r#"{"id":7,"ok":false,"error":"internal error"}"#);
        assert_eq!(panics.load(Ordering::Relaxed), 1);
        // The same thread answers the next job normally.
        assert_eq!(isolate(&None, &panics, || "next".to_string()), "next");
        assert_eq!(
            isolate(&None, &panics, || panic!()),
            r#"{"ok":false,"error":"internal error"}"#
        );
        assert_eq!(panics.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_threads_and_tile_are_clamped() {
        let cfg = |line: &str| run_config(&json::parse(line).expect("json")).expect("config");
        // Only the configuration is built: no thread is started here.
        let huge = cfg(r#"{"threads":1000000,"tile":1099511627776}"#);
        assert_eq!(huge.threads(), available_threads());
        assert_eq!(huge.tile_groups(), MAX_TILE_GROUPS as usize);
        let zero = cfg(r#"{"threads":0,"tile":0}"#);
        assert_eq!(zero.threads(), available_threads());
        assert_eq!(zero.tile_groups(), igen_batch::DEFAULT_TILE_GROUPS);
        let small = cfg(r#"{"threads":1,"tile":5}"#);
        assert_eq!((small.threads(), small.tile_groups()), (1, 5));
        let dflt = cfg("{}");
        assert_eq!((dflt.threads(), dflt.tile_groups()), (1, igen_batch::DEFAULT_TILE_GROUPS));
        assert_eq!(dflt.seq_threshold(), 0);
        assert!(run_config(&json::parse(r#"{"threads":-1}"#).expect("json")).is_err());
    }
}
