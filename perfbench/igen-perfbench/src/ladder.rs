//! The traced run: the workload's operands and requests replayed
//! in-process through each layer's public functions, bottom to top,
//! giving the per-layer metrics and the cost ladder (what each layer
//! costs and what it adds over the layer below).
//!
//! Spans are recorded by this file around each call into a layer; the
//! program itself carries no tracing.

use crate::check::compile_request;
use crate::client::{self, ConnLog, Feed};
use crate::e2e::{call_ok, check_logs, Env, ExpectCache};
use crate::gen::{Body, Plan, Prec, Request, Sequence, Workload, CALIBRATION_SEED};
use crate::stats::{median, quartiles};
use crate::trace::{self, Tracer};
use igen_batch::{BatchConfig, BatchDdI, BatchF64I, BatchProgram};
use igen_core::{compile_to_program_raw, verify_bit_identity, verify_bit_identity_dd, Compiler};
use igen_interval::{DdI, DdIx2, DdIx4, F64Ix4, LaneOps, F64I};
use igen_kernels::{workload, LaneOrScalar};
use igen_session::CompileRequest;
use igen_session::{
    compile_uncached, workload_dd, workload_f64, CompiledUnit, Service, ServiceConfig, Session,
};
use igen_telemetry::json::{self, Json};
use igen_vm::{run_tile, Insn, PreparedProgram, Program, TileBank, VmElem};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operands per microbenchmark array.
const N_OPS: usize = 2048;
/// Timed repetitions per microbenchmark (after one warm-up).
const REPS: usize = 9;
/// Distinct units whose compile stages are timed.
const MAX_UNITS: usize = 16;
/// Requests replayed per path (manual pipeline, in-process service,
/// socket), fewer when a quarter of the time budget runs out first.
const MAX_REPLAY: usize = 60_000;

/// One row of the cost ladder.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer name.
    pub layer: &'static str,
    /// What the samples measure.
    pub what: String,
    /// Median sample.
    pub median: f64,
    /// Interquartile range of the samples.
    pub iqr: f64,
    /// Cost per interval operation, in ns.
    pub ns_per_iop: f64,
    /// Ratio to the layer below (the tax this layer adds).
    pub ratio: f64,
}

/// Output of the traced run.
pub struct Ladder {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The ladder view.
    pub rows: Vec<Row>,
    /// All recorded spans.
    pub tracer: Tracer,
    /// Requests replayed and checked for a well-formed reply.
    pub attempted: u64,
    /// Replays that failed (error where none was expected, dropped
    /// reply, a served reply that fails its reference check).
    pub failed: u64,
    /// First failure messages.
    pub errors: Vec<String>,
}

struct Samples(Vec<f64>);

impl Samples {
    fn med(&self) -> f64 {
        median(&self.0)
    }
    fn iqr(&self) -> f64 {
        iqr(&self.0)
    }
}

fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// Times `pass` (which performs `ops` operations) `REPS` times after a
/// warm-up, repeating it inside each sample so one sample lasts at
/// least ~2 ms; returns ns per operation for each sample.
fn per_op(tr: &mut Tracer, name: &'static str, ops: usize, mut pass: impl FnMut()) -> Samples {
    let t = Instant::now();
    pass();
    let once = t.elapsed().as_nanos().max(1) as f64;
    let inner = ((2e6 / once).ceil() as usize).clamp(1, 10_000);
    let samples = (0..REPS)
        .map(|_| {
            tr.span(name, 0, |_| {
                let t = Instant::now();
                for _ in 0..inner {
                    pass();
                }
                t.elapsed().as_nanos() as f64 / (inner * ops) as f64
            })
        })
        .collect();
    Samples(samples)
}

fn bin<A: Copy, R>(a: &[A], b: &[A], out: &mut Vec<R>, f: impl Fn(A, A) -> R) {
    out.clear();
    for (x, y) in a.iter().zip(b) {
        out.push(f(black_box(*x), black_box(*y)));
    }
    black_box(&out);
}

/// The seed of the workload's first seeded run, used for operand draws.
fn operand_seed(plan: &Plan) -> u64 {
    plan.pool
        .iter()
        .find_map(|r| match r.body {
            Body::Run { seed, .. } => Some(seed),
            _ => None,
        })
        .unwrap_or(0)
}

struct Micro {
    rn_add: Samples,
    add_ru: Samples,
    mul_ru: Samples,
    div_ru: Samples,
    f64i: [Samples; 3],
    ddi: [Samples; 3],
    f64ix4_mul: Samples,
    ddix2_mul: Samples,
    ddix2_div: Samples,
    /// Scalar op cost per precision for the opcode-mix model:
    /// add, sub, mul, div, sqr, neg.
    mix_f64: [f64; 6],
    mix_dd: [f64; 6],
}

fn micro(tr: &mut Tracer, plan: &Plan) -> Micro {
    let mut rng = workload::rng(operand_seed(plan));
    let a = workload::random_points(&mut rng, N_OPS, -2.0, 2.0);
    let b = workload::random_points(&mut rng, N_OPS, -2.0, 2.0);
    let mut o = Vec::with_capacity(N_OPS);
    let rn_add = per_op(tr, "round.rn_add", N_OPS, || bin(&a, &b, &mut o, |x, y| x + y));
    let add_ru = per_op(tr, "round.add_ru", N_OPS, || bin(&a, &b, &mut o, igen_round::add_ru));
    let mul_ru = per_op(tr, "round.mul_ru", N_OPS, || bin(&a, &b, &mut o, igen_round::mul_ru));
    let div_ru = per_op(tr, "round.div_ru", N_OPS, || bin(&a, &b, &mut o, igen_round::div_ru));

    let fa = workload::intervals_1ulp(&a);
    let fb = workload::intervals_1ulp(&b);
    let mut fo: Vec<F64I> = Vec::with_capacity(N_OPS);
    let f64i = [
        per_op(tr, "interval.f64i_add", N_OPS, || bin(&fa, &fb, &mut fo, |x, y| x + y)),
        per_op(tr, "interval.f64i_mul", N_OPS, || bin(&fa, &fb, &mut fo, |x, y| x * y)),
        per_op(tr, "interval.f64i_div", N_OPS, || bin(&fa, &fb, &mut fo, |x, y| x / y)),
    ];
    let f_sub = per_op(tr, "interval.f64i_sub", N_OPS, || bin(&fa, &fb, &mut fo, |x, y| x - y));
    let f_sqr = per_op(tr, "interval.f64i_sqr", N_OPS, || bin(&fa, &fb, &mut fo, |x, _| x.sqr()));
    let f_neg = per_op(tr, "interval.f64i_neg", N_OPS, || bin(&fa, &fb, &mut fo, |x, _| -x));

    let da = workload::dd_intervals_1ulp(&mut rng, N_OPS, -2.0, 2.0);
    let db = workload::dd_intervals_1ulp(&mut rng, N_OPS, -2.0, 2.0);
    let mut dout: Vec<DdI> = Vec::with_capacity(N_OPS);
    let ddi = [
        per_op(tr, "interval.ddi_add", N_OPS, || bin(&da, &db, &mut dout, |x, y| x + y)),
        per_op(tr, "interval.ddi_mul", N_OPS, || bin(&da, &db, &mut dout, |x, y| x * y)),
        per_op(tr, "interval.ddi_div", N_OPS, || bin(&da, &db, &mut dout, |x, y| x / y)),
    ];
    let d_sub = per_op(tr, "interval.ddi_sub", N_OPS, || bin(&da, &db, &mut dout, |x, y| x - y));
    let d_sqr = per_op(tr, "interval.ddi_sqr", N_OPS, || bin(&da, &db, &mut dout, |x, _| x.sqr()));
    let d_neg = per_op(tr, "interval.ddi_neg", N_OPS, || bin(&da, &db, &mut dout, |x, _| -x));

    let pack4 = |v: &[F64I]| -> Vec<F64Ix4> {
        v.chunks_exact(4).map(|c| F64Ix4::from_lanes_fn(|i| c[i])).collect()
    };
    let pack2 = |v: &[DdI]| -> Vec<DdIx2> {
        v.chunks_exact(2).map(|c| DdIx2::from_lanes_fn(|i| c[i])).collect()
    };
    let (pa, pb) = (pack4(&fa), pack4(&fb));
    let mut po = Vec::with_capacity(pa.len());
    let f64ix4_mul = per_op(tr, "lanes.f64ix4_mul", N_OPS, || bin(&pa, &pb, &mut po, |x, y| x * y));
    let (qa, qb) = (pack2(&da), pack2(&db));
    let mut qo = Vec::with_capacity(qa.len());
    let ddix2_mul = per_op(tr, "lanes.ddix2_mul", N_OPS, || bin(&qa, &qb, &mut qo, |x, y| x * y));
    let ddix2_div = per_op(tr, "lanes.ddix2_div", N_OPS, || bin(&qa, &qb, &mut qo, |x, y| x / y));
    let mix_f64 =
        [f64i[0].med(), f_sub.med(), f64i[1].med(), f64i[2].med(), f_sqr.med(), f_neg.med()];
    let mix_dd = [ddi[0].med(), d_sub.med(), ddi[1].med(), ddi[2].med(), d_sqr.med(), d_neg.med()];
    Micro {
        rn_add,
        add_ru,
        mul_ru,
        div_ru,
        f64i,
        ddi,
        f64ix4_mul,
        ddix2_mul,
        ddix2_div,
        mix_f64,
        mix_dd,
    }
}

/// Interval-layer cost of one execution of `prog`'s body: the scalar
/// cost of each executed opcode (fused accumulates count as their two
/// operations; constants are free; other opcodes cost an add).
fn mix_cost(prog: &Program, table: &[f64; 6]) -> f64 {
    let [add, sub, mul, div, sqr, neg] = *table;
    prog.insns
        .iter()
        .map(|i| match i {
            Insn::Const { .. } => 0.0,
            Insn::Add { .. } => add,
            Insn::Sub { .. } => sub,
            Insn::Mul { .. } => mul,
            Insn::Div { .. } => div,
            Insn::Sqr { .. } => sqr,
            Insn::Neg { .. } => neg,
            Insn::MulAdd { .. } => mul + add,
            Insn::MulSub { .. } => mul + sub,
            _ => add,
        })
        .sum()
}

/// ns per executed instruction per item of `run_tile` over `groups`
/// groups of `L` lanes (inputs drawn from `items`).
fn tile_ns<T: VmElem, L: LaneOrScalar<T>>(
    tr: &mut Tracer,
    name: &'static str,
    prog: &Program,
    items: &[T],
    groups: usize,
) -> (Samples, usize) {
    let prep = PreparedProgram::<T>::new(prog.clone());
    let mut bank = TileBank::<T, L>::new(&prep, groups);
    let nin = prog.n_inputs as usize;
    let lanes = L::WIDTH;
    for j in 0..nin {
        let col = bank.input_column(j as u32);
        for (g, slot) in col.iter_mut().enumerate() {
            *slot = L::from_fn_l(|l| items[((g * lanes + l) * nin + j) % items.len()]);
        }
    }
    let mut out = Vec::new();
    let per_call = prep.body_len() * groups * lanes;
    let samples = per_op(tr, name, per_call, || {
        run_tile(&prep, &mut bank, groups, &mut out);
        black_box(&out);
    });
    (samples, prep.body_len())
}

struct KernelCost {
    name: &'static str,
    vm_ns_per_insn: Samples,
    mix_ns_per_insn: f64,
    insns: usize,
    t1: Samples,
    tn: Samples,
    prepare_us: f64,
}

/// The four execution-ladder kernels (the exec-warm set), timed at the
/// VM and batch layers with this workload's operands.
fn kernels(
    tr: &mut Tracer,
    plan: &Plan,
    m: &Micro,
    nproc: usize,
) -> Result<Vec<KernelCost>, String> {
    let warm = Workload::ExecWarm.plan(CALIBRATION_SEED);
    let mut out = Vec::new();
    let seed = operand_seed(plan);
    for (name, idx) in [("henon_f64", 0), ("henon_dd", 3), ("newton_dd", 6), ("gemm", 9)] {
        let req = &warm.pool[idx];
        let Body::Run { batch, .. } = req.body else { unreachable!("exec-warm runs are seeded") };
        let unit = compile_uncached(&compile_request(&req.unit), false)
            .map_err(|e| format!("ladder kernel {name}: {e}"))?;
        let prog = unit.batch.program().clone();
        let batch = batch as usize;
        let groups = (batch / 4).clamp(1, igen_batch::DEFAULT_TILE_GROUPS);
        let ((vm, insns), mix) = match req.unit.prec {
            Prec::F64 => {
                let items = workload_f64(&unit, batch.max(4), seed).to_intervals();
                let vm = if batch >= 4 {
                    tile_ns::<F64I, F64Ix4>(tr, "vm.run_tile", &prog, &items, groups)
                } else {
                    tile_ns::<F64I, F64I>(tr, "vm.run_tile", &prog, &items, 1)
                };
                (vm, mix_cost(&prog, &m.mix_f64))
            }
            Prec::Dd => {
                let items = workload_dd(&unit, batch.max(4), seed).to_intervals();
                let vm = tile_ns::<DdI, DdIx4>(tr, "vm.run_tile", &prog, &items, groups);
                (vm, mix_cost(&prog, &m.mix_dd))
            }
        };
        let run = |threads: usize, tr: &mut Tracer| -> Samples {
            let cfg = BatchConfig::new().with_threads(threads).with_seq_threshold(0);
            match req.unit.prec {
                Prec::F64 => {
                    let soa = workload_f64(&unit, batch, seed);
                    per_op(tr, "batch.run", batch, || {
                        black_box(unit.batch.run(&cfg, &soa));
                    })
                }
                Prec::Dd => {
                    let soa = workload_dd(&unit, batch, seed);
                    per_op(tr, "batch.run_dd", batch, || {
                        black_box(unit.batch.run_dd(&cfg, &soa));
                    })
                }
            }
        };
        let t1 = run(1, tr);
        let tn = run(nproc, tr);
        let prepare = per_op(tr, "batch.prepare", 1, || {
            black_box(BatchProgram::new(prog.clone()));
        });
        out.push(KernelCost {
            name,
            vm_ns_per_insn: vm,
            mix_ns_per_insn: mix / insns as f64,
            insns,
            t1,
            tn,
            prepare_us: prepare.med() / 1e3,
        });
    }
    Ok(out)
}

#[derive(Default)]
struct Stages {
    parse_us: Vec<f64>,
    compile_unit_us: Vec<f64>,
    ir_ops: f64,
    lower_us: Vec<f64>,
    peephole_us: Vec<f64>,
    verify_us: Vec<f64>,
    miss_us: Vec<f64>,
    hit_us: Vec<f64>,
    insns_raw: usize,
    insns: usize,
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// The compile pipeline stage by stage, each stage a span under a
/// per-unit root, over up to `MAX_UNITS` of the workload's distinct
/// units spread evenly over its pool.
fn stages(tr: &mut Tracer, plan: &Plan) -> Result<Stages, String> {
    let mut all: Vec<&Request> = Vec::new();
    for r in plan.pool.iter().filter(|r| !r.expects_error()) {
        if !all.iter().any(|u| u.unit == r.unit) {
            all.push(r);
        }
    }
    let step = all.len().div_ceil(MAX_UNITS);
    let units: Vec<&Request> = all.into_iter().step_by(step).collect();
    let mut st = Stages::default();
    for r in &units {
        let req = compile_request(&r.unit);
        let cu = compile_uncached(&req, false).map_err(|e| format!("unit {}: {e}", r.id))?;
        let id = r.id as u64;
        let res: Result<(), String> = tr.span("compile", id, |tr| {
            let (tu, us) = tr.timed("cfront.parse", id, || igen_cfront::parse(&req.source));
            st.parse_us.push(us);
            let tu = tu.map_err(|e| e.to_string())?;
            let (out, us) =
                tr.timed("core.compile_unit", id, || Compiler::new(req.cfg).compile_unit(&tu));
            st.compile_unit_us.push(us);
            let out = out.map_err(|e| e.to_string())?;
            st.ir_ops += out.opt_report.ops_after() as f64;
            let (raw, us) =
                tr.timed("vm.lower", id, || compile_to_program_raw(&out, &cu.fn_name, &cu.bind));
            st.lower_us.push(us);
            let raw = raw.map_err(|e| e.to_string())?;
            let ((prog, _), us) = tr.timed("vm.peephole", id, || igen_vm::peephole(&raw));
            st.peephole_us.push(us);
            st.insns_raw += raw.insns.len();
            st.insns += prog.insns.len();
            // The session's insert-time self-check: 8 items, fixed seed.
            let nin = prog.n_inputs as usize;
            let mut rng = workload::rng(0x5e55);
            let (v, us) = tr.timed("core.verify", id, || match r.unit.prec {
                Prec::F64 => {
                    let pts = workload::random_points(&mut rng, 8 * nin, -2.0, 2.0);
                    verify_bit_identity(&out, &prog, &cu.bind, &workload::intervals_1ulp(&pts))
                }
                Prec::Dd => {
                    let iv = workload::dd_intervals_1ulp(&mut rng, 8 * nin, -2.0, 2.0);
                    verify_bit_identity_dd(&out, &prog, &cu.bind, &iv)
                }
            });
            st.verify_us.push(us);
            v.map_err(|e| e.to_string())?;
            tr.span("batch.prepare", id, |_| black_box(BatchProgram::new(prog)));
            Ok(())
        });
        res.map_err(|e| format!("unit {}: {e}", r.id))?;
        let session = Session::new(0);
        let (miss, us) = tr.timed("session.compile", id, || session.compile(&req));
        miss.map_err(|e| e.to_string())?;
        st.miss_us.push(us);
        let (hit, us) = tr.timed("session.compile", id, || session.compile(&req));
        hit.map_err(|e| e.to_string())?;
        st.hit_us.push(us);
    }
    st.ir_ops /= units.len().max(1) as f64;
    Ok(st)
}

/// Executes one request the way the service's handler does, through
/// each layer's public function, every call a span under one
/// `request` root. Returns whether the outcome matched expectations
/// (an error exactly when the request expects one).
fn replay_one(
    tr: &mut Tracer,
    session: &Session,
    seq_no: u64,
    (r, req): (&Request, &CompileRequest),
    line: &str,
) -> bool {
    tr.span("request", seq_no, |tr| {
        let parsed = tr.span("json.parse", seq_no, |_| json::parse(line));
        if parsed.is_err() {
            return false;
        }
        let unit: Arc<CompiledUnit> =
            match tr.span("session.compile", seq_no, |_| session.compile(req)) {
                Ok(u) => u,
                Err(_) => return r.expects_error(),
            };
        if r.body == Body::Compile {
            return true;
        }
        // The service builds a batch configuration per run request.
        let cfg = tr.span("batch.config", seq_no, |_| {
            BatchConfig::new().with_threads(1).with_seq_threshold(0)
        });
        match (&r.body, r.unit.prec) {
            (Body::Compile, _) => unreachable!("compile requests return above"),
            (Body::Run { batch, seed }, Prec::F64) => {
                let soa = tr
                    .span("workload.gen", seq_no, |_| workload_f64(&unit, *batch as usize, *seed));
                tr.span("batch.run", seq_no, |_| black_box(unit.batch.run(&cfg, &soa)));
            }
            (Body::Run { batch, seed }, Prec::Dd) => {
                let soa =
                    tr.span("workload.gen", seq_no, |_| workload_dd(&unit, *batch as usize, *seed));
                tr.span("batch.run_dd", seq_no, |_| black_box(unit.batch.run_dd(&cfg, &soa)));
            }
            (Body::RunInputs(p), Prec::F64) => {
                let soa = tr.span("workload.gen", seq_no, |_| {
                    BatchF64I::from_intervals(
                        &p.iter()
                            .map(|&(l, h)| F64I::new(l, h).expect("ordered"))
                            .collect::<Vec<_>>(),
                    )
                });
                tr.span("batch.run", seq_no, |_| black_box(unit.batch.run(&cfg, &soa)));
            }
            (Body::RunInputs(p), Prec::Dd) => {
                let soa = tr.span("workload.gen", seq_no, |_| {
                    BatchDdI::from_intervals(
                        &p.iter()
                            .map(|&(l, h)| DdI::from_f64i(&F64I::new(l, h).expect("ordered")))
                            .collect::<Vec<_>>(),
                    )
                });
                tr.span("batch.run_dd", seq_no, |_| black_box(unit.batch.run_dd(&cfg, &soa)));
            }
        }
        !r.expects_error()
    })
}

/// Primes a fresh session with the warm set, as the server's set-up
/// does.
fn primed_session(plan: &Plan) -> Session {
    let session = Session::new(plan.cache_cap);
    for r in plan.pool.iter().filter(|r| !r.expects_error()) {
        if plan.warm.contains(&r.compile_line()) {
            let _ = session.compile(&compile_request(&r.unit));
        }
    }
    session
}

fn metric_of(text: &str, key: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
}

/// Runs the traced measurement.
///
/// # Errors
///
/// Set-up failures (compile of a ladder kernel, the serve process).
pub fn run(env: &Env) -> Result<Ladder, String> {
    let plan = env.workload.plan(env.seed);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tr = Tracer::new();
    let budget = Duration::from_secs_f64(env.seconds);
    let m = micro(&mut tr, &plan);
    let ks = kernels(&mut tr, &plan, &m, nproc)?;
    let st = stages(&mut tr, &plan)?;

    // Manual pipeline replay of the sequence prefix (the spans that give
    // the unattributed share), bounded by a quarter of the budget.
    let session = primed_session(&plan);
    let primed = session.cache_stats();
    let reqs: Vec<CompileRequest> = plan.pool.iter().map(|r| compile_request(&r.unit)).collect();
    let seq: Vec<usize> = Sequence::new(&plan, env.seed).take(MAX_REPLAY).collect();
    let t0 = Instant::now();
    let mut replayed = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut exec_us = Vec::new();
    for (k, &i) in seq.iter().enumerate() {
        if t0.elapsed() > budget / 4 {
            break;
        }
        let t = Instant::now();
        let ok =
            replay_one(&mut tr, &session, k as u64 + 1, (&plan.pool[i], &reqs[i]), &plan.lines[i]);
        exec_us.push(us_since(t));
        attempted += 1;
        failed += u64::from(!ok);
        replayed += 1;
    }
    let cs = session.cache_stats();
    // Over the replay only, not the priming compiles.
    let (hits, misses) = (cs.hits - primed.hits, cs.misses - primed.misses);
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let evictions = cs.evictions - primed.evictions;
    let seq = &seq[..replayed];

    // The same requests through the in-process service.
    let svc = Service::start(ServiceConfig {
        workers: env.conns,
        cache_cap: plan.cache_cap,
        ..ServiceConfig::default()
    });
    for w in &plan.warm {
        let _ = svc.submit(w).wait();
    }
    let (mut submit_us, mut inproc_us) = (Vec::new(), Vec::new());
    // Replies are checked like socket replies: first reply per line
    // against the reference, later ones byte for byte against the first.
    let mut inproc = ConnLog::default();
    for (k, &i) in seq.iter().enumerate() {
        let id = k as u64 + 1;
        let t = Instant::now();
        let ticket = tr.span("serve.submit", id, |_| svc.submit(&plan.lines[i]));
        submit_us.push(us_since(t));
        let reply = tr.span("serve.wait", id, |_| ticket.wait());
        inproc_us.push(us_since(t));
        inproc.attempted += 1;
        inproc.record(i, reply);
    }
    drop(svc);

    // And over the socket of a real serve process.
    let (mut server, mut conn) = env.spawn(&plan, "trace")?;
    for w in &plan.warm {
        call_ok(&mut conn, w)?;
    }
    // Sequential, like the in-process replay, so the difference is the
    // transport; every distinct reply is checked against the reference.
    let feed = Feed::new(seq.iter().copied(), Instant::now() + Duration::from_secs(3600));
    let log = client::drive(&mut conn, &plan.lines, &feed);
    let socket_us: Vec<f64> = log.latencies_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let response_bytes = log.reply_bytes as f64 / log.latencies_ns.len().max(1) as f64;
    // A short closed-loop burst at full connection count, then the
    // server's own queue-depth counter.
    let mut conns = vec![];
    for _ in 0..env.conns {
        conns.push(server.connect(Duration::from_secs(30)).map_err(|e| format!("connect: {e}"))?);
    }
    let burst = (budget / 10).min(Duration::from_secs(1));
    let feed = Feed::new(Sequence::new(&plan, env.seed), Instant::now() + burst);
    let mut logs = vec![inproc, log];
    std::thread::scope(|s| {
        let handles: Vec<_> =
            conns.iter_mut().map(|c| s.spawn(|| client::drive(c, &plan.lines, &feed))).collect();
        logs.extend(handles.into_iter().map(|h| h.join().expect("client thread panicked")));
    });
    let metrics_reply = call_ok(&mut conn, "{\"kind\":\"metrics\"}")?;
    let text = metrics_reply.get("text").and_then(Json::as_str).unwrap_or_default().to_string();
    let queue_depth_max = metric_of(&text, "igen_session_queue_depth_max")
        .ok_or("metrics reply lacks queue depth")?;
    drop(conns);
    drop(conn);
    server.shutdown().map_err(|e| format!("serve shutdown: {e}"))?;
    let (bad, errors) = check_logs(&plan, &logs, &mut ExpectCache::default());
    attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    failed += bad + logs.iter().map(|l| l.failed).sum::<u64>();

    Ok(assemble(
        m,
        ks,
        st,
        Replay {
            tracer: tr,
            exec_us: Samples(exec_us),
            submit_us: Samples(submit_us),
            inproc_us: Samples(inproc_us),
            socket_us: Samples(socket_us),
            response_bytes,
            queue_depth_max,
            hit_ratio,
            evictions: evictions as f64,
            attempted,
            failed,
            errors,
        },
    ))
}

struct Replay {
    tracer: Tracer,
    exec_us: Samples,
    submit_us: Samples,
    inproc_us: Samples,
    socket_us: Samples,
    response_bytes: f64,
    queue_depth_max: f64,
    hit_ratio: f64,
    evictions: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn assemble(m: Micro, ks: Vec<KernelCost>, st: Stages, rp: Replay) -> Ladder {
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |n: &str, v: f64, u: &'static str| metrics.push((n.to_string(), v, u));
    let round_sum = m.add_ru.med() + m.mul_ru.med() + m.div_ru.med();
    let f64i_sum: f64 = m.f64i.iter().map(Samples::med).sum();
    put("round.rn_add_ns", m.rn_add.med(), "ns");
    put("round.add_ru_ns", m.add_ru.med(), "ns");
    put("round.mul_ru_ns", m.mul_ru.med(), "ns");
    put("round.div_ru_ns", m.div_ru.med(), "ns");
    put("round.tax", m.add_ru.med() / m.rn_add.med(), "ratio");
    for (op, s) in ["add", "mul", "div"].iter().zip(&m.f64i) {
        put(&format!("interval.f64i_{op}_ns"), s.med(), "ns");
    }
    for (op, s) in ["add", "mul", "div"].iter().zip(&m.ddi) {
        put(&format!("interval.ddi_{op}_ns"), s.med(), "ns");
    }
    put("interval.tax", f64i_sum / round_sum, "ratio");
    put("lanes.f64ix4_mul_ns_per_lane", m.f64ix4_mul.med(), "ns");
    put("lanes.ddix2_mul_ns_per_lane", m.ddix2_mul.med(), "ns");
    put("lanes.ddix2_div_ns_per_lane", m.ddix2_div.med(), "ns");
    let lane_speedup = geomean(&[
        m.f64i[1].med() / m.f64ix4_mul.med(),
        m.ddi[1].med() / m.ddix2_mul.med(),
        m.ddi[2].med() / m.ddix2_div.med(),
    ]);
    put("lanes.speedup", lane_speedup, "ratio");
    for k in &ks {
        let name = if k.name == "gemm" {
            "vm.scalar_ns_per_insn.gemm".to_string()
        } else {
            format!("vm.tile_ns_per_insn.{}", k.name)
        };
        put(&name, k.vm_ns_per_insn.med(), "ns");
    }
    let dispatch =
        geomean(&ks.iter().map(|k| k.vm_ns_per_insn.med() / k.mix_ns_per_insn).collect::<Vec<_>>());
    put("vm.dispatch_tax", dispatch, "ratio");
    put("vm.insns_raw", st.insns_raw as f64, "count");
    put("vm.insns", st.insns as f64, "count");
    for k in &ks {
        put(&format!("batch.ns_per_item_t1.{}", k.name), k.t1.med(), "ns");
        put(&format!("batch.ns_per_item_tN.{}", k.name), k.tn.med(), "ns");
    }
    let batch_tax = geomean(
        &ks.iter()
            .map(|k| k.t1.med() / (k.vm_ns_per_insn.med() * k.insns as f64))
            .collect::<Vec<_>>(),
    );
    put("batch.tax", batch_tax, "ratio");
    put("batch.prepare_us", median(&ks.iter().map(|k| k.prepare_us).collect::<Vec<_>>()), "us");
    put("cfront.parse_us", median(&st.parse_us), "us");
    put("core.compile_unit_us", median(&st.compile_unit_us), "us");
    put("core.ir_ops", st.ir_ops, "count");
    put("vm.lower_us", median(&st.lower_us), "us");
    put("vm.peephole_us", median(&st.peephole_us), "us");
    put("core.verify_us", median(&st.verify_us), "us");
    put("session.miss_us", median(&st.miss_us), "us");
    put("session.hit_us", median(&st.hit_us), "us");
    put("session.cache_hit_ratio", rp.hit_ratio, "ratio");
    put("session.cache_evictions", rp.evictions, "count");
    let exec = rp.exec_us.med();
    let inproc = rp.inproc_us.med();
    // Paired per request: the same request through the layer and
    // through the path below it.
    let paired = |a: &Samples, b: &Samples| {
        median(&a.0.iter().zip(&b.0).map(|(x, y)| x - y).collect::<Vec<_>>())
    };
    put("serve.submit_us", rp.submit_us.med(), "us");
    put("serve.inproc_roundtrip_us", inproc, "us");
    put("serve.exec_us", exec, "us");
    put("serve.tax_us", paired(&rp.inproc_us, &rp.exec_us), "us");
    put("serve.transport_us", paired(&rp.socket_us, &rp.inproc_us), "us");
    put("serve.response_bytes", rp.response_bytes, "bytes");
    put("serve.queue_depth_max", rp.queue_depth_max, "count");
    let unattributed = trace::unattributed_share(rp.tracer.spans(), "request");
    put("trace.unattributed_share", unattributed, "ratio");

    // The ladder: one row per layer, bottom up.
    let k0 = &ks[0];
    let stage_sum = median(&st.parse_us)
        + median(&st.compile_unit_us)
        + median(&st.lower_us)
        + median(&st.peephole_us)
        + median(&st.verify_us);
    let rows = vec![
        Row {
            layer: "L0 igen-round",
            what: "add_ru ns".into(),
            median: m.add_ru.med(),
            iqr: m.add_ru.iqr(),
            ns_per_iop: m.add_ru.med(),
            ratio: m.add_ru.med() / m.rn_add.med(),
        },
        Row {
            layer: "L1 igen-interval",
            what: "f64i mul ns".into(),
            median: m.f64i[1].med(),
            iqr: m.f64i[1].iqr(),
            ns_per_iop: f64i_sum / 3.0,
            ratio: f64i_sum / round_sum,
        },
        Row {
            layer: "L2 LaneOps",
            what: "f64ix4 mul ns/lane".into(),
            median: m.f64ix4_mul.med(),
            iqr: m.f64ix4_mul.iqr(),
            ns_per_iop: m.f64ix4_mul.med(),
            ratio: 1.0 / lane_speedup,
        },
        Row {
            layer: "L3 igen-vm",
            what: format!("{} ns/insn", k0.name),
            median: k0.vm_ns_per_insn.med(),
            iqr: k0.vm_ns_per_insn.iqr(),
            ns_per_iop: k0.vm_ns_per_insn.med(),
            ratio: dispatch,
        },
        Row {
            layer: "L4 igen-batch",
            what: format!("{} ns/item t1", k0.name),
            median: k0.t1.med(),
            iqr: k0.t1.iqr(),
            ns_per_iop: k0.t1.med() / k0.insns as f64,
            ratio: batch_tax,
        },
        Row {
            layer: "L5 igen-session",
            what: "miss us".into(),
            median: median(&st.miss_us),
            iqr: iqr(&st.miss_us),
            ns_per_iop: median(&st.miss_us) * 1e3 / st.ir_ops.max(1.0),
            ratio: median(&st.miss_us) / stage_sum,
        },
        Row {
            layer: "L6 serve",
            what: "in-process round trip us".into(),
            median: inproc,
            iqr: rp.inproc_us.iqr(),
            ns_per_iop: f64::NAN,
            ratio: inproc / exec,
        },
        Row {
            layer: "L6 transport",
            what: "socket round trip us".into(),
            median: rp.socket_us.med(),
            iqr: rp.socket_us.iqr(),
            ns_per_iop: f64::NAN,
            ratio: rp.socket_us.med() / inproc,
        },
    ];
    Ladder {
        metrics,
        rows,
        tracer: rp.tracer,
        attempted: rp.attempted,
        failed: rp.failed,
        errors: rp.errors,
    }
}
