//! `igen-cli` — the command-line front of the IGen compiler (Fig. 1):
//! reads a C file with floating-point computations, writes the equivalent
//! sound interval C.
//!
//! ```text
//! igen-cli compile input.c [-o igen_input.c] [--precision f32|f64|dd]
//!                  [--opt-level 0|1|2] [--emit-ir] [--dump-passes]
//!                  [--verify-passes] [--reductions] [--join-branches]
//!                  [--intrinsics] [--metrics] [--trace-out <path>]
//! igen-cli run <input.c> [--fn NAME] [--batch N] [--threads N]
//!              [--opt-level 0|1|2] [--precision f64|dd] [--arg name=INT]
//!              [--len name=N] [--size N] [--seed N] [--emit-bytecode]
//!              [--no-peephole] [--tile N] [--metrics] [--trace-out <path>]
//! igen-cli batch <dot|mvm|gemm|henon|ffnn> [--threads N] [--batch N]
//!                [--size N] [--iters N] [--seq-threshold N]
//!                [--metrics] [--trace-out <path>]
//! igen-cli profile <input.c> [--fn NAME] [--batch N] [--opt-level 0|1|2]
//!                  [--precision f64|dd] [--top N] [--trace-out <path>] ...
//! igen-cli serve [--socket <path>] [--workers N] [--deadline-ms N]
//!                [--cache-cap N] [--queue-cap N] [--record]
//! igen-cli report <trace.jsonl>...
//! ```
//!
//! `run` compiles a C function once into register bytecode and executes
//! it over a generated input batch on the multi-threaded packed path,
//! verifying bit identity against the single-thread run and against the
//! differential interpreter before reporting throughput. The
//! source→bytecode pipeline itself lives in `igen-session`
//! ([`igen::session::compile_uncached`]); `run` and `profile` are thin
//! clients over it, and `serve` keeps it resident behind a compile
//! cache for request/response use.
//!
//! The `compile` subcommand name is optional for backward compatibility:
//! `igen-cli input.c` behaves identically.
//!
//! `--metrics` prints the human telemetry summary to stderr after the
//! run; `--trace-out` writes the raw JSON-lines trace. Both need a build
//! with the `telemetry` feature to record anything (a disabled build
//! notes this and produces an empty trace). `report` re-renders one or
//! more trace files — concatenated traces merge, so a compile trace and
//! a run trace can be reported together.

use igen::compiler::{BranchPolicy, Config, OptLevel, OutputVec, Precision};
use igen::session::{compile_uncached, BindRequest, CompileRequest, Flags};
use std::process::ExitCode;
use std::time::Instant;

/// `--metrics` / `--trace-out` state shared by the compile and batch
/// modes: turns recording on up front, then writes/prints on `finish`.
struct Telemetry {
    metrics: bool,
    trace_out: Option<String>,
}

impl Telemetry {
    fn start(metrics: bool, trace_out: Option<String>) -> Telemetry {
        if metrics || trace_out.is_some() {
            if !igen::telemetry::COMPILED_IN {
                eprintln!(
                    "igen-cli: note: built without the `telemetry` feature — \
                     the trace will be empty (rebuild with `--features telemetry`)"
                );
            }
            igen::telemetry::set_recording(true);
        }
        Telemetry { metrics, trace_out }
    }

    /// Stops recording and emits the trace/summary. Fails only on an
    /// unwritable `--trace-out` path.
    fn finish(self) -> Result<(), ExitCode> {
        if !self.metrics && self.trace_out.is_none() {
            return Ok(());
        }
        igen::telemetry::set_recording(false);
        let snap = igen::telemetry::snapshot();
        if let Some(path) = &self.trace_out {
            if let Err(e) = std::fs::write(path, snap.to_jsonl()) {
                eprintln!("igen-cli: cannot write {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
            eprintln!("wrote {path}");
        }
        if self.metrics {
            eprint!("{}", igen::telemetry::render_report(&snap));
        }
        Ok(())
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: igen-cli [compile] <input.c> [options]\n\
         \n\
         options:\n\
           -o <file>           output path (default: igen_<input>.c)\n\
           --precision <p>     target endpoint precision: f32 | f64 (default) | dd\n\
           --opt-level <n>     IR optimization level 0 | 1 | 2 (default: 0;\n\
                               0 is byte-identical to the unoptimized output)\n\
           --emit-ir           print the optimized interval IR to stdout\n\
           --dump-passes       print the per-pass op-count/cost report to stdout\n\
           --verify-passes     differentially re-execute each pass's before/after\n\
                               IR under the reference interpreter\n\
           --reductions        enable the reduction accuracy transformation\n\
                               (requires `#pragma igen reduce` annotations)\n\
           --join-branches     compute both branches of undecidable ifs and\n\
                               join the results (default: signal exception)\n\
           --sqr-rewrite       lower `v * v` to the dependency-aware square\n\
                               (tighter enclosures when v straddles zero)\n\
           --vectorize <c>     ss (default) | sv | vv: the Fig. 8 register-\n\
                               packing configuration recorded in the output\n\
           --intrinsics        also emit igen_simd.c (interval implementations\n\
                               of the SIMD intrinsics corpus)\n\
           --report            print detected reductions (Polly-style) and\n\
                               warnings to stderr\n\
           --metrics           print the telemetry summary to stderr after the\n\
                               run (needs a `--features telemetry` build)\n\
           --trace-out <file>  write the telemetry trace as JSON lines\n\
         \n\
         run mode (compile once to bytecode, execute over an input batch):\n\
           igen-cli run <input.c> [options]\n\
           --fn <name>         function to compile (default: the only function)\n\
           --batch <n>         batch items (default: 64)\n\
           --threads <n>       worker threads (default: all cores; 0 = all)\n\
           --opt-level <n>     IR optimization level (default: 2)\n\
           --precision <p>     f64 (default) | dd\n\
           --arg <name=INT>    fix an integer parameter (loop bounds, sizes)\n\
           --len <name=N>      elements behind a pointer parameter\n\
           --size <n>          default pointer-parameter length (default: 8)\n\
           --seed <n>          input generator seed\n\
           --emit-bytecode     print the executed instruction dump to stdout\n\
           --no-peephole       skip the bytecode peephole pass (run the raw\n\
                               SSA lowering; same bits, more instructions)\n\
           --tile <n>          packed groups per executor tile (default: 8;\n\
                               0 = default; never changes a result bit)\n\
           --metrics, --trace-out as above\n\
         \n\
         batch mode (parallel batch evaluation over the interval runtime):\n\
           igen-cli batch <dot|mvm|gemm|henon|ffnn> [options]\n\
           --threads <n>       worker threads (default: all cores; 0 = all)\n\
           --batch <n>         batch items (default: 256)\n\
           --size <n>          per-item problem size (default: 256)\n\
           --iters <n>         Hénon iterations (default: 100)\n\
           --seq-threshold <n> below this many items stay sequential\n\
           --metrics, --trace-out as above\n\
         \n\
         profile mode (width-provenance blame report):\n\
           igen-cli profile <input.c> [options]\n\
           --fn, --batch, --threads, --opt-level, --precision, --arg,\n\
           --len, --size, --seed, --no-peephole, --tile as in run mode\n\
           --top <n>           sites per blame table (default: 8)\n\
           --trace-out <file>  write the full telemetry trace (profile\n\
                               records included) as JSON lines\n\
           Runs the function over a generated batch with per-instruction\n\
           profiling (needs a `--features telemetry` build), verifies the\n\
           profiled outputs are bit-identical to the unprofiled run, and\n\
           ranks source sites by time share and by width amplification.\n\
         \n\
         serve mode (always-on JSON-lines interval service):\n\
           igen-cli serve [options]\n\
           --socket <path>     serve a Unix socket instead of stdio\n\
           --workers <n>       worker threads (default: all cores; 0 = all)\n\
           --deadline-ms <n>   default per-request queue deadline (0 = none;\n\
                               a request's own deadline_ms overrides)\n\
           --cache-cap <n>     compiled-program cache capacity (default: 64)\n\
           --queue-cap <n>     pending-request bound (default: 64); a full\n\
                               queue answers 'queue full' instead of stalling\n\
           --record            record telemetry spans while serving (trace\n\
                               memory grows unboundedly; prefer the metrics\n\
                               request kind for steady-state observability)\n\
           One JSON request per line on stdin (or per connection on the\n\
           socket), one JSON response per line: kinds compile, run,\n\
           profile, metrics, ping, shutdown. Compiled programs are\n\
           verified once, cached, and shared across requests.\n\
         \n\
         report mode (render recorded traces):\n\
           igen-cli report <trace.jsonl>...   merge + summarize trace files"
    );
    std::process::exit(2)
}

fn batch_usage() -> ! {
    eprintln!(
        "usage: igen-cli batch <dot|mvm|gemm|henon|ffnn> [--threads N] [--batch N]\n\
         \x20                [--size N] [--iters N] [--seq-threshold N]\n\
         \x20                [--metrics] [--trace-out <file>]"
    );
    std::process::exit(2)
}

/// `igen-cli report`: parses one or more JSON-lines traces (merging
/// duplicate counters/histograms) and prints the human summary.
fn run_report(args: &[String]) -> ExitCode {
    if args.is_empty() || args.iter().any(|a| a.starts_with('-')) {
        eprintln!("usage: igen-cli report <trace.jsonl>...");
        return ExitCode::from(2);
    }
    let mut all = String::new();
    for path in args {
        match std::fs::read_to_string(path) {
            Ok(s) => {
                all.push_str(&s);
                if !s.ends_with('\n') {
                    all.push('\n');
                }
            }
            Err(e) => {
                eprintln!("igen-cli: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    match igen::telemetry::Snapshot::from_jsonl(&all) {
        Ok(snap) => {
            print!("{}", igen::telemetry::render_report(&snap));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("igen-cli: bad trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `igen-cli batch <kernel>`: runs one batched kernel through
/// `igen-batch` at 1 thread and at the configured thread count, checks
/// the two results are bit-identical, and prints the throughput.
fn run_batch(args: &[String]) -> ExitCode {
    use igen::batch::{self, BatchConfig, BatchF64I};
    use igen::kernels::ffnn::Ffnn;
    use igen::kernels::{linalg, workload};

    let mut f = Flags::new(args);
    let Some(kernel) = f.next() else { batch_usage() };
    let mut threads = 0usize; // 0 = all cores
    let mut batch = 256usize;
    let mut size = 256usize;
    let mut iters = 100usize;
    let mut seq_threshold: Option<usize> = None;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    // This mode's historical behavior: any missing/unparsable value
    // prints the batch usage text, so the Flags messages are unused.
    let num = |f: &mut Flags| -> usize { f.parse(" ", " ").unwrap_or_else(|_| batch_usage()) };
    while let Some(a) = f.next() {
        match a {
            "--threads" => threads = num(&mut f),
            "--batch" => batch = num(&mut f),
            "--size" => size = num(&mut f),
            "--iters" => iters = num(&mut f),
            "--seq-threshold" => seq_threshold = Some(num(&mut f)),
            "--metrics" => metrics = true,
            "--trace-out" => {
                trace_out = Some(f.next().unwrap_or_else(|| batch_usage()).to_string());
            }
            a => {
                eprintln!("igen-cli: unknown batch option '{a}' (see igen-cli --help)");
                std::process::exit(2)
            }
        }
    }
    let tel = Telemetry::start(metrics, trace_out);
    let mut cfg = BatchConfig::new().with_threads(threads);
    if let Some(t) = seq_threshold {
        cfg = cfg.with_seq_threshold(t);
    }
    let seq = BatchConfig::new().with_threads(1);
    let mut rng = workload::rng(0xba7c);
    let inputs = |rng: &mut _, n: usize| {
        BatchF64I::from_intervals(&workload::intervals_1ulp(&workload::random_points(
            rng, n, -2.0, 2.0,
        )))
    };

    // Each arm: (total interval ops, one-thread time, n-thread time, identical?)
    let (iops, t1, tn, same) = match kernel {
        "dot" => {
            let xs = inputs(&mut rng, batch * size);
            let ys = inputs(&mut rng, batch * size);
            let t = Instant::now();
            let a = batch::dot_batch(&seq, size, &xs, &ys);
            let t1 = t.elapsed();
            let t = Instant::now();
            let b = batch::dot_batch(&cfg, size, &xs, &ys);
            (batch as u64 * linalg::dot_iops(size), t1, t.elapsed(), a == b)
        }
        "mvm" => {
            let a_mat = inputs(&mut rng, size * size).to_intervals();
            let xs = inputs(&mut rng, batch * size);
            let ys = inputs(&mut rng, batch * size);
            let t = Instant::now();
            let a = batch::mvm_batch(&seq, size, size, &a_mat, &xs, &ys);
            let t1 = t.elapsed();
            let t = Instant::now();
            let b = batch::mvm_batch(&cfg, size, size, &a_mat, &xs, &ys);
            (batch as u64 * 2 * (size * size) as u64, t1, t.elapsed(), a == b)
        }
        "gemm" => {
            let a_mat = inputs(&mut rng, size * size).to_intervals();
            let b_mat = inputs(&mut rng, size * size).to_intervals();
            let c0 = inputs(&mut rng, size * size).to_intervals();
            let mut c1 = c0.clone();
            let t = Instant::now();
            batch::gemm_row_blocks(&seq, size, size, size, &a_mat, &b_mat, &mut c1, 4);
            let t1 = t.elapsed();
            let mut cn = c0.clone();
            let t = Instant::now();
            batch::gemm_row_blocks(&cfg, size, size, size, &a_mat, &b_mat, &mut cn, 4);
            (linalg::gemm_iops(size), t1, t.elapsed(), c1 == cn)
        }
        "henon" => {
            let x0s = inputs(&mut rng, batch);
            let y0s = inputs(&mut rng, batch);
            let t = Instant::now();
            let a = batch::henon_ensemble(&seq, iters, &x0s, &y0s);
            let t1 = t.elapsed();
            let t = Instant::now();
            let b = batch::henon_ensemble(&cfg, iters, &x0s, &y0s);
            (batch as u64 * igen::kernels::henon_iops(iters), t1, t.elapsed(), a == b)
        }
        "ffnn" => {
            let width = size.clamp(4, 64);
            let net = Ffnn::synthetic(width, 7);
            let ins: Vec<Vec<f64>> = (0..batch as u64).map(Ffnn::synthetic_input).collect();
            let t = Instant::now();
            let a: Vec<Vec<igen::interval::F64I>> = batch::ffnn_batch(&seq, &net, &ins);
            let t1 = t.elapsed();
            let t = Instant::now();
            let b: Vec<Vec<igen::interval::F64I>> = batch::ffnn_batch(&cfg, &net, &ins);
            (batch as u64 * net.iops(), t1, t.elapsed(), a == b)
        }
        k => {
            eprintln!(
                "igen-cli: unknown batch kernel '{k}' (expected dot, mvm, gemm, henon or ffnn)"
            );
            return ExitCode::from(2);
        }
    };

    if !same {
        eprintln!("igen-cli: batch result diverged from the single-thread path");
        return ExitCode::FAILURE;
    }
    let mops = |t: std::time::Duration| iops as f64 / t.as_secs_f64() / 1e6;
    println!(
        "{kernel}: batch={batch} size={size} threads={}\n\
         1 thread : {t1:>12.3?}  {:>9.1} M iops/s\n\
         {} threads: {tn:>12.3?}  {:>9.1} M iops/s  ({:.2}x)\n\
         results bit-identical across thread counts: yes",
        cfg.threads(),
        mops(t1),
        cfg.threads(),
        mops(tn),
        t1.as_secs_f64() / tn.as_secs_f64(),
    );
    if let Err(code) = tel.finish() {
        return code;
    }
    ExitCode::SUCCESS
}

/// Prints a one-line usage error and exits 2 — the shape every
/// subcommand's diagnostics share.
fn fail2(msg: String) -> ExitCode {
    eprintln!("igen-cli: {msg}");
    ExitCode::from(2)
}

/// Unwraps a flag-parse result, exiting 2 with the one-line message on
/// failure (keeps the `while let` loops below readable).
macro_rules! flag {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(msg) => return fail2(msg),
        }
    };
}

/// Compiles `req` through the shared session pipeline, mapping
/// [`igen::session::SessionError`] onto the CLI's historical exit
/// codes: usage errors (bad `--fn`, missing `--arg`) exit 2,
/// compile/lowering failures exit 1 — with byte-identical messages.
fn compile_unit(req: &CompileRequest) -> Result<igen::session::CompiledUnit, ExitCode> {
    match compile_uncached(req, false) {
        Ok(unit) => Ok(unit),
        Err(e) if e.is_usage() => Err(fail2(e.to_string())),
        Err(e) => {
            eprintln!("igen-cli: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

/// `igen-cli run <input.c>`: compiles one function into register
/// bytecode via the `igen-session` pipeline and executes it over a
/// generated input batch on the packed multi-threaded path, pinning the
/// result against both the single-thread run and the differential
/// interpreter before reporting throughput.
fn run_run(args: &[String]) -> ExitCode {
    use igen::batch::{BatchConfig, BatchDdI, BatchF64I};
    use igen::kernels::workload;

    let mut input: Option<String> = None;
    let mut fn_name: Option<String> = None;
    let mut batch = 64usize;
    let mut threads = 0usize; // 0 = all cores
    let mut size = 8usize;
    let mut seed = 0x16e0u64;
    let mut emit_bytecode = false;
    let mut no_peephole = false;
    let mut tile = 0usize; // 0 = default tile size
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    let mut cfg = Config { opt_level: OptLevel::O2, ..Config::default() };
    let mut int_args: Vec<(String, i64)> = Vec::new();
    let mut lens: Vec<(String, usize)> = Vec::new();

    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a {
            "--fn" => fn_name = Some(flag!(f.value("--fn", "a function name")).to_string()),
            "--batch" => batch = flag!(f.parse("--batch", "a count")),
            "--threads" => threads = flag!(f.parse("--threads", "a count")),
            "--size" => size = flag!(f.parse("--size", "a count")),
            "--seed" => seed = flag!(f.parse("--seed", "an integer")),
            "--opt-level" => {
                cfg.opt_level = match f.next() {
                    Some("0") => OptLevel::O0,
                    Some("1") => OptLevel::O1,
                    Some("2") => OptLevel::O2,
                    _ => return fail2("--opt-level needs 0, 1 or 2".into()),
                };
            }
            "--precision" => {
                cfg.precision = match f.next() {
                    Some("f64") => Precision::F64,
                    Some("dd") => Precision::Dd,
                    _ => return fail2("run supports --precision f64 or dd".into()),
                };
            }
            "--arg" => int_args.push(flag!(f.pair("--arg", "name=integer"))),
            "--len" => lens.push(flag!(f.pair("--len", "name=count"))),
            "--emit-bytecode" => emit_bytecode = true,
            "--no-peephole" => no_peephole = true,
            "--tile" => tile = flag!(f.parse("--tile", "a group count")),
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(flag!(f.value("--trace-out", "a path")).to_string()),
            "-h" | "--help" => usage(),
            a if a.starts_with('-') => {
                return fail2(format!("unknown run option '{a}' (see igen-cli --help)"));
            }
            a => {
                if input.replace(a.to_string()).is_some() {
                    return fail2("run takes one input file".into());
                }
            }
        }
    }
    let Some(input) = input else {
        return fail2("run needs an input file (see igen-cli --help)".into());
    };
    if batch == 0 {
        return fail2("--batch must be at least 1".into());
    }
    let tel = Telemetry::start(metrics, trace_out);

    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => return fail2(format!("cannot read {input}: {e}")),
    };
    let unit = match compile_unit(&CompileRequest {
        source: src.into(),
        origin: input.clone(),
        fn_name,
        cfg,
        bind: BindRequest::FromParams { int_args, lens, size },
        peephole: !no_peephole,
    }) {
        Ok(u) => u,
        Err(code) => return code,
    };
    // Either lowering path feeds --emit-bytecode the program that
    // actually executes below.
    if emit_bytecode {
        print!("{}", unit.batch.program().dump());
    }
    let fn_name = &unit.fn_name;
    let nin = unit.n_inputs();
    let nout = unit.n_outputs();
    let n_insns = unit.batch.program().insns.len();
    let check_items = batch.min(8);
    let mut rng = workload::rng(seed);

    // Execute: differential interpreter check on a prefix, then the
    // 1-thread vs N-thread bit-identity run over the full batch.
    let seq = BatchConfig::new().with_threads(1).with_seq_threshold(0).with_tile_groups(tile);
    let par = BatchConfig::new().with_threads(threads).with_seq_threshold(0).with_tile_groups(tile);
    let (t1, tn, same) = match cfg.precision {
        Precision::Dd => {
            let ivals = workload::dd_intervals_1ulp(&mut rng, batch * nin, -2.0, 2.0);
            if let Err(e) = igen::compiler::verify_bit_identity_dd(
                &unit.out,
                unit.batch.program(),
                &unit.bind,
                &ivals[..check_items * nin],
            ) {
                eprintln!("igen-cli: {fn_name}: {e}");
                return ExitCode::FAILURE;
            }
            let soa = BatchDdI::from_intervals(&ivals);
            let t = Instant::now();
            let a = unit.batch.run(&seq, &soa);
            let t1 = t.elapsed();
            let t = Instant::now();
            let b = unit.batch.run(&par, &soa);
            (t1, t.elapsed(), a == b)
        }
        _ => {
            let pts = workload::random_points(&mut rng, batch * nin, -2.0, 2.0);
            let ivals = workload::intervals_1ulp(&pts);
            if let Err(e) = igen::compiler::verify_bit_identity(
                &unit.out,
                unit.batch.program(),
                &unit.bind,
                &ivals[..check_items * nin],
            ) {
                eprintln!("igen-cli: {fn_name}: {e}");
                return ExitCode::FAILURE;
            }
            let soa = BatchF64I::from_intervals(&ivals);
            let t = Instant::now();
            let a = unit.batch.run(&seq, &soa);
            let t1 = t.elapsed();
            let t = Instant::now();
            let b = unit.batch.run(&par, &soa);
            (t1, t.elapsed(), a == b)
        }
    };
    if !same {
        eprintln!("igen-cli: batched result diverged from the single-thread path");
        return ExitCode::FAILURE;
    }
    let eff_threads = par.threads();
    println!(
        "{fn_name}: {n_insns} insns, {nin} inputs -> {nout} outputs per item\n\
         batch={batch} threads={eff_threads}\n\
         1 thread : {t1:>12.3?}\n\
         {eff_threads} threads: {tn:>12.3?}  ({:.2}x)\n\
         differential interpreter check: ok ({check_items} items)\n\
         results bit-identical across thread counts: yes",
        t1.as_secs_f64() / tn.as_secs_f64(),
    );
    if let Err(code) = tel.finish() {
        return code;
    }
    ExitCode::SUCCESS
}

/// `igen-cli profile <input.c>`: compiles one function (again via the
/// shared `igen-session` pipeline), runs it over a generated input
/// batch with per-instruction width-provenance profiling, verifies the
/// profiled outputs are bit-identical to the unprofiled run (at 1
/// thread and at `--threads`), and prints a blame report — the source
/// sites costing the most time and amplifying enclosure width the most.
fn run_profile(args: &[String]) -> ExitCode {
    use igen::batch::{BatchConfig, BatchDdI, BatchF64I};
    use igen::kernels::workload;

    let mut input: Option<String> = None;
    let mut fn_name: Option<String> = None;
    let mut batch = 64usize;
    let mut threads = 4usize;
    let mut size = 8usize;
    let mut seed = 0x16e0u64;
    let mut top = 8usize;
    let mut no_peephole = false;
    let mut tile = 0usize;
    let mut trace_out: Option<String> = None;
    let mut cfg = Config { opt_level: OptLevel::O2, ..Config::default() };
    let mut int_args: Vec<(String, i64)> = Vec::new();
    let mut lens: Vec<(String, usize)> = Vec::new();

    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a {
            "--fn" => fn_name = Some(flag!(f.value("--fn", "a function name")).to_string()),
            "--batch" => batch = flag!(f.parse("--batch", "a count")),
            "--threads" => threads = flag!(f.parse("--threads", "a count")),
            "--size" => size = flag!(f.parse("--size", "a count")),
            "--seed" => seed = flag!(f.parse("--seed", "an integer")),
            "--top" => top = flag!(f.parse("--top", "a count")),
            "--opt-level" => {
                cfg.opt_level = match f.next() {
                    Some("0") => OptLevel::O0,
                    Some("1") => OptLevel::O1,
                    Some("2") => OptLevel::O2,
                    _ => return fail2("--opt-level needs 0, 1 or 2".into()),
                };
            }
            "--precision" => {
                cfg.precision = match f.next() {
                    Some("f64") => Precision::F64,
                    Some("dd") => Precision::Dd,
                    _ => return fail2("profile supports --precision f64 or dd".into()),
                };
            }
            "--arg" => int_args.push(flag!(f.pair("--arg", "name=integer"))),
            "--len" => lens.push(flag!(f.pair("--len", "name=count"))),
            "--no-peephole" => no_peephole = true,
            "--tile" => tile = flag!(f.parse("--tile", "a group count")),
            "--trace-out" => trace_out = Some(flag!(f.value("--trace-out", "a path")).to_string()),
            "-h" | "--help" => usage(),
            a if a.starts_with('-') => {
                return fail2(format!("unknown profile option '{a}' (see igen-cli --help)"));
            }
            a => {
                if input.replace(a.to_string()).is_some() {
                    return fail2("profile takes one input file".into());
                }
            }
        }
    }
    let Some(input) = input else {
        return fail2("profile needs an input file (see igen-cli --help)".into());
    };
    if batch == 0 {
        return fail2("--batch must be at least 1".into());
    }
    if !igen::telemetry::COMPILED_IN {
        eprintln!(
            "igen-cli: note: built without the `telemetry` feature — \
             the run is verified but no profile can be recorded \
             (rebuild with `--features telemetry`)"
        );
    }

    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => return fail2(format!("cannot read {input}: {e}")),
    };
    let unit = match compile_unit(&CompileRequest {
        source: src.as_str().into(),
        origin: input.clone(),
        fn_name,
        cfg,
        bind: BindRequest::FromParams { int_args, lens, size },
        peephole: !no_peephole,
    }) {
        Ok(u) => u,
        Err(code) => return code,
    };
    let fn_name = unit.fn_name.clone();
    let prog = unit.batch.program();
    let known_sites = prog.debug.sites.iter().filter(|s| s.is_known()).count();
    let n_insns = prog.insns.len();
    let nin = unit.n_inputs();
    let mut rng = workload::rng(seed);

    // Reference runs first (unprofiled, recording off): 1 thread and
    // --threads; then the profiled sequential run, which must match
    // both bit for bit.
    let seq = BatchConfig::new().with_threads(1).with_seq_threshold(0).with_tile_groups(tile);
    let par = BatchConfig::new().with_threads(threads).with_seq_threshold(0).with_tile_groups(tile);
    let same = match cfg.precision {
        Precision::Dd => {
            let ivals = workload::dd_intervals_1ulp(&mut rng, batch * nin, -2.0, 2.0);
            let soa = BatchDdI::from_intervals(&ivals);
            let a = unit.batch.run(&seq, &soa);
            let b = unit.batch.run(&par, &soa);
            igen::telemetry::set_recording(true);
            let mut prof = igen::telemetry::UnitProfiler::start(&fn_name, n_insns);
            let c = unit.batch.run_profiled(&seq, &soa, &mut prof);
            prof.finish();
            a == b && a == c
        }
        _ => {
            let pts = workload::random_points(&mut rng, batch * nin, -2.0, 2.0);
            let ivals = workload::intervals_1ulp(&pts);
            let soa = BatchF64I::from_intervals(&ivals);
            let a = unit.batch.run(&seq, &soa);
            let b = unit.batch.run(&par, &soa);
            igen::telemetry::set_recording(true);
            let mut prof = igen::telemetry::UnitProfiler::start(&fn_name, n_insns);
            let c = unit.batch.run_profiled(&seq, &soa, &mut prof);
            prof.finish();
            a == b && a == c
        }
    };
    igen::telemetry::set_recording(false);
    if !same {
        eprintln!("igen-cli: profiled run diverged from the unprofiled run");
        return ExitCode::FAILURE;
    }

    let snap = igen::telemetry::snapshot();
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, snap.to_jsonl()) {
            eprintln!("igen-cli: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    let rows: Vec<_> = snap.profiles.iter().filter(|r| r.unit == fn_name).collect();
    println!(
        "{fn_name}: {n_insns} insns ({known_sites} with source locations), \
         batch={batch}, profiled outputs bit-identical to unprofiled: yes"
    );
    if rows.is_empty() {
        println!("no profile recorded (telemetry not compiled in)");
        return ExitCode::SUCCESS;
    }
    print!("{}", render_blame(&rows, &src, &input, top));
    ExitCode::SUCCESS
}

/// `igen-cli serve`: the always-on interval service — a persistent
/// worker pool over the `igen-session` compile cache, speaking the
/// JSON-lines protocol on stdio or a Unix socket (see
/// `igen::session::service`).
fn run_serve(args: &[String]) -> ExitCode {
    use igen::session::{serve_lines, Service, ServiceConfig};

    let mut cfg = ServiceConfig::default();
    let mut socket: Option<String> = None;
    let mut record = false;
    let mut f = Flags::new(args);
    while let Some(a) = f.next() {
        match a {
            "--socket" => socket = Some(flag!(f.value("--socket", "a path")).to_string()),
            "--workers" => cfg.workers = flag!(f.parse("--workers", "a count")),
            "--deadline-ms" => {
                cfg.deadline_ms = flag!(f.parse("--deadline-ms", "a count in milliseconds"));
            }
            "--cache-cap" => cfg.cache_cap = flag!(f.parse("--cache-cap", "a count")),
            "--queue-cap" => cfg.queue_cap = flag!(f.parse("--queue-cap", "a count")),
            "--record" => record = true,
            "-h" | "--help" => usage(),
            a => return fail2(format!("unknown serve option '{a}' (see igen-cli --help)")),
        }
    }
    if record {
        if !igen::telemetry::COMPILED_IN {
            eprintln!(
                "igen-cli: note: built without the `telemetry` feature — \
                 --record will trace nothing (rebuild with `--features telemetry`)"
            );
        }
        igen::telemetry::set_recording(true);
    }
    let svc = Service::start(cfg);
    let served = match socket {
        #[cfg(unix)]
        Some(path) => igen::session::serve_unix(&svc, std::path::Path::new(&path)),
        #[cfg(not(unix))]
        Some(_) => {
            eprintln!("igen-cli: --socket needs a unix platform (use stdio)");
            return ExitCode::from(2);
        }
        None => serve_lines(&svc, std::io::stdin().lock(), std::io::stdout()).map(|_| ()),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("igen-cli: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders the ranked blame tables: top sites by execution-time share
/// and by mean width amplification, each naming (and excerpting) the
/// source line it came from.
fn render_blame(
    rows: &[&igen::telemetry::ProfileRec],
    src: &str,
    input: &str,
    top: usize,
) -> String {
    use std::fmt::Write as _;
    let lines: Vec<&str> = src.lines().collect();
    let file = std::path::Path::new(input)
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| input.to_string());
    let excerpt = |line: u32| -> String {
        let text =
            if line > 0 { lines.get(line as usize - 1).map_or("", |l| l.trim()) } else { "" };
        let mut t = text.to_string();
        if t.len() > 48 {
            t.truncate(47);
            t.push('…');
        }
        t
    };
    let source = |r: &igen::telemetry::ProfileRec| -> String {
        if r.line > 0 {
            format!("{file}:{}:{}  {}", r.line, r.col, excerpt(r.line))
        } else {
            "(no source site)".to_string()
        }
    };
    let total_ns: u64 = rows.iter().map(|r| r.total_ns).sum();
    let mut out = String::new();

    let mut by_time: Vec<&&igen::telemetry::ProfileRec> = rows.iter().collect();
    by_time.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.site.cmp(&b.site)));
    let _ = writeln!(out, "hot sites by time:");
    let _ = writeln!(out, "  rank  time%      time  op       count  source");
    for (i, r) in by_time.iter().take(top).enumerate() {
        let share = if total_ns > 0 { 100.0 * r.total_ns as f64 / total_ns as f64 } else { 0.0 };
        let _ = writeln!(
            out,
            "  {:>4}  {:>4.1}%  {:>7}  {:<7}  {:>5}  {}",
            i + 1,
            share,
            format_ns(r.total_ns),
            r.op,
            r.count,
            source(r),
        );
    }

    let mut by_amp: Vec<&&igen::telemetry::ProfileRec> =
        rows.iter().filter(|r| r.mean_amp_log2().is_some()).collect();
    by_amp.sort_by(|a, b| {
        let (wa, wb) = (a.mean_amp_log2().unwrap_or(0.0), b.mean_amp_log2().unwrap_or(0.0));
        wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal).then(a.site.cmp(&b.site))
    });
    let _ = writeln!(out, "width amplification (log2 out/in per sample):");
    let _ = writeln!(out, "  rank     amp  op       count  source");
    for (i, r) in by_amp.iter().take(top).enumerate() {
        let _ = writeln!(
            out,
            "  {:>4}  2^{:+.1}  {:<7}  {:>5}  {}",
            i + 1,
            r.mean_amp_log2().unwrap_or(0.0),
            r.op,
            r.count,
            source(r),
        );
    }
    out
}

/// Compact duration rendering for the blame table (ns → µs → ms).
fn format_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("batch") => return run_batch(&args[1..]),
        Some("run") => return run_run(&args[1..]),
        Some("profile") => return run_profile(&args[1..]),
        Some("serve") => return run_serve(&args[1..]),
        Some("report") => return run_report(&args[1..]),
        // `compile` is the canonical subcommand; the bare form stays accepted.
        Some("compile") => {
            args.remove(0);
        }
        // A bare first argument that cannot be a C input file (no extension,
        // no path separator) is a misspelled subcommand, not an input.
        Some(a) if !a.starts_with('-') && !a.contains('.') && !a.contains('/') => {
            eprintln!(
                "igen-cli: unknown subcommand '{a}' \
                 (expected compile, run, batch, profile, serve or report)"
            );
            return ExitCode::from(2);
        }
        _ => {}
    }
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut cfg = Config::default();
    let mut emit_intrinsics = false;
    let mut report = false;
    let mut emit_ir = false;
    let mut dump_passes = false;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;

    let mut f = Flags::new(&args);
    while let Some(a) = f.next() {
        match a {
            "-o" => output = Some(f.next().unwrap_or_else(|| usage()).to_string()),
            "--precision" => {
                cfg.precision = match f.next() {
                    Some("f32") => Precision::F32,
                    Some("f64") => Precision::F64,
                    Some("dd") => Precision::Dd,
                    _ => usage(),
                };
            }
            "--opt-level" => {
                cfg.opt_level = match f.next() {
                    Some("0") => OptLevel::O0,
                    Some("1") => OptLevel::O1,
                    Some("2") => OptLevel::O2,
                    _ => usage(),
                };
            }
            "--emit-ir" => emit_ir = true,
            "--dump-passes" => dump_passes = true,
            "--verify-passes" => cfg.verify_passes = true,
            "--reductions" => cfg.reductions = true,
            "--sqr-rewrite" => cfg.sqr_rewrite = true,
            "--vectorize" => {
                cfg.vectorize = match f.next() {
                    Some("ss") => OutputVec::Scalar,
                    Some("sv") => OutputVec::Sse,
                    Some("vv") => OutputVec::Avx,
                    _ => usage(),
                };
            }
            "--join-branches" => cfg.branch_policy = BranchPolicy::JoinBranches,
            "--intrinsics" => emit_intrinsics = true,
            "--report" => report = true,
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(f.next().unwrap_or_else(|| usage()).to_string()),
            "-h" | "--help" => usage(),
            a if a.starts_with('-') => {
                eprintln!("igen-cli: unknown option '{a}' (see igen-cli --help)");
                return ExitCode::from(2);
            }
            a => {
                if input.replace(a.to_string()).is_some() {
                    usage()
                }
            }
        }
    }
    let Some(input) = input else { usage() };
    let tel = Telemetry::start(metrics, trace_out);

    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("igen-cli: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match igen::compiler::Compiler::new(cfg).compile_str(&src) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("igen-cli: {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report {
        for w in &out.warnings {
            eprintln!("warning: {w}");
        }
        for r in &out.reductions {
            eprintln!("{}", r.polly_style_report());
        }
        if !out.intrinsics_used.is_empty() {
            eprintln!("intrinsics used: {}", out.intrinsics_used.join(", "));
        }
    }
    if emit_ir {
        print!("{}", igen::ir::dump_unit(&out.ir));
    }
    if dump_passes {
        print!("{}", out.opt_report.render());
    }
    let out_path = output.unwrap_or_else(|| {
        let stem = std::path::Path::new(&input)
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| input.clone());
        format!("igen_{stem}")
    });
    if let Err(e) = std::fs::write(&out_path, &out.c_source) {
        eprintln!("igen-cli: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out_path}");
    // Ship the runtime interface alongside (Fig. 2 line 1 includes it).
    std::fs::write("igen_lib.h", igen::compiler::runtime_header(&cfg)).expect("write igen_lib.h");
    eprintln!("wrote igen_lib.h");

    if emit_intrinsics {
        match igen::compiler::compile_intrinsics(&cfg) {
            Ok(intr) => {
                std::fs::write("igen_simd.c", &intr.c_source).expect("write igen_simd.c");
                eprintln!(
                    "wrote igen_simd.c ({} skipped: {})",
                    intr.skipped.len(),
                    intr.skipped.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ")
                );
            }
            Err(e) => {
                eprintln!("igen-cli: intrinsics generation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(code) = tel.finish() {
        return code;
    }
    ExitCode::SUCCESS
}
