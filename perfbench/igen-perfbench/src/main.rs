//! `igen-perfbench --workload <name> --seed <n> --seconds <s> --trace
//! <0|1> --igen-cli <path> --work-dir <dir> [--commit <id>]`
//!
//! Prints a host stamp line and, as the last line of standard output,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any reply fails its check, 2 on usage or set-up errors.

use igen_perfbench::e2e::{self, Env};
use igen_perfbench::gen::Workload;
use igen_perfbench::ladder;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    env: Env,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut igen_cli, mut work_dir, mut commit) = (None, None, "unknown".to_string());
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&val).ok_or_else(|| format!("unknown workload '{val}'"))?,
                )
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--igen-cli" => igen_cli = Some(PathBuf::from(val)),
            "--work-dir" => work_dir = Some(PathBuf::from(val)),
            "--commit" => commit = val,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        igen_cli: igen_cli.ok_or("--igen-cli is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        conns: nproc.min(2),
    };
    Ok(Args { env, trace: trace.ok_or("--trace is required")?, commit })
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", fmt_num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// What either mode reports.
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn untraced(args: &Args) -> Result<Report, String> {
    let out = e2e::run(&args.env)?;
    for n in &out.notes {
        eprintln!("  {n}");
    }
    Ok(Report {
        metrics: out.metrics.into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect(),
        attempted: out.attempted,
        failed: out.failed,
        errors: out.errors,
    })
}

fn traced(args: &Args) -> Result<Report, String> {
    let env = &args.env;
    let l = ladder::run(env)?;
    // One file per workload (the latest run), so repeated runs do not
    // accumulate span dumps.
    let path = env.work_dir.join(format!("trace-{}.jsonl", env.workload.name()));
    std::fs::write(&path, l.tracer.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("cost ladder, workload {} (spans in {}):", env.workload.name(), path.display());
    eprintln!(
        "  {:<17} {:<28} {:>12} {:>10} {:>10} {:>8}",
        "layer", "samples", "median", "IQR", "ns/iop", "ratio"
    );
    for r in &l.rows {
        eprintln!(
            "  {:<17} {:<28} {:>12.3} {:>10.3} {:>10.3} {:>8.3}",
            r.layer, r.what, r.median, r.iqr, r.ns_per_iop, r.ratio
        );
    }
    let share =
        l.metrics.iter().find(|m| m.0 == "trace.unattributed_share").map_or(f64::NAN, |m| m.1);
    eprintln!("  trace.unattributed_share {share:.4}");
    Ok(Report { metrics: l.metrics, attempted: l.attempted, failed: l.failed, errors: l.errors })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("igen-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.env.work_dir) {
        eprintln!("igen-perfbench: cannot create {}: {e}", args.env.work_dir.display());
        return ExitCode::from(2);
    }
    let result = if args.trace { traced(&args) } else { untraced(&args) };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("igen-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for (n, v, u) in &out.metrics {
        eprintln!("  {n:<36} {v:>14.6} {u}");
    }
    for e in &out.errors {
        eprintln!("  FAILED {e}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "# stamp: workload={} seed={} trace={} nproc={nproc} arch={} profile={profile} commit={} conns={}",
        args.env.workload.name(),
        args.env.seed,
        u8::from(args.trace),
        std::env::consts::ARCH,
        args.commit,
        args.env.conns,
    );
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&out.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
