//! Width-provenance profiling, end to end: profiled execution must be
//! bit-identical to plain execution (f64 and dd, every opt level), and
//! the instruction→source DebugMap must survive the whole pipeline —
//! lowering, the IR passes, peephole rewriting and register renumbering
//! — so the blame report can name real source lines at `-O2`.

use igen::batch::{BatchConfig, BatchDdI, BatchF64I, BatchProgram, SoaBatch};
use igen::compiler::{
    compile_to_program, compile_to_program_raw, Compiler, Config, OptLevel, Output, Precision,
};
use igen::interval::{DdI, F64I};
use igen::kernels::workload;
use igen::vm::{ArgBind, BindSpec};

const OPT_LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

fn henon_src() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source")
}

fn compile(src: &str, opt: OptLevel, precision: Precision) -> Output {
    let cfg = Config { opt_level: opt, precision, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

/// Every endpoint component of an f64 interval.
fn f64_bits(v: &F64I) -> Vec<u64> {
    vec![v.lo().to_bits(), v.hi().to_bits()]
}

/// Every endpoint component of a dd interval, as `verify_bit_identity_dd`
/// compares them.
fn dd_bits(d: &DdI) -> Vec<u64> {
    let (lo, hi) = (d.lo(), d.hi());
    vec![lo.hi().to_bits(), lo.lo().to_bits(), hi.hi().to_bits(), hi.lo().to_bits()]
}

/// Runs `soa` plain and profiled at the default tile and at two groups
/// per tile (13 items: several packed tiles plus the scalar tail) and
/// asserts every output matches in every `bits` component.
fn assert_profiled_matches_plain<B: SoaBatch>(
    bp: &BatchProgram,
    soa: &B,
    unit: &str,
    ctx: &str,
    bits: fn(&B::Elem) -> Vec<u64>,
) {
    let n_sites = bp.program().insns.len();
    let n_out = soa.len() / bp.program().n_inputs as usize * bp.program().outputs.len();
    for tile in [0usize, 2] {
        let cfg = BatchConfig::new().with_threads(1).with_seq_threshold(0).with_tile_groups(tile);
        let plain = bp.run(&cfg, soa);
        let mut prof = igen::telemetry::UnitProfiler::start(unit, n_sites);
        let profiled = bp.run_profiled(&cfg, soa, &mut prof);
        prof.finish();
        assert_eq!(plain.len(), n_out, "{ctx} tile {tile}");
        assert_eq!(profiled.len(), n_out, "{ctx} tile {tile}");
        for i in 0..n_out {
            assert_eq!(bits(&plain.get(i)), bits(&profiled.get(i)), "{ctx} tile {tile} value {i}");
        }
    }
}

/// Runs plain and profiled over the same batch and asserts every
/// endpoint matches bit for bit. With telemetry compiled in (and
/// recording turned on here) the profiled run records live samples; in
/// a default build the profiler is a zero-sized stub and this pins the
/// fall-through path instead — both must hold.
fn check_profiled_identity(src: &str, fn_name: &str, bind: &BindSpec, precision: Precision) {
    for opt in OPT_LEVELS {
        let out = compile(src, opt, precision);
        let prog = compile_to_program(&out, fn_name, bind)
            .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));
        let nin = prog.n_inputs as usize;
        let items = 13usize;
        let mut rng = workload::rng(0x9e0f ^ opt as u64);
        let bp = BatchProgram::new(prog);
        igen::telemetry::set_recording(true);
        let unit = format!("test.profile.{fn_name}.{opt:?}");
        let ctx = format!("{fn_name} {opt:?}");
        match precision {
            Precision::Dd => {
                let ivals = workload::dd_intervals_1ulp(&mut rng, items * nin, -2.0, 2.0);
                let soa = BatchDdI::from_intervals(&ivals);
                assert_profiled_matches_plain(&bp, &soa, &unit, &ctx, dd_bits);
            }
            _ => {
                let pts = workload::random_points(&mut rng, items * nin, -2.0, 2.0);
                let soa = BatchF64I::from_intervals(&workload::intervals_1ulp(&pts));
                assert_profiled_matches_plain(&bp, &soa, &unit, &ctx, f64_bits);
            }
        }
        igen::telemetry::set_recording(false);
    }
}

#[test]
fn profiled_henon_is_bit_identical_f64() {
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    check_profiled_identity(&henon_src(), "henon_map", &bind, Precision::F64);
}

#[test]
fn profiled_henon_is_bit_identical_dd() {
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(8)]);
    check_profiled_identity(&henon_src(), "henon_map", &bind, Precision::Dd);
}

#[test]
fn profiled_dot_is_bit_identical_f64() {
    let src = r#"
        double dot(double* x, double* y, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) {
                s = s + x[i] * y[i];
            }
            return s;
        }
    "#;
    let n = 7;
    let bind = BindSpec::new(vec![ArgBind::In(n), ArgBind::In(n), ArgBind::Int(n as i64)]);
    check_profiled_identity(src, "dot", &bind, Precision::F64);
}

/// The tentpole structural claim: at `-O2` with the peephole pass on
/// (copy propagation, CSE, strength reduction, fusion, renumbering all
/// applied), the surviving instructions still name the source lines of
/// Hénon's two update expressions.
#[test]
fn provenance_survives_o2_and_peephole() {
    let src = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    let out = compile(&src, OptLevel::O2, Precision::F64);
    for (prog, label) in [
        (compile_to_program(&out, "henon_map", &bind).expect("peephole"), "peephole"),
        (compile_to_program_raw(&out, "henon_map", &bind).expect("raw"), "raw"),
    ] {
        // The side-table stays parallel to the instruction stream
        // through every rewrite (validate() enforces the parity too).
        assert_eq!(
            prog.debug.sites.len(),
            prog.insns.len(),
            "{label}: debug map must cover every instruction"
        );
        let known = prog.debug.sites.iter().filter(|s| s.is_known()).count();
        assert!(
            known * 10 >= prog.insns.len() * 8,
            "{label}: only {known}/{} instructions carry a source site",
            prog.insns.len()
        );
        // Lines 7 and 8 of henon.c hold the map's two update statements;
        // both must still be named after the full optimization pipeline.
        for line in [7u32, 8] {
            assert!(
                prog.debug.sites.iter().any(|s| s.line == line),
                "{label}: no instruction attributes to henon.c line {line}"
            );
        }
    }
}

/// With telemetry compiled in, a live profiled run must attribute its
/// heaviest width-amplifying sites to the Hénon update lines; the
/// top-3 rows by mean amplification all carry real source locations.
#[cfg(feature = "telemetry")]
#[test]
fn blame_ranking_names_real_source_lines() {
    let src = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    let out = compile(&src, OptLevel::O2, Precision::F64);
    let prog = compile_to_program(&out, "henon_map", &bind).expect("compiles");
    let nin = prog.n_inputs as usize;
    let n_sites = prog.insns.len();
    let bp = BatchProgram::new(prog);
    let mut rng = workload::rng(0xb1a3);
    let pts = workload::random_points(&mut rng, 16 * nin, -2.0, 2.0);
    let soa = BatchF64I::from_intervals(&workload::intervals_1ulp(&pts));
    igen::telemetry::set_recording(true);
    let mut prof = igen::telemetry::UnitProfiler::start("test.blame.henon", n_sites);
    bp.run_profiled(&BatchConfig::new().with_threads(1), &soa, &mut prof);
    prof.finish();
    igen::telemetry::set_recording(false);

    let mut rows: Vec<_> = igen::telemetry::profiles_snapshot()
        .into_iter()
        .filter(|r| r.unit == "test.blame.henon" && r.mean_amp_log2().is_some())
        .collect();
    assert!(rows.len() >= 3, "expected at least 3 profiled sites, got {}", rows.len());
    rows.sort_by(|a, b| {
        b.mean_amp_log2()
            .unwrap()
            .partial_cmp(&a.mean_amp_log2().unwrap())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for r in rows.iter().take(3) {
        assert!(r.line > 0, "top amplifying site has no source line: {r:?}");
        assert!(
            (5..=8).contains(&r.line),
            "top amplifying site blames line {} — outside the loop body: {r:?}",
            r.line
        );
    }
}
