//! Tiled-executor and peephole bit-identity.
//!
//! Two claims are pinned here, both with zero tolerance:
//!
//! 1. The tiled instruction-major executor (`run_tile`, reached through
//!    `BatchProgram`) is bit-identical to the scalar reference
//!    (`run_scalar`) for every batch-size tail shape — fewer items
//!    than a packed group, fewer groups than a tile, and non-multiples
//!    of the tile — at `-O0/-O1/-O2`, both precisions, 1/3/8 threads,
//!    and several tile sizes.
//! 2. The peephole pass preserves every endpoint bit of every output on
//!    the full `vm_identity` program set: the raw lowering and the
//!    peepholed program are run side by side over random inputs and
//!    compared bitwise.
//! 3. The fused f64 tile sweeps (`F64Ix4`'s `LaneOrScalar::sweep`, one
//!    AVX2+FMA dispatch per instruction per tile) are bit-identical to
//!    `run_scalar` for every arithmetic opcode, with register aliasing
//!    and partial tiles, on special-value lanes, under the detected, SSE2
//!    and portable backends.

use igen::batch::{BatchConfig, BatchDdI, BatchF64I, BatchProgram};
use igen::compiler::{
    compile_to_program, compile_to_program_raw, Compiler, Config, OptLevel, Output, Precision,
};
use igen::interval::{DdI, F64Ix4, F64I};
use igen::kernels::{workload, LaneOrScalar};
use igen::round::simd::{self, Backend};
use igen::vm::{
    peephole, run_scalar, run_tile, ArgBind, BindSpec, DebugMap, Insn, OutputSlot, PreparedProgram,
    Program, TileBank,
};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the tests that force a backend (the override is
/// process-global): a test pinning one backend must not have another
/// test restore detection under it.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

const OPT_LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Batch sizes that exercise every tail shape: under one packed group
/// (1–3), exact group, under one default tile (5, 31), exact tile
/// boundary at the default 8 groups (32), one over (33), multiple tiles
/// with and without remainder (64, 65).
const TAIL_SHAPES: [usize; 10] = [1, 2, 3, 4, 5, 31, 32, 33, 64, 65];

fn compile(src: &str, opt: OptLevel, precision: Precision) -> Output {
    let cfg = Config { opt_level: opt, precision, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

fn henon_src() -> String {
    std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source")
}

const POLY_SRC: &str = r#"
    double poly(double u, double v) {
        double a = fabs(u);
        double m = fmax(a, v);
        double r = sqrt(m + 2.0);
        double p = pow(u, 3);
        return fmin(r, p) / (v + 4.0) - u * u;
    }
"#;

fn assert_f64_bits(a: &F64I, b: &F64I, ctx: &str) {
    assert_eq!(a.lo().to_bits(), b.lo().to_bits(), "lo {ctx}");
    assert_eq!(a.hi().to_bits(), b.hi().to_bits(), "hi {ctx}");
}

fn assert_dd_bits(a: &DdI, b: &DdI, ctx: &str) {
    let bits = |d: &DdI| {
        let (lo, hi) = (d.lo(), d.hi());
        [lo.hi().to_bits(), lo.lo().to_bits(), hi.hi().to_bits(), hi.lo().to_bits()]
    };
    assert_eq!(bits(a), bits(b), "{ctx}");
}

/// The fixed matrix: opt level × precision × items × threads × tile.
#[test]
fn tiled_batch_is_bit_identical_to_scalar_for_every_tail_shape() {
    let henon = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(6)]);
    for opt in OPT_LEVELS {
        // f64
        let out = compile(&henon, opt, Precision::F64);
        let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers");
        let nin = prog.n_inputs as usize;
        let bp = BatchProgram::new(prog.clone());
        for &items in &TAIL_SHAPES {
            let mut rng = workload::rng(0xA11CE ^ items as u64 ^ opt as u64);
            let points = workload::random_points(&mut rng, items * nin, -1.0, 1.0);
            let inputs = workload::intervals_1ulp(&points);
            let want: Vec<F64I> = (0..items)
                .flat_map(|i| run_scalar::<F64I>(&prog, &inputs[i * nin..(i + 1) * nin]))
                .collect();
            let soa = BatchF64I::from_intervals(&inputs);
            for threads in [1usize, 3, 8] {
                for tile in [1usize, 2, 8, 16] {
                    let cfg = BatchConfig::new()
                        .with_threads(threads)
                        .with_seq_threshold(0)
                        .with_tile_groups(tile);
                    let got = bp.run(&cfg, &soa).to_intervals();
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_f64_bits(
                            g,
                            w,
                            &format!("f64 {opt:?} items={items} threads={threads} tile={tile}"),
                        );
                    }
                }
            }
        }

        // dd
        let out = compile(&henon, opt, Precision::Dd);
        let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers dd");
        let nin = prog.n_inputs as usize;
        let bp = BatchProgram::new(prog.clone());
        for &items in &[1usize, 3, 5, 33] {
            let mut rng = workload::rng(0xDD ^ items as u64 ^ opt as u64);
            let inputs = workload::dd_intervals_1ulp(&mut rng, items * nin, -0.5, 0.5);
            let want: Vec<DdI> = (0..items)
                .flat_map(|i| run_scalar::<DdI>(&prog, &inputs[i * nin..(i + 1) * nin]))
                .collect();
            let soa = BatchDdI::from_intervals(&inputs);
            for threads in [1usize, 3, 8] {
                for tile in [1usize, 8] {
                    let cfg = BatchConfig::new()
                        .with_threads(threads)
                        .with_seq_threshold(0)
                        .with_tile_groups(tile);
                    let got = bp.run_dd(&cfg, &soa).to_intervals();
                    assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        assert_dd_bits(
                            g,
                            w,
                            &format!("dd {opt:?} items={items} threads={threads} tile={tile}"),
                        );
                    }
                }
            }
        }
    }
}

/// Named for the CI leg that forces the SSE2 backend on AVX2 hosts: the
/// tiled executor's packed sweeps must survive the downgrade
/// bit-identically. Safe to run alongside the other tests here — the
/// whole point of the backend contract is that every backend produces
/// the same bits, so a concurrently-downgraded test still passes.
#[test]
fn forced_sse2_tiled_batch_bit_identical() {
    if simd::detected_backend() < Backend::Sse2 {
        return; // nothing to force on this host
    }
    let henon = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(8)]);
    let out = compile(&henon, OptLevel::O2, Precision::F64);
    let prog = compile_to_program(&out, "henon_map", &bind).expect("lowers");
    let nin = prog.n_inputs as usize;
    let bp = BatchProgram::new(prog.clone());
    let items = 33usize; // one over a full default tile: packed body + scalar tail
    let mut rng = workload::rng(0x55E2);
    let points = workload::random_points(&mut rng, items * nin, -1.0, 1.0);
    let inputs = workload::intervals_1ulp(&points);
    let want: Vec<F64I> = (0..items)
        .flat_map(|i| run_scalar::<F64I>(&prog, &inputs[i * nin..(i + 1) * nin]))
        .collect();
    let soa = BatchF64I::from_intervals(&inputs);
    let cfg = BatchConfig::new().with_threads(2).with_seq_threshold(0);
    let _serial = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::force_backend(Some(Backend::Sse2));
    let got = bp.run(&cfg, &soa).to_intervals();
    simd::force_backend(None);
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_f64_bits(g, w, &format!("forced sse2, output {i}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random (items, threads, tile) triples against the scalar
    /// reference on the builtin-heavy poly kernel at -O2.
    #[test]
    fn tiled_batch_matches_scalar_on_random_shapes(
        items in 1usize..150,
        threads in 1usize..9,
        tile in 1usize..20,
        seed in 0u64..1_000,
    ) {
        let out = compile(POLY_SRC, OptLevel::O2, Precision::F64);
        let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival]);
        let prog = compile_to_program(&out, "poly", &bind).expect("lowers");
        let nin = prog.n_inputs as usize;
        let mut rng = workload::rng(seed);
        let points = workload::random_points(&mut rng, items * nin, -2.0, 2.0);
        let inputs = workload::intervals_1ulp(&points);
        let want: Vec<F64I> = (0..items)
            .flat_map(|i| run_scalar::<F64I>(&prog, &inputs[i * nin..(i + 1) * nin]))
            .collect();
        let bp = BatchProgram::new(prog);
        let cfg = BatchConfig::new()
            .with_threads(threads)
            .with_seq_threshold(0)
            .with_tile_groups(tile);
        let got = bp.run(&cfg, &BatchF64I::from_intervals(&inputs)).to_intervals();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.lo().to_bits(), w.lo().to_bits());
            prop_assert_eq!(g.hi().to_bits(), w.hi().to_bits());
        }
    }
}

/// The peephole differential over the PR 7 `vm_identity` program set:
/// raw lowering vs peepholed program, every output endpoint bit, every
/// opt level.
#[test]
fn peephole_preserves_every_endpoint_bit_on_the_identity_set() {
    let henon = henon_src();
    let mvm_n = 4usize;
    let mut mrng = workload::rng(99);
    let a = workload::random_points(&mut mrng, mvm_n * mvm_n, -1.0, 1.0);
    let pairs: Vec<(f64, f64)> = a.iter().map(|&v| (v, v)).collect();
    let set: Vec<(&str, &str, BindSpec, usize)> = vec![
        (
            r#"
            double dot(double* x, double* y, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) {
                    s = s + x[i] * y[i];
                }
                return s;
            }
            "#,
            "dot",
            BindSpec::new(vec![ArgBind::In(7), ArgBind::In(7), ArgBind::Int(7)]),
            9,
        ),
        (
            henon.as_str(),
            "henon_map",
            BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]),
            13,
        ),
        (POLY_SRC, "poly", BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival]), 16),
        (
            r#"
            void mvm(double* a, double* x, double* y, int n) {
                for (int i = 0; i < n; i++) {
                    double acc = y[i];
                    for (int j = 0; j < n; j++) {
                        acc = acc + a[i * n + j] * x[j];
                    }
                    y[i] = acc;
                }
            }
            "#,
            "mvm",
            BindSpec::new(vec![
                ArgBind::Uniform(pairs),
                ArgBind::In(mvm_n),
                ArgBind::InOut(mvm_n),
                ArgBind::Int(mvm_n as i64),
            ]),
            6,
        ),
        (
            r#"
            double scratch(double v) {
                double tmp[3];
                tmp[0] = v + 1.0;
                tmp[1] = tmp[0] * tmp[0];
                tmp[2] = tmp[1] - v;
                return tmp[2];
            }
            "#,
            "scratch",
            BindSpec::new(vec![ArgBind::Ival]),
            17,
        ),
        (
            r#"
            void split(double x, double* o) {
                o[0] = x * x;
                o[1] = x + 1.5;
            }
            "#,
            "split",
            BindSpec::new(vec![ArgBind::Ival, ArgBind::Out(2)]),
            10,
        ),
    ];
    for (src, fn_name, bind, items) in &set {
        for opt in OPT_LEVELS {
            let out = compile(src, opt, Precision::F64);
            let raw = compile_to_program_raw(&out, fn_name, bind)
                .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));
            raw.validate_ssa().expect("raw lowering is SSA");
            let (peep, stats) = peephole(&raw);
            peep.validate().expect("peepholed program validates");
            assert!(peep.n_regs <= raw.n_regs, "{fn_name}: renumbering never grows the file");
            let _ = stats;
            let nin = raw.n_inputs as usize;
            let mut rng = workload::rng(0x5EED ^ opt as u64);
            let points = workload::random_points(&mut rng, items * nin.max(1), -2.0, 2.0);
            let inputs = workload::intervals_1ulp(&points);
            for i in 0..*items {
                let item = &inputs[i * nin..(i + 1) * nin];
                let want = run_scalar::<F64I>(&raw, item);
                let got = run_scalar::<F64I>(&peep, item);
                assert_eq!(want.len(), got.len());
                for (slot, (w, g)) in raw.outputs.iter().zip(want.iter().zip(&got)) {
                    assert_f64_bits(
                        g,
                        w,
                        &format!("{fn_name} at {opt:?}, item {i}, output {}", slot.label),
                    );
                }
            }
        }
    }
}

/// Same differential at dd precision on the Hénon kernel (the one dd
/// program in the identity set); all four endpoint components compare.
#[test]
fn peephole_preserves_dd_bits_on_henon() {
    let henon = henon_src();
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(8)]);
    for opt in OPT_LEVELS {
        let out = compile(&henon, opt, Precision::Dd);
        let raw = compile_to_program_raw(&out, "henon_map", &bind).expect("lowers dd");
        let (peep, _) = peephole(&raw);
        let nin = raw.n_inputs as usize;
        let mut rng = workload::rng(0xDDD ^ opt as u64);
        let inputs = workload::dd_intervals_1ulp(&mut rng, 10 * nin, -0.5, 0.5);
        for i in 0..10 {
            let item = &inputs[i * nin..(i + 1) * nin];
            let want = run_scalar::<DdI>(&raw, item);
            let got = run_scalar::<DdI>(&peep, item);
            assert_eq!(want.len(), got.len());
            for (w, g) in want.iter().zip(&got) {
                assert_dd_bits(g, w, &format!("dd henon at {opt:?}, item {i}"));
            }
        }
    }
}

/// A hand-written f64 program over inputs `x, y, z` (r0..r2) that runs
/// every fused arithmetic opcode once on the inputs (outputs 0..6) and
/// once more with every operand register equal to the destination
/// (outputs 7..11): `dst == a == b == acc`.
fn fused_ops_program() -> Program {
    use Insn::*;
    let insns = vec![
        Add { dst: 3, a: 0, b: 1 },
        Sub { dst: 4, a: 0, b: 1 },
        Mul { dst: 5, a: 0, b: 1 },
        Div { dst: 6, a: 0, b: 1 },
        Sqr { dst: 7, a: 0 },
        MulAdd { dst: 8, a: 0, b: 1, acc: 2 },
        MulSub { dst: 9, a: 0, b: 1, acc: 2 },
        // Aliased forms: seed a register, then overwrite it in place.
        Add { dst: 10, a: 0, b: 2 },
        MulAdd { dst: 10, a: 10, b: 10, acc: 10 },
        Sub { dst: 11, a: 1, b: 2 },
        MulSub { dst: 11, a: 11, b: 11, acc: 11 },
        Mul { dst: 12, a: 0, b: 2 },
        Div { dst: 12, a: 12, b: 12 },
        Sqr { dst: 13, a: 1 },
        Sqr { dst: 13, a: 13 },
        Sub { dst: 14, a: 2, b: 0 },
        Add { dst: 14, a: 14, b: 14 },
    ];
    let regs = [3u32, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];
    let p = Program {
        name: "fused".into(),
        precision: igen::vm::Precision::F64,
        n_inputs: 3,
        n_regs: 15,
        consts: vec![],
        insns,
        inputs: vec!["x".into(), "y".into(), "z".into()],
        outputs: regs.iter().map(|&reg| OutputSlot { label: format!("r{reg}"), reg }).collect(),
        debug: DebugMap::default(),
    };
    p.validate().expect("the fused-op program validates");
    p
}

/// Special-value lanes: NaN, ±∞, ±0, subnormals, products around
/// `FMA_RESIDUAL_EXACT_MIN` (≈2.5e-291) and past `f64::MAX`, exact zero
/// endpoints, and zero-straddling divisors.
fn f64_special_lanes() -> Vec<F64I> {
    let sub = f64::from_bits(1);
    let iv = |lo: f64, hi: f64| F64I::new(lo, hi).expect("ordered");
    vec![
        F64I::point(0.0),
        iv(-0.0, 0.0),
        F64I::point(-0.0),
        F64I::point(1.0),
        F64I::point(0.1),
        iv(-2.0, 3.0),
        iv(0.5, 2.0),
        iv(-2.0, -0.5),
        iv(-1.0, 0.0),
        iv(0.0, 1.0),
        F64I::point(sub),
        iv(-sub, sub),
        F64I::point(f64::MIN_POSITIVE),
        F64I::point(f64::from_bits(0x000f_ffff_ffff_ffff)),
        F64I::point(1.5e-146),
        F64I::point(1.6e-145),
        iv(1e-300, 1e-290),
        F64I::point(1.4e154),
        iv(1e300, f64::MAX),
        F64I::point(-f64::MAX),
        iv(1.0, f64::INFINITY),
        F64I::ENTIRE,
        F64I::NAI,
        F64I::from_neg_lo_hi(f64::NAN, 1.0),
    ]
}

/// Every fused opcode, every ordered pair of special lanes as `(x, y)`
/// (with a rotating third operand), through `run_tile::<F64I, F64Ix4>`
/// with full and partial tiles, against `run_scalar` item by item.
#[test]
fn fused_tile_sweeps_match_scalar_on_special_lanes() {
    let p = fused_ops_program();
    let pool = f64_special_lanes();
    let n = pool.len();
    let items: Vec<[F64I; 3]> =
        (0..n * n).map(|k| [pool[k % n], pool[k / n], pool[(7 * k + 3) % n]]).collect();
    let want: Vec<Vec<F64I>> = items.iter().map(|it| run_scalar::<F64I>(&p, it)).collect();
    let prep = PreparedProgram::<F64I>::new(p.clone());
    let _serial = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for bk in [Backend::Avx2Fma, Backend::Sse2, Backend::Portable] {
        if bk > simd::detected_backend() {
            continue;
        }
        let eff = simd::force_backend(Some(bk));
        for tile in [1usize, 3, 8] {
            let mut bank = TileBank::<F64I, F64Ix4>::new(&prep, tile);
            let mut out = Vec::new();
            let groups = items.len().div_ceil(4);
            let mut g0 = 0;
            // Tiles of every fill level 1..=tile, cycling.
            let mut fill = 1;
            while g0 < groups {
                let ng = fill.min(groups - g0);
                for g in 0..ng {
                    for r in 0..3u32 {
                        bank.input_column(r)[g] = F64Ix4::from_fn_l(|l| {
                            items[((g0 + g) * 4 + l) % items.len()][r as usize]
                        });
                    }
                }
                run_tile(&prep, &mut bank, ng, &mut out);
                for (slot, o) in p.outputs.iter().enumerate() {
                    for g in 0..ng {
                        for l in 0..4 {
                            let k = ((g0 + g) * 4 + l) % items.len();
                            assert_f64_bits(
                                &out[slot * ng + g].lane_l(l),
                                &want[k][slot],
                                &format!(
                                    "{eff} tile={tile} fill={ng} {} x={} y={} z={}",
                                    o.label, items[k][0], items[k][1], items[k][2]
                                ),
                            );
                        }
                    }
                }
                g0 += ng;
                fill = fill % tile + 1;
            }
        }
    }
    simd::force_backend(None);
}
