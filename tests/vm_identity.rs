//! Bytecode-vs-interpreter bit identity: every function shape the
//! lowering pass supports is compiled at `-O0`, `-O1` and `-O2`,
//! lowered to bytecode, and executed over random inputs against the
//! differential interpreter running the transformed C unit. Endpoints
//! must match bit for bit — no tolerance — at every opt level; the
//! batched packed path must additionally be bit-identical to the
//! scalar path at every thread count.

use igen::batch::{BatchConfig, BatchF64I, BatchProgram};
use igen::compiler::{
    compile_to_program, verify_bit_identity, verify_bit_identity_dd, Compiler, Config, OptLevel,
    Output, Precision, VmBridgeError,
};
use igen::interval::{DdI, F64I};
use igen::kernels::workload;
use igen::vm::{ArgBind, BindSpec, Insn, Program};

fn compile(src: &str, opt: OptLevel) -> Output {
    let cfg = Config { opt_level: opt, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

fn compile_dd(src: &str, opt: OptLevel) -> Output {
    let cfg = Config { opt_level: opt, precision: Precision::Dd, ..Config::default() };
    Compiler::new(cfg).compile_str(src).expect("compiles")
}

const OPT_LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O1, OptLevel::O2];

/// Compiles at every opt level, checks scalar bit identity against the
/// interpreter, then checks thread-count invariance of the batched run.
fn check_f64(src: &str, fn_name: &str, bind: BindSpec, seed: u64, items: usize) {
    for opt in OPT_LEVELS {
        let out = compile(src, opt);
        let prog = compile_to_program(&out, fn_name, &bind)
            .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));
        let nin = prog.n_inputs as usize;
        let mut rng = workload::rng(seed ^ opt as u64);
        let points = workload::random_points(&mut rng, items * nin, -2.0, 2.0);
        let inputs = workload::intervals_1ulp(&points);
        verify_bit_identity(&out, &prog, &bind, &inputs)
            .unwrap_or_else(|e| panic!("{fn_name} at {opt:?}: {e}"));

        // Batched packed path: identical bits at 1, 3 and 8 threads.
        let bp = BatchProgram::new(prog);
        let soa = BatchF64I::from_intervals(&inputs);
        let base =
            bp.run(&BatchConfig::new().with_threads(1).with_seq_threshold(0), &soa).to_intervals();
        for threads in [3usize, 8] {
            let got = bp
                .run(&BatchConfig::new().with_threads(threads).with_seq_threshold(0), &soa)
                .to_intervals();
            assert_eq!(base.len(), got.len());
            for (b, g) in base.iter().zip(&got) {
                assert_eq!(b.lo().to_bits(), g.lo().to_bits(), "{fn_name} lo @ {threads} threads");
                assert_eq!(b.hi().to_bits(), g.hi().to_bits(), "{fn_name} hi @ {threads} threads");
            }
        }
    }
}

#[test]
fn dot_accumulator_loop() {
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
    check_f64(src, "dot", bind, 11, 9);
}

#[test]
fn henon_iteration() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source");
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(12)]);
    check_f64(&src, "henon_map", bind, 22, 13);
}

#[test]
fn poly_with_builtins() {
    let src = r#"
        double poly(double u, double v) {
            double a = fabs(u);
            double m = fmax(a, v);
            double r = sqrt(m + 2.0);
            double p = pow(u, 3);
            return fmin(r, p) / (v + 4.0) - u * u;
        }
    "#;
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival]);
    check_f64(src, "poly", bind, 33, 16);
}

#[test]
fn mvm_inout_with_uniform_matrix() {
    let src = r#"
        void mvm(double* a, double* x, double* y, int n) {
            for (int i = 0; i < n; i++) {
                double acc = y[i];
                for (int j = 0; j < n; j++) {
                    acc = acc + a[i * n + j] * x[j];
                }
                y[i] = acc;
            }
        }
    "#;
    let n = 4;
    let mut rng = workload::rng(99);
    let a = workload::random_points(&mut rng, n * n, -1.0, 1.0);
    let pairs: Vec<(f64, f64)> = a.iter().map(|&v| (v, v)).collect();
    let bind = BindSpec::new(vec![
        ArgBind::Uniform(pairs),
        ArgBind::In(n),
        ArgBind::InOut(n),
        ArgBind::Int(n as i64),
    ]);
    check_f64(src, "mvm", bind, 44, 6);
}

#[test]
fn local_scratch_array() {
    let src = r#"
        double scratch(double v) {
            double tmp[3];
            tmp[0] = v + 1.0;
            tmp[1] = tmp[0] * tmp[0];
            tmp[2] = tmp[1] - v;
            return tmp[2];
        }
    "#;
    let bind = BindSpec::new(vec![ArgBind::Ival]);
    check_f64(src, "scratch", bind, 55, 17);
}

#[test]
fn out_array_gather() {
    let src = r#"
        void split(double x, double* o) {
            o[0] = x * x;
            o[1] = x + 1.5;
        }
    "#;
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Out(2)]);
    check_f64(src, "split", bind, 66, 10);
}

#[test]
fn henon_dd_precision() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/inputs/henon.c"),
    )
    .expect("golden henon source");
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Int(8)]);
    for opt in OPT_LEVELS {
        let out = compile_dd(&src, opt);
        let prog = compile_to_program(&out, "henon_map", &bind)
            .unwrap_or_else(|e| panic!("henon dd at {opt:?}: {e}"));
        let mut rng = workload::rng(77 ^ opt as u64);
        let inputs = workload::dd_intervals_1ulp(&mut rng, 10 * 2, -0.5, 0.5);
        verify_bit_identity_dd(&out, &prog, &bind, &inputs)
            .unwrap_or_else(|e| panic!("henon dd at {opt:?}: {e}"));
    }
}

/// Functions outside the traced subset are rejected with a precise
/// error instead of miscompiling: an interval-dependent branch must
/// name the tri-state branch problem.
#[test]
fn interval_branch_is_rejected() {
    let src = r#"
        double clamp_pos(double x) {
            if (x > 0.0) {
                return x;
            }
            return 0.0;
        }
    "#;
    let out = compile(src, OptLevel::O2);
    let bind = BindSpec::new(vec![ArgBind::Ival]);
    let err = compile_to_program(&out, "clamp_pos", &bind).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("interval"), "unexpected error: {msg}");
}

/// The item-major SoA layout and the scalar reference agree on which
/// lanes belong to which item (regression guard for the load stride).
#[test]
fn batch_layout_matches_per_item_runs() {
    let src = r#"
        double axpy1(double a, double x, double y) {
            return a * x + y;
        }
    "#;
    let out = compile(src, OptLevel::O2);
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Ival]);
    let prog = compile_to_program(&out, "axpy1", &bind).expect("lowers");
    let mut rng = workload::rng(123);
    let points = workload::random_points(&mut rng, 3 * 11, -3.0, 3.0);
    let inputs = workload::intervals_1ulp(&points);
    let per_item: Vec<F64I> = (0..11)
        .map(|i| igen::vm::run_scalar::<F64I>(&prog, &inputs[i * 3..(i + 1) * 3])[0])
        .collect();
    let bp = BatchProgram::new(prog);
    let got = bp
        .run(
            &BatchConfig::new().with_threads(2).with_seq_threshold(0),
            &BatchF64I::from_intervals(&inputs),
        )
        .to_intervals();
    assert_eq!(got.len(), per_item.len());
    for (g, w) in got.iter().zip(&per_item) {
        assert_eq!(g.lo().to_bits(), w.lo().to_bits());
        assert_eq!(g.hi().to_bits(), w.hi().to_bits());
    }
}

/// `pair` lowered to bytecode with its one `Add` (`out[1] = x + y`)
/// mutated to `Sub`, and four items whose first two have `y = 0`, where
/// `x + y` and `x - y` agree bit for bit: the first mismatch is item 2.
fn mutated_pair(out: &Output) -> (Program, BindSpec, [(f64, f64); 8]) {
    let bind = BindSpec::new(vec![ArgBind::Ival, ArgBind::Ival, ArgBind::Out(2)]);
    let mut prog = compile_to_program(out, "pair", &bind).expect("lowers");
    let adds: Vec<usize> =
        (0..prog.insns.len()).filter(|&i| matches!(prog.insns[i], Insn::Add { .. })).collect();
    assert_eq!(adds.len(), 1, "{}", prog.dump());
    if let Insn::Add { dst, a, b } = prog.insns[adds[0]] {
        prog.insns[adds[0]] = Insn::Sub { dst, a, b };
    }
    let items = [
        (1.0, 2.0),
        (0.0, 0.0),
        (-3.0, -1.0),
        (0.0, 0.0),
        (0.5, 0.75),
        (1.0, 1.5),
        (2.0, 3.0),
        (4.0, 5.0),
    ];
    (prog, bind, items)
}

const PAIR: &str = r#"
    void pair(double x, double y, double* out) {
        out[0] = x * y;
        out[1] = x + y;
    }
"#;

/// The self-check's negative path: bytecode that disagrees with the
/// interpreter is reported as the first differing item and output, with
/// the VM's and the interpreter's endpoints.
#[test]
fn self_check_reports_the_first_mismatch_f64() {
    let out = compile(PAIR, OptLevel::O0);
    let (prog, bind, items) = mutated_pair(&out);
    let items: Vec<F64I> = items.iter().map(|&(lo, hi)| F64I::new(lo, hi).unwrap()).collect();
    let good = compile_to_program(&out, "pair", &bind).expect("lowers");
    verify_bit_identity(&out, &good, &bind, &items).expect("unmutated bytecode verifies");
    let err = verify_bit_identity(&out, &prog, &bind, &items).expect_err("mutation is caught");
    assert_eq!(
        err,
        VmBridgeError::Mismatch {
            label: "out[1]".into(),
            item: 2,
            got: (-1.0, -0.25),
            want: (1.5, 2.25)
        }
    );
}

/// [`self_check_reports_the_first_mismatch_f64`] at double-double
/// precision.
#[test]
fn self_check_reports_the_first_mismatch_dd() {
    let out = compile_dd(PAIR, OptLevel::O0);
    let (prog, bind, items) = mutated_pair(&out);
    let items: Vec<DdI> =
        items.iter().map(|&(lo, hi)| DdI::from_f64i(&F64I::new(lo, hi).unwrap())).collect();
    let good = compile_to_program(&out, "pair", &bind).expect("lowers");
    verify_bit_identity_dd(&out, &good, &bind, &items).expect("unmutated bytecode verifies");
    let err = verify_bit_identity_dd(&out, &prog, &bind, &items).expect_err("mutation is caught");
    assert_eq!(
        err,
        VmBridgeError::Mismatch {
            label: "out[1]".into(),
            item: 2,
            got: (-1.0, -0.25),
            want: (1.5, 2.25)
        }
    );
}
