//! Pins the interpreter's name-visibility and step-counting rules: which
//! binding a name resolves to, when a binding dies, what an unknown
//! name raises, and exactly how many steps a fixed program takes.

use igen_interp::{Interp, RtError, Value};

fn call(src: &str, f: &str, args: Vec<Value>) -> Result<Value, RtError> {
    Interp::from_source(src).unwrap().call(f, args)
}

fn missing(name: &str) -> Result<Value, RtError> {
    Err(RtError::Missing(name.to_string()))
}

#[test]
fn shadowing_in_nested_blocks_restores_the_outer_value() {
    let src = r#"
        int f(void) {
            int x = 1;
            int r = 0;
            {
                int x = 2;
                r = r + x * 10;
                {
                    int x = 3;
                    x = x + 1;
                    r = r + x * 100;
                }
                r = r + x * 1000;
                x = 9;
            }
            return r + x;
        }
    "#;
    // 20 + 400 + 2000, then the outermost x (1), untouched by either
    // inner assignment.
    assert_eq!(call(src, "f", vec![]), Ok(Value::Int(2421)));
}

#[test]
fn assignment_reaches_the_innermost_declared_binding_only() {
    let src = r#"
        int f(void) {
            int x = 1;
            int y = 0;
            {
                y = 5;
                int y = 7;
                y = y + x;
                x = 2;
            }
            return x * 100 + y;
        }
    "#;
    // The first `y = 5` writes the outer y (the inner one is not yet
    // declared); `x = 2` writes the outer x through the block.
    assert_eq!(call(src, "f", vec![]), Ok(Value::Int(205)));
}

#[test]
fn loop_body_declarations_are_reinitialised_every_iteration() {
    let src = r#"
        int f(void) {
            int s = 0;
            for (int i = 0; i < 3; i++) {
                int acc = 10;
                int zeroed;
                acc = acc + i;
                zeroed = zeroed + i + 1;
                s = s * 100 + acc * 10 + zeroed;
            }
            int j = 0;
            while (j < 2) {
                int w = 5;
                w = w + j;
                s = s + w;
                j++;
            }
            return s;
        }
    "#;
    // for: 101, then 10100 + 112, then 1021200 + 123; while: + 5 + 6.
    assert_eq!(call(src, "f", vec![]), Ok(Value::Int(1_021_334)));
}

#[test]
fn bare_declaration_loop_body_declares_into_the_enclosing_scope() {
    let src = r#"
        int f(void) {
            int i = 0;
            int x = 100;
            while (i < 4) int x = x + i++;
            return x;
        }
    "#;
    // Each iteration redeclares x in the function's scope, reading the
    // previous iteration's x: 100 + 0 + 1 + 2 + 3; it stays visible
    // after the loop.
    assert_eq!(call(src, "f", vec![]), Ok(Value::Int(106)));
}

#[test]
fn for_init_variable_is_invisible_after_the_loop() {
    let src = r#"
        int f(double* a) {
            for (int i = 0; i < 2; i++) { a[i] = 1.0; }
            a[2] = 7.0;
            return i;
        }
    "#;
    let mut it = Interp::from_source(src).unwrap();
    let p = it.alloc_f64(&[0.0; 3]);
    assert_eq!(it.call("f", vec![p.clone()]), missing("i"));
    // The error is raised at the `return`, after every store before it.
    assert_eq!(it.read_f64(&p, 3), vec![1.0, 1.0, 7.0]);

    let src = "int g(void) { int i = 5; for (int i = 0; i < 3; i++) { } return i; }";
    assert_eq!(call(src, "g", vec![]), Ok(Value::Int(5)));
}

#[test]
fn switch_arms_share_one_scope_that_ends_with_the_switch() {
    let src = r#"
        int f(int n) {
            int y = 7;
            int r = 0;
            switch (n) {
                case 1:
                    int y = 5;
                case 2:
                    r = y;
                    break;
                default:
                    r = -1;
            }
            return r * 10 + y;
        }
        int g(int n) {
            switch (n) {
                case 1:
                    int z = 3;
                    break;
            }
            return z;
        }
    "#;
    // Falls from case 1 into case 2 with the arm-local y visible.
    assert_eq!(call(src, "f", vec![Value::Int(1)]), Ok(Value::Int(57)));
    // Entering at case 2 skips the declaration: y is the outer one.
    assert_eq!(call(src, "f", vec![Value::Int(2)]), Ok(Value::Int(77)));
    assert_eq!(call(src, "f", vec![Value::Int(3)]), Ok(Value::Int(-3)));
    assert_eq!(call(src, "g", vec![Value::Int(1)]), missing("z"));
}

#[test]
fn callee_resolves_undeclared_names_through_its_callers() {
    let src = r#"
        int peek(void) { return secret + 1; }
        void poke(void) { secret = 7; }
        int own(void) { int secret = 100; return secret; }
        int f(void) {
            int secret = 41;
            int a = peek();
            poke();
            int b = own();
            return a * 10000 + secret * 1000 + b;
        }
    "#;
    // peek reads f's local, poke writes it, own's declaration shadows
    // it without touching it.
    assert_eq!(call(src, "f", vec![]), Ok(Value::Int(427_100)));
    // Called directly, the callee has no caller frame to look through.
    assert_eq!(call(src, "peek", vec![]), missing("secret"));
}

#[test]
fn parameters_shadow_caller_locals_of_the_same_name() {
    let src = r#"
        int inner(int x) { x = x + 1; return x; }
        int f(void) { int x = 10; int y = inner(1); return x * 100 + y; }
    "#;
    assert_eq!(call(src, "f", vec![]), Ok(Value::Int(1002)));
}

#[test]
fn an_error_in_a_nested_block_leaves_no_stale_bindings() {
    let src = r#"
        int fails(int n) {
            int stale = 99;
            for (int k = 0; k < 2; k++) {
                {
                    int inner = n;
                    switch (n) {
                        case 1:
                            int arm = 1;
                            return undefined_name;
                    }
                    inner = inner + nowhere;
                }
            }
            return 0;
        }
        int helper(void) { int stale = 1; return fails(1); }
        int probe(void) { return stale + inner + k + arm; }
    "#;
    let mut it = Interp::from_source(src).unwrap();
    assert_eq!(it.call("fails", vec![Value::Int(1)]), missing("undefined_name"));
    assert_eq!(it.call("probe", vec![]), missing("stale"));
    assert_eq!(it.call("fails", vec![Value::Int(2)]), missing("nowhere"));
    assert_eq!(it.call("probe", vec![]), missing("stale"));
    assert_eq!(it.call("helper", vec![]), missing("undefined_name"));
    assert_eq!(it.call("probe", vec![]), missing("stale"));

    // The same after a step-budget failure and a reset.
    it.reset();
    it.step_budget = 12;
    assert_eq!(it.call("fails", vec![Value::Int(1)]), Err(RtError::StepBudget));
    it.reset();
    assert_eq!(it.call("probe", vec![]), missing("stale"));
}

/// Steps the pinned program takes; the budget boundary below fails one
/// step short of it and succeeds exactly at it.
const PINNED_STEPS: u64 = 465;

const PINNED: &str = r#"
    int sq(int v) { int w = v * v; return w; }
    int f(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) {
            int t = sq(i);
            if (t % 2 == 0) { s += t; } else { s -= 1; }
            switch (i % 3) {
                case 0: s = s + 1;
                case 1: s = s + 2; break;
                default: { int d = i; s = s + d; }
            }
        }
        int j = 0;
        while (j < 3) { j++; }
        do { j--; } while (j > 0);
        return s + j;
    }
"#;

#[test]
fn step_budget_boundary_is_pinned() {
    let run = |budget: u64| {
        let mut it = Interp::from_source(PINNED).unwrap();
        it.step_budget = budget;
        it.call("f", vec![Value::Int(10)])
    };
    assert_eq!(run(PINNED_STEPS - 1), Err(RtError::StepBudget));
    assert_eq!(run(PINNED_STEPS), Ok(Value::Int(148)));
}
