//! Seeded request generators, one per workload.
//!
//! A workload is a *pool* of distinct request lines plus a seeded,
//! stratified *sequence* of indices into it. The pool is what the
//! checker memoizes (responses are pure functions of their line); the
//! sequence is what the closed-loop client sends. Both are pure
//! functions of the seed: the same seed renders the same bytes.

use std::fmt::Write as _;

/// SplitMix64: a tiny, fully specified generator, so request bytes do
/// not depend on any library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform double in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Endpoint precision of a compile request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prec {
    /// `f64` endpoints.
    F64,
    /// Double-double endpoints.
    Dd,
}

/// One statement of a generated straight-line function. Operands index
/// the value list: inputs first, then earlier statements. Every form
/// maps interval magnitudes within `[-2, 2]` back into `[-2, 2]` and
/// keeps divisors strictly positive, so no output is infinite or NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `(a + b) * 0.5`
    Avg(usize, usize),
    /// `a * b * 0.25`
    MulQ(usize, usize),
    /// `(a - b) * 0.5`
    Half(usize, usize),
    /// `0.75 * a + 0.25 * b`
    Mix(usize, usize),
    /// `a * a * 0.5`
    SqH(usize),
    /// `a / (4.5 + b * b) * 0.5`
    Div(usize, usize),
    /// `((0.25 * a - 0.5) * a + 0.75) * a + 1.0` (small kernels only)
    Poly(usize),
}

/// A straight-line function: `n_in` interval parameters, one statement
/// per local, returning the last one.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// C function name.
    pub name: String,
    /// Name prefix of the locals (`v` gives `v0`, `v1`, ...).
    pub local: &'static str,
    /// Interval parameter count.
    pub n_in: usize,
    /// The statements, in order.
    pub stmts: Vec<Op>,
}

/// The kernel families the workloads draw from. Every size is a
/// literal in the source, so a variant is a different source text.
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// Hénon map from a scaled start point; `a = 1.4 - shift/256`.
    Henon {
        /// Loop trip count.
        iters: u32,
        /// Dyadic offset of the `a` coefficient.
        shift: u32,
    },
    /// Newton's square-root iteration `x = 0.5 * (x + a / x)`.
    Newton {
        /// Loop trip count.
        iters: u32,
        /// Dyadic offset of the start value.
        shift: u32,
    },
    /// `n x n` matrix product of two generated matrices, returning a
    /// scaled sum of its entries.
    Gemm {
        /// Matrix order.
        n: u32,
    },
    /// Dot product over two in/out arrays of `n` intervals.
    Dot {
        /// Vector length.
        n: u32,
    },
    /// A straight-line expression function.
    Expr(Expr),
    /// Source with a C syntax error (the answer is a structured error).
    Broken(u32),
}

/// A double as the C literal the generators print (shortest
/// round-trip decimal).
pub fn lit(v: f64) -> String {
    format!("{v:?}")
}

impl Kernel {
    /// Coefficient `a` of the Hénon variant.
    pub fn henon_a(shift: u32) -> f64 {
        1.4 - f64::from(shift) / 256.0
    }

    /// Start offset of the Newton variant.
    pub fn newton_start(shift: u32) -> f64 {
        0.25 + f64::from(shift) / 64.0
    }

    /// The C source text.
    pub fn source(&self) -> String {
        match self {
            Kernel::Henon { iters, shift } => format!(
                "double henon(double x0, double y0) {{\n    double x = 0.125 * x0;\n    \
                 double y = 0.125 * y0;\n    for (int i = 0; i < {iters}; i++) {{\n        \
                 double xi = x;\n        x = 1.0 - {} * xi * xi + y;\n        \
                 y = 0.3 * xi;\n    }}\n    return x;\n}}\n",
                lit(Kernel::henon_a(*shift))
            ),
            Kernel::Newton { iters, shift } => format!(
                "double newton(double a0) {{\n    double a = 1.5 + 0.25 * a0;\n    \
                 double x = a + {};\n    for (int i = 0; i < {iters}; i++) {{\n        \
                 x = 0.5 * (x + a / x);\n    }}\n    return x;\n}}\n",
                lit(Kernel::newton_start(*shift))
            ),
            Kernel::Gemm { n } => {
                let nn = n * n;
                format!(
                    "double gemm(double s, double t) {{\n    double a[{nn}];\n    double b[{nn}];\n    \
                     double u = s;\n    double v = t;\n    for (int i = 0; i < {nn}; i++) {{\n        \
                     a[i] = u;\n        b[i] = v;\n        u = 0.75 * u + 0.125 * v;\n        \
                     v = 0.5 * v - 0.25 * u;\n    }}\n    double tr = 0.0;\n    \
                     for (int i = 0; i < {n}; i++) {{\n        for (int j = 0; j < {n}; j++) {{\n            \
                     double acc = 0.0;\n            for (int k = 0; k < {n}; k++) {{\n                \
                     acc = acc + a[i * {n} + k] * b[k * {n} + j];\n            }}\n            \
                     tr = tr + acc * 0.0625;\n        }}\n    }}\n    return tr;\n}}\n"
                )
            }
            Kernel::Dot { n } => format!(
                "double dot(double* x, double* y) {{\n    double s = 0.0;\n    \
                 for (int i = 0; i < {n}; i++) {{\n        s = s + x[i] * y[i];\n    }}\n    \
                 return s;\n}}\n"
            ),
            Kernel::Expr(e) => e.source(),
            Kernel::Broken(k) => {
                format!("double broken{k}(double x) {{\n    double t = x * ;\n    return t;\n}}\n")
            }
        }
    }

    /// `"lens"` entries for pointer parameters.
    pub fn lens(&self) -> Vec<(&'static str, u32)> {
        match self {
            Kernel::Dot { n } => vec![("x", *n), ("y", *n)],
            _ => Vec::new(),
        }
    }
}

impl Expr {
    /// Renders the function as C.
    pub fn source(&self) -> String {
        let v = |i: usize| {
            if i < self.n_in {
                format!("x{i}")
            } else {
                format!("{}{}", self.local, i - self.n_in)
            }
        };
        let params: Vec<String> = (0..self.n_in).map(|i| format!("double x{i}")).collect();
        let mut s = format!("double {}({}) {{\n", self.name, params.join(", "));
        for (k, op) in self.stmts.iter().enumerate() {
            let rhs = match *op {
                Op::Avg(a, b) => format!("({} + {}) * 0.5", v(a), v(b)),
                Op::MulQ(a, b) => format!("{} * {} * 0.25", v(a), v(b)),
                Op::Half(a, b) => format!("({} - {}) * 0.5", v(a), v(b)),
                Op::Mix(a, b) => format!("0.75 * {} + 0.25 * {}", v(a), v(b)),
                Op::SqH(a) => format!("{} * {} * 0.5", v(a), v(a)),
                Op::Div(a, b) => format!("{} / (4.5 + {} * {}) * 0.5", v(a), v(b), v(b)),
                Op::Poly(a) => {
                    let x = v(a);
                    format!("((0.25 * {x} - 0.5) * {x} + 0.75) * {x} + 1.0")
                }
            };
            let _ = writeln!(s, "    double {}{k} = {rhs};", self.local);
        }
        let _ = writeln!(s, "    return {}{};\n}}", self.local, self.stmts.len() - 1);
        s
    }

    /// A random expression of `len` statements over `n_in` inputs.
    pub fn random(
        rng: &mut Rng,
        name: String,
        local: &'static str,
        n_in: usize,
        len: usize,
    ) -> Expr {
        let mut stmts = Vec::with_capacity(len);
        for k in 0..len {
            let avail = n_in + k;
            // Bias operands toward recent values so chains get deep.
            let pick = |rng: &mut Rng| {
                if avail > 2 && rng.below(2) == 0 {
                    avail - 1 - rng.below(2.min(avail as u64)) as usize
                } else {
                    rng.below(avail as u64) as usize
                }
            };
            let (a, b) = (pick(rng), pick(rng));
            stmts.push(match rng.below(6) {
                0 => Op::Avg(a, b),
                1 => Op::MulQ(a, b),
                2 => Op::Half(a, b),
                3 => Op::Mix(a, b),
                4 => Op::SqH(a),
                _ => Op::Div(a, b),
            });
        }
        Expr { name, local, n_in, stmts }
    }
}

/// One distinct compile key: kernel, precision and opt level.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    /// The kernel.
    pub kernel: Kernel,
    /// Endpoint precision.
    pub prec: Prec,
    /// `-O` level (0..=2).
    pub opt: u8,
}

impl Unit {
    /// A short label for diagnostics, e.g. `f7 dd -O2`.
    pub fn label(&self) -> String {
        let name = match &self.kernel {
            Kernel::Henon { iters, .. } => format!("henon/{iters}"),
            Kernel::Newton { iters, .. } => format!("newton/{iters}"),
            Kernel::Gemm { n } => format!("gemm/{n}"),
            Kernel::Dot { n } => format!("dot/{n}"),
            Kernel::Expr(e) => e.name.clone(),
            Kernel::Broken(k) => format!("broken{k}"),
        };
        let prec = if self.prec == Prec::Dd { "dd" } else { "f64" };
        format!("{name} {prec} -O{}", self.opt)
    }
}

/// What a request asks of its unit.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// `compile`: compile and cache, report the program shape.
    Compile,
    /// `run` over a seeded batch.
    Run {
        /// Batch items.
        batch: u32,
        /// Server-side input seed.
        seed: u64,
    },
    /// `run` over explicit `[lo, hi]` input pairs.
    RunInputs(Vec<(f64, f64)>),
}

/// One distinct request of a pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Position in the pool (also the request `"id"`).
    pub id: usize,
    /// Compile key.
    pub unit: Unit,
    /// What to do with it.
    pub body: Body,
}

impl Request {
    /// Whether the correct answer is a structured error line.
    pub fn expects_error(&self) -> bool {
        matches!(self.unit.kernel, Kernel::Broken(_))
    }

    /// The JSON request line (no trailing newline).
    pub fn line(&self) -> String {
        let kind = if self.body == Body::Compile { "compile" } else { "run" };
        let mut s = format!(
            "{{\"id\":{},\"kind\":\"{kind}\",\"source\":{}",
            self.id,
            escape(&self.unit.kernel.source())
        );
        if self.unit.prec == Prec::Dd {
            s.push_str(",\"precision\":\"dd\"");
        }
        if self.unit.opt != 2 {
            let _ = write!(s, ",\"opt_level\":{}", self.unit.opt);
        }
        let lens = self.unit.kernel.lens();
        if !lens.is_empty() {
            let l: Vec<String> = lens.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
            let _ = write!(s, ",\"lens\":{{{}}}", l.join(","));
        }
        match &self.body {
            Body::Compile => {}
            Body::Run { batch, seed } => {
                let _ = write!(s, ",\"batch\":{batch},\"seed\":{seed},\"threads\":1");
            }
            Body::RunInputs(pairs) => {
                let p: Vec<String> = pairs.iter().map(|(l, h)| format!("[{l:?},{h:?}]")).collect();
                let _ = write!(s, ",\"inputs\":[{}],\"threads\":1", p.join(","));
            }
        }
        s.push('}');
        s
    }

    /// The `compile` request priming this request's unit.
    pub fn compile_line(&self) -> String {
        Request { id: self.id, unit: self.unit.clone(), body: Body::Compile }.line()
    }
}

/// JSON string escaping for the characters generated sources contain.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm cache, compute-bound `run` requests.
    ExecWarm,
    /// Warm cache, many tiny requests.
    ChattyWarm,
    /// Seeded source variants through a small cache.
    CompileCold,
    /// Compile-cold with the expression locals named `t0`, `t1`, ...:
    /// the same sources up to the names. IGen's `-O1`/`-O2` output
    /// names its own temporaries `t<N>` too and reuses a source local's
    /// name for another value, so about a quarter of these requests
    /// fail the oracle check. Kept as a one-command reproducer of that
    /// miscompile until the compiler is fixed.
    CompileColdTnames,
}

/// A generated workload: the distinct request pool, the weight of each
/// entry in a stratified block, and the compile requests that prime the
/// server before timing.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Distinct requests; `lines[i]` renders `pool[i]`.
    pub pool: Vec<Request>,
    /// Rendered request lines.
    pub lines: Vec<String>,
    /// Occurrences of each pool entry per stratified block.
    pub weights: Vec<u32>,
    /// Priming `compile` lines (the warm set), sent during set-up.
    pub warm: Vec<String>,
    /// Server `--cache-cap`.
    pub cache_cap: usize,
}

/// Fixed seed of the calibration pool: the width metric and the oracle
/// sample are computed on it, so they compare across runs and seeds.
pub const CALIBRATION_SEED: u64 = 0;

/// Compile-cold pool size and cache capacity (cache 8x smaller, so most
/// requests miss and the cache evicts steadily).
pub const COLD_POOL: usize = 64;
/// Compile-cold server cache capacity.
pub const COLD_CACHE_CAP: usize = 8;

impl Workload {
    /// Every workload the benchmark can run (`BENCHMARK.json` lists
    /// exec-warm and compile-cold; chatty-warm and compile-cold-tnames
    /// are runnable by name).
    pub const ALL: [Workload; 4] = [
        Workload::ExecWarm,
        Workload::ChattyWarm,
        Workload::CompileCold,
        Workload::CompileColdTnames,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecWarm => "exec-warm",
            Workload::ChattyWarm => "chatty-warm",
            Workload::CompileCold => "compile-cold",
            Workload::CompileColdTnames => "compile-cold-tnames",
        }
    }

    /// Whether the workload runs through a small, evicting cache.
    pub fn is_cold(self) -> bool {
        matches!(self, Workload::CompileCold | Workload::CompileColdTnames)
    }

    /// Parses a `--workload` name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Generates the workload for `seed`.
    pub fn plan(self, seed: u64) -> Plan {
        // Both cold workloads draw from one stream, so their sources
        // differ only in the local names.
        let tag = if self.is_cold() { Workload::CompileCold } else { self };
        let mut rng = Rng::new(seed.wrapping_mul(3).wrapping_add(tag as u64));
        let (entries, cache_cap, warm_units): (Vec<(Unit, Body, u32)>, usize, Option<usize>) =
            match self {
                Workload::ExecWarm => (exec_warm(&mut rng), 0, None),
                Workload::ChattyWarm => (chatty_warm(&mut rng), 0, None),
                Workload::CompileCold => {
                    (compile_cold(&mut rng, "v"), COLD_CACHE_CAP, Some(COLD_CACHE_CAP))
                }
                Workload::CompileColdTnames => {
                    (compile_cold(&mut rng, "t"), COLD_CACHE_CAP, Some(COLD_CACHE_CAP))
                }
            };
        let pool: Vec<Request> = entries
            .iter()
            .enumerate()
            .map(|(id, (unit, body, _))| Request { id, unit: unit.clone(), body: body.clone() })
            .collect();
        let weights = entries.iter().map(|e| e.2).collect();
        let lines = pool.iter().map(Request::line).collect();
        // The warm set: every distinct unit of a warm workload; for the
        // cold one, as many units as the cache holds, so the cache is
        // full (and evicting) from the first timed request.
        let mut warm: Vec<String> = Vec::new();
        let mut seen: Vec<&Unit> = Vec::new();
        for r in pool.iter().filter(|r| !r.expects_error()) {
            if warm_units.is_some_and(|n| warm.len() >= n) {
                break;
            }
            if !seen.contains(&&r.unit) {
                seen.push(&r.unit);
                warm.push(r.compile_line());
            }
        }
        Plan { pool, lines, weights, warm, cache_cap }
    }
}

fn unit(kernel: Kernel, prec: Prec) -> Unit {
    Unit { kernel, prec, opt: 2 }
}

/// Henon f64 at 48 iterations (batch 512), Henon dd (batch 128), Newton
/// dd (batch 128) and gemm n = 12 at batch 1, three input seeds each.
/// Weights put the median inside the Henon-f64 class rather than on a
/// class boundary, so p50 does not jump between classes.
fn exec_warm(rng: &mut Rng) -> Vec<(Unit, Body, u32)> {
    let kinds = [
        (unit(Kernel::Henon { iters: 48, shift: 0 }, Prec::F64), 512, 3),
        (unit(Kernel::Henon { iters: 48, shift: 0 }, Prec::Dd), 128, 1),
        (unit(Kernel::Newton { iters: 10, shift: 0 }, Prec::Dd), 128, 3),
        (unit(Kernel::Gemm { n: 12 }, Prec::F64), 1, 3),
    ];
    let mut out = Vec::new();
    for (u, batch, w) in kinds {
        for _ in 0..3 {
            out.push((u.clone(), Body::Run { batch, seed: rng.below(1 << 32) }, w));
        }
    }
    out
}

fn small_exprs() -> Vec<Expr> {
    let e = |name: &str, n_in, stmts| Expr { name: name.into(), local: "v", n_in, stmts };
    vec![
        e("sq", 1, vec![Op::SqH(0)]),
        e("horner", 1, vec![Op::Poly(0)]),
        e("lerp", 2, vec![Op::Mix(0, 1)]),
        e("ratio", 2, vec![Op::Div(0, 1)]),
    ]
}

/// Tiny requests: compile hits, seeded runs at batch 8, runs with
/// explicit inputs, and a dot n = 8 whose in/out arrays make the
/// responses comparatively large.
fn chatty_warm(rng: &mut Rng) -> Vec<(Unit, Body, u32)> {
    let mut out = Vec::new();
    let mut units: Vec<Unit> = Vec::new();
    for e in small_exprs() {
        for prec in [Prec::F64, Prec::Dd] {
            units.push(unit(Kernel::Expr(e.clone()), prec));
        }
    }
    units.push(unit(Kernel::Dot { n: 8 }, Prec::F64));
    for u in units {
        let n_in = match &u.kernel {
            Kernel::Expr(e) => e.n_in,
            Kernel::Dot { n } => 2 * *n as usize,
            _ => unreachable!("chatty units are small expressions and dot"),
        };
        out.push((u.clone(), Body::Compile, 2));
        for _ in 0..2 {
            out.push((u.clone(), Body::Run { batch: 8, seed: rng.below(1 << 32) }, 2));
        }
        let pairs = (0..n_in * 2)
            .map(|_| {
                let x = rng.range(-2.0, 2.0);
                (x, igen_round::next_up(x))
            })
            .collect();
        out.push((u, Body::RunInputs(pairs), 1));
    }
    out
}

/// `COLD_POOL` seeded source variants with fixed family counts and
/// fixed size lists (so every seed has the same cost profile and only
/// the sources differ), batch 8, opt levels 0..2, f64 and dd, and two
/// syntax errors. `local` prefixes the expression locals' names.
fn compile_cold(rng: &mut Rng, local: &'static str) -> Vec<(Unit, Body, u32)> {
    let mut kernels: Vec<(Kernel, Prec)> = Vec::new();
    let mut shifts: Vec<u32> = (0..32).collect();
    rng.shuffle(&mut shifts);
    for (i, iters) in [16, 20, 24, 28, 32, 36, 40, 48].into_iter().enumerate() {
        kernels.push((Kernel::Henon { iters, shift: shifts[i] }, Prec::F64));
    }
    for (i, iters) in [24, 48, 72, 96].into_iter().enumerate() {
        kernels.push((Kernel::Henon { iters, shift: shifts[8 + i] }, Prec::Dd));
    }
    for (i, iters) in [4, 6, 8, 10, 12, 16].into_iter().enumerate() {
        let prec = if i % 2 == 0 { Prec::F64 } else { Prec::Dd };
        kernels.push((Kernel::Newton { iters, shift: shifts[12 + i] }, prec));
    }
    for (i, n) in [3, 4, 5, 6, 7, 8].into_iter().enumerate() {
        let prec = if i % 3 == 2 { Prec::Dd } else { Prec::F64 };
        kernels.push((Kernel::Gemm { n }, prec));
    }
    let n_expr = COLD_POOL - kernels.len() - 2;
    for k in 0..n_expr {
        let len = 8 + 4 * (k % 9);
        let n_in = 1 + k % 3;
        let prec = if k % 2 == 0 { Prec::F64 } else { Prec::Dd };
        kernels.push((Kernel::Expr(Expr::random(rng, format!("f{k}"), local, n_in, len)), prec));
    }
    kernels.push((Kernel::Broken(rng.below(1000) as u32), Prec::F64));
    kernels.push((Kernel::Broken(1000 + rng.below(1000) as u32), Prec::F64));
    kernels
        .into_iter()
        .enumerate()
        .map(|(i, (kernel, prec))| {
            let opt = (i % 3) as u8;
            let body = Body::Run { batch: 8, seed: rng.below(1 << 32) };
            (Unit { kernel, prec, opt }, body, 1)
        })
        .collect()
}

/// The seeded, stratified request order: a sequence of blocks, each a
/// fresh shuffle of the weighted pool, so every window of the run sees
/// the workload's mix in its stated proportions.
#[derive(Debug, Clone)]
pub struct Sequence {
    rng: Rng,
    block: Vec<usize>,
    template: Vec<usize>,
    pos: usize,
}

impl Sequence {
    /// The sequence of `plan` for `seed`.
    pub fn new(plan: &Plan, seed: u64) -> Sequence {
        let template: Vec<usize> = plan
            .weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w as usize))
            .collect();
        Sequence { rng: Rng::new(seed ^ 0x5e9), block: Vec::new(), template, pos: 0 }
    }
}

impl Iterator for Sequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.block.len() {
            self.block.clone_from(&self.template);
            self.rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.block[self.pos - 1])
    }
}
