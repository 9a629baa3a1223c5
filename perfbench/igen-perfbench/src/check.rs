//! Correctness of served responses, checked outside the timed window.
//!
//! Each distinct request line is checked once, against an in-process
//! reference: `run` outputs bit for bit against
//! `igen_core::interp_reference[_dd]` on the same inputs, the enclosure
//! against the `igen-mpf` oracle on a fixed sample of items, `compile`
//! shapes against an in-process compile, and syntax errors for a
//! structured error line.

use crate::gen::{Body, Prec, Request, Unit};
use crate::oracle;
use igen_core::{interp_reference, interp_reference_dd, Config, OptLevel, Precision};
use igen_interp::Interp;
use igen_interval::{DdI, F64I};
use igen_mpf::{Mpf, Rm};
use igen_session::{compile_uncached, BindRequest, CompileRequest, CompiledUnit};
use igen_telemetry::json::{self, Json};

/// The [`CompileRequest`] the service builds for a request of `unit`
/// (the same field mapping as `igen-cli serve`).
pub fn compile_request(unit: &Unit) -> CompileRequest {
    let opt_level = match unit.opt {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        _ => OptLevel::O2,
    };
    let precision = match unit.prec {
        Prec::F64 => Precision::F64,
        Prec::Dd => Precision::Dd,
    };
    let lens = unit.kernel.lens().into_iter().map(|(n, l)| (n.to_string(), l as usize)).collect();
    CompileRequest {
        source: unit.kernel.source().into(),
        origin: "request".to_string(),
        fn_name: None,
        cfg: Config { opt_level, precision, ..Config::default() },
        bind: BindRequest::FromParams { int_args: Vec::new(), lens, size: 8 },
        peephole: true,
    }
}

/// An output interval's exact endpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Endpoints {
    /// `[lo, hi]`.
    F64(f64, f64),
    /// `[lo.hi, lo.lo, hi.hi, hi.lo]`.
    Dd([f64; 4]),
}

impl Endpoints {
    fn bits(&self) -> Vec<u64> {
        match self {
            Endpoints::F64(l, h) => vec![l.to_bits(), h.to_bits()],
            Endpoints::Dd(c) => c.iter().map(|x| x.to_bits()).collect(),
        }
    }

    fn mpf(&self) -> (Mpf, Mpf) {
        match *self {
            Endpoints::F64(l, h) => (Mpf::from_f64(l), Mpf::from_f64(h)),
            Endpoints::Dd([lh, ll, hh, hl]) => (oracle::dd(lh, ll), oracle::dd(hh, hl)),
        }
    }

    fn finite(&self) -> bool {
        match self {
            Endpoints::F64(l, h) => l.is_finite() && h.is_finite(),
            Endpoints::Dd(c) => c.iter().all(|x| x.is_finite()),
        }
    }

    /// `log2` of the relative width `(hi - lo) / max(|lo|, |hi|)`, with
    /// the subtraction done exactly; `None` for infinite or NaN
    /// endpoints and for zero width or magnitude.
    pub fn rel_width_log2(&self) -> Option<f64> {
        if !self.finite() {
            return None;
        }
        let (lo, hi) = self.mpf();
        let width = hi.sub(&lo, Rm::Up);
        let mag = if lo.abs().cmp_num(&hi.abs()) == Some(std::cmp::Ordering::Greater) {
            lo.abs()
        } else {
            hi.abs()
        };
        if width.is_zero() || mag.is_zero() {
            return None;
        }
        Some(width.div(&mag, Rm::Nearest).to_f64(Rm::Nearest).log2())
    }
}

/// What the server must answer for one distinct request.
#[derive(Debug, Clone)]
pub enum Expected {
    /// A structured error line.
    Error,
    /// A compile report.
    Compile {
        /// Function name.
        fn_name: String,
        /// Executed instruction count.
        insns: usize,
        /// Interval inputs per item.
        inputs: usize,
        /// Interval outputs per item.
        outputs: usize,
    },
    /// Run outputs, item-major.
    Run {
        /// Function name.
        fn_name: String,
        /// Items in the batch.
        items: usize,
        /// The reference interpreter's outputs.
        outputs: Vec<Endpoints>,
    },
}

/// The in-process reference for `req`: compiles its unit, rebuilds the
/// server's input batch and runs every item through the reference
/// interpreter. Also checks the oracle enclosure on a fixed sample
/// (the first and last item) of the reference outputs.
///
/// # Errors
///
/// A compile failure of a source that should compile, an interpreter
/// failure, or an oracle enclosure violation.
pub fn expected(req: &Request) -> Result<Expected, String> {
    if req.expects_error() {
        return Ok(Expected::Error);
    }
    let cu = compile_uncached(&compile_request(&req.unit), false)
        .map_err(|e| format!("reference compile failed: {e}"))?;
    let unit: &CompiledUnit = &cu;
    let (nin, nout) = (unit.n_inputs(), unit.n_outputs());
    let (batch, seed) = match &req.body {
        Body::Compile => {
            return Ok(Expected::Compile {
                fn_name: unit.fn_name.clone(),
                insns: unit.batch.program().insns.len(),
                inputs: nin,
                outputs: nout,
            })
        }
        Body::Run { batch, seed } => (*batch as usize, Some(*seed)),
        Body::RunInputs(p) => (p.len() / nin, None),
    };
    let mut interp = Interp::new(&unit.out.unit);
    let mut outputs = Vec::with_capacity(batch * nout);
    let mut points: Vec<Vec<Mpf>> = Vec::with_capacity(batch);
    match req.unit.prec {
        Prec::F64 => {
            let ivals: Vec<F64I> = match (&req.body, seed) {
                (Body::RunInputs(p), _) => p
                    .iter()
                    .map(|&(l, h)| F64I::new(l, h).expect("generated pairs are ordered"))
                    .collect(),
                (_, Some(s)) => igen_session::workload_f64(unit, batch, s).to_intervals(),
                _ => unreachable!("run bodies carry a seed or inputs"),
            };
            for item in ivals.chunks(nin) {
                let out = interp_reference(&mut interp, &unit.fn_name, &unit.bind, item)
                    .map_err(|e| format!("reference interpreter: {e}"))?;
                outputs.extend(out.iter().map(|v| Endpoints::F64(v.lo(), v.hi())));
                points.push(item.iter().map(|v| Mpf::from_f64(v.lo())).collect());
            }
        }
        Prec::Dd => {
            let ivals: Vec<DdI> = match (&req.body, seed) {
                (Body::RunInputs(p), _) => p
                    .iter()
                    .map(|&(l, h)| {
                        DdI::from_f64i(&F64I::new(l, h).expect("generated pairs are ordered"))
                    })
                    .collect(),
                (_, Some(s)) => igen_session::workload_dd(unit, batch, s).to_intervals(),
                _ => unreachable!("run bodies carry a seed or inputs"),
            };
            for item in ivals.chunks(nin) {
                let out = interp_reference_dd(&mut interp, &unit.fn_name, &unit.bind, item)
                    .map_err(|e| format!("reference interpreter: {e}"))?;
                outputs.extend(out.iter().map(|v| {
                    let (l, h) = (v.lo(), v.hi());
                    Endpoints::Dd([l.hi(), l.lo(), h.hi(), h.lo()])
                }));
                points.push(item.iter().map(|v| oracle::dd(v.lo().hi(), v.lo().lo())).collect());
            }
        }
    }
    for item in [0, batch - 1] {
        let want = oracle::eval(&req.unit.kernel, &points[item]);
        for (slot, o) in want.iter().enumerate() {
            let (lo, hi) = outputs[item * nout + slot].mpf();
            if !oracle::encloses(&lo, &hi, o) {
                return Err(format!(
                    "output {slot} of item {item} does not enclose the mpf oracle {:?}",
                    o.to_f64_pair()
                ));
            }
        }
    }
    Ok(Expected::Run { fn_name: unit.fn_name.clone(), items: batch, outputs })
}

fn num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::Str(s) => match s.as_str() {
            "NaN" => Some(f64::NAN),
            "inf" => Some(f64::INFINITY),
            "-inf" => Some(f64::NEG_INFINITY),
            _ => None,
        },
        _ => None,
    }
}

/// Decodes the `outputs` array of a run response.
fn decode_outputs(v: &Json, prec: Prec) -> Option<Vec<Endpoints>> {
    v.as_arr()?
        .iter()
        .map(|e| {
            let xs: Vec<f64> = e.as_arr()?.iter().map(num).collect::<Option<_>>()?;
            match (prec, xs.as_slice()) {
                (Prec::F64, [l, h]) => Some(Endpoints::F64(*l, *h)),
                (Prec::Dd, [a, b, c, d]) => Some(Endpoints::Dd([*a, *b, *c, *d])),
                _ => None,
            }
        })
        .collect()
}

/// Checks one response line against the expectation for `req`.
///
/// # Errors
///
/// Describes the first difference.
pub fn check(req: &Request, want: &Expected, response: &str) -> Result<(), String> {
    let v = json::parse(response).map_err(|e| format!("unparseable response: {e}"))?;
    if v.get("id").and_then(Json::as_u64) != Some(req.id as u64) {
        return Err("response id does not match the request".into());
    }
    let ok = v.get("ok").and_then(Json::as_bool);
    let field = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    let count = |k: &str| v.get(k).and_then(Json::as_u64).map(|n| n as usize);
    match want {
        Expected::Error => match (ok, v.get("error").and_then(Json::as_str)) {
            (Some(false), Some(_)) => Ok(()),
            _ => Err("expected a structured error line".into()),
        },
        _ if ok != Some(true) => Err(format!("request failed: {}", field("error"))),
        Expected::Compile { fn_name, insns, inputs, outputs } => {
            let got = (field("fn"), count("insns"), count("inputs"), count("outputs"));
            if got == (fn_name.clone(), Some(*insns), Some(*inputs), Some(*outputs)) {
                Ok(())
            } else {
                Err(format!("compile report {got:?} differs from the reference"))
            }
        }
        Expected::Run { fn_name, items, outputs } => {
            if field("fn") != *fn_name || count("items") != Some(*items) {
                return Err("run report names the wrong function or item count".into());
            }
            let got = v
                .get("outputs")
                .and_then(|o| decode_outputs(o, req.unit.prec))
                .ok_or("malformed outputs")?;
            if got.len() != outputs.len() {
                return Err(format!("{} outputs, reference has {}", got.len(), outputs.len()));
            }
            match got.iter().zip(outputs).position(|(g, w)| g.bits() != w.bits()) {
                None => Ok(()),
                Some(i) => Err(format!(
                    "output {i}: {:?} differs from the reference {:?}",
                    got[i], outputs[i]
                )),
            }
        }
    }
}

/// Mean `log2` relative width over the finite outputs of `runs`, and
/// the number of outputs it averages.
pub fn rel_width_log2_mean<'a>(runs: impl IntoIterator<Item = &'a Expected>) -> (f64, usize) {
    let (mut sum, mut n) = (0.0, 0usize);
    for e in runs {
        if let Expected::Run { outputs, .. } = e {
            for w in outputs.iter().filter_map(Endpoints::rel_width_log2) {
                sum += w;
                n += 1;
            }
        }
    }
    (sum / n.max(1) as f64, n)
}
