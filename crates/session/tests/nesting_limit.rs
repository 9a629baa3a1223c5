//! Deeply nested sources through the service: at the parser's nesting
//! limit a program compiles, self-check included, on a worker thread's
//! stack; one level past it (or 20,000 levels past it) the request gets a
//! structured parse error and the service keeps answering.

use igen_cfront::MAX_NESTING;
use igen_session::{Service, ServiceConfig};

fn compile_line(id: usize, source: &str, extra: &str) -> String {
    format!(r#"{{"id":{id},"kind":"compile","source":"{source}"{extra}}}"#)
}

/// `return (((x)));` with `n` parentheses: the statement and the
/// outermost operand take one nesting level each.
fn parens(n: usize) -> String {
    format!("double f(double x) {{ return {}x{}; }}", "(".repeat(n), ")".repeat(n))
}

/// `x + (x + (… x))`: a tree as deep as the nesting, so every pass after
/// the parser recurses that deep too.
fn sums(n: usize) -> String {
    format!("double f(double x) {{ return {}x{}; }}", "x + (".repeat(n), ")".repeat(n))
}

/// `n` nested blocks around the body.
fn blocks(n: usize) -> String {
    format!("double f(double x) {{ {}return x * x; {}}}", "{ ".repeat(n), "} ".repeat(n))
}

/// `if (k) if (k) … return`: nested statements with a branch each.
fn ifs(n: usize) -> String {
    format!("double f(double x) {{ int k = 1; {}return x * x; return x; }}", "if (k) ".repeat(n))
}

#[test]
fn at_the_limit_compiles_and_past_it_is_a_structured_error() {
    let svc = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let at_limit = [
        parens(MAX_NESTING - 2),
        sums(MAX_NESTING - 2),
        blocks(MAX_NESTING - 2),
        ifs(MAX_NESTING - 2),
    ];
    for (i, src) in at_limit.iter().enumerate() {
        for extra in ["", r#","precision":"dd""#, r#","opt_level":0"#] {
            let resp = svc.submit(&compile_line(i, src, extra)).wait();
            assert!(resp.starts_with(&format!(r#"{{"id":{i},"ok":true"#)), "{extra}: {resp}");
        }
    }
    let past_limit = [
        parens(MAX_NESTING - 1),
        sums(MAX_NESTING - 1),
        blocks(MAX_NESTING - 1),
        ifs(MAX_NESTING - 1),
        parens(20_000),
    ];
    let too_deep = format!("nesting deeper than {MAX_NESTING} levels");
    for (i, src) in past_limit.iter().enumerate() {
        let resp = svc.submit(&compile_line(i, src, "")).wait();
        assert!(
            resp.starts_with(&format!(
                r#"{{"id":{i},"ok":false,"error":"request: parse error at 1:"#
            )),
            "{resp}"
        );
        assert!(resp.ends_with(&format!(r#"{too_deep}"}}"#)), "{resp}");
        let pong = svc.submit(r#"{"id":"after","kind":"ping"}"#).wait();
        assert_eq!(pong, r#"{"id":"after","ok":true,"kind":"pong"}"#);
    }
}
