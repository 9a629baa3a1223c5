//! Tests of the benchmark's own machinery: the tail-percentile rule,
//! span self time, failure accounting, and generator determinism.

use igen_perfbench::check;
use igen_perfbench::client::{self, Conn, Feed};
use igen_perfbench::e2e::{check_logs, ExpectCache};
use igen_perfbench::gen::{Body, Kernel, Sequence, Workload};
use igen_perfbench::stats;
use igen_perfbench::trace::{self, Span};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::time::{Duration, Instant};

#[test]
fn p99_needs_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = stats::tail(&xs, 99.0).unwrap();
    assert_eq!((t.percentile, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));

    // One sample fewer: p99 would leave 9 beyond, so the rule falls
    // back to the highest percentile that keeps ten.
    let xs: Vec<f64> = (1..=999).map(f64::from).collect();
    let t = stats::tail(&xs, 99.0).unwrap();
    assert_eq!((t.value, t.beyond), (989.0, 10));
    assert!(t.percentile < 99.0);

    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    let t = stats::tail(&xs, 99.0).unwrap();
    assert_eq!((t.value, t.beyond), (90.0, 10));

    assert!(stats::tail(&[1.0; 10], 99.0).is_none());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&xs), (2.75, 8.25));
    // statistics.quantiles([5, 1, 9], n=4) == [1.0, 5.0, 9.0]
    assert_eq!(stats::quartiles(&[5.0, 1.0, 9.0]), (1.0, 9.0));
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span { name, start, end, parent, req: 1 }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = vec![
        span("request", 0, 100, None),
        // Two children overlapping on [20, 30), one sticking out past
        // the parent, one disjoint: covered = [10, 40) + [60, 100).
        span("a", 10, 30, Some(0)),
        span("b", 20, 40, Some(0)),
        span("c", 60, 120, Some(0)),
        // A grandchild does not count against the root directly.
        span("d", 12, 14, Some(1)),
    ];
    let selfs = trace::self_times(&spans);
    assert_eq!(selfs, vec![30, 18, 20, 60, 2]);
    assert!((trace::unattributed_share(&spans, "request") - 0.3).abs() < 1e-12);
    // Roots with another name are not counted.
    assert_eq!(trace::unattributed_share(&spans, "other"), 0.0);
}

#[test]
fn same_seed_gives_identical_requests() {
    for w in Workload::ALL {
        let render = |seed: u64| {
            let plan = w.plan(seed);
            let seq: Vec<usize> = Sequence::new(&plan, seed).take(2000).collect();
            let mut bytes = plan.warm.join("\n");
            for i in seq {
                bytes.push_str(&plan.lines[i]);
                bytes.push('\n');
            }
            bytes
        };
        assert_eq!(render(42), render(42), "{}", w.name());
        assert_ne!(render(42), render(43), "{}", w.name());
    }
}

#[test]
fn different_seeds_give_different_cold_sources() {
    let sources = |seed: u64| -> Vec<String> {
        Workload::CompileCold.plan(seed).pool.iter().map(|r| r.unit.kernel.source()).collect()
    };
    let (a, b) = (sources(1), sources(2));
    assert_eq!(a.len(), b.len());
    // Every random expression differs, and so does the pool as a set.
    let plan = Workload::CompileCold.plan(1);
    for (k, r) in plan.pool.iter().enumerate() {
        if matches!(r.unit.kernel, Kernel::Expr(_)) {
            assert_ne!(a[k], b[k], "expression {k} repeats across seeds");
        }
    }
    assert!(a.iter().filter(|s| b.contains(s)).count() < a.len() / 4);
    // Within one pool every source is distinct, so the cache really
    // holds a pool several times its capacity.
    let mut uniq = a.clone();
    uniq.sort();
    uniq.dedup();
    assert_eq!(uniq.len(), a.len());
}

#[test]
fn tnames_variant_differs_only_in_local_names() {
    let sources = |w: Workload| -> Vec<String> {
        w.plan(5).pool.iter().map(|r| r.unit.kernel.source()).collect()
    };
    let (v, t) = (sources(Workload::CompileCold), sources(Workload::CompileColdTnames));
    assert_eq!(v.len(), t.len());
    let mut renamed = 0;
    for (a, b) in v.iter().zip(&t) {
        let mut back = a.clone();
        for k in (0..64).rev() {
            back = back.replace(&format!("v{k}"), &format!("t{k}"));
        }
        assert_eq!(&back, b);
        renamed += usize::from(a != b);
    }
    assert!(renamed > v.len() / 2, "only {renamed} sources carry expression locals");
}

/// The served reply for `line`, from an in-process service.
fn serve(line: &str) -> String {
    let svc = igen_session::Service::start(igen_session::ServiceConfig::default());
    svc.submit(line).wait()
}

#[test]
fn wrong_bits_count_as_failed() {
    let plan = Workload::ChattyWarm.plan(1);
    let i = plan.pool.iter().position(|r| matches!(r.body, Body::Run { .. })).unwrap();
    let good = serve(&plan.lines[i]);
    let want = check::expected(&plan.pool[i]).unwrap();
    check::check(&plan.pool[i], &want, &good).unwrap();

    // Flip the lowest bit of the first upper endpoint.
    let at = good.find("\"outputs\":[[").unwrap() + "\"outputs\":[[".len();
    let comma = at + good[at..].find(',').unwrap();
    let end = comma + 1 + good[comma + 1..].find(']').unwrap();
    let hi: f64 = good[comma + 1..end].parse().unwrap();
    let bad =
        format!("{}{:?}{}", &good[..comma + 1], f64::from_bits(hi.to_bits() ^ 1), &good[end..]);
    assert!(check::check(&plan.pool[i], &want, &bad).is_err());

    // Every reply that matched the bad first reply counts as failed.
    let mut log = client::ConnLog::default();
    log.memo.insert(i, bad);
    log.hits.insert(i, 3);
    let (failed, errors) = check_logs(&plan, &[log], &mut ExpectCache::default());
    assert_eq!(failed, 3);
    assert_eq!(errors.len(), 1);
}

#[test]
fn a_syntax_error_must_come_back_structured() {
    let plan = Workload::CompileCold.plan(1);
    let i = plan.pool.iter().position(|r| r.expects_error()).unwrap();
    let want = check::expected(&plan.pool[i]).unwrap();
    let reply = serve(&plan.lines[i]);
    check::check(&plan.pool[i], &want, &reply).unwrap();
    let wrong = format!("{{\"id\":{i},\"ok\":true,\"kind\":\"compile\"}}");
    assert!(check::check(&plan.pool[i], &want, &wrong).is_err());
}

#[test]
fn a_dropped_reply_counts_as_failed() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("drop-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    // Answers the first request, then closes on the second.
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        w.write_all(b"{\"id\":0,\"ok\":true}\n").unwrap();
        line.clear();
        r.read_line(&mut line).unwrap();
    });
    let mut conn = Conn::new(std::os::unix::net::UnixStream::connect(&path).unwrap()).unwrap();
    let lines = vec!["{\"kind\":\"ping\"}".to_string()];
    let feed = Feed::new(std::iter::repeat(0), Instant::now() + Duration::from_secs(30));
    let log = client::drive(&mut conn, &lines, &feed);
    server.join().unwrap();
    assert_eq!((log.attempted, log.failed, log.latencies_ns.len()), (2, 1, 1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn decimal_literals_are_read_as_rationals() {
    use igen_mpf::{Mpf, Rm};
    let tenth = igen_perfbench::oracle::decimal("0.1");
    // 0.1 is not a double: the enclosure excludes the nearest double
    // and is tight around 1/10.
    assert!(!tenth.contains_f64(0.1));
    let ten = Mpf::from_f64(10.0);
    assert_eq!(tenth.lo().mul(&ten, Rm::Down).to_f64(Rm::Nearest), 1.0);
    let big = igen_perfbench::oracle::decimal("2.5e3");
    assert!(big.contains_f64(2500.0));
}
