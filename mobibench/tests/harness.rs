//! The harness's own checks: its statistics, its workloads, its wire
//! formats, and its agreement with `BENCHMARK.json`.

use mobibench::op::{parse_seed, OpOutput, OpRequest, SimOutput};
use mobibench::output::{ResultLine, END_TO_END, PER_LAYER};
use mobibench::stats::{nearest_rank, quantile, tail, Summary, MIN_BEYOND};
use mobibench::workload::{metrics_digest, Workload, DEFAULT_SEED, HELD_OUT_SEED};
use std::collections::BTreeMap;

#[test]
fn quantiles_follow_the_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.25), 2.75);
    assert_eq!(quantile(&v, 0.5), 5.5);
    assert_eq!(quantile(&v, 0.75), 8.25);
    // Odd count: the median is the middle sample.
    assert_eq!(quantile(&[1.0, 2.0, 9.0], 0.5), 2.0);
    // Positions outside the sample range clamp to its ends.
    assert_eq!(quantile(&[4.0, 8.0], 0.1), 4.0);
    assert_eq!(quantile(&[4.0, 8.0], 0.9), 8.0);
    assert_eq!(quantile(&[7.0], 0.75), 7.0);
}

#[test]
fn summary_reports_order_statistics_in_any_input_order() {
    let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
    assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5), "{s:?}");
    assert_eq!((s.p25, s.p75), (1.5, 4.5));
}

#[test]
fn nearest_rank_returns_a_sample() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 0.5), 50.0);
    assert_eq!(nearest_rank(&v, 0.99), 99.0);
    assert_eq!(nearest_rank(&v, 1.0), 100.0);
    assert_eq!(nearest_rank(&v, 0.0), 1.0);
}

/// The tail is the highest ladder percentile with at least ten samples
/// strictly beyond it.
#[test]
fn tail_keeps_ten_samples_beyond() {
    let sorted = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    for (n, p) in [
        (10_000, 0.999), // rank 9990 leaves exactly 10
        (9_999, 0.99),   // p99.9 would leave 9
        (1_000, 0.99),   // rank 990 leaves exactly 10
        (1_009, 0.99),
        (999, 0.9),
        (100, 0.9), // rank 90 leaves exactly 10
        (99, 0.5),  // p90 would leave 9
        (20, 0.5),
    ] {
        let t = tail(&sorted(n));
        assert_eq!((t.p, t.n), (p, n), "n = {n}");
        let beyond = sorted(n).iter().filter(|&&x| x > t.value).count();
        assert!(
            beyond >= MIN_BEYOND,
            "n = {n}: only {beyond} beyond p{}",
            p * 100.0
        );
    }
    // Too few samples for any tail: fall back to the median.
    let t = tail(&sorted(5));
    assert_eq!((t.p, t.value), (0.5, 3.0));
}

#[test]
fn every_workload_validates_at_every_seed_and_thread_count() {
    for w in Workload::ALL {
        assert_eq!(Workload::from_name(w.name()), Some(w));
        for seed in [DEFAULT_SEED, HELD_OUT_SEED, 1] {
            for threads in [1, 2] {
                let sims = w.sims(seed, threads);
                assert_eq!(sims.len(), w.pinned_digests().len(), "{}", w.name());
                let mut labels: Vec<&str> = sims.iter().map(|s| s.label.as_str()).collect();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), sims.len(), "{} labels repeat", w.name());
                for s in &sims {
                    assert_eq!((s.cfg.seed, s.cfg.threads), (seed, threads));
                    s.cfg
                        .validate()
                        .unwrap_or_else(|e| panic!("{} {}: {e}", w.name(), s.label));
                }
            }
        }
    }
}

/// Engine threads trade wall time only: at 1/50 of each horizon, every
/// simulation of every workload has the same digest at one and two
/// threads.
#[test]
fn digests_do_not_depend_on_threads() {
    for w in Workload::ALL {
        let digests_at = |threads: u32| -> Vec<u64> {
            w.sims(HELD_OUT_SEED, threads)
                .into_iter()
                .map(|mut s| {
                    s.cfg.sim_time_secs /= 50.0;
                    for t in &mut s.cfg.faults.crashes {
                        *t /= 50.0;
                    }
                    let r = mobicache::run(&s.cfg, mobicache::RunOptions::default())
                        .expect("workload configs validate");
                    metrics_digest(&r.metrics)
                })
                .collect()
        };
        assert_eq!(digests_at(1), digests_at(2), "{}", w.name());
    }
}

#[test]
fn seeds_parse_in_decimal_and_hex() {
    assert_eq!(parse_seed("0x1997AD07"), Ok(DEFAULT_SEED));
    assert_eq!(parse_seed("0x5EED_0011"), Ok(HELD_OUT_SEED));
    assert_eq!(parse_seed("42"), Ok(42));
    assert!(parse_seed("-1").is_err());
    assert!(parse_seed("0xzz").is_err());
}

#[test]
fn op_requests_round_trip_through_arguments() {
    let req = OpRequest {
        workload: Workload::MobileFaults,
        seed: HELD_OUT_SEED,
        threads: 2,
        sim: Some(1),
        oracle: true,
        traced: true,
        trace_out: Some("target/mobibench/trace-mobile-faults.jsonl".into()),
    };
    assert_eq!(OpRequest::from_args(&req.to_args()), Ok(req));
    assert!(OpRequest::from_args(&["--op".into(), "nope".into()]).is_err());
    assert!(OpRequest::from_args(&["--seed".into()]).is_err());
}

#[test]
fn op_output_round_trips_through_its_line_format() {
    let out = OpOutput {
        setup_s: 0.006_309_133,
        run_s: 1.234_567_890_123,
        events: 1_010_995,
        peak_rss_kib: 4_964,
        kernel_s: 0.005_231_907,
        sims: vec![SimOutput {
            label: "aaw/hotcold".into(),
            digest: 0x2db9_8b12_1e6b_ebfa,
            queries_answered: 18_933,
            uplink_validity_bits_per_query: 8.530_123,
        }],
        layers: vec![("core.tick_ms.p50".into(), 0.014_481_5)],
        notes: vec!["core.tick_ms.tail is p99.9 of n=80000 ticks".into()],
    };
    assert_eq!(OpOutput::parse(&out.render()), Ok(out));
    assert!(OpOutput::parse("run_s fast\n").is_err());
    assert!(
        OpOutput::parse("setup_s 1\n").is_err(),
        "an op names its simulations"
    );
}

/// A JSON value, parsed by the minimal reader below.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }
}

/// Reads one JSON document (no escapes beyond `\"` and `\\`, which is
/// all the files checked here use).
fn parse_json(text: &str) -> Json {
    fn ws(s: &[u8], i: &mut usize) {
        while *i < s.len() && s[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(s: &[u8], i: &mut usize) -> Json {
        ws(s, i);
        match s[*i] {
            b'{' => {
                *i += 1;
                let mut m = BTreeMap::new();
                loop {
                    ws(s, i);
                    if s[*i] == b'}' {
                        *i += 1;
                        return Json::Obj(m);
                    }
                    let Json::Str(k) = value(s, i) else {
                        panic!("object key at {i}")
                    };
                    ws(s, i);
                    assert_eq!(s[*i], b':');
                    *i += 1;
                    assert!(m.insert(k, value(s, i)).is_none(), "duplicate key");
                    ws(s, i);
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'[' => {
                *i += 1;
                let mut v = Vec::new();
                loop {
                    ws(s, i);
                    if s[*i] == b']' {
                        *i += 1;
                        return Json::Arr(v);
                    }
                    v.push(value(s, i));
                    ws(s, i);
                    if s[*i] == b',' {
                        *i += 1;
                    }
                }
            }
            b'"' => {
                *i += 1;
                let mut out = String::new();
                while s[*i] != b'"' {
                    if s[*i] == b'\\' {
                        *i += 1;
                    }
                    out.push(s[*i] as char);
                    *i += 1;
                }
                *i += 1;
                Json::Str(out)
            }
            b't' | b'f' | b'n' => {
                let word = [("true", Json::Bool(true)), ("false", Json::Bool(false))]
                    .into_iter()
                    .find(|(w, _)| s[*i..].starts_with(w.as_bytes()));
                match word {
                    Some((w, v)) => {
                        *i += w.len();
                        v
                    }
                    None => {
                        assert!(s[*i..].starts_with(b"null"));
                        *i += 4;
                        Json::Null
                    }
                }
            }
            _ => {
                let start = *i;
                while *i < s.len() && b"+-.eE0123456789".contains(&s[*i]) {
                    *i += 1;
                }
                let n = std::str::from_utf8(&s[start..*i]).expect("ascii");
                Json::Num(n.parse().unwrap_or_else(|_| panic!("number {n:?}")))
            }
        }
    }
    let s = text.as_bytes();
    let mut i = 0;
    let v = value(s, &mut i);
    ws(s, &mut i);
    assert_eq!(i, s.len(), "trailing input");
    v
}

/// The result line parses back to exactly the metrics, units and values
/// it was given, under the four keys the contract fixes.
#[test]
fn result_line_parses_back_to_the_same_metrics_and_units() {
    for (specs, values) in [(&END_TO_END[..], 1.5), (&PER_LAYER[..], 0.0)] {
        let line = ResultLine {
            correct: true,
            attempted: 11,
            failed: 0,
            metrics: specs
                .iter()
                .enumerate()
                .map(|(i, s)| (s.name.to_string(), s.unit, values + i as f64 / 3.0))
                .collect(),
        };
        let json = parse_json(&line.to_json());
        let Json::Obj(top) = &json else { panic!() };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(json.get("correct"), &Json::Bool(true));
        assert_eq!(json.get("attempted"), &Json::Num(11.0));
        let Json::Obj(metrics) = json.get("metrics") else {
            panic!()
        };
        assert_eq!(metrics.len(), specs.len());
        for (i, s) in specs.iter().enumerate() {
            let m = &metrics[s.name];
            assert_eq!(m.get("unit").str(), s.unit);
            assert_eq!(m.get("value"), &Json::Num(values + i as f64 / 3.0));
        }
    }
}

/// `BENCHMARK.json` and the harness name the same workloads, metrics,
/// units, directions and bounds.
#[test]
fn benchmark_json_matches_the_harness() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = parse_json(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
    let Json::Arr(workloads) = json.get("workloads") else {
        panic!()
    };
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(entry.get("name").str(), w.name());
        assert_eq!(entry.get("why").str(), w.why());
    }
    for (key, specs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let Json::Arr(listed) = json.get(key) else {
            panic!()
        };
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (entry, s) in listed.iter().zip(specs) {
            assert_eq!(entry.get("name").str(), s.name);
            assert_eq!(entry.get("unit").str(), s.unit);
            assert_eq!(entry.get("better").str(), s.better.as_str());
            if let Some(bound) = s.bound {
                assert_eq!(entry.get("bound"), &Json::Num(bound));
            }
        }
    }
}

/// A bad command line is refused before any op runs, with no result
/// line on stdout.
#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--reps", "0"],
        &["--seconds", "-1"],
        &["--seed"],
        &["--frobnicate"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mobibench"))
            .args(args)
            .output()
            .expect("run mobibench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
