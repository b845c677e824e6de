//! The benchmark's own tests: the metric names it prints match
//! `BENCHMARK.json`, input generation is deterministic, and every check
//! rejects a wrong result.

use greednet_perfbench::checks::{check_largen, check_serve, digest, DesReference};
use greednet_perfbench::inputs::{largen_spec, DesInputs, DesProfile, ServeClass, ServeInputs};
use greednet_perfbench::report::{result_json, Metric, RunResult};
use greednet_perfbench::{per_layer_metrics, Arm, Workload, E2E_METRICS};
use greednet_serve::ops::LargenSpec;
use greednet_serve::{Request, ServeOptions, Service};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The `"key": "value"` strings of `key`, in order, inside `section`'s
/// array of `BENCHMARK.json`.
fn section_values(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split(&format!("\"{key}\":"))
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().trim_start_matches('"');
            rest[..rest.find('"').expect("string value")].to_string()
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let json = benchmark_json();
    let names = section_values(&json, "end_to_end", "name");
    let units = section_values(&json, "end_to_end", "unit");
    let e2e: Vec<(String, String)> = names.into_iter().zip(units).collect();
    let ours: Vec<(String, String)> = E2E_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, ours);

    let names = section_values(&json, "per_layer", "name");
    let units = section_values(&json, "per_layer", "unit");
    let layers: Vec<(String, String)> = names.into_iter().zip(units).collect();
    let ours: Vec<(String, String)> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(layers, ours);

    let workloads = section_values(&json, "workloads", "name");
    assert_eq!(workloads, Workload::ALL.map(Workload::name).to_vec());
}

#[test]
fn result_line_holds_exactly_the_expected_metrics() {
    let expected: Vec<(String, &str)> = E2E_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    let metrics: Vec<Metric> = expected
        .iter()
        .map(|(n, u)| Metric {
            name: n.clone(),
            unit: u,
            value: 1.25,
        })
        .collect();
    let mut result = RunResult {
        attempted: 3,
        failed: 0,
        metrics,
    };
    let line = result_json(&result, &expected).expect("complete metric set");
    assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
    assert!(line.contains(r#""setup_s": {"value": 1.25, "unit": "s"}"#));
    result.metrics.pop();
    assert!(
        result_json(&result, &expected).is_err(),
        "a missing metric is a defect"
    );
}

#[test]
fn input_generation_is_deterministic() {
    for profile in [DesProfile::Backlog, DesProfile::ManyUsers] {
        let (a, b) = (DesInputs::new(profile, 7), DesInputs::new(profile, 7));
        assert_eq!(a, b);
        for arm in Arm::ALL {
            assert_eq!(a.spec(arm, 3), b.spec(arm, 3));
        }
        assert_ne!(
            a.spec(Arm::Fifo, 3).seed,
            DesInputs::new(profile, 8).spec(Arm::Fifo, 3).seed
        );
        assert_ne!(a.spec(Arm::Fifo, 3).seed, a.spec(Arm::Fifo, 4).seed);
    }
    let many = DesInputs::new(DesProfile::ManyUsers, 7);
    assert_eq!(many.rates.len(), 1000);
    assert!((many.rates.iter().sum::<f64>() - 0.8).abs() < 1e-12);
    assert_ne!(many.rates, DesInputs::new(DesProfile::ManyUsers, 8).rates);

    assert_eq!(largen_spec(Arm::Fs, 7, 2, 2), largen_spec(Arm::Fs, 7, 2, 2));
    assert_ne!(
        largen_spec(Arm::Fs, 7, 2, 2).seed,
        largen_spec(Arm::Fs, 8, 2, 2).seed
    );

    let (a, b) = (ServeInputs::new(7), ServeInputs::new(7));
    let stream = |s: &ServeInputs| {
        (0..500)
            .map(|i| s.request(i % 2, i as u64))
            .collect::<Vec<_>>()
    };
    let lines = stream(&a);
    assert_eq!(lines, stream(&b));
    assert_ne!(lines, stream(&ServeInputs::new(8)));
    let hot = lines
        .iter()
        .filter(|r| matches!(r.class, ServeClass::Hot(_)))
        .count();
    assert!(
        (200..300).contains(&hot),
        "about half the requests are hot: {hot}"
    );
    for r in &lines {
        let parsed = Request::parse_line(&r.line).expect("every generated line parses");
        assert!(parsed.kind.cache_key().is_some(), "{}", r.line);
    }
}

#[test]
fn des_checks_pass_the_right_discipline_and_reject_the_wrong_one() {
    let inputs = DesInputs::new(DesProfile::Backlog, 1);
    let reference = DesReference::new(&inputs);
    let fifo = inputs.spec(Arm::Fifo, 0).outcome().expect("fifo runs");
    let fs = inputs.spec(Arm::Fs, 0).outcome().expect("fs runs");
    let sfq = inputs.spec(Arm::Sfq, 0).outcome().expect("sfq runs");
    assert_eq!(reference.check(Arm::Fifo, &fifo), Ok(()));
    assert_eq!(reference.check(Arm::Fs, &fs), Ok(()));
    assert_eq!(reference.check(Arm::Sfq, &sfq), Ok(()));
    assert!(
        reference.check(Arm::Fs, &fifo).is_err(),
        "FIFO checked as FS table"
    );
    assert!(
        reference.check(Arm::Fifo, &fs).is_err(),
        "FS table checked as FIFO"
    );
    assert!(
        reference.check(Arm::Sfq, &fifo).is_err(),
        "FIFO checked as SFQ"
    );

    let inputs = DesInputs::new(DesProfile::ManyUsers, 1);
    let reference = DesReference::new(&inputs);
    let fifo = inputs.spec(Arm::Fifo, 0).outcome().expect("fifo runs");
    let fs = inputs.spec(Arm::Fs, 0).outcome().expect("fs runs");
    assert_eq!(reference.check(Arm::Fifo, &fifo), Ok(()));
    assert_eq!(reference.check(Arm::Fs, &fs), Ok(()));
    assert!(
        reference.check(Arm::Fs, &fifo).is_err(),
        "FIFO checked as FS table"
    );
    assert!(
        reference.check(Arm::Fifo, &fs).is_err(),
        "FS table checked as FIFO"
    );
}

#[test]
fn largen_check_rejects_another_disciplines_solution() {
    let small = |arm: Arm| LargenSpec {
        n: 1000,
        ..largen_spec(arm, 1, 0, 1)
    };
    let continuum = |arm: Arm| {
        LargenSpec { n: 0, ..small(arm) }
            .solve()
            .expect("continuum solves")
            .load
    };
    let fs = small(Arm::Fs).solve().expect("fs solves");
    let fifo = small(Arm::Fifo).solve().expect("fifo solves");
    let check = |arm: Arm, o: &greednet_serve::ops::LargenOutcome, converged: bool| {
        check_largen(arm, o.n, o.load, converged, continuum(arm))
    };
    assert_eq!(check(Arm::Fs, &fs, fs.converged), Ok(()));
    assert_eq!(check(Arm::Fifo, &fifo, fifo.converged), Ok(()));
    assert!(
        check(Arm::Fs, &fifo, fifo.converged).is_err(),
        "FIFO checked as FS"
    );
    assert!(check(Arm::Fs, &fs, false).is_err(), "an unconverged solve");
}

#[test]
fn serve_check_rejects_a_tampered_payload() {
    let request = ServeInputs::new(3).request(0, 0);
    let kind = Request::parse_line(&request.line).expect("parses").kind;
    let (payload, _) = Service::new(ServeOptions::default())
        .execute(&kind)
        .expect("computes");
    let (again, _) = Service::new(ServeOptions::default())
        .execute(&kind)
        .expect("computes");
    assert_eq!(check_serve(&payload, digest(again.as_bytes())), Ok(()));
    let tampered = payload.replacen('1', "2", 1);
    assert_ne!(tampered, payload);
    assert!(check_serve(&payload, digest(tampered.as_bytes())).is_err());
}
