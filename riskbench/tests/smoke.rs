//! Smoke test: every workload at `--smoke` scale through the library
//! entry point, checked against what `BENCHMARK.json` declares.
//!
//! One `#[test]` on purpose: the scratch root points `TMPDIR` at itself
//! for the whole process, which parallel tests would race on.

use riskbench::json::Json;
use riskbench::layers::layer_metrics;
use riskbench::machine::ScratchRoot;
use riskbench::workloads::Kind;
use riskbench::{run, MetricSpec, RunConfig, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END};

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks {key:?}: {entry:?}"))
}

/// The declared metric list `key` must equal `specs`, in order.
fn assert_declared(manifest: &Json, key: &str, specs: &[MetricSpec], bounded: bool) {
    let Some(Json::Arr(declared)) = manifest.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    assert_eq!(declared.len(), specs.len(), "{key}: metric count");
    for (entry, spec) in declared.iter().zip(specs) {
        assert!(valid_name(spec.name), "{}", spec.name);
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(text(entry, "better"), spec.better.as_str(), "{}", spec.name);
        let bound = entry.get("bound").and_then(Json::as_f64);
        assert_eq!(bound, bounded.then_some(spec.bound), "{}", spec.name);
    }
}

/// A run's metrics must be exactly `specs`: each once, finite, in the
/// declared unit.
fn assert_emits(output: &riskbench::RunOutput, specs: &[MetricSpec]) {
    let line = Json::parse(&output.result_line()).expect("result line parses");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("result line is an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), specs.len(), "{}", output.kind.name());
    for spec in specs {
        let metric = metrics
            .get(spec.name)
            .unwrap_or_else(|| panic!("{} lacks {}", output.kind.name(), spec.name));
        let value = metric.get("value").and_then(Json::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{}", spec.name);
        assert_eq!(text(metric, "unit"), spec.unit, "{}", spec.name);
    }
}

#[test]
fn every_workload_passes_and_matches_benchmark_json() {
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = Json::parse(&std::fs::read_to_string(manifest_path).unwrap()).unwrap();
    let layers = layer_metrics();
    assert_declared(&manifest, "end_to_end", &END_TO_END, true);
    assert_declared(&manifest, "per_layer", &layers, false);
    assert_eq!(
        manifest.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let Some(Json::Arr(workloads)) = manifest.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    assert_eq!(workloads.len(), Kind::ALL.len());
    for (entry, kind) in workloads.iter().zip(Kind::ALL) {
        assert!(valid_name(kind.name()));
        assert_eq!(text(entry, "name"), kind.name());
        assert_eq!(text(entry, "why"), kind.why());
        assert!(kind.why().len() <= 200 && !kind.why().contains('\n'));
    }
    let mut all_names: Vec<&str> = END_TO_END
        .iter()
        .chain(&layers)
        .map(|m| m.name)
        .chain(Kind::ALL.map(Kind::name))
        .collect();
    all_names.sort_unstable();
    assert!(
        all_names.windows(2).all(|w| w[0] != w[1]),
        "a name is used twice"
    );

    let scratch = ScratchRoot::create().unwrap();
    for kind in Kind::ALL {
        // The default seed and one other must both pass every check.
        for seed in [DEFAULT_SEED, 7] {
            let cfg = RunConfig {
                kind,
                seed,
                seconds: 0.0,
                trace: false,
                smoke: true,
            };
            let output = run(&cfg, &scratch).unwrap();
            assert!(output.correct, "{}: {:?}", kind.name(), output.notes);
            assert_eq!(output.failed, 0);
            assert!(output.attempted >= 1);
            assert_emits(&output, &END_TO_END);
        }
        let traced = RunConfig {
            kind,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            trace: true,
            smoke: true,
        };
        let output = run(&traced, &scratch).unwrap();
        assert!(output.correct, "{}: {:?}", kind.name(), output.notes);
        assert_emits(&output, &layers);
        let dropped = output.metrics["obs.spans_dropped"].0;
        assert_eq!(dropped, 0.0, "{}", kind.name());
    }
}
