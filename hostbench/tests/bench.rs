//! The benchmark's own tests: the metric catalog agrees with
//! `BENCHMARK.json`, every workload runs correctly at a tiny size, and
//! the deterministic counters repeat exactly for a fixed seed.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use hostbench::report::{per_layer, END_TO_END, STEP_KINDS};
use hostbench::run::timed;
use hostbench::trace::traced;
use hostbench::workload::{Spec, WORKLOAD_NAMES};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark")
}

/// The entries of one top-level list of `BENCHMARK.json`, as the text
/// of each `{...}` object.
fn section(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split('{')
        .skip(1)
        .map(|o| o[..o.find('}').expect("object end")].to_string())
        .collect()
}

fn field<'a>(obj: &'a str, key: &str) -> &'a str {
    let at = obj
        .find(&format!("\"{key}\": \""))
        .unwrap_or_else(|| panic!("no {key} in {obj}"));
    let rest = &obj[at + key.len() + 5..];
    &rest[..rest.find('"').expect("string end")]
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn catalog_matches_benchmark_json() {
    let json = benchmark_json();
    let e2e: Vec<(String, String)> = section(&json, "end_to_end")
        .iter()
        .map(|o| (field(o, "name").to_string(), field(o, "unit").to_string()))
        .collect();
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, want);
    let layers: Vec<(String, String)> = section(&json, "per_layer")
        .iter()
        .map(|o| (field(o, "name").to_string(), field(o, "unit").to_string()))
        .collect();
    let want: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(layers, want);
    let workloads: Vec<String> = section(&json, "workloads")
        .iter()
        .map(|o| field(o, "name").to_string())
        .collect();
    assert_eq!(workloads, WORKLOAD_NAMES);
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(per_layer().into_iter().map(|(n, _)| n));
    names.extend(WORKLOAD_NAMES.iter().map(|n| n.to_string()));
    for n in &names {
        assert!(valid_name(n), "bad name {n}");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "names must be unique");
    for (_, u) in END_TO_END {
        assert!(valid_unit(u), "bad unit {u}");
    }
    for (_, u) in per_layer() {
        assert!(valid_unit(u), "bad unit {u}");
    }
    assert!(per_layer().len() <= 128);
    assert_eq!(STEP_KINDS.len(), 14);
}

#[test]
fn every_workload_runs_correctly_at_tiny_size() {
    for name in WORKLOAD_NAMES {
        let spec = Spec::tiny(name).expect("known workload");
        let t = timed(&spec, 7, 0.3).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(t.correct(), "{name}: {t:?}");
        assert_eq!(t.error_rate, 0.0, "{name}");
        assert!(
            t.throughput_rps > 0.0 && t.latency_p99_us >= t.latency_p50_us,
            "{name}: {t:?}"
        );
        assert!(
            t.setup_s > 0.0 && t.sim_rps > 0.0 && t.peak_rss_mib > 0.0,
            "{name}: {t:?}"
        );
        let tr = traced(&spec, 7, 0.3).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(tr.correct, "{name}: traced run incorrect");
        for (metric, _) in per_layer() {
            let v = tr.metrics.iter().find(|(n, _)| *n == metric);
            assert!(
                v.is_some_and(|(_, v)| v.is_finite()),
                "{name}: {metric} missing"
            );
        }
        let get = |m: &str| {
            tr.metrics
                .iter()
                .find(|(n, _)| n == m)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(get("event_loop.blocked_io"), 0.0, "{name}");
        assert!(get("step.Open.count") > 0.0, "{name}");
    }
}

#[test]
fn deterministic_counters_repeat_for_a_seed() {
    let counters = |m: &[(String, f64)]| -> Vec<(String, f64)> {
        m.iter()
            .filter(|(n, _)| {
                n == "fs.cache.evictions"
                    || n.starts_with("net.cksum.")
                    || (n.starts_with("step.") && n.ends_with(".count"))
                    || n.starts_with("sim.")
            })
            .cloned()
            .collect()
    };
    for name in WORKLOAD_NAMES {
        let spec = Spec::tiny(name).expect("known workload");
        let a = timed(&spec, 11, 0.3).expect("run");
        let b = timed(&spec, 11, 0.3).expect("run");
        assert!(
            a.sim_exact && b.sim_exact,
            "{name}: sim span must fit the window"
        );
        assert_eq!(a.sim_rps, b.sim_rps, "{name}: sim_rps");
        let ta = traced(&spec, 11, 0.3).expect("traced");
        let tb = traced(&spec, 11, 0.3).expect("traced");
        let (ca, cb) = (counters(&ta.metrics), counters(&tb.metrics));
        assert!(ca.len() > 14, "{name}");
        assert_eq!(ca, cb, "{name}: counters");
    }
}
