//! Metric catalog, summary statistics, and the result line.

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("sim_rps", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// The replayed `Command` kinds the per-layer table breaks out, each
/// with the layer total it rolls up into.
pub const STEP_KINDS: [(&str, &str); 14] = [
    ("Open", "fd"),
    ("CloseFd", "fd"),
    ("SocketCreate", "fd"),
    ("Poll", "fd"),
    ("IolPread", "fs.cache"),
    ("CachePin", "fs.cache"),
    ("CacheUnpin", "fs.cache"),
    ("PutInstall", "fs.cache"),
    ("WriteBack", "fs.writeback"),
    ("NvmDemote", "fs.writeback"),
    ("IolReadFd", "net"),
    ("IolWriteFd", "net"),
    ("SocketDrain", "net"),
    ("SocketDeliver", "net"),
];

/// Layer totals of replayed step time; kinds outside [`STEP_KINDS`]
/// land in `other`.
pub const LAYERS: [&str; 5] = ["fd", "fs.cache", "fs.writeback", "net", "other"];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("event_loop.tick_us_p50", "us"),
        ("event_loop.tick_us_p99", "us"),
        ("event_loop.ticks", "count"),
        ("event_loop.poll_entries_per_tick", "count"),
        ("event_loop.max_inflight", "count"),
        ("event_loop.blocked_io", "count"),
        ("event_loop.self_ms", "ms"),
        ("event_loop.reconnect_ms", "ms"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for (kind, _) in STEP_KINDS {
        m.push((format!("step.{kind}.count"), "count"));
        m.push((format!("step.{kind}.mean_us"), "us"));
        m.push((format!("step.{kind}.total_ms"), "ms"));
    }
    for layer in LAYERS {
        m.push((format!("{layer}.ms"), "ms"));
    }
    let rest: [(&str, &'static str); 31] = [
        ("fs.cache.hit_rate", "ratio"),
        ("fs.cache.evictions", "count"),
        ("fs.cache.pinned_evictions", "count"),
        ("fs.cache.dirty_installs", "count"),
        ("fs.disk.read_ops", "count"),
        ("fs.disk.write_ops", "count"),
        ("fs.writeback.flushes", "count"),
        ("fs.writeback.bytes", "bytes"),
        ("fs.nvm.absorbed_bytes", "bytes"),
        ("net.cksum.hit_rate", "ratio"),
        ("net.cksum.bytes_computed", "bytes"),
        ("net.cksum.evictions", "count"),
        ("net.cksum.invalidations", "count"),
        ("vm.pages_mapped", "count"),
        ("sim.cpu_ms", "ms"),
        ("sim.bytes_copied", "bytes"),
        ("sim.bytes_checksummed", "bytes"),
        ("sim.syscalls", "count"),
        ("fabric.remote_reads", "count"),
        ("fabric.remote_waits", "count"),
        ("fabric.remote_hits", "count"),
        ("fabric.remote_writes", "count"),
        ("fabric.imbalance", "ratio"),
        ("fabric.host_rps", "1/s"),
        ("trace.overhead", "ratio"),
        ("trace.requests", "count"),
        ("core.replay_match", "bool"),
        ("core.replay_hash_match", "bool"),
        ("core.replay_metrics_match", "bool"),
        ("core.replay_pages_mapped_ratio", "ratio"),
        ("window.halves_ratio", "ratio"),
    ];
    m.extend(rest.iter().map(|(n, u)| (n.to_string(), *u)));
    m
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (mean of the middle pair for even lengths); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host memory high-water mark of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
