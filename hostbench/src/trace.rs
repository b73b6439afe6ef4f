//! The traced run. It is timed only from outside the program: a span
//! around every `tick()` (and every round boundary) with the journal
//! length at its end; afterwards the journal is replayed through
//! `iolite_core::step`, timing each `Command`, and each command's time
//! is attributed to the span that issued it. The event loop's self
//! time is a tick span minus its commands' replayed time.

use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};
use std::time::Instant;

use iolite_core::{step, Command, Kernel, KernelState, Metrics};
use iolite_fs::CacheOwnership;
use iolite_http::{run_sharded, ShardedConfig};

use crate::driver::{setup, Driver, Snapshot, SpanKind, Trace};
use crate::report::{quantile, STEP_KINDS};
use crate::run::{timed, Timed, SUBRUNS, WARM_LIMIT_S};
use crate::workload::{Clients, Spec};

/// Clients in the two-shard fabric pass (ids strided by 4096).
pub const FABRIC_CLIENTS: usize = 4096;
/// Requests per client in the fabric pass.
pub const FABRIC_REQS: usize = 4;

/// Per-kind replay totals.
#[derive(Debug, Default, Clone, Copy)]
struct KindTime {
    /// Commands replayed.
    count: u64,
    /// Host seconds inside `step`.
    secs: f64,
}

/// Everything the traced run measured.
pub struct Traced {
    /// The untraced reference sub-run.
    pub untraced: Timed,
    /// `(name, value)` of every per-layer metric.
    pub metrics: Vec<(String, f64)>,
    /// Whether every output of the traced and fabric runs was correct.
    pub correct: bool,
    /// Requests attempted across the traced and fabric runs.
    pub attempted: u64,
    /// Of those, failed or wrong.
    pub failed: u64,
    /// Human-readable notes (replay agreement details).
    pub notes: Vec<String>,
}

/// Names each `Command` variant by the head of its `Debug` form,
/// formatting each variant once.
struct KindNames(HashMap<Discriminant<Command>, String>);

impl KindNames {
    fn name(&mut self, cmd: &Command) -> &str {
        self.0.entry(discriminant(cmd)).or_insert_with(|| {
            let dbg = format!("{cmd:?}");
            dbg.split(|c: char| !c.is_alphanumeric())
                .next()
                .unwrap_or("?")
                .to_string()
        })
    }
}

/// Replays `cmds` from the workload's initial state, timing every
/// command. Returns the per-command host seconds, the final state, and
/// the metrics.
fn replay_timed(spec: &Spec, cmds: &[Command]) -> (Vec<f64>, KernelState, Metrics) {
    let mut state = KernelState::new(spec.cost(), spec.policy());
    let mut metrics = Metrics::new();
    let mut fx = Vec::new();
    let mut secs = Vec::with_capacity(cmds.len());
    for cmd in cmds {
        fx.clear();
        let t = Instant::now();
        let _ = step(&mut state, cmd, &mut fx);
        secs.push(t.elapsed().as_secs_f64());
        for e in &fx {
            metrics.absorb(e);
        }
    }
    (secs, state, metrics)
}

/// A named `Metrics` counter.
type Counter = (&'static str, fn(&Metrics) -> u64);

/// `name live/replayed` for every `Metrics` counter that differs.
fn metric_diffs(live: &Metrics, replayed: &Metrics) -> Vec<String> {
    let fields: [Counter; 16] = [
        ("bytes_copied", |m| m.bytes_copied),
        ("bytes_checksummed", |m| m.bytes_checksummed),
        ("bytes_checksum_cached", |m| m.bytes_checksum_cached),
        ("pages_mapped", |m| m.pages_mapped),
        ("syscalls", |m| m.syscalls),
        ("context_switches", |m| m.context_switches),
        ("disk_ops", |m| m.disk_ops),
        ("disk_bytes", |m| m.disk_bytes),
        ("bytes_dirty_installed", |m| m.bytes_dirty_installed),
        ("writeback_flushes", |m| m.writeback_flushes),
        ("writeback_entries", |m| m.writeback_entries),
        ("bytes_written_back", |m| m.bytes_written_back),
        ("nvm_absorbed_bytes", |m| m.nvm_absorbed_bytes),
        ("nvm_demoted_bytes", |m| m.nvm_demoted_bytes),
        ("disk_write_ops", |m| m.disk_write_ops),
        ("disk_write_bytes", |m| m.disk_write_bytes),
    ];
    let mut out: Vec<String> = fields
        .iter()
        .filter(|(_, f)| f(live) != f(replayed))
        .map(|(name, f)| format!("{name} {}/{}", f(live), f(replayed)))
        .collect();
    if live.time_by_category != replayed.time_by_category {
        out.push("time_by_category".into());
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Layer metrics from the counter deltas between two snapshots.
fn counter_metrics(b: &Snapshot, e: &Snapshot) -> Vec<(String, f64)> {
    let (bm, em) = (&b.metrics, &e.metrics);
    let d = |x: u64, y: u64| (y - x) as f64;
    let cache_hits = e.cache.hits - b.cache.hits;
    let cache_misses = e.cache.misses - b.cache.misses;
    let ck_hits = e.cksum.hits - b.cksum.hits;
    let ck_misses = e.cksum.misses - b.cksum.misses;
    let ticks = e.stats.ticks - b.stats.ticks;
    vec![
        ("event_loop.ticks".into(), ticks as f64),
        (
            "event_loop.poll_entries_per_tick".into(),
            ratio(
                e.stats.poll_entries - b.stats.poll_entries,
                e.stats.polls - b.stats.polls,
            ),
        ),
        (
            "event_loop.max_inflight".into(),
            e.stats.max_inflight as f64,
        ),
        (
            "event_loop.blocked_io".into(),
            d(b.stats.blocked_io, e.stats.blocked_io),
        ),
        (
            "fs.cache.hit_rate".into(),
            ratio(cache_hits, cache_hits + cache_misses),
        ),
        (
            "fs.cache.evictions".into(),
            d(b.cache.evictions, e.cache.evictions),
        ),
        (
            "fs.cache.pinned_evictions".into(),
            d(b.cache.pinned_evictions, e.cache.pinned_evictions),
        ),
        (
            "fs.cache.dirty_installs".into(),
            d(b.cache.dirty_installs, e.cache.dirty_installs),
        ),
        ("fs.disk.read_ops".into(), d(bm.disk_ops, em.disk_ops)),
        (
            "fs.disk.write_ops".into(),
            d(bm.disk_write_ops, em.disk_write_ops),
        ),
        (
            "fs.writeback.flushes".into(),
            d(bm.writeback_flushes, em.writeback_flushes),
        ),
        (
            "fs.writeback.bytes".into(),
            d(bm.bytes_written_back, em.bytes_written_back),
        ),
        (
            "fs.nvm.absorbed_bytes".into(),
            d(bm.nvm_absorbed_bytes, em.nvm_absorbed_bytes),
        ),
        (
            "net.cksum.hit_rate".into(),
            ratio(ck_hits, ck_hits + ck_misses),
        ),
        (
            "net.cksum.bytes_computed".into(),
            d(b.cksum.bytes_computed, e.cksum.bytes_computed),
        ),
        (
            "net.cksum.evictions".into(),
            d(b.cksum.evictions, e.cksum.evictions),
        ),
        (
            "net.cksum.invalidations".into(),
            d(b.cksum.invalidations, e.cksum.invalidations),
        ),
        (
            "vm.pages_mapped".into(),
            d(bm.pages_mapped, em.pages_mapped),
        ),
        (
            "sim.cpu_ms".into(),
            (e.stats.cpu - b.stats.cpu).as_secs() * 1e3,
        ),
        (
            "sim.bytes_copied".into(),
            d(bm.bytes_copied, em.bytes_copied),
        ),
        (
            "sim.bytes_checksummed".into(),
            d(bm.bytes_checksummed, em.bytes_checksummed),
        ),
        ("sim.syscalls".into(), d(bm.syscalls, em.syscalls)),
        (
            "trace.requests".into(),
            d(b.stats.completed, e.stats.completed),
        ),
    ]
}

/// Step, layer, and event-loop time metrics from the spans and the
/// replayed command times. Step totals cover the set-up commands (the
/// first `setup_len`) and every command the trace window's spans
/// issued.
fn time_metrics(
    trace: &Trace,
    cmds: &[Command],
    secs: &[f64],
    setup_len: usize,
) -> Vec<(String, f64)> {
    let mut names = KindNames(HashMap::new());
    let mut kinds: HashMap<String, KindTime> = HashMap::new();
    let mut add = |i: usize| {
        let k = kinds.entry(names.name(&cmds[i]).to_string()).or_default();
        k.count += 1;
        k.secs += secs[i];
        secs[i]
    };
    for i in 0..setup_len {
        add(i);
    }
    let mut ticks_us = Vec::new();
    let (mut self_s, mut reconnect_s) = (0.0, 0.0);
    let mut next = trace.begin.journal_len;
    for span in &trace.spans {
        let mut cmd_s = 0.0;
        for i in next..span.journal_len {
            cmd_s += add(i);
        }
        next = span.journal_len;
        match span.kind {
            SpanKind::Tick => {
                ticks_us.push(span.secs * 1e6);
                self_s += span.secs - cmd_s;
            }
            SpanKind::Reconnect => reconnect_s += span.secs,
        }
    }
    let mut out = vec![
        (
            "event_loop.tick_us_p50".to_string(),
            quantile(&mut ticks_us, 0.50),
        ),
        (
            "event_loop.tick_us_p99".to_string(),
            quantile(&mut ticks_us, 0.99),
        ),
        ("event_loop.self_ms".to_string(), self_s * 1e3),
        ("event_loop.reconnect_ms".to_string(), reconnect_s * 1e3),
    ];
    let mut layer_s: HashMap<&str, f64> = HashMap::new();
    for (name, k) in &kinds {
        let layer = STEP_KINDS
            .iter()
            .find(|(kind, _)| kind == name)
            .map_or("other", |(_, layer)| layer);
        *layer_s.entry(layer).or_default() += k.secs;
    }
    for (kind, _) in STEP_KINDS {
        let k = kinds.get(kind).copied().unwrap_or_default();
        out.push((format!("step.{kind}.count"), k.count as f64));
        out.push((
            format!("step.{kind}.mean_us"),
            k.secs * 1e6 / k.count.max(1) as f64,
        ));
        out.push((format!("step.{kind}.total_ms"), k.secs * 1e3));
    }
    for layer in crate::report::LAYERS {
        out.push((
            format!("{layer}.ms"),
            layer_s.get(layer).copied().unwrap_or(0.0) * 1e3,
        ));
    }
    out
}

/// The workload's corpus and scripts served by a two-shard
/// `run_sharded` fleet (Replicate ownership, structured client ids):
/// the fabric's counters and host throughput, plus correctness.
fn fabric_pass(spec: &Spec, seed: u64) -> (Vec<(String, f64)>, bool, u64, u64) {
    let fspec = Spec {
        clients: spec.clients.min(FABRIC_CLIENTS),
        reqs_per_round: FABRIC_REQS,
        ..spec.clone()
    };
    let corpus = fspec.corpus();
    let mut clients = Clients::new(&fspec, corpus.clone(), seed ^ 0xfab);
    let round = clients.next_round();
    let attempted = round.len();
    let conns: Vec<(u64, Vec<String>)> = round
        .scripts
        .into_iter()
        .enumerate()
        .map(|(j, s)| (j as u64 * 4096, s))
        .collect();
    let cfg = ShardedConfig {
        shards: 2,
        ownership: CacheOwnership::Replicate,
        cost: fspec.cost(),
        policy: fspec.policy(),
        journal: false,
        loop_cfg: fspec.loop_cfg(),
    };
    let t = Instant::now();
    let report = run_sharded(&cfg, |k: &mut Kernel| fspec.populate(k, &corpus), conns);
    let wall = t.elapsed().as_secs_f64();
    let wrong = report
        .shards
        .iter()
        .flat_map(|s| &s.report.requests)
        .filter(|r| !clients.check_any(&r.path, r.bytes))
        .count() as u64;
    let sum = |f: fn(&iolite_http::LoopStats) -> u64| -> f64 {
        report
            .shards
            .iter()
            .map(|s| f(&s.report.stats))
            .sum::<u64>() as f64
    };
    let blocked = sum(|s| s.blocked_io) as u64;
    let completed = report.completed();
    let failed = report.failed() + wrong + attempted.saturating_sub(completed + report.failed());
    let metrics = vec![
        ("fabric.remote_reads".into(), sum(|s| s.remote_reads)),
        ("fabric.remote_waits".into(), sum(|s| s.remote_waits)),
        ("fabric.remote_hits".into(), sum(|s| s.remote_hits)),
        ("fabric.remote_writes".into(), sum(|s| s.remote_writes)),
        ("fabric.imbalance".into(), report.imbalance()),
        ("fabric.host_rps".into(), completed as f64 / wall),
    ];
    (metrics, failed == 0 && blocked == 0, attempted, failed)
}

/// The traced run of `spec`: one untraced sub-run as the reference
/// (window `seconds / SUBRUNS`), a journaled run whose trace window is the first
/// `Spec::trace_requests` completions after warm-up, the timed replay,
/// and the two-shard fabric pass.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> Result<Traced, String> {
    let reference = Spec {
        setup_repeats: 1,
        ..spec.clone()
    };
    let untraced = timed(&reference, seed, seconds / SUBRUNS as f64)?;
    let spec = &Spec {
        reqs_per_round: spec.trace_reqs_per_round,
        ..spec.clone()
    };
    let corpus = spec.corpus();
    let mut clients = Clients::new(spec, corpus.clone(), seed);
    let round = clients.next_round();
    let (server, _) = setup(spec, &corpus, &round, true);
    let setup_len = server.kernel().journal().map_or(0, |j| j.len());
    let mut d = Driver::new(spec, clients, server, round);
    if !d.run_until(WARM_LIMIT_S, Driver::warm) {
        return Err(format!("{}: traced warm-up did not converge", spec.name));
    }
    d.start_trace(spec.trace_requests);
    if !d.run_until(WARM_LIMIT_S, Driver::trace_closed) {
        return Err(format!("{}: trace window did not close", spec.name));
    }
    d.finish();
    let t_failed = d.failed();
    let t_attempted = d.attempted;
    let t_correct = t_failed == 0 && d.stats().blocked_io == 0;
    let mut trace = d.take_trace().ok_or("trace window never opened")?;
    let end = trace.end.clone().ok_or("trace window never closed")?;
    let journal = trace.journal.take().ok_or("journal missing")?;
    let cmds = journal.commands();

    let (secs, replayed, replay_metrics) = replay_timed(spec, cmds);
    let hash_match = replayed.state_hash() == trace.hash;
    let metrics_match = replay_metrics == end.metrics;
    let mut notes = Vec::new();
    if !(hash_match && metrics_match) {
        notes.push(format!(
            "replay diverged: state hash {}; metrics differing (live vs replayed): {}",
            if hash_match { "equal" } else { "differs" },
            metric_diffs(&end.metrics, &replay_metrics).join(", "),
        ));
    }

    let mut metrics = counter_metrics(&trace.begin, &end);
    metrics.extend(time_metrics(&trace, cmds, &secs, setup_len));
    let (fabric, f_correct, f_attempted, f_failed) = fabric_pass(spec, seed);
    metrics.extend(fabric);
    let traced_rps =
        (end.stats.completed - trace.begin.stats.completed) as f64 / (end.at - trace.begin.at);
    metrics.push(("trace.overhead".into(), traced_rps / untraced.window_rps));
    let b = |x: bool| if x { 1.0 } else { 0.0 };
    metrics.push(("core.replay_match".into(), b(hash_match && metrics_match)));
    metrics.push(("core.replay_hash_match".into(), b(hash_match)));
    metrics.push(("core.replay_metrics_match".into(), b(metrics_match)));
    metrics.push((
        "core.replay_pages_mapped_ratio".into(),
        ratio(replay_metrics.pages_mapped, end.metrics.pages_mapped),
    ));
    metrics.push(("window.halves_ratio".into(), untraced.halves_ratio));
    let correct = untraced.correct() && t_correct && f_correct;
    Ok(Traced {
        attempted: untraced.attempted + t_attempted + f_attempted,
        failed: untraced.failed + t_failed + f_failed,
        untraced,
        metrics,
        correct,
        notes,
    })
}
