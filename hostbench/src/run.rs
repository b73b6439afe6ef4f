//! The untraced timed run: set up (several times), warm up to an
//! observable steady state, record a window of closed-loop traffic on
//! the host clock, let the last round run out, and check every output.

use crate::calib::{self, Calibrator};
use crate::driver::{setup, Driver, Window};
use crate::report::{median, peak_rss_mib};
use crate::workload::{Clients, Spec};

/// Host seconds warm-up may take before the run gives up.
pub const WARM_LIMIT_S: f64 = 90.0;

/// Independent sub-runs per run (each with its own set-up, warm-up,
/// and a share of the window); end-to-end figures are their medians.
pub const SUBRUNS: usize = 5;

/// Slices the timed window is cut into; rates and percentiles are
/// taken per slice and reported as the median slice.
pub const SLICES: usize = 5;

/// Outcome of one timed run. Host-time figures are scaled to the
/// reference machine (see [`crate::calib`]); `raw` keeps them as read.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Host-time figures before scaling.
    pub raw: Raw,
    /// Completed requests per host second (median slice).
    pub throughput_rps: f64,
    /// Median-slice p50 closed-loop latency, µs.
    pub latency_p50_us: f64,
    /// Median-slice p99 closed-loop latency, µs.
    pub latency_p99_us: f64,
    /// Fewest latency samples in any slice (p99 needs 10 beyond it).
    pub min_slice_samples: u64,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Every set-up time measured, s.
    pub setups: Vec<f64>,
    /// Requests per simulated CPU second over the first
    /// `Spec::sim_requests` completions after warm-up.
    pub sim_rps: f64,
    /// Whether `sim_rps` covered the full `Spec::sim_requests`.
    pub sim_exact: bool,
    /// Host memory high-water mark when the `sim_rps` span ended (or
    /// at the end of the window, if it never did), MiB.
    pub peak_rss_mib: f64,
    /// Share of attempted requests that failed, never completed, or
    /// carried a wrong response.
    pub error_rate: f64,
    /// Second-half over first-half throughput of the window.
    pub halves_ratio: f64,
    /// Completions in the window over its length (no slicing).
    pub window_rps: f64,
    /// Latency samples in the window.
    pub samples: u64,
    /// Window length, s.
    pub window_s: f64,
    /// Host seconds of warm-up.
    pub warm_s: f64,
    /// Requests completed during warm-up.
    pub warm_requests: u64,
    /// Requests scripted over the whole run.
    pub attempted: u64,
    /// Requests completed over the whole run.
    pub completed: u64,
    /// Requests that failed, never completed, or were wrong.
    pub failed: u64,
    /// `LoopStats::blocked_io` over the whole run.
    pub blocked_io: u64,
    /// Rounds run.
    pub rounds: u64,
}

/// Host-time figures as read, before scaling.
#[derive(Debug, Clone, Copy, Default)]
pub struct Raw {
    /// Completed requests per host second (median slice).
    pub throughput_rps: f64,
    /// Median-slice p50 latency, µs.
    pub latency_p50_us: f64,
    /// Median-slice p99 latency, µs.
    pub latency_p99_us: f64,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Mean host seconds of one calibration slice in the window.
    pub slice_s: f64,
}

impl Timed {
    /// Every correctness condition of a run.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.blocked_io == 0 && self.attempted == self.completed
    }
}

/// A window's figures: medians over its slices.
pub struct SliceSummary {
    /// Median slice completion rate, 1/s.
    pub rate: f64,
    /// Median slice p50 latency, µs.
    pub p50: f64,
    /// Median slice p99 latency, µs.
    pub p99: f64,
    /// Second-half over first-half completion rate.
    pub halves: f64,
    /// Fewest latency samples in any slice.
    pub min_samples: u64,
}

/// Per-slice rates and latency percentiles of a window `len` seconds
/// long.
pub fn slice_summary(w: &mut Window, len: f64) -> SliceSummary {
    let width = len / SLICES as f64;
    let slice = |t: f32| ((f64::from(t) / width) as usize).min(SLICES - 1);
    let mut done = [0u64; SLICES];
    for &t in &w.done_at {
        done[slice(t)] += 1;
    }
    // Sorted in place by (slice, latency): no copy of the samples.
    w.samples
        .sort_unstable_by(|a, b| slice(a.0).cmp(&slice(b.0)).then(a.1.total_cmp(&b.1)));
    let lat: Vec<&[(f32, f32)]> = w
        .samples
        .chunk_by(|a, b| slice(a.0) == slice(b.0))
        .collect();
    let dur = |i: usize| {
        if i + 1 == SLICES {
            len - width * i as f64
        } else {
            width
        }
    };
    let mut rates: Vec<f64> = (0..SLICES).map(|i| done[i] as f64 / dur(i)).collect();
    let mid = (len / 2.0) as f32;
    let first = w.done_at.iter().filter(|&&t| t < mid).count();
    let second = w.done_at.len() - first;
    let halves = second as f64 / (first as f64).max(1.0);
    let pick = |s: &[(f32, f32)], q: f64| {
        let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
        f64::from(s[rank - 1].1)
    };
    let mut p50: Vec<f64> = lat.iter().map(|s| pick(s, 0.50)).collect();
    let mut p99: Vec<f64> = lat.iter().map(|s| pick(s, 0.99)).collect();
    let min_samples = if lat.len() < SLICES {
        0
    } else {
        lat.iter().map(|s| s.len() as u64).min().unwrap_or(0)
    };
    SliceSummary {
        rate: median(&mut rates),
        p50: median(&mut p50),
        p99: median(&mut p99),
        halves,
        min_samples,
    }
}

/// Runs `spec` for `seconds` of timed window after warm-up. Set-up
/// runs `Spec::setup_repeats` times; the last one serves.
pub fn timed(spec: &Spec, seed: u64, seconds: f64) -> Result<Timed, String> {
    let corpus = spec.corpus();
    let mut clients = Clients::new(spec, corpus.clone(), seed);
    let round = clients.next_round();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..spec.setup_repeats.max(1) {
        // Free the previous set-up before building the next one.
        drop(server.take());
        let (s, secs) = setup(spec, &corpus, &round, false);
        setups.push(secs);
        server = Some(s);
    }
    let server = server.ok_or("no set-up ran")?;
    let mut d = Driver::new(spec, clients, server, round);
    if !d.run_until(WARM_LIMIT_S, Driver::warm) {
        return Err(format!(
            "{}: warm-up did not converge in {WARM_LIMIT_S} s",
            spec.name
        ));
    }
    let warm_s = d.clock.now();
    let warm_requests = d.stats().completed;
    d.open_window();
    let start = d.clock.now();
    let mut end = start;
    // Calibration slices start once the memory mark is read: the
    // calibrator's buffers would move it.
    let mut calibrator = None;
    let (mut cal_s, mut cal_n) = (0.0, 0u32);
    let mut next_slice = start;
    while end - start < seconds {
        end = d.step();
        if end >= next_slice && d.sim_span_done() {
            d.clock.pause();
            cal_s += calibrator.get_or_insert_with(Calibrator::default).slice();
            cal_n += 1;
            d.clock.resume();
            next_slice = end + calib::SLICE_EVERY_S;
        }
    }
    if cal_n == 0 {
        // The window ended before its memory mark: calibrate after it.
        let c = calibrator.get_or_insert_with(Calibrator::default);
        for _ in 0..20 {
            cal_s += c.slice();
            cal_n += 1;
        }
    }
    drop(calibrator);
    let mut w = d.close_window().ok_or("window lost")?;
    d.finish();
    let len = end - start;
    let s = slice_summary(&mut w, len);
    let stats = d.stats();
    let failed = d.failed();
    let (sim_n, sim_cpu, sim_exact, rss) = match w.sim {
        Some((n, cpu, rss)) => (n, cpu, true, rss),
        None => {
            let n = stats.completed - w.base.completed;
            (n, (stats.cpu - w.base.cpu).as_secs(), false, peak_rss_mib())
        }
    };
    let slice_s = cal_s / f64::from(cal_n);
    let slower = slice_s / calib::REFERENCE_SLICE_S;
    let raw_setup_s = median(&mut setups.clone());
    for t in &mut setups {
        *t /= slower;
    }
    Ok(Timed {
        raw: Raw {
            throughput_rps: s.rate,
            latency_p50_us: s.p50,
            latency_p99_us: s.p99,
            setup_s: raw_setup_s,
            slice_s,
        },
        throughput_rps: s.rate * slower,
        latency_p50_us: s.p50 / slower,
        latency_p99_us: s.p99 / slower,
        min_slice_samples: s.min_samples,
        setup_s: median(&mut setups.clone()),
        setups,
        sim_rps: sim_n as f64 / sim_cpu.max(1e-12),
        sim_exact,
        peak_rss_mib: rss,
        error_rate: failed as f64 / d.attempted.max(1) as f64,
        halves_ratio: s.halves,
        window_rps: w.done_at.len() as f64 / len,
        samples: w.samples.len() as u64,
        window_s: len,
        warm_s,
        warm_requests,
        attempted: d.attempted,
        completed: stats.completed,
        failed,
        blocked_io: stats.blocked_io,
        rounds: d.rounds,
    })
}

/// One run as the benchmark reports it: [`SUBRUNS`] independent timed
/// runs of `seconds / SUBRUNS` each, summarized by [`Timed::combine`].
pub fn timed_runs(spec: &Spec, seed: u64, seconds: f64) -> Result<Timed, String> {
    let runs = (0..SUBRUNS)
        .map(|_| timed(spec, seed, seconds / SUBRUNS as f64))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Timed::combine(&runs))
}

impl Timed {
    /// Summarizes sub-runs: host-time figures are medians across
    /// sub-runs, `setup_s` the median of every set-up, memory the first
    /// sub-run's (the only one measured over a fixed amount of work from
    /// process start), the halves ratio the least steady sub-run's, and
    /// counts and window lengths sums.
    pub fn combine(runs: &[Timed]) -> Timed {
        let med = |f: fn(&Timed) -> f64| median(&mut runs.iter().map(f).collect::<Vec<_>>());
        let sum = |f: fn(&Timed) -> u64| runs.iter().map(f).sum::<u64>();
        let setups: Vec<f64> = runs.iter().flat_map(|t| t.setups.iter().copied()).collect();
        let attempted = sum(|t| t.attempted);
        let failed = sum(|t| t.failed);
        Timed {
            raw: Raw {
                throughput_rps: med(|t| t.raw.throughput_rps),
                latency_p50_us: med(|t| t.raw.latency_p50_us),
                latency_p99_us: med(|t| t.raw.latency_p99_us),
                setup_s: med(|t| t.raw.setup_s),
                slice_s: med(|t| t.raw.slice_s),
            },
            throughput_rps: med(|t| t.throughput_rps),
            latency_p50_us: med(|t| t.latency_p50_us),
            latency_p99_us: med(|t| t.latency_p99_us),
            min_slice_samples: runs.iter().map(|t| t.min_slice_samples).min().unwrap_or(0),
            setup_s: median(&mut setups.clone()),
            setups,
            sim_rps: med(|t| t.sim_rps),
            sim_exact: runs.iter().all(|t| t.sim_exact),
            peak_rss_mib: runs.first().map_or(0.0, |t| t.peak_rss_mib),
            error_rate: failed as f64 / attempted.max(1) as f64,
            // The sub-run farthest from steady, so the steadiness check
            // sees every sub-run.
            halves_ratio: runs
                .iter()
                .map(|t| t.halves_ratio)
                .max_by(|a, b| a.ln().abs().total_cmp(&b.ln().abs()))
                .unwrap_or(1.0),
            window_rps: med(|t| t.window_rps),
            samples: sum(|t| t.samples),
            window_s: runs.iter().map(|t| t.window_s).sum(),
            warm_s: med(|t| t.warm_s),
            warm_requests: sum(|t| t.warm_requests),
            attempted,
            completed: sum(|t| t.completed),
            failed,
            blocked_io: sum(|t| t.blocked_io),
            rounds: sum(|t| t.rounds),
        }
    }
}
