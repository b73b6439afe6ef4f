//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable summary, then as the last line of standard
//! output one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when any output is wrong, 2 on bad arguments.

use std::process::ExitCode;

use hostbench::report::{per_layer, result_json, END_TO_END};
use hostbench::run::timed_runs;
use hostbench::trace::traced;
use hostbench::workload::{Spec, WORKLOAD_NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "hostbench: unknown workload {} (known: {})",
            args.workload,
            WORKLOAD_NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let (correct, attempted, failed, metrics) = if args.trace {
        match traced(&spec, args.seed, args.seconds) {
            Ok(t) => {
                for n in &t.notes {
                    println!("note: {n}");
                }
                let units = per_layer();
                let mut out = Vec::new();
                for (name, unit) in &units {
                    let v = t
                        .metrics
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(f64::NAN, |m| m.1);
                    println!("{:<36} {v:>16.4} {unit}", name);
                    out.push((name.clone(), *unit, v));
                }
                (t.correct, t.attempted, t.failed, out)
            }
            Err(e) => {
                eprintln!("hostbench: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match timed_runs(&spec, args.seed, args.seconds) {
            Ok(t) => {
                println!(
                    "{}: {} sub-runs; warm-up {:.2} s (median; {} requests in all); window {:.2} s in all, \
                     {} latency samples (at least {} per slice), {} rounds; halves ratio {:.3}; error_rate {} ({} of {} attempted){}",
                    spec.name,
                    hostbench::run::SUBRUNS,
                    t.warm_s,
                    t.warm_requests,
                    t.window_s,
                    t.samples,
                    t.min_slice_samples,
                    t.rounds,
                    t.halves_ratio,
                    t.error_rate,
                    t.failed,
                    t.attempted,
                    if t.sim_exact { "" } else { "; sim_rps took the whole window" },
                );
                let values = [
                    t.throughput_rps,
                    t.latency_p50_us,
                    t.latency_p99_us,
                    t.setup_s,
                    t.sim_rps,
                    t.peak_rss_mib,
                ];
                let mut out = Vec::new();
                for ((name, unit), v) in END_TO_END.iter().zip(values) {
                    println!("{name:<16} {v:>16.4} {unit}");
                    out.push((name.to_string(), *unit, v));
                }
                println!("{:<16} {:>16.4} ratio", "error_rate", t.error_rate);
                println!(
                    "raw host figures (before scaling): throughput {:.1} 1/s, p50 {:.1} us, \
                     p99 {:.1} us, setup {:.6} s; calibration slice {:.1} us against {:.1} us",
                    t.raw.throughput_rps,
                    t.raw.latency_p50_us,
                    t.raw.latency_p99_us,
                    t.raw.setup_s,
                    t.raw.slice_s * 1e6,
                    hostbench::calib::REFERENCE_SLICE_S * 1e6,
                );
                let steady = (0.5..=2.0).contains(&t.halves_ratio);
                if !steady {
                    println!("not steady: window halves differ by {:.3}x", t.halves_ratio);
                }
                (t.correct() && steady, t.attempted, t.failed, out)
            }
            Err(e) => {
                eprintln!("hostbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
