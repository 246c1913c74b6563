//! The Anaheim reproduction's benchmark: one workload per process.
//!
//! ```text
//! anaheim-perfbench --workload <fhe-ckks|sim-paper|fleet-chaos> --seed <n>
//!                   --seconds <s> --trace <0|1> [--out <dir>]
//! anaheim-perfbench --list-metrics
//! ```
//!
//! Every workload reports the same metrics, each for its own operation.
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` records spans around the benchmark's calls into each crate
//! and reports the per-layer metrics, writing the spans to
//! `<out>/trace-<workload>-<seed>.json`. Every operation's output is
//! checked; the last line of standard output is one JSON object with the
//! result. The exit code is non-zero when an output was wrong.
//! `perfbench/run.py` builds this binary, runs it and validates the result
//! against `BENCHMARK.json`; see `perfbench/README.md`.

mod fhe;
mod fleet;
mod metrics;
mod sim;
mod stats;
mod tracer;

use std::time::Duration;

use metrics::Mode;
use stats::Outcome;
use tracer::Tracer;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out: std::path::PathBuf,
}

/// SplitMix64: derives independent sub-seeds from the workload seed, so the
/// program only ever sees generated inputs.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn usage(msg: &str) -> ! {
    eprintln!("anaheim-perfbench: {msg}");
    eprintln!(
        "usage: anaheim-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out <dir>] | --list-metrics",
        metrics::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Opts> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = std::path::PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--list-metrics" => return None,
            "--workload" => workload = Some(val()),
            "--seed" => {
                seed = Some(
                    val()
                        .parse::<u64>()
                        .unwrap_or_else(|_| usage("--seed takes an unsigned integer")),
                )
            }
            "--seconds" => {
                let s = val()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"));
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--out" => out = val().into(),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Some(Opts {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        out,
    })
}

fn list_metrics() {
    for m in metrics::REGISTRY {
        println!(
            "{}\t{}\t{}\t{}",
            m.name,
            m.unit,
            m.better,
            match m.mode {
                Mode::EndToEnd => "end_to_end",
                Mode::PerLayer => "per_layer",
            },
        );
    }
}

fn main() {
    let Some(opts) = parse_args() else {
        list_metrics();
        return;
    };
    let mut provenance: Vec<(&str, String)> = vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "ANAHEIM_THREADS",
            std::env::var("ANAHEIM_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("parpool_width", parpool::num_threads().to_string()),
        (
            "ANAHEIM_PAR_PROFILE",
            std::env::var("ANAHEIM_PAR_PROFILE").unwrap_or_else(|_| "seeded default".into()),
        ),
        ("seed", opts.seed.to_string()),
        ("seconds", format!("{}", opts.seconds.as_secs_f64())),
        ("trace", u8::from(opts.trace).to_string()),
    ];
    let mut tracer = Tracer::new();
    let mut out = Outcome::default();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let tr = opts.trace.then_some(&mut tracer);
        match opts.workload.as_str() {
            "fhe-ckks" => fhe::run(&opts, tr, &mut out),
            "sim-paper" => sim::run(&opts, tr, &mut out),
            "fleet-chaos" => fleet::run(&opts, tr, &mut out),
            _ => unreachable!("validated in parse_args"),
        }
    }));
    match run {
        Ok(extra) => provenance.extend(extra),
        Err(_) => out.check(false, || "the workload panicked".into()),
    }
    let mode = if opts.trace {
        Mode::PerLayer
    } else {
        Mode::EndToEnd
    };
    if out.failed == 0 {
        if let Err(e) = out.validate(mode) {
            out.check(false, || e);
        }
    }
    if opts.trace && !tracer.spans().is_empty() {
        let path = opts
            .out
            .join(format!("trace-{}-{}.json", opts.workload, opts.seed));
        let written = std::fs::create_dir_all(&opts.out)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => out.note(format!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    for n in &out.notes {
        println!("# {n}");
    }
    for e in &out.errors {
        println!("# FAILED: {e}");
    }
    println!("{}", out.to_json(&opts.workload, &provenance));
    if out.failed > 0 {
        std::process::exit(1);
    }
}
