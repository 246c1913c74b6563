//! Chaos-soak CLI: replay a seeded fault schedule over a mixed-workload
//! trace and check the serving invariants.
//!
//! ```text
//! soak [--requests N] [--seed S] [--quick]
//!      [--stream] [--hedge] [--batch] [--ordered] [--shards N]
//!      [--snapshot-out FILE] [--trace-out FILE] [--metrics-out FILE]
//!      [--rss-budget-kb N] [--help]
//! ```
//!
//! Every scenario runs through [`run_soak_stream`]: the trace is generated
//! lazily, served through the sharded fleet, and responses are
//! invariant-checked and dropped as they are produced. Without `--stream`
//! the scenario is the single-engine chaos soak ([`SoakConfig::chaos`]),
//! served as a one-shard fleet. `--stream` selects the fleet chaos soak
//! ([`SoakConfig::fleet_chaos`]). Telemetry is recorded only when an
//! output asks for it: with `--trace-out`, completed spans stream through
//! a bounded sink into the file; with `--metrics-out`, the Prometheus
//! exposition is rewritten there periodically. Without either, the soak
//! records nothing. `--snapshot-out` writes the deterministic per-shard
//! snapshot text — the artifact `scripts/check.sh` byte-compares across
//! `ANAHEIM_THREADS`. `--rss-budget-kb` reads the process's peak RSS
//! (`VmHWM` in `/proc/self/status`) after the run and fails if the budget
//! was exceeded — the memory-boundedness gate.
//!
//! `--hedge` (requires `--stream`) swaps the base scenario to
//! [`SoakConfig::hedge_chaos`]: a GPU fault domain (stream stalls +
//! transfer bit-flips) on top of the fleet storm, with deadline-budget
//! cancellation and hedged re-execution enabled. The streaming invariants
//! then additionally require at least one hedge launch, one hedge win,
//! and one over-budget cancellation.
//!
//! `--batch` (requires `--stream`) swaps the base scenario to
//! [`SoakConfig::batched_fleet`]: a small tenant pool over a fault-free
//! two-shard fleet with same-tenant batch serving enabled, so the
//! streaming invariants additionally require that at least one
//! evaluation-key fetch was amortized and that the saved bytes reconcile
//! with the per-shard hit bytes. `--batch --hedge` composes the two into
//! [`SoakConfig::batch_hedge_chaos`] — the hedge-chaos fault domain with
//! batch serving on, pinning that fleet conservation survives both
//! features firing in one run.
//!
//! `--ordered` (requires `--stream`, implies `--batch`'s scenario) swaps
//! to [`SoakConfig::ordered_fleet`]: batch-aware dispatch ordering forms
//! same-tenant runs under the slack budget and credits each saved
//! evaluation-key fetch back to the lane as virtual time. The invariants
//! then additionally require at least one reorder and a nonzero lane
//! credit.
//!
//! `--help` / `-h` print usage on stdout and exit 0. Unknown or malformed
//! flags print usage on stderr and exit 2. Any invariant violation or
//! busted RSS budget exits 1. Success exits 0.

use std::io::Write as _;
use std::path::PathBuf;

use anaheim_core::Telemetry;
use obs::StreamingTraceSink;
use serving::soak::{run_soak_stream, SoakConfig};
use serving::StreamObs;

/// Parsed command line. Defaults resolve against the chosen mode's
/// config ([`SoakConfig::chaos`] or [`SoakConfig::fleet_chaos`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Opts {
    requests: Option<usize>,
    seed: u64,
    stream: bool,
    hedge: bool,
    batch: bool,
    ordered: bool,
    shards: Option<u32>,
    snapshot_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    rss_budget_kb: Option<u64>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            requests: None,
            seed: 2024,
            stream: false,
            hedge: false,
            batch: false,
            ordered: false,
            shards: None,
            snapshot_out: None,
            trace_out: None,
            metrics_out: None,
            rss_budget_kb: None,
        }
    }
}

/// Strict flag parsing: every flag is known, every value well-formed, or
/// the whole invocation is rejected (the caller prints usage and exits 2).
fn parse_args(args: &[String]) -> Result<Opts, String> {
    fn value<'a, T: std::str::FromStr>(
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<T, String> {
        let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: malformed value {raw:?}"))
    }
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--requests" => o.requests = Some(value("--requests", &mut it)?),
            "--seed" => o.seed = value("--seed", &mut it)?,
            // Same seeded soak, sized to finish fast in scripts/check.sh.
            "--quick" => o.requests = Some(200),
            "--stream" => o.stream = true,
            "--hedge" => o.hedge = true,
            "--batch" => o.batch = true,
            "--ordered" => o.ordered = true,
            "--shards" => o.shards = Some(value("--shards", &mut it)?),
            "--snapshot-out" => {
                o.snapshot_out = Some(PathBuf::from(value::<String>("--snapshot-out", &mut it)?))
            }
            "--trace-out" => {
                o.trace_out = Some(PathBuf::from(value::<String>("--trace-out", &mut it)?))
            }
            "--metrics-out" => {
                o.metrics_out = Some(PathBuf::from(value::<String>("--metrics-out", &mut it)?))
            }
            "--rss-budget-kb" => o.rss_budget_kb = Some(value("--rss-budget-kb", &mut it)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // Zero would not be a smaller soak: the fleet serves at least one shard
    // and the invariants need at least one completed request.
    for (zero, flag) in [
        (o.requests == Some(0), "--requests"),
        (o.shards == Some(0), "--shards"),
    ] {
        if zero {
            return Err(format!("{flag} must be at least 1"));
        }
    }
    if o.ordered && o.hedge {
        // The ordered-fleet scenario is fault-free by construction; its
        // invariants (>=1 reorder, nonzero lane credit) are not calibrated
        // for the hedge storm, so refuse instead of silently dropping one.
        return Err("--ordered conflicts with --hedge".into());
    }
    if !o.stream {
        for (set, flag) in [
            (o.hedge, "--hedge"),
            (o.batch, "--batch"),
            (o.ordered, "--ordered"),
            (o.shards.is_some(), "--shards"),
            (o.snapshot_out.is_some(), "--snapshot-out"),
            (o.trace_out.is_some(), "--trace-out"),
            (o.metrics_out.is_some(), "--metrics-out"),
        ] {
            if set {
                return Err(format!("{flag} requires --stream"));
            }
        }
    }
    Ok(o)
}

/// Peak resident set of this process so far, from `VmHWM` in
/// `/proc/self/status` (kB). `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        println!("{}", usage_text());
        return;
    }
    let opts = parse_args(&args).unwrap_or_else(|e| usage(&e));
    run(&opts);
    check_rss(&opts);
    println!("soak: all invariants hold");
}

/// The scenario the flags select, resized by `--requests` / `--shards`.
fn scenario(opts: &Opts) -> SoakConfig {
    let mut cfg = if !opts.stream {
        SoakConfig::chaos(opts.seed)
    } else if opts.ordered {
        SoakConfig::ordered_fleet(opts.seed)
    } else if opts.batch && opts.hedge {
        SoakConfig::batch_hedge_chaos(opts.seed)
    } else if opts.hedge {
        SoakConfig::hedge_chaos(opts.seed)
    } else if opts.batch {
        SoakConfig::batched_fleet(opts.seed)
    } else {
        SoakConfig::fleet_chaos(opts.seed)
    };
    if let Some(r) = opts.requests {
        cfg.requests = r;
    }
    if let Some(s) = opts.shards {
        cfg.shards = s;
    }
    cfg
}

/// The soak: bounded memory at any request count.
fn run(opts: &Opts) {
    let cfg = scenario(opts);
    println!(
        "soak: {} requests over {} shard(s), seed {}, {} lanes/shard, \
         queue {} deep, flips p={}, storms every {}, shard storm {:?}, stuck lane {} in {:?}",
        cfg.requests,
        cfg.shards,
        cfg.seed,
        cfg.workers,
        cfg.queue_capacity,
        cfg.flip_probability,
        cfg.storm_every,
        cfg.shard_storm,
        cfg.stuck_lane,
        cfg.stuck_window,
    );
    if opts.hedge {
        println!(
            "soak: hedge-chaos: gpu stalls p={} ({} virtual ns), transfer flips p={}, \
             budget cancellation on, hedging on",
            cfg.gpu_stall_prob, cfg.gpu_stall_ns, cfg.gpu_flip_prob,
        );
    }
    if cfg.batching {
        println!(
            "soak: batched-fleet: {} tenants, same-tenant batch serving on \
             (evaluation-key fetches amortized within a batch)",
            cfg.tenants,
        );
    }
    if cfg.ordering {
        println!(
            "soak: ordered-fleet: batch-aware dispatch ordering on \
             (slack-bounded same-tenant run formation with lane credit)",
        );
    }
    // Provenance: everything a reader needs to reproduce this run
    // bit-for-bit (the fault streams derive from the seed; the thread
    // count must NOT change the artifacts — that is the gate).
    println!(
        "soak: provenance: fault-seed={} shards={} workers-per-shard={} \
         ANAHEIM_THREADS={} hedge={} cancel={} batching={} ordering={}",
        cfg.seed,
        cfg.shards,
        cfg.workers,
        std::env::var("ANAHEIM_THREADS").unwrap_or_else(|_| "auto".into()),
        cfg.hedge,
        cfg.cancel,
        cfg.batching,
        cfg.ordering,
    );

    // Telemetry is recorded only for an output that writes it.
    let mut recorder = (opts.trace_out.is_some() || opts.metrics_out.is_some()).then(|| {
        let sink = match &opts.trace_out {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", path.display())));
                StreamingTraceSink::with_writer(4096, Box::new(std::io::BufWriter::new(file)))
            }
            None => StreamingTraceSink::new(4096),
        };
        (Telemetry::new(cfg.seed), sink)
    });
    let mut stream_obs = recorder.as_mut().map(|(tel, sink)| {
        let obs = StreamObs::new(tel, sink);
        match &opts.metrics_out {
            Some(m) => obs.with_prometheus(m.clone(), 65_536),
            None => obs,
        }
    });

    let out = run_soak_stream(&cfg, stream_obs.as_mut())
        .unwrap_or_else(|e| fail(&format!("invariant violated: {e}")));
    if let Some(e) = stream_obs.as_ref().and_then(StreamObs::prom_io_error) {
        fail(&format!("metrics write failed: {e}"));
    }
    drop(stream_obs);
    println!("soak: {}", out.summary);
    for s in &out.snapshots {
        let c = s.counters;
        println!(
            "  shard {}: state={} rerouted-in={} drains={} readmits={} probe-failures={} \
             completed={} dead-banks={}",
            s.shard,
            s.state,
            c.rerouted_in,
            c.drains,
            c.readmits,
            c.probe_failures,
            s.health.counters.completed,
            s.health.banks.iter().filter(|b| b.permanent).count(),
        );
    }
    if let Some((_, sink)) = recorder.as_mut() {
        println!(
            "soak: trace spans accepted={} evicted={} written={}",
            sink.accepted(),
            sink.evicted(),
            sink.written()
        );
        sink.finish()
            .unwrap_or_else(|e| fail(&format!("trace write failed: {e}")));
    }

    if let Some(path) = &opts.snapshot_out {
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", path.display())));
        f.write_all(out.snapshot_text.as_bytes())
            .and_then(|()| f.flush())
            .unwrap_or_else(|e| fail(&format!("snapshot write failed: {e}")));
        println!("soak: snapshot text -> {}", path.display());
    }
    if let (Some(path), Some((tel, _))) = (&opts.metrics_out, &recorder) {
        std::fs::write(path, tel.prometheus())
            .unwrap_or_else(|e| fail(&format!("metrics write failed: {e}")));
        println!("soak: metrics -> {}", path.display());
    }
}

/// Reports peak RSS and enforces `--rss-budget-kb` (the memory-boundedness
/// gate of the million-request soak).
fn check_rss(opts: &Opts) {
    let Some(peak) = peak_rss_kb() else {
        if opts.rss_budget_kb.is_some() {
            fail("--rss-budget-kb: cannot read VmHWM from /proc/self/status");
        }
        return;
    };
    println!("soak: peak RSS {peak} kB (VmHWM)");
    if let Some(budget) = opts.rss_budget_kb {
        if peak > budget {
            fail(&format!("peak RSS {peak} kB exceeds budget {budget} kB"));
        }
        println!("soak: within RSS budget {budget} kB");
    }
}

/// True when the invocation is a help request (`--help` or `-h` anywhere
/// on the line). Checked before strict parsing so `soak --help` succeeds
/// even next to otherwise-invalid flags.
fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// The usage block, shared by `--help` (stdout, exit 0) and parse errors
/// (stderr, exit 2).
fn usage_text() -> &'static str {
    "usage: soak [--requests N] [--seed S] [--quick]\n\
     \x20           [--stream] [--hedge] [--batch] [--ordered] [--shards N]\n\
     \x20           [--snapshot-out FILE] [--trace-out FILE] [--metrics-out FILE]\n\
     \x20           [--rss-budget-kb N] [--help]"
}

fn usage(msg: &str) -> ! {
    eprintln!("soak: {msg}");
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("soak: FAIL: {msg}");
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_stream_invocation() {
        let o = parse_args(&args(&[
            "--stream",
            "--hedge",
            "--requests",
            "1000000",
            "--seed",
            "7",
            "--shards",
            "8",
            "--snapshot-out",
            "snap.txt",
            "--trace-out",
            "trace.json",
            "--metrics-out",
            "metrics.prom",
            "--rss-budget-kb",
            "524288",
        ]))
        .unwrap();
        assert!(o.stream && o.hedge);
        assert_eq!(o.requests, Some(1_000_000));
        assert_eq!(o.seed, 7);
        assert_eq!(o.shards, Some(8));
        assert_eq!(
            o.snapshot_out.as_deref(),
            Some(std::path::Path::new("snap.txt"))
        );
        assert_eq!(o.rss_budget_kb, Some(524_288));
    }

    #[test]
    fn rejects_zero_requests_and_zero_shards() {
        let e = parse_args(&args(&["--requests", "0"])).unwrap_err();
        assert!(e.contains("--requests must be at least 1"), "{e}");
        let e = parse_args(&args(&["--stream", "--requests", "0"])).unwrap_err();
        assert!(e.contains("--requests must be at least 1"), "{e}");
        let e = parse_args(&args(&["--stream", "--shards", "0", "--requests", "50"])).unwrap_err();
        assert!(e.contains("--shards must be at least 1"), "{e}");
        let o = parse_args(&args(&["--stream", "--shards", "1", "--requests", "1"])).unwrap();
        assert_eq!((o.shards, o.requests), (Some(1), Some(1)));
    }

    #[test]
    fn rejects_unknown_and_malformed_flags() {
        assert!(parse_args(&args(&["--frobnicate"]))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse_args(&args(&["--requests"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_args(&args(&["--requests", "many"]))
            .unwrap_err()
            .contains("malformed"));
        assert!(parse_args(&args(&["--seed", "-3"]))
            .unwrap_err()
            .contains("malformed"));
        assert!(parse_args(&args(&["--rss-budget-kb", "1.5"]))
            .unwrap_err()
            .contains("malformed"));
    }

    #[test]
    fn stream_only_flags_require_stream() {
        for (flag, value) in [
            ("--shards", "2"),
            ("--snapshot-out", "snap.txt"),
            ("--trace-out", "trace.json"),
            ("--metrics-out", "metrics.prom"),
        ] {
            let e = parse_args(&args(&[flag, value])).unwrap_err();
            assert!(e.contains("requires --stream"), "{flag}: {e}");
        }
        assert!(parse_args(&args(&["--stream", "--shards", "2"])).is_ok());
        // --hedge is a stream-mode scenario switch, not a batch knob.
        let e = parse_args(&args(&["--hedge"])).unwrap_err();
        assert!(e.contains("requires --stream"), "{e}");
        assert!(parse_args(&args(&["--stream", "--hedge"])).is_ok());
        // So are --batch and --ordered.
        let e = parse_args(&args(&["--batch"])).unwrap_err();
        assert!(e.contains("requires --stream"), "{e}");
        assert!(parse_args(&args(&["--stream", "--batch"])).is_ok());
        let e = parse_args(&args(&["--ordered"])).unwrap_err();
        assert!(e.contains("requires --stream"), "{e}");
        assert!(parse_args(&args(&["--stream", "--ordered"])).is_ok());
        // --batch composes with --hedge (batch_hedge_chaos); --ordered is
        // a fault-free scenario and refuses the hedge storm.
        assert!(parse_args(&args(&["--stream", "--batch", "--hedge"])).is_ok());
        let e = parse_args(&args(&["--stream", "--ordered", "--hedge"])).unwrap_err();
        assert!(e.contains("conflicts"), "{e}");
    }

    #[test]
    fn help_is_detected_anywhere_on_the_line() {
        assert!(wants_help(&args(&["--help"])));
        assert!(wants_help(&args(&["-h"])));
        assert!(wants_help(&args(&["--stream", "--help", "--nonsense"])));
        assert!(!wants_help(&args(&["--stream"])));
        assert!(!wants_help(&[]));
        // The usage text names every flag the parser accepts.
        for flag in [
            "--requests",
            "--seed",
            "--quick",
            "--stream",
            "--hedge",
            "--batch",
            "--ordered",
            "--shards",
            "--snapshot-out",
            "--trace-out",
            "--metrics-out",
            "--rss-budget-kb",
            "--help",
        ] {
            assert!(usage_text().contains(flag), "usage missing {flag}");
        }
    }

    #[test]
    fn defaults_are_batch_mode() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o, Opts::default());
        assert!(!o.stream);
        assert_eq!(o.seed, 2024);
        assert_eq!(o.requests, None);
    }
}
