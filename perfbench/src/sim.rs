//! `sim-paper`: regenerates every figure and table of the evaluation
//! through `anaheim_bench::figures`, back to back (closed loop, one pass
//! at a time). `core` build/prepare/schedule and the `dram`/`gpu`/`pim`
//! models do nearly all the work; `ckks` and `serving` do none.

use std::hint::black_box;
use std::time::Instant;

use anaheim_bench::figures::{self, Fig4bRow, Fig8Row, Table5Row};
use anaheim_core::framework::{Anaheim, AnaheimConfig};
use anaheim_core::ExecutionReport;
use workloads::Workload;

use crate::stats::{geomean, Outcome};
use crate::tracer::Tracer;
use crate::{derive_seed, Opts};

/// Set-ups timed after each figure pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 4;

/// The figure functions of one pass, by span name.
const FIGURES: [&str; 12] = [
    "figures.fig1",
    "figures.fig2a",
    "figures.fig2b",
    "figures.fig2c",
    "figures.fig3",
    "figures.fig4a",
    "figures.fig4b",
    "figures.fig8",
    "figures.fig9",
    "figures.fig10",
    "figures.table5",
    "figures.table3",
];

/// Table V cells of the paper (EXPERIMENTS.md): Boot, HELR, ResNet20, Sort
/// in ms per measured configuration; `None` is the paper's OoM cell.
const PAPER_TABLE5: [(&str, [Option<f64>; 4]); 3] = [
    (
        "A100 + near-bank PIM",
        [Some(29.3), Some(41.2), Some(1020.0), Some(12300.0)],
    ),
    (
        "A100 + custom-HBM PIM",
        [Some(32.7), Some(43.5), Some(1120.0), Some(13600.0)],
    ),
    (
        "RTX 4090 + near-bank PIM",
        [Some(32.6), Some(33.7), None, Some(13000.0)],
    ),
];

/// The five platform presets of Fig. 8 and Table V.
fn platforms() -> Vec<AnaheimConfig> {
    vec![
        AnaheimConfig::a100_baseline(),
        AnaheimConfig::a100_near_bank(),
        AnaheimConfig::a100_custom_hbm(),
        AnaheimConfig::rtx4090_baseline(),
        AnaheimConfig::rtx4090_near_bank(),
    ]
}

/// The outputs of one pass the checks and exact outputs read.
#[derive(Default)]
struct Pass {
    fig4b: Vec<Fig4bRow>,
    fig8: Vec<Fig8Row>,
    table5: Vec<Table5Row>,
}

/// The exact outputs of a pass, compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Exact {
    boot_ms: f64,
    speedup_geomean: f64,
    table5_error: f64,
    boot_gpu_dram_gb: f64,
}

fn run_figure(i: usize, pass: &mut Pass) {
    match i {
        0 => drop(black_box(figures::fig1_table())),
        1 => drop(black_box(figures::fig2a())),
        2 => drop(black_box(figures::fig2b())),
        3 => drop(black_box(figures::fig2c())),
        4 => drop(black_box(figures::fig3())),
        5 => drop(black_box(figures::fig4a())),
        6 => pass.fig4b = figures::fig4b(),
        7 => pass.fig8 = figures::fig8(),
        8 => drop(black_box(figures::fig9())),
        9 => drop(black_box(figures::fig10())),
        10 => pass.table5 = figures::table5(),
        11 => drop(black_box(figures::table3())),
        _ => unreachable!(),
    }
}

/// The figure order of pass `n`: a seeded shuffle, so cache state before
/// each figure varies with the seed rather than being fixed.
fn order(seed: u64, n: u64) -> [usize; 12] {
    let mut o: [usize; 12] = std::array::from_fn(|i| i);
    for i in (1..o.len()).rev() {
        let j = (derive_seed(seed, n * 64 + i as u64) % (i as u64 + 1)) as usize;
        o.swap(i, j);
    }
    o
}

fn pass_untraced(order: &[usize; 12]) -> Pass {
    let mut p = Pass::default();
    for &i in order {
        run_figure(i, &mut p);
    }
    p
}

fn pass_traced(order: &[usize; 12], tr: &mut Tracer) -> Pass {
    let mut p = Pass::default();
    tr.span("figures.pass", |tr| {
        for &i in order {
            tr.span(FIGURES[i], |_| run_figure(i, &mut p));
        }
    });
    p
}

/// Checks the shape orderings `tests/figures_shape.rs` pins and returns the
/// pass's exact outputs.
fn check_pass(p: &Pass, out: &mut Outcome) -> Option<Exact> {
    // Near-bank (and custom-HBM) PIM beats its GPU baseline everywhere the
    // workload fits; only ResNet20 and ResNet18-AESPA OoM, and only on the
    // RTX 4090.
    let rtx = AnaheimConfig::rtx4090_near_bank().name;
    let mut speedups = Vec::new();
    for r in &p.fig8 {
        match r.speedup {
            Some(s) => {
                speedups.push(s);
                out.check(s > 1.0, || {
                    format!("fig8: {} on {} speedup {s} <= 1", r.workload, r.config)
                });
            }
            None => out.check(r.workload.starts_with("ResNet") && r.config == rtx, || {
                format!("fig8: unexpected OoM of {} on {}", r.workload, r.config)
            }),
        }
    }
    for w in ["ResNet20", "ResNet18-AESPA"] {
        let oom = p
            .fig8
            .iter()
            .any(|r| r.workload == w && r.config == rtx && r.speedup.is_none());
        out.check(oom, || format!("fig8: {w} must OoM on {rtx}"));
    }
    // Table V: faster than every GPU/FPGA row, slower than the big ASICs.
    let ours = p
        .table5
        .iter()
        .find(|r| r.measured && r.system == AnaheimConfig::a100_near_bank().name)
        .and_then(|r| r.boot_ms);
    out.check(ours.is_some(), || {
        "table5: no A100 near-bank Boot cell".into()
    });
    let ours = ours?;
    for r in p.table5.iter().filter(|r| !r.measured) {
        let Some(b) = r.boot_ms else { continue };
        let ok = match r.system {
            "100x (V100)" | "TensorFHE (A100)" | "FAB (FPGA)" | "Poseidon (FPGA)" => ours < b,
            "ARK (ASIC)" | "SHARP (ASIC)" | "CraterLake (ASIC)" => ours > b,
            _ => continue,
        };
        out.check(ok, || {
            format!("table5 ordering: ours {ours} ms vs {} {b} ms", r.system)
        });
    }
    // Error against the paper's Table V cells.
    let mut log_errs = Vec::new();
    for (name, paper) in PAPER_TABLE5 {
        let Some(row) = p.table5.iter().find(|r| r.measured && r.system == name) else {
            out.check(false, || format!("table5: no row for {name}"));
            return None;
        };
        let ours = [row.boot_ms, row.helr_ms, row.resnet20_ms, row.sort_ms];
        for (o, p) in ours.iter().zip(paper) {
            match (o, p) {
                (Some(o), Some(p)) => log_errs.push((o / p).ln().abs()),
                (None, None) => {}
                _ => out.check(false, || {
                    format!("table5 {name}: OoM cells differ from paper")
                }),
            }
        }
    }
    let with_pim = p.fig4b.iter().find(|r| r.config == "with PIM");
    out.check(with_pim.is_some(), || "fig4b: no 'with PIM' row".into());
    Some(Exact {
        boot_ms: ours,
        speedup_geomean: geomean(&speedups),
        table5_error: geomean(&log_errs),
        boot_gpu_dram_gb: with_pim?.gpu_dram_gb,
    })
}

/// The set-up of a sim run: the six paper workloads and the five platform
/// runtimes (the inputs of a figure pass and of the decomposed pass).
fn setup() -> (Vec<Workload>, Vec<Anaheim>) {
    let w = Workload::all();
    let rts = platforms().into_iter().map(Anaheim::new).collect();
    (w, rts)
}

pub fn run(
    opts: &Opts,
    tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Vec<(&'static str, String)> {
    let width = parpool::num_threads();
    let t = Instant::now();
    let (workloads, runtimes) = setup();
    let mut setups = vec![t.elapsed().as_secs_f64()];

    // The exact reference: one warm-up pass, then the same pass at width 1.
    let reference = check_pass(&pass_untraced(&order(opts.seed, 0)), out);
    parpool::set_threads(1);
    let serial = check_pass(&pass_untraced(&order(opts.seed, 1)), out);
    parpool::set_threads(width);
    out.check(reference.is_some() && reference == serial, || {
        format!("exact outputs differ between widths {width} and 1: {reference:?} vs {serial:?}")
    });
    // Boot on A100 near-bank, run directly, must agree with Table V's cell.
    let boot = runtimes[1].run(workloads[0].segments[0].seq.clone());
    out.check(
        matches!((&boot, reference), (Ok(b), Some(r)) if b.total_ms() == r.boot_ms),
        || format!("Boot run directly ({boot:?}) disagrees with table5 ({reference:?})"),
    );

    match tracer {
        None => {
            let mut times = Vec::new();
            let start = Instant::now();
            let mut n = 2;
            while times.len() < 3 || start.elapsed() < opts.seconds {
                let o = order(opts.seed, n);
                let t = Instant::now();
                let p = pass_untraced(&o);
                times.push(t.elapsed().as_secs_f64() * 1e3);
                // Set-ups repeat between passes, so they see the same host
                // conditions as the passes do.
                for _ in 0..SETUPS_PER_PASS {
                    let t = Instant::now();
                    drop(black_box(setup()));
                    setups.push(t.elapsed().as_secs_f64());
                }
                let e = check_pass(&p, out);
                out.check(e == reference, || {
                    format!("pass {n}: exact outputs moved: {e:?}")
                });
                n += 1;
            }
            let e = reference.unwrap_or(Exact {
                boot_ms: f64::NAN,
                speedup_geomean: f64::NAN,
                table5_error: f64::NAN,
                boot_gpu_dram_gb: f64::NAN,
            });
            out.value("setup_s", crate::stats::Summary::of(&setups).median);
            out.sampled("op_ms", &times);
            out.value("peak_rss_mb", crate::stats::peak_rss_mb());
            out.exact("sim_boot_ms", e.boot_ms);
            out.exact("sim_speedup_geomean", e.speedup_geomean);
            out.exact("sim_table5_error", e.table5_error);
            out.exact("sim_boot_gpu_dram_gb", e.boot_gpu_dram_gb);
            out.note(format!("setup repeats: {}", setups.len()));
        }
        Some(tr) => traced(opts, tr, &runtimes, reference, boot.ok(), out),
    }
    vec![
        ("op", "one pass over every figure and table".into()),
        ("figure_order", "seeded shuffle per pass".into()),
        (
            "platforms",
            platforms()
                .iter()
                .map(|c| c.name)
                .collect::<Vec<_>>()
                .join("; "),
        ),
    ]
}

/// Total duration (ms) of the spans named `name` recorded since `mark`.
fn sum_ms(tr: &Tracer, mark: usize, name: &str) -> f64 {
    tr.spans()[mark..]
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .sum()
}

/// Per-layer split of a figure pass: the figures' own spans, and a
/// decomposed pass that calls `Workload::all`, `Anaheim::prepare` and
/// `Anaheim::run_prepared` directly for every workload × platform.
fn traced(
    opts: &Opts,
    tr: &mut Tracer,
    runtimes: &[Anaheim],
    reference: Option<Exact>,
    boot: Option<ExecutionReport>,
    out: &mut Outcome,
) {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut fig8, mut fig10, mut table5) = (vec![], vec![], vec![]);
    let (mut whole, mut build, mut core) = (vec![], vec![], vec![]);
    let start = Instant::now();
    let mut n = 2;
    while traced.len() < 2 || start.elapsed() < opts.seconds {
        let o = order(opts.seed, n);
        n += 1;
        // Untraced and traced passes alternate, so drift hits both.
        let t = Instant::now();
        let p = pass_untraced(&o);
        untraced.push(t.elapsed().as_secs_f64() * 1e3);
        let e = check_pass(&p, out);
        out.check(e == reference, || {
            "untraced pass: exact outputs moved".into()
        });

        let mark = tr.spans().len();
        let p = pass_traced(&o, tr);
        let e = check_pass(&p, out);
        out.check(e == reference, || "traced pass: exact outputs moved".into());
        traced.push(sum_ms(tr, mark, "figures.pass"));
        fig8.push(sum_ms(tr, mark, "figures.fig8"));
        fig10.push(sum_ms(tr, mark, "figures.fig10"));
        table5.push(sum_ms(tr, mark, "figures.table5"));

        let mark = tr.spans().len();
        tr.span("sim.decomposed", |tr| {
            let built = tr.span("workloads.build", |_| Workload::all());
            for rt in runtimes {
                let capacity = rt.config().gpu.dram_capacity_bytes as u64;
                for w in built.iter().filter(|w| w.footprint_bytes <= capacity) {
                    for seg in &w.segments {
                        let mut seq = seg.seq.clone();
                        tr.span("core.prepare", |_| rt.prepare(&mut seq));
                        let r = tr.span("core.schedule", |_| rt.run_prepared(&seq));
                        out.check(r.is_ok(), || {
                            format!("{} / {} on {}: {r:?}", w.name, seg.name, rt.config().name)
                        });
                    }
                }
            }
        });
        whole.push(sum_ms(tr, mark, "sim.decomposed"));
        build.push(sum_ms(tr, mark, "workloads.build"));
        core.push(sum_ms(tr, mark, "core.prepare") + sum_ms(tr, mark, "core.schedule"));
    }

    // Model outputs of Boot on A100 near-bank, exact.
    if let Some(r) = boot {
        let class = |c: &str| r.breakdown_ns.get(c).copied().unwrap_or(0.0) / 1e6;
        let known = [
            "(I)NTT",
            "BConv",
            "element-wise",
            "automorphism",
            "write-back",
        ];
        for c in r.breakdown_ns.keys() {
            out.check(known.contains(c), || {
                format!("unknown breakdown class {c:?}")
            });
        }
        let attributed: f64 = known.iter().map(|c| class(c)).sum();
        out.exact("core.boot.ntt_ms", class("(I)NTT"));
        out.exact("core.boot.bconv_ms", class("BConv"));
        out.exact("core.boot.elementwise_ms", class("element-wise"));
        out.exact("core.boot.automorphism_ms", class("automorphism"));
        out.exact("core.boot.writeback_ms", class("write-back"));
        out.exact("core.boot.unattributed_ms", r.total_ms() - attributed);
        out.exact("core.boot.overlap_ms", r.stream_overlap_ns / 1e6);
        out.exact("core.boot.transitions", f64::from(r.transitions));
    }
    let fig4b = figures::fig4b();
    if let Some(row) = fig4b.iter().find(|r| r.config == "with PIM") {
        out.exact("pim.boot.dram_gb", row.pim_dram_gb);
        out.exact("dram.boot.energy_j", row.dram_energy_j);
    }

    let ms = |v: &[f64]| crate::stats::Summary::of(v).median;
    // The crate split is that of the decomposed pass (every workload x
    // platform through `Workload::all`, `Anaheim::prepare` and
    // `Anaheim::run_prepared`); the dram/gpu/pim models run inside
    // `core`. The benchmark's share is the remainder.
    let d = ms(&whole);
    out.value("workloads.share", ms(&build) / d);
    out.value("core.share", ms(&core) / d);
    out.value("bench.share", 1.0 - ms(&build) / d - ms(&core) / d);
    out.idle(&[
        "ckks-math.share",
        "ckks.share",
        "serving.share",
        "obs.overhead_share",
        "ckks-math.ntt.share",
        "ckks-math.bconv.share",
        "ckks-math.ew.share",
        "ckks-math.automorphism.share",
        "ckks.ks.mod_up.share",
        "ckks.ks.key_mult.share",
        "ckks.ks.mod_down.share",
    ]);
    // The figure split of the traced pass; the rest is the remainder.
    let pass = ms(&traced);
    out.value("figures.fig8.share", ms(&fig8) / pass);
    out.value("figures.fig10.share", ms(&fig10) / pass);
    out.value("figures.table5.share", ms(&table5) / pass);
    out.value(
        "figures.rest.share",
        1.0 - (ms(&fig8) + ms(&fig10) + ms(&table5)) / pass,
    );
    out.sampled("op_ms.traced", &traced);
    out.value("trace_overhead_share", pass / ms(&untraced) - 1.0);
    out.note(format!(
        "figure pass: fig8 {:.1} + fig10 {:.1} + table5 {:.1} + rest {:.1} ms = {:.1} ms traced \
         ({:.1} ms untraced, {} passes each)",
        ms(&fig8),
        ms(&fig10),
        ms(&table5),
        pass - ms(&fig8) - ms(&fig10) - ms(&table5),
        pass,
        ms(&untraced),
        traced.len()
    ));
    out.note(format!(
        "decomposed pass: build {:.1} + prepare/schedule {:.1} + rest {:.1} ms = {d:.1} ms",
        ms(&build),
        ms(&core),
        d - ms(&build) - ms(&core),
    ));
}
