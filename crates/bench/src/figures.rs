//! Figure and table generators.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use anaheim_core::build::{Builder, LinTransStyle};
use anaheim_core::framework::{Anaheim, AnaheimConfig};
use anaheim_core::ir::{ObjKind, OpSequence};
use anaheim_core::params::ParamSet;
use anaheim_core::report::ExecutionReport;
use gpu::config::{GpuConfig, LibraryProfile};
use gpu::kernel::{KernelClass, KernelDesc};
use gpu::model::GpuModel;
use pim::device::PimDeviceConfig;
use pim::exec::{PimExecutor, PimKernelSpec};
use pim::isa::PimInstruction;
use pim::layout::LayoutPolicy;
use workloads::{run_workload, Workload};

/// Distinct evk / plaintext bytes of a sequence (each object counted once).
fn distinct_stream_bytes(seq: &OpSequence) -> (u64, u64) {
    let mut seen = std::collections::HashSet::new();
    let (mut evk, mut pt) = (0u64, 0u64);
    for op in &seq.ops {
        for r in &op.reads {
            if seen.insert(r.id) {
                match r.kind {
                    ObjKind::Evk => evk += r.bytes,
                    ObjKind::Plaintext => pt += r.bytes,
                    _ => {}
                }
            }
        }
    }
    (evk, pt)
}

// ---------------------------------------------------------------- Fig. 1

/// One row of the Fig. 1 table: CoeffToSlot cost under an algorithm choice.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Distinct evk gigabytes.
    pub evk_gb: f64,
    /// Distinct plaintext gigabytes.
    pub plaintext_gb: f64,
    /// Total (I)NTT limb transforms.
    pub ntt_limbs: u64,
    /// Key switches (ModDown bundles).
    pub keyswitches: u64,
}

/// The Fig. 1 table: CoeffToSlot (4 hoisted stages, K per stage) under
/// Base / Hoisting / MinKS.
pub fn fig1_table() -> Vec<Fig1Row> {
    let params = ParamSet::paper_default();
    let k = 31; // fftIter=4 stage density
    let stages = params.fft_iter_c2s;
    let mut rows = Vec::new();
    enum Algo {
        BsgsBase,
        BsgsHoist,
        MinKs,
    }
    for (name, algo) in [
        ("Base", Algo::BsgsBase),
        ("Hoisting", Algo::BsgsHoist),
        ("MinKS", Algo::MinKs),
    ] {
        let mut b = Builder::new(params.clone());
        let mut seq = OpSequence::new(params.clone());
        let mut level = params.l_max;
        let n1 = (k as f64).sqrt().ceil() as usize;
        for _ in 0..stages {
            let lt = match algo {
                Algo::BsgsBase => b.lintrans_bsgs_opt(level, k, n1, false),
                Algo::BsgsHoist => b.lintrans_bsgs_opt(level, k, n1, true),
                Algo::MinKs => b.lintrans(level, k, LinTransStyle::MinKS, false),
            };
            seq.keyswitches += lt.keyswitches;
            seq.ops.extend(lt.ops);
            level -= params.limbs_per_level();
        }
        let (evk, pt) = distinct_stream_bytes(&seq);
        let s = seq.summary();
        rows.push(Fig1Row {
            algorithm: name,
            evk_gb: evk as f64 / 1e9,
            plaintext_gb: pt as f64 / 1e9,
            ntt_limbs: s.total_ntt_limbs(),
            keyswitches: seq.keyswitches,
        });
    }
    rows
}

// --------------------------------------------------------------- Fig. 2a

/// One bar of Fig. 2a: a basic CKKS function under one library.
#[derive(Debug, Clone)]
pub struct Fig2aRow {
    /// Function name.
    pub function: &'static str,
    /// Library name.
    pub library: &'static str,
    /// Execution time in µs on the A100 model.
    pub time_us: f64,
    /// Breakdown (class → µs).
    pub breakdown_us: BTreeMap<&'static str, f64>,
}

/// Fig. 2a: HADD/PMULT/HMULT/HROT × {Phantom, 100x, Cheddar} on A100.
pub fn fig2a() -> Vec<Fig2aRow> {
    let params = ParamSet::paper_default();
    let mut rows = Vec::new();
    for (lib_name, lib) in [
        ("Phantom", LibraryProfile::phantom()),
        ("100x", LibraryProfile::hundredx()),
        ("Cheddar", LibraryProfile::cheddar()),
    ] {
        let cfg = AnaheimConfig {
            name: "A100",
            gpu: GpuConfig::a100_80gb(),
            library: lib,
            ..AnaheimConfig::a100_baseline()
        };
        let rt = Anaheim::new(cfg);
        let fns: Vec<(&'static str, OpSequence)> = {
            let mut b = Builder::new(params.clone());
            vec![
                ("HADD", b.hadd(params.l_max)),
                ("PMULT", b.pmult(params.l_max)),
                ("HMULT", b.hmult(params.l_max)),
                ("HROT", b.hrot(params.l_max)),
            ]
        };
        for (name, seq) in fns {
            let r = rt.run(seq).expect("preset config runs");
            rows.push(Fig2aRow {
                function: name,
                library: lib_name,
                time_us: r.total_ns / 1e3,
                breakdown_us: r.breakdown_ns.iter().map(|(k, v)| (*k, v / 1e3)).collect(),
            });
        }
    }
    rows
}

// --------------------------------------------------------------- Fig. 2b

/// One bar of Fig. 2b: bootstrapping efficiency at a decomposition number.
#[derive(Debug, Clone)]
pub struct Fig2bRow {
    /// GPU name.
    pub gpu: &'static str,
    /// Decomposition number `D`.
    pub d: usize,
    /// `T_boot,eff` in ms (None = OoM).
    pub t_boot_eff_ms: Option<f64>,
    /// Element-wise share of bootstrapping time.
    pub elementwise_share: f64,
}

/// Estimated working set of a full bootstrap at decomposition `D` (the evk
/// pool grows with `D`, driving the 4090 OoM cases of Fig. 2b).
fn boot_footprint_bytes(d: usize) -> u64 {
    const GIB: u64 = 1 << 30;
    8 * GIB + (22 * d as u64 * GIB) / 10
}

/// Fig. 2b: `T_boot,eff` vs `D` on both GPUs.
pub fn fig2b() -> Vec<Fig2bRow> {
    let mut rows = Vec::new();
    for (gpu_name, cfg) in [
        ("A100 80GB", AnaheimConfig::a100_baseline()),
        ("RTX 4090", AnaheimConfig::rtx4090_baseline()),
    ] {
        for d in [2usize, 3, 4, 6, 8] {
            let params = ParamSet::with_decomposition(d);
            let l_eff = params.l_eff;
            if boot_footprint_bytes(d) > cfg.gpu.dram_capacity_bytes as u64 {
                rows.push(Fig2bRow {
                    gpu: gpu_name,
                    d,
                    t_boot_eff_ms: None,
                    elementwise_share: 0.0,
                });
                continue;
            }
            let mut b = Builder::new(params);
            let seq = b.bootstrap();
            let rt = Anaheim::new(cfg.clone());
            let r = rt.run(seq).expect("preset config runs");
            rows.push(Fig2bRow {
                gpu: gpu_name,
                d,
                t_boot_eff_ms: Some(r.total_ms() / l_eff as f64),
                elementwise_share: r.fraction("element-wise"),
            });
        }
    }
    rows
}

// --------------------------------------------------------------- Fig. 2c

/// One bar of Fig. 2c: bootstrapping with an algorithm choice.
#[derive(Debug, Clone)]
pub struct Fig2cRow {
    /// Algorithm (Base / Hoist / MinKS).
    pub algorithm: &'static str,
    /// `T_boot,eff` in ms on A100.
    pub t_boot_eff_ms: f64,
    /// Element-wise share.
    pub elementwise_share: f64,
}

/// Builds a bootstrap whose linear-transform stages use the given style
/// (the hoisted default builds BSGS; Base/MinKS substitute the §III-B
/// alternatives at matching diagonal counts).
fn bootstrap_with_style(style: Option<LinTransStyle>) -> OpSequence {
    let params = ParamSet::paper_default();
    match style {
        None => {
            let mut b = Builder::new(params);
            b.bootstrap()
        }
        Some(style) => {
            // Replace the 7 transform stages with the requested style; the
            // EvalMod core is shared.
            let mut b = Builder::new(params.clone());
            let mut seq = OpSequence::new(params.clone());
            let mut level = params.l_max;
            let k = 31;
            for _ in 0..(params.fft_iter_c2s + params.fft_iter_s2c) {
                let lt = b.lintrans(level, k, style, false);
                seq.keyswitches += lt.keyswitches;
                seq.ops.extend(lt.ops);
                level -= params.limbs_per_level();
            }
            // EvalMod from the default bootstrap, approximated by building
            // the full default and keeping its non-lintrans share — here we
            // simply append the default EvalMod-equivalent mult chain.
            let mut b2 = Builder::new(params.clone());
            for s in 0..26usize {
                let lvl = params.l_max - 8 - 2 * (s / 4);
                let h = b2.hmult(lvl);
                seq.keyswitches += h.keyswitches;
                seq.ops.extend(h.ops);
            }
            seq
        }
    }
}

/// Fig. 2c: Base vs Hoist vs MinKS bootstrapping on A100 (D = 4).
pub fn fig2c() -> Vec<Fig2cRow> {
    let rt = Anaheim::new(AnaheimConfig::a100_baseline());
    let l_eff = ParamSet::paper_default().l_eff as f64;
    [
        ("Base", Some(LinTransStyle::Base)),
        ("Hoist", None),
        ("MinKS", Some(LinTransStyle::MinKS)),
    ]
    .into_iter()
    .map(|(name, style)| {
        let r = rt
            .run(bootstrap_with_style(style))
            .expect("preset config runs");
        Fig2cRow {
            algorithm: name,
            t_boot_eff_ms: r.total_ms() / l_eff,
            elementwise_share: r.fraction("element-wise"),
        }
    })
    .collect()
}

// ---------------------------------------------------------------- Fig. 3

/// One bar of Fig. 3: fftIter sensitivity.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// (CoeffToSlot, SlotToCoeff) fftIter pair.
    pub fft_iter: (usize, usize),
    /// `T_boot,eff` in ms on A100 (None = OoM).
    pub t_boot_eff_ms: Option<f64>,
    /// Element-wise share.
    pub elementwise_share: f64,
}

/// Fig. 3: `T_boot,eff` vs fftIter on A100.
pub fn fig3() -> Vec<Fig3Row> {
    let rt = Anaheim::new(AnaheimConfig::a100_baseline());
    [(3, 3), (4, 3), (4, 4), (5, 5), (6, 6)]
        .into_iter()
        .map(|(c2s, s2c)| {
            let params = ParamSet::paper_default().with_fft_iter(c2s, s2c);
            let l_eff = params.l_eff as f64;
            let mut b = Builder::new(params);
            let seq = b.bootstrap();
            let r = rt.run(seq).expect("preset config runs");
            Fig3Row {
                fft_iter: (c2s, s2c),
                t_boot_eff_ms: Some(r.total_ms() / l_eff),
                elementwise_share: r.fraction("element-wise"),
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 4

/// Fig. 4a: Gantt charts of the running-example linear transform
/// (K = 8, D = 4) under the three platforms.
pub fn fig4a() -> Vec<(String, ExecutionReport)> {
    let params = ParamSet::paper_default();
    let mk = || {
        let mut b = Builder::new(params.clone());
        b.lintrans(params.l_max, 8, LinTransStyle::Hoisting, true)
    };
    [
        AnaheimConfig::a100_baseline(),
        AnaheimConfig::a100_4x_bandwidth(),
        AnaheimConfig::a100_near_bank(),
    ]
    .into_iter()
    .map(|cfg| {
        let name = cfg.name.to_string();
        (
            name,
            Anaheim::new(cfg).run(mk()).expect("preset config runs"),
        )
    })
    .collect()
}

/// Fig. 4b rows: bootstrapping DRAM access and energy.
#[derive(Debug, Clone)]
pub struct Fig4bRow {
    /// Configuration.
    pub config: &'static str,
    /// GPU-side DRAM gigabytes.
    pub gpu_dram_gb: f64,
    /// PIM-side gigabytes.
    pub pim_dram_gb: f64,
    /// DRAM access energy (J).
    pub dram_energy_j: f64,
}

/// Fig. 4b: bootstrapping DRAM access/energy — baseline, PIM, and the
/// ideal unlimited-cache case (which uses MinKS to dedupe evks).
pub fn fig4b() -> Vec<Fig4bRow> {
    let mut b = Builder::new(ParamSet::paper_default());
    let seq = b.bootstrap();

    let base = Anaheim::new(AnaheimConfig::a100_baseline())
        .run(seq.clone())
        .expect("preset config runs");
    let pimr = Anaheim::new(AnaheimConfig::a100_near_bank())
        .run(seq.clone())
        .expect("preset config runs");

    // Ideal: unlimited cache, compulsory misses only; MinKS would reuse a
    // single rotation key, cutting the distinct evk pool ~4× (§V-D).
    let (evk, pt) = distinct_stream_bytes(&seq);
    let ideal_bytes = evk / 4 + pt;
    let hbm = dram::config::DramEnergyParams::hbm2e();
    let per_byte = |dest_pj: f64| (hbm.array_pj_per_bit + dest_pj) * 8.0 * 1e-12;

    vec![
        Fig4bRow {
            config: "w/o PIM (baseline)",
            gpu_dram_gb: base.gpu_dram_bytes as f64 / 1e9,
            pim_dram_gb: 0.0,
            dram_energy_j: base.gpu_dram_bytes as f64 * per_byte(hbm.offchip_pj_per_bit),
        },
        Fig4bRow {
            config: "with PIM",
            gpu_dram_gb: pimr.gpu_dram_bytes as f64 / 1e9,
            pim_dram_gb: pimr.pim_dram_bytes as f64 / 1e9,
            dram_energy_j: pimr.gpu_dram_bytes as f64 * per_byte(hbm.offchip_pj_per_bit)
                + pimr.pim_dram_bytes as f64 * per_byte(hbm.nearbank_move_pj_per_bit),
        },
        Fig4bRow {
            config: "ideal (unlimited cache, MinKS)",
            gpu_dram_gb: ideal_bytes as f64 / 1e9,
            pim_dram_gb: 0.0,
            dram_energy_j: ideal_bytes as f64 * per_byte(hbm.offchip_pj_per_bit),
        },
    ]
}

// ---------------------------------------------------------------- Fig. 8

/// One group of Fig. 8 bars: a workload on one Anaheim configuration.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Workload name.
    pub workload: &'static str,
    /// Anaheim configuration name.
    pub config: &'static str,
    /// Speedup over the matching GPU-only baseline (None = OoM).
    pub speedup: Option<f64>,
    /// Energy-efficiency improvement.
    pub energy_gain: Option<f64>,
    /// EDP improvement.
    pub edp_gain: Option<f64>,
    /// Absolute Anaheim time in ms.
    pub time_ms: Option<f64>,
}

/// Fig. 8: all six workloads × the three Anaheim configurations.
pub fn fig8() -> Vec<Fig8Row> {
    let pairs = [
        (
            AnaheimConfig::a100_baseline(),
            AnaheimConfig::a100_near_bank(),
        ),
        (
            AnaheimConfig::a100_baseline(),
            AnaheimConfig::a100_custom_hbm(),
        ),
        (
            AnaheimConfig::rtx4090_baseline(),
            AnaheimConfig::rtx4090_near_bank(),
        ),
    ];
    let workloads = Workload::all();
    let mut rows = Vec::new();
    for (base_cfg, pim_cfg) in pairs {
        let base = Anaheim::new(base_cfg);
        let pimrt = Anaheim::new(pim_cfg);
        for w in &workloads {
            let b = run_workload(&base, w).expect("preset config runs").outcome;
            let p = run_workload(&pimrt, w).expect("preset config runs").outcome;
            let row = match (b, p) {
                (Some(b), Some(p)) => Fig8Row {
                    workload: w.name,
                    config: pimrt.config().name,
                    speedup: Some(b.time_ms / p.time_ms),
                    energy_gain: Some(b.energy_j / p.energy_j),
                    edp_gain: Some(b.edp() / p.edp()),
                    time_ms: Some(p.time_ms),
                },
                _ => Fig8Row {
                    workload: w.name,
                    config: pimrt.config().name,
                    speedup: None,
                    energy_gain: None,
                    edp_gain: None,
                    time_ms: None,
                },
            };
            rows.push(row);
        }
    }
    rows
}

// ---------------------------------------------------------------- Fig. 9

/// One point of Fig. 9: a PIM instruction at a buffer size.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Device name.
    pub device: &'static str,
    /// Instruction mnemonic.
    pub instruction: String,
    /// Buffer entries `B`.
    pub buffer: usize,
    /// Speedup over the GPU executing the same op (None = unsupported).
    pub speedup: Option<f64>,
    /// Energy-efficiency improvement over the GPU.
    pub energy_gain: Option<f64>,
}

/// Fig. 9: per-instruction microbenchmark across buffer sizes.
pub fn fig9() -> Vec<Fig9Row> {
    let n = 1usize << 16;
    let limbs = 54usize;
    let mut rows = Vec::new();
    for base_dev in PimDeviceConfig::all() {
        let gpu_cfg = if base_dev.dram.external_bw_gbps > 1200.0 {
            GpuConfig::a100_80gb()
        } else {
            GpuConfig::rtx4090()
        };
        let gm = GpuModel::new(gpu_cfg, LibraryProfile::cheddar());
        for instr in PimInstruction::table2(4) {
            for b in [4usize, 8, 16, 32, 64] {
                let dev = base_dev.clone().with_buffer_entries(b);
                let exec = PimExecutor::new(&dev, LayoutPolicy::ColumnPartitioned);
                let spec = PimKernelSpec { instr, limbs, n };
                let r = match exec.execute(&spec) {
                    Ok(r) => r,
                    // Unsupported at this buffer size: an empty bar.
                    Err(_) => {
                        rows.push(Fig9Row {
                            device: dev.name,
                            instruction: instr.mnemonic(),
                            buffer: b,
                            speedup: None,
                            energy_gain: None,
                        });
                        continue;
                    }
                };
                let bytes = exec.gpu_bytes_equivalent(&spec);
                let gk = KernelDesc::new(
                    KernelClass::ElementWise,
                    (n * limbs) as u64 * instr.mmac_ops_per_element() as u64 * 6,
                    bytes / 2,
                    bytes - bytes / 2,
                );
                let gc = gm.cost(&gk);
                rows.push(Fig9Row {
                    device: dev.name,
                    instruction: instr.mnemonic(),
                    buffer: b,
                    speedup: Some(gc.time_ns / r.latency_ns),
                    energy_gain: Some(gc.energy_j / r.energy_joules(&dev)),
                });
            }
        }
    }
    rows
}

// --------------------------------------------------------------- Fig. 10

/// One bar of Fig. 10: a workload under an incremental configuration.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload name.
    pub workload: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Execution time in ms (per the workload's unit).
    pub time_ms: Option<f64>,
    /// Element-wise time in ms.
    pub elementwise_ms: Option<f64>,
}

/// Fig. 10: fusion sensitivity on A100 near-bank, plus the w/o-CP layout
/// ablation.
pub fn fig10() -> Vec<Fig10Row> {
    use anaheim_core::passes::FusionConfig;
    let mut rows = Vec::new();
    let configs: Vec<(&'static str, AnaheimConfig)> = vec![
        ("Base (GPU)", {
            let mut c = AnaheimConfig::a100_baseline();
            c.fusion = FusionConfig::none();
            c
        }),
        ("+BasicFuse (GPU)", {
            let mut c = AnaheimConfig::a100_baseline();
            c.fusion = FusionConfig::basic_only();
            c
        }),
        ("+ExtraFuse (GPU)", AnaheimConfig::a100_baseline()),
        ("PIM-Base", {
            let mut c = AnaheimConfig::a100_near_bank();
            c.fusion = FusionConfig::none();
            c
        }),
        ("PIM +BasicFuse", {
            let mut c = AnaheimConfig::a100_near_bank();
            c.fusion = FusionConfig::basic_only();
            c
        }),
        ("PIM +AutFuse", AnaheimConfig::a100_near_bank()),
        ("PIM w/o CP", {
            let mut c = AnaheimConfig::a100_near_bank();
            c.layout = LayoutPolicy::Contiguous;
            c
        }),
    ];
    for w in Workload::all() {
        for (label, cfg) in &configs {
            let rt = Anaheim::new(cfg.clone());
            let r = run_workload(&rt, &w).expect("preset config runs");
            match r.outcome {
                Some(nums) => rows.push(Fig10Row {
                    workload: w.name,
                    config: label,
                    time_ms: Some(nums.time_ms),
                    elementwise_ms: Some(
                        nums.breakdown_ms
                            .get("element-wise")
                            .copied()
                            .unwrap_or(0.0),
                    ),
                }),
                None => rows.push(Fig10Row {
                    workload: w.name,
                    config: label,
                    time_ms: None,
                    elementwise_ms: None,
                }),
            }
        }
    }
    rows
}

// --------------------------------------------------------------- Table V

/// One row of Table V.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// System name.
    pub system: &'static str,
    /// Whether the numbers come from this reproduction or the literature.
    pub measured: bool,
    /// Boot / HELR / ResNet20 / Sort times in ms (None = not reported or
    /// OoM).
    pub boot_ms: Option<f64>,
    /// HELR per-iteration ms.
    pub helr_ms: Option<f64>,
    /// ResNet20 ms.
    pub resnet20_ms: Option<f64>,
    /// Sort ms.
    pub sort_ms: Option<f64>,
}

/// Table V: Anaheim (measured by the model) against the literature
/// constants the paper tabulates.
pub fn table5() -> Vec<Table5Row> {
    let lit = |system, boot, helr, r20, sort| Table5Row {
        system,
        measured: false,
        boot_ms: boot,
        helr_ms: helr,
        resnet20_ms: r20,
        sort_ms: sort,
    };
    let mut rows = vec![
        lit("100x (V100)", Some(328.0), Some(775.0), None, None),
        lit(
            "TensorFHE (A100)",
            Some(250.0),
            Some(1007.0),
            Some(4940.0),
            None,
        ),
        lit("GME (MI100)", Some(33.6), Some(54.5), Some(980.0), None),
        lit("FAB (FPGA)", Some(477.0), Some(103.0), None, None),
        lit(
            "Poseidon (FPGA)",
            Some(128.0),
            Some(72.9),
            Some(2660.0),
            None,
        ),
        lit(
            "CraterLake (ASIC)",
            Some(6.33),
            Some(3.81),
            Some(320.0),
            None,
        ),
        lit(
            "BTS (ASIC)",
            Some(28.6),
            Some(28.4),
            Some(1910.0),
            Some(15600.0),
        ),
        lit(
            "ARK (ASIC)",
            Some(3.52),
            Some(7.42),
            Some(130.0),
            Some(1990.0),
        ),
        lit(
            "SHARP (ASIC)",
            Some(3.12),
            Some(2.53),
            Some(100.0),
            Some(1380.0),
        ),
    ];
    let [boot, helr, resnet20, sort] = [
        Workload::boot(),
        Workload::helr(),
        Workload::resnet20(),
        Workload::sort(),
    ];
    for cfg in [
        AnaheimConfig::a100_near_bank(),
        AnaheimConfig::a100_custom_hbm(),
        AnaheimConfig::rtx4090_near_bank(),
    ] {
        let rt = Anaheim::new(cfg);
        let get = |w: &Workload| {
            run_workload(&rt, w)
                .expect("preset config runs")
                .outcome
                .map(|n| n.time_ms)
        };
        rows.push(Table5Row {
            system: rt.config().name,
            measured: true,
            boot_ms: get(&boot),
            helr_ms: get(&helr),
            resnet20_ms: get(&resnet20),
            sort_ms: get(&sort),
        });
    }
    rows
}

/// Table III: the evaluated configurations (inputs, printed for
/// completeness).
pub fn table3() -> Vec<(String, PimDeviceConfig)> {
    PimDeviceConfig::all()
        .into_iter()
        .map(|d| {
            (
                format!(
                    "{}: {:.3} TOPS, B={}, {}x BW, {:.2} mm2 ({:.2}%)",
                    d.name,
                    d.peak_tops(),
                    d.buffer_entries,
                    d.bw_increase,
                    d.area_mm2,
                    d.area_overhead_pct
                ),
                d,
            )
        })
        .collect()
}

// ---------------------------------------------------------------- Text

/// Renders one figure or table as the text the `figures` binary prints.
pub type Render = fn() -> String;

/// Every figure and table in the `figures` binary's `all` order: its
/// command-line name and the renderer of its text.
pub const FIGURES: [(&str, Render); 12] = [
    ("table3", render_table3),
    ("fig1", render_fig1),
    ("fig2a", render_fig2a),
    ("fig2b", render_fig2b),
    ("fig2c", render_fig2c),
    ("fig3", render_fig3),
    ("fig4a", render_fig4a),
    ("fig4b", render_fig4b),
    ("fig8", render_fig8),
    ("fig9", render_fig9),
    ("fig10", render_fig10),
    ("table5", render_table5),
];

/// Writes a figure's title rule.
fn hr(out: &mut String, title: &str) {
    let _ = writeln!(
        out,
        "\n=== {title} {}",
        "=".repeat(66usize.saturating_sub(title.len()))
    );
}

/// Table III as text.
pub fn render_table3() -> String {
    let mut out = String::new();
    hr(&mut out, "Table III: Anaheim configurations");
    for (line, _) in table3() {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// Fig. 1 as text.
pub fn render_fig1() -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "Fig. 1 (table): CoeffToSlot under Base / Hoisting / MinKS",
    );
    let _ = writeln!(
        out,
        "  {:10} {:>10} {:>14} {:>12} {:>12}",
        "algorithm", "evks (GB)", "plaintexts(GB)", "#(I)NTT", "keyswitches"
    );
    for r in fig1_table() {
        let _ = writeln!(
            out,
            "  {:10} {:>10.2} {:>14.2} {:>12} {:>12}",
            r.algorithm, r.evk_gb, r.plaintext_gb, r.ntt_limbs, r.keyswitches
        );
    }
    let _ = writeln!(
        out,
        "  paper shape: hoisting cuts #(I)NTT ~2.47x; MinKS needs ~4x fewer evks"
    );
    out
}

/// Fig. 2a as text.
pub fn render_fig2a() -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "Fig. 2a: basic CKKS functions x libraries (A100 model)",
    );
    let _ = writeln!(
        out,
        "  {:8} {:>10} {:>12} {:>12}",
        "function", "Phantom", "100x", "Cheddar"
    );
    let rows = fig2a();
    for f in ["HADD", "PMULT", "HMULT", "HROT"] {
        let t = |lib: &str| {
            rows.iter()
                .find(|r| r.function == f && r.library == lib)
                .map(|r| r.time_us)
                .unwrap_or(f64::NAN)
        };
        let _ = writeln!(
            out,
            "  {:8} {:>9.1}us {:>11.1}us {:>11.1}us",
            f,
            t("Phantom"),
            t("100x"),
            t("Cheddar")
        );
    }
    out
}

/// Fig. 2b as text.
pub fn render_fig2b() -> String {
    let mut out = String::new();
    hr(&mut out, "Fig. 2b: T_boot,eff vs decomposition number D");
    let _ = writeln!(
        out,
        "  {:12} {:>3} {:>14} {:>16}",
        "GPU", "D", "T_boot,eff", "elementwise"
    );
    for r in fig2b() {
        let _ = match r.t_boot_eff_ms {
            Some(t) => writeln!(
                out,
                "  {:12} {:>3} {:>11.2} ms {:>15.0}%",
                r.gpu,
                r.d,
                t,
                100.0 * r.elementwise_share
            ),
            None => writeln!(out, "  {:12} {:>3} {:>14} {:>16}", r.gpu, r.d, "OoM", "-"),
        };
    }
    let _ = writeln!(
        out,
        "  paper shape: EW 45-48% (A100), 68-69% (4090); OoM at large D on 4090"
    );
    out
}

/// Fig. 2c as text.
pub fn render_fig2c() -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "Fig. 2c: T_boot,eff under Base / Hoist / MinKS (A100, D=4)",
    );
    for r in fig2c() {
        let _ = writeln!(
            out,
            "  {:8} {:>8.2} ms  (element-wise {:>4.0}%)",
            r.algorithm,
            r.t_boot_eff_ms,
            100.0 * r.elementwise_share
        );
    }
    let _ = writeln!(
        out,
        "  paper shape: Hoist clearly fastest; MinKS ~ Base on GPUs"
    );
    out
}

/// Fig. 3 as text.
pub fn render_fig3() -> String {
    let mut out = String::new();
    hr(&mut out, "Fig. 3: T_boot,eff vs fftIter (A100)");
    for r in fig3() {
        let _ = match r.t_boot_eff_ms {
            Some(t) => writeln!(
                out,
                "  fftIter {:?}: {:>8.2} ms  (element-wise {:>4.0}%)",
                r.fft_iter,
                t,
                100.0 * r.elementwise_share
            ),
            None => writeln!(out, "  fftIter {:?}: OoM", r.fft_iter),
        };
    }
    let _ = writeln!(
        out,
        "  paper shape: the default 4/3 mix wins; fftIter=6 loses via L_eff"
    );
    out
}

/// Fig. 4a as text.
pub fn render_fig4a() -> String {
    let mut out = String::new();
    hr(&mut out, "Fig. 4a: linear transform (K=8) Gantt charts");
    for (name, report) in fig4a() {
        let _ = writeln!(out, "\n  [{name}] {}", report.summary_line());
        out.push_str(&report.render_gantt(100));
    }
    out
}

/// Fig. 4b as text.
pub fn render_fig4b() -> String {
    let mut out = String::new();
    hr(&mut out, "Fig. 4b: bootstrapping DRAM access & energy");
    let _ = writeln!(
        out,
        "  {:32} {:>10} {:>10} {:>12}",
        "config", "GPU (GB)", "PIM (GB)", "energy (J)"
    );
    for r in fig4b() {
        let _ = writeln!(
            out,
            "  {:32} {:>10.2} {:>10.2} {:>12.3}",
            r.config, r.gpu_dram_gb, r.pim_dram_gb, r.dram_energy_j
        );
    }
    let _ = writeln!(
        out,
        "  paper shape: PIM slashes GPU-side DRAM ~6x; DRAM energy ~2.9x"
    );
    out
}

/// Fig. 8 as text.
pub fn render_fig8() -> String {
    let mut out = String::new();
    hr(&mut out, "Fig. 8: workload speedup / energy / EDP gains");
    let _ = writeln!(
        out,
        "  {:16} {:26} {:>8} {:>8} {:>8} {:>10}",
        "workload", "config", "speedup", "energy", "EDP", "time"
    );
    for r in fig8() {
        let _ = match (r.speedup, r.energy_gain, r.edp_gain, r.time_ms) {
            (Some(s), Some(e), Some(d), Some(t)) => writeln!(
                out,
                "  {:16} {:26} {:>7.2}x {:>7.2}x {:>7.2}x {:>8.1}ms",
                r.workload, r.config, s, e, d, t
            ),
            _ => writeln!(
                out,
                "  {:16} {:26} {:>8} {:>8} {:>8} {:>10}",
                r.workload, r.config, "OoM", "-", "-", "-"
            ),
        };
    }
    let _ = writeln!(
        out,
        "  paper shape: speedups 1.06-1.74x, EDP gains 1.62-3.14x, R20/R18 OoM on 4090"
    );
    out
}

/// Fig. 9 as text.
pub fn render_fig9() -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "Fig. 9: PIM instruction microbenchmark vs buffer size B",
    );
    let rows = fig9();
    let devices: Vec<&str> = {
        let mut v: Vec<&str> = rows.iter().map(|r| r.device).collect();
        v.dedup();
        v
    };
    for dev in devices {
        let _ = writeln!(
            out,
            "\n  [{dev}] speedup over GPU (columns: B = 4, 8, 16, 32, 64)"
        );
        let mut seen = std::collections::BTreeSet::new();
        for r in rows.iter().filter(|r| r.device == dev) {
            if !seen.insert(r.instruction.clone()) {
                continue;
            }
            let line: Vec<String> = [4usize, 8, 16, 32, 64]
                .iter()
                .map(|b| {
                    rows.iter()
                        .find(|x| {
                            x.device == dev && x.instruction == r.instruction && x.buffer == *b
                        })
                        .and_then(|x| x.speedup)
                        .map(|s| format!("{s:5.2}x"))
                        .unwrap_or_else(|| "   n/s".into())
                })
                .collect();
            let _ = writeln!(out, "    {:12} {}", r.instruction, line.join(" "));
        }
    }
    let _ = writeln!(
        out,
        "\n  paper shape: 1.65-10.3x at default B; PAccum/CAccum highest; saturates with B"
    );
    out
}

/// Fig. 10 as text.
pub fn render_fig10() -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "Fig. 10: fusion & layout sensitivity (times in ms)",
    );
    let rows = fig10();
    let configs: Vec<&str> = {
        let mut v: Vec<&str> = Vec::new();
        for r in &rows {
            if !v.contains(&r.config) {
                v.push(r.config);
            }
        }
        v
    };
    let _ = write!(out, "  {:16}", "workload");
    for c in &configs {
        let _ = write!(out, " {c:>16}");
    }
    let _ = writeln!(out);
    let mut seen = std::collections::BTreeSet::new();
    for r in &rows {
        if !seen.insert(r.workload) {
            continue;
        }
        let _ = write!(out, "  {:16}", r.workload);
        for c in &configs {
            let t = rows
                .iter()
                .find(|x| x.workload == r.workload && x.config == *c)
                .and_then(|x| x.time_ms);
            let _ = match t {
                Some(t) => write!(out, " {t:>14.1}ms"),
                None => write!(out, " {:>16}", "OoM"),
            };
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "  paper shape: fusions help both sides; w/o CP roughly doubles PIM EW time"
    );
    out
}

/// Table V as text.
pub fn render_table5() -> String {
    let mut out = String::new();
    hr(
        &mut out,
        "Table V: absolute workload times (ms; * = this reproduction)",
    );
    let _ = writeln!(
        out,
        "  {:28} {:>10} {:>10} {:>10} {:>10}",
        "system", "Boot", "HELR", "ResNet20", "Sort"
    );
    let p = |v: Option<f64>| match v {
        Some(t) => format!("{t:.1}"),
        None => "-".into(),
    };
    for r in table5() {
        let _ = writeln!(
            out,
            "  {:28} {:>10} {:>10} {:>10} {:>10}",
            format!("{}{}", r.system, if r.measured { " *" } else { "" }),
            p(r.boot_ms),
            p(r.helr_ms),
            p(r.resnet20_ms),
            p(r.sort_ms)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_hoisting_cuts_ntt_and_minks_cuts_evks() {
        let rows = fig1_table();
        let base = &rows[0];
        let hoist = &rows[1];
        let minks = &rows[2];
        // Hoisting: substantial (I)NTT reduction. The paper reports 2.47×
        // for its exact CoeffToSlot configuration; our BSGS baseline
        // already shares the giant-step structure, so the measured delta
        // (the baby-ModUp sharing) is smaller but must stay clearly > 1.
        let ntt_ratio = base.ntt_limbs as f64 / hoist.ntt_limbs as f64;
        assert!(
            (1.25..4.0).contains(&ntt_ratio),
            "hoisting NTT reduction (paper: 2.47×), got {ntt_ratio:.2}"
        );
        // MinKS: ~K× fewer distinct evk bytes than hoisting.
        assert!(
            minks.evk_gb < hoist.evk_gb / 4.0,
            "MinKS must use ≥4× fewer evk bytes (Fig. 1): {} vs {}",
            minks.evk_gb,
            hoist.evk_gb
        );
        // Hoisting plaintexts are larger (PQ lift).
        assert!(hoist.plaintext_gb >= minks.plaintext_gb);
    }

    #[test]
    fn fig2a_cheddar_fastest() {
        let rows = fig2a();
        let t = |f: &str, l: &str| {
            rows.iter()
                .find(|r| r.function == f && r.library == l)
                .expect("row")
                .time_us
        };
        for f in ["HMULT", "HROT"] {
            assert!(t(f, "Cheddar") < t(f, "100x"), "{f}");
            assert!(t(f, "Cheddar") < t(f, "Phantom"), "{f}");
            let ratio = t(f, "100x") / t(f, "Cheddar");
            assert!(
                (1.2..2.2).contains(&ratio),
                "{f}: Cheddar ≈1.5-1.8× faster, got {ratio:.2}"
            );
        }
    }

    #[test]
    fn fig2b_shares_and_oom() {
        let rows = fig2b();
        for r in &rows {
            if r.t_boot_eff_ms.is_some() {
                if r.gpu == "A100 80GB" {
                    assert!(
                        (0.30..0.60).contains(&r.elementwise_share),
                        "A100 D={} share {:.2}",
                        r.d,
                        r.elementwise_share
                    );
                } else {
                    assert!(
                        r.elementwise_share > 0.55,
                        "4090 D={} share {:.2}",
                        r.d,
                        r.elementwise_share
                    );
                }
            }
        }
        // The 4090 runs out of memory at the largest D.
        assert!(rows
            .iter()
            .any(|r| r.gpu == "RTX 4090" && r.t_boot_eff_ms.is_none()));
        // The A100 never does.
        assert!(rows
            .iter()
            .filter(|r| r.gpu == "A100 80GB")
            .all(|r| r.t_boot_eff_ms.is_some()));
    }

    #[test]
    fn fig3_default_mix_wins() {
        let rows = fig3();
        let best = rows
            .iter()
            .min_by(|a, b| {
                a.t_boot_eff_ms
                    .unwrap_or(f64::MAX)
                    .total_cmp(&b.t_boot_eff_ms.unwrap_or(f64::MAX))
            })
            .expect("rows");
        // The (4,3) default mix (or its neighbour) should win; fftIter=6
        // must lose on L_eff despite smaller transforms (the Fig. 3
        // trade-off).
        assert!(
            best.fft_iter.0 <= 4,
            "default mix should win, got {:?}",
            best.fft_iter
        );
        let six = rows.iter().find(|r| r.fft_iter == (6, 6)).expect("66");
        assert!(six.t_boot_eff_ms.unwrap() > best.t_boot_eff_ms.unwrap());
    }

    #[test]
    fn fig9_ranges() {
        let rows = fig9();
        // Default buffers: B=16 (A100s) and B=32 (4090).
        let defaults: Vec<&Fig9Row> = rows
            .iter()
            .filter(|r| {
                (r.device.contains("A100") && r.buffer == 16)
                    || (r.device.contains("4090") && r.buffer == 32)
            })
            .collect();
        let speedups: Vec<f64> = defaults.iter().filter_map(|r| r.speedup).collect();
        let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
        let max = speedups.iter().cloned().fold(0.0, f64::max);
        // Paper: 1.65–10.33× speedups at default configs.
        assert!(min > 1.2, "weakest instruction speedup too low: {min:.2}");
        assert!(max < 20.0, "strongest speedup implausible: {max:.2}");
        assert!(
            max > 4.0,
            "compound instructions must show big wins: {max:.2}"
        );
        // PAccum/CAccum are among the best (paper: 7.26×/10.33×).
        let paccum = defaults
            .iter()
            .filter(|r| {
                r.instruction.starts_with("PAccum")
                    && r.device.contains("near-bank")
                    && r.device.contains("A100")
            })
            .filter_map(|r| r.speedup)
            .next()
            .expect("paccum row");
        let add = defaults
            .iter()
            .filter(|r| {
                r.instruction == "Add"
                    && r.device.contains("near-bank")
                    && r.device.contains("A100")
            })
            .filter_map(|r| r.speedup)
            .next()
            .expect("add row");
        assert!(
            paccum > 1.5 * add,
            "PAccum must beat Add: {paccum:.2} vs {add:.2}"
        );
        // Unsupported at B=4: PAccum<4> and Tensor.
        assert!(rows
            .iter()
            .any(|r| r.buffer == 4 && r.instruction == "PAccum<4>" && r.speedup.is_none()));
    }
}
