//! Integration shape tests: the quantitative targets of DESIGN.md §4,
//! asserted on the regenerated figures. These are the "does the
//! reproduction tell the paper's story" checks.

use anaheim_bench::figures::*;

#[test]
fn fig2b_elementwise_shares() {
    // Paper: element-wise ops are 45–48% of bootstrapping on the A100 and
    // 68–69% on the RTX 4090, at every D (Fig. 2b).
    for r in fig2b() {
        if r.t_boot_eff_ms.is_none() {
            continue;
        }
        match r.gpu {
            "A100 80GB" => assert!(
                (0.30..0.60).contains(&r.elementwise_share),
                "A100 D={}: {:.0}%",
                r.d,
                100.0 * r.elementwise_share
            ),
            _ => assert!(
                (0.55..0.85).contains(&r.elementwise_share),
                "4090 D={}: {:.0}%",
                r.d,
                100.0 * r.elementwise_share
            ),
        }
    }
}

#[test]
fn fig2c_hoisting_wins_on_gpu() {
    // §III-C / Fig. 2c: hoisting beats both Base and MinKS on GPUs.
    let rows = fig2c();
    let t = |name: &str| {
        rows.iter()
            .find(|r| r.algorithm == name)
            .expect("row")
            .t_boot_eff_ms
    };
    assert!(t("Hoist") < t("Base"), "hoist must beat base");
    assert!(t("Hoist") < t("MinKS"), "hoist must beat MinKS on GPUs");
    // And hoisting raises the element-wise share (§IV-B).
    let share = |name: &str| {
        rows.iter()
            .find(|r| r.algorithm == name)
            .expect("row")
            .elementwise_share
    };
    assert!(share("Hoist") > share("MinKS"));
}

#[test]
fn fig4a_ordering() {
    // Fig. 4a: PIM < 4×BW < baseline on the linear transform, and the
    // 4×BW case barely helps ModSwitch while PIM matches it on EW.
    let reports = fig4a();
    let t = |name: &str| {
        reports
            .iter()
            .find(|(n, _)| n.contains(name))
            .expect("report")
            .1
            .total_ns
    };
    let base = t("GPU only");
    let bw4 = t("4x BW");
    let pim = t("near-bank");
    assert!(bw4 < base, "4x bandwidth must help");
    assert!(pim < base, "PIM must help");
    // PIM achieves a similar order of benefit to 4×BW without the
    // unrealistic bus (§V-A).
    let ratio = pim / bw4;
    assert!(
        (0.5..1.6).contains(&ratio),
        "PIM should land near the 4x-BW point: {ratio:.2}"
    );
}

#[test]
fn fig4b_traffic_and_energy_reductions() {
    let rows = fig4b();
    let base = &rows[0];
    let pim = &rows[1];
    let ideal = &rows[2];
    // Paper: 37 GB baseline → ~6 GB with PIM (6.15×); we require ≥ 2.5×
    // and the right ordering, with the ideal case below PIM.
    assert!(
        (25.0..50.0).contains(&base.gpu_dram_gb),
        "baseline bootstrap DRAM ≈ 37 GB, got {:.1}",
        base.gpu_dram_gb
    );
    let reduction = base.gpu_dram_gb / pim.gpu_dram_gb;
    assert!(
        reduction > 2.5,
        "PIM must slash GPU-side DRAM (paper 6.15×): {reduction:.2}"
    );
    assert!(ideal.gpu_dram_gb < pim.gpu_dram_gb);
    // DRAM energy: PIM's internal accesses are cheap, so total DRAM energy
    // drops despite more bytes moved (paper 2.87×).
    assert!(
        pim.dram_energy_j < base.dram_energy_j,
        "PIM DRAM energy must drop: {} vs {}",
        pim.dram_energy_j,
        base.dram_energy_j
    );
}

#[test]
fn fig8_bands() {
    let rows = fig8();
    for r in &rows {
        match r.speedup {
            None => assert!(
                r.workload.starts_with("ResNet") && r.config.contains("4090"),
                "only ResNets on the 4090 may OoM: {} on {}",
                r.workload,
                r.config
            ),
            Some(s) => {
                assert!(
                    (1.02..2.5).contains(&s),
                    "{} on {}: speedup {s:.2} out of band",
                    r.workload,
                    r.config
                );
                let edp = r.edp_gain.expect("edp");
                assert!(
                    (1.25..3.5).contains(&edp),
                    "{} on {}: EDP gain {edp:.2} out of band (paper 1.62-3.14)",
                    r.workload,
                    r.config
                );
            }
        }
    }
    // Custom-HBM trails near-bank slightly on the A100 (§VII-B).
    let s = |wl: &str, cfg: &str| {
        rows.iter()
            .find(|r| r.workload == wl && r.config.contains(cfg))
            .and_then(|r| r.speedup)
            .expect("speedup")
    };
    assert!(s("Boot", "near-bank PIM") >= s("Boot", "custom-HBM"));
    let gap = s("Boot", "near-bank PIM") / s("Boot", "custom-HBM");
    assert!(
        gap < 1.25,
        "custom-HBM only slightly lower (§VII-B): {gap:.2}"
    );
}

#[test]
fn fig10_ablation_shape() {
    let rows = fig10();
    let t = |wl: &str, cfg: &str| {
        rows.iter()
            .find(|r| r.workload == wl && r.config == cfg)
            .and_then(|r| r.time_ms)
            .expect("time")
    };
    for wl in ["Boot", "HELR"] {
        // Fusions monotonically help on both sides.
        assert!(t(wl, "+BasicFuse (GPU)") <= t(wl, "Base (GPU)"), "{wl}");
        assert!(
            t(wl, "+ExtraFuse (GPU)") <= t(wl, "+BasicFuse (GPU)"),
            "{wl}"
        );
        assert!(t(wl, "PIM +BasicFuse") <= t(wl, "PIM-Base"), "{wl}");
        // The full PIM configuration beats the strongest GPU baseline.
        assert!(t(wl, "PIM +AutFuse") < t(wl, "+ExtraFuse (GPU)"), "{wl}");
        // w/o CP loses most of the PIM benefit (paper: ~2.2× slower EW).
        assert!(t(wl, "PIM w/o CP") > t(wl, "PIM +AutFuse"), "{wl}");
    }
    // Element-wise slowdown without column partitioning, geometric mean
    // across workloads (paper: 2.24× on A100).
    let mut ratios = Vec::new();
    for wl in ["Boot", "HELR", "Sort", "RNN"] {
        let ew = |cfg: &str| {
            rows.iter()
                .find(|r| r.workload == wl && r.config == cfg)
                .and_then(|r| r.elementwise_ms)
                .expect("ew")
        };
        ratios.push(ew("PIM w/o CP") / ew("PIM +AutFuse"));
    }
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(
        (1.5..4.0).contains(&geomean),
        "w/o-CP element-wise slowdown ≈ 2.2× (paper), got {geomean:.2}"
    );
}

#[test]
fn table5_anaheim_vs_literature() {
    let rows = table5();
    let ours_boot = rows
        .iter()
        .find(|r| r.measured && r.system.contains("A100 + near-bank"))
        .and_then(|r| r.boot_ms)
        .expect("our boot");
    // Paper Table V: Anaheim (A100) Boot = 29.3 ms. Shape requirements:
    // faster than all GPU/FPGA rows, slower than the big ASICs.
    for r in &rows {
        if r.measured {
            continue;
        }
        if let Some(b) = r.boot_ms {
            match r.system {
                "100x (V100)" | "TensorFHE (A100)" | "FAB (FPGA)" | "Poseidon (FPGA)" => {
                    assert!(
                        ours_boot < b,
                        "must beat {}: {ours_boot:.1} vs {b}",
                        r.system
                    )
                }
                "ARK (ASIC)" | "SHARP (ASIC)" | "CraterLake (ASIC)" => {
                    assert!(
                        ours_boot > b,
                        "ASICs stay ahead ({}): {ours_boot:.1} vs {b}",
                        r.system
                    )
                }
                _ => {}
            }
        }
    }
    // Within ~2× of the paper's reported 29.3 ms absolute.
    assert!(
        (15.0..60.0).contains(&ours_boot),
        "Boot ≈ 29.3 ms (paper), got {ours_boot:.1}"
    );
}

#[test]
fn minks_wins_only_on_asic_like_hardware() {
    // §III-C: MinKS beats hoisting only with hundreds of MB of on-chip
    // cache (the evk gets reused from SRAM) and high compute throughput;
    // on GPUs hoisting wins. Both halves of the claim, from one model.
    use anaheim::core::build::{Builder, LinTransStyle};
    use anaheim::core::framework::{Anaheim, AnaheimConfig};
    use anaheim::core::health::RetryPolicy;
    use anaheim::core::params::ParamSet;
    use anaheim::core::passes::FusionConfig;
    use anaheim::core::schedule::{ScheduleMode, MAX_PIM_RETRIES};
    use anaheim::gpu::config::{GpuConfig, LibraryProfile};
    use anaheim::pim::layout::LayoutPolicy;

    let params = ParamSet::paper_default();
    let k = 16;
    let build = |style, reorder| {
        let mut b = Builder::new(params.clone());
        // Several transforms back-to-back so evk reuse across transforms
        // matters (the CoeffToSlot setting of Fig. 1).
        let mut seq = b.lintrans(params.l_max, k, style, reorder);
        for _ in 0..3 {
            let t = b.lintrans(params.l_max, k, style, reorder);
            seq.keyswitches += t.keyswitches;
            seq.ops.extend(t.ops);
        }
        seq
    };
    let run = |gpu: GpuConfig, style, reorder| {
        let cfg = AnaheimConfig {
            name: "probe",
            gpu,
            library: LibraryProfile::cheddar(),
            pim: None,
            layout: LayoutPolicy::ColumnPartitioned,
            fusion: FusionConfig::gpu_baseline(),
            fault: None,
            retry: RetryPolicy::fixed(MAX_PIM_RETRIES),
            schedule: ScheduleMode::Serial,
        };
        Anaheim::new(cfg)
            .run(build(style, reorder))
            .expect("preset config runs")
            .total_ns
    };

    // On the A100: hoisting clearly beats MinKS (Fig. 2c).
    let gpu_hoist = run(GpuConfig::a100_80gb(), LinTransStyle::Hoisting, true);
    let gpu_minks = run(GpuConfig::a100_80gb(), LinTransStyle::MinKS, false);
    assert!(
        gpu_hoist < gpu_minks,
        "hoisting must win on the GPU: {:.1} vs {:.1} µs",
        gpu_hoist / 1e3,
        gpu_minks / 1e3
    );

    // On the ASIC-like design point: the 512 MB cache turns every evk_1
    // re-read into a hit and the compute throughput absorbs the extra
    // ModSwitches — MinKS wins (§III-C).
    let asic_hoist = run(GpuConfig::asic_like(), LinTransStyle::Hoisting, true);
    let asic_minks = run(GpuConfig::asic_like(), LinTransStyle::MinKS, false);
    assert!(
        asic_minks < asic_hoist,
        "MinKS must win on ASIC-like hardware: {:.1} vs {:.1} µs",
        asic_minks / 1e3,
        asic_hoist / 1e3
    );
}

#[test]
fn pipelining_gains_would_be_marginal() {
    // §V-C "(No) pipelining": after PIM offload, element-wise time is a
    // small share, so even perfect GPU/PIM overlap buys little — the
    // paper's justification for the simpler non-pipelined design.
    use anaheim::core::build::Builder;
    use anaheim::core::framework::{Anaheim, AnaheimConfig};
    use anaheim::core::params::ParamSet;

    let mut b = Builder::new(ParamSet::paper_default());
    let seq = b.bootstrap();
    let r = Anaheim::new(AnaheimConfig::a100_near_bank())
        .run(seq)
        .expect("preset config runs");
    let headroom = r.pipelining_headroom();
    assert!(
        headroom < 1.35,
        "pipelining headroom must be marginal (§V-C): {headroom:.2}x"
    );
    assert!(headroom >= 1.0);
}
