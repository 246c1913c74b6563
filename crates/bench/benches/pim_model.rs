//! Criterion bench: the simulators themselves — the PIM timing engine
//! (per Fig. 9 data point, timed cold and from the executor's table) and a
//! full Anaheim bootstrap model run (per Fig. 8 bar) — documenting the cost
//! of regenerating the evaluation.

use anaheim_core::build::Builder;
use anaheim_core::framework::{Anaheim, AnaheimConfig};
use anaheim_core::params::ParamSet;
use criterion::{criterion_group, criterion_main, Criterion};
use pim::device::PimDeviceConfig;
use pim::exec::{PimExecutor, PimKernelSpec};
use pim::isa::PimInstruction;
use pim::layout::LayoutPolicy;

fn bench_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    let dev = PimDeviceConfig::a100_near_bank();
    let layout = LayoutPolicy::ColumnPartitioned;
    let spec = PimKernelSpec {
        instr: PimInstruction::PAccum(4),
        limbs: 54,
        n: 1 << 16,
    };
    // Cold: a fresh executor schedules and times the shape every call.
    g.bench_function("pim_kernel_simulation_cold", |b| {
        b.iter(|| PimExecutor::new(&dev, layout).execute(&spec).unwrap())
    });
    // Warm: one executor reads the shape's timing from its table.
    let exec = PimExecutor::new(&dev, layout);
    g.bench_function("pim_kernel_simulation_warm", |b| {
        b.iter(|| exec.execute(&spec).unwrap())
    });

    g.sample_size(10);
    g.bench_function("bootstrap_model_run", |b| {
        b.iter(|| {
            let mut bd = Builder::new(ParamSet::paper_default());
            let seq = bd.bootstrap();
            Anaheim::new(AnaheimConfig::a100_near_bank())
                .run(seq)
                .unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_model);
criterion_main!(benches);
