//! Criterion bench: the three key-switching phases (ModUp / KeyMult /
//! ModDown, §II-B) in isolation — the structure Anaheim's PIM offload is
//! built around.
//!
//! Two rings: `test_small`, which stays cache-resident, and the fhe-ckks
//! benchmark ring (N=2¹⁶, L=24, α=7 so D=4), where one relinearization key
//! is 124 MiB and KeyMult streams it from DRAM. The large ring times only
//! KeyMult and the full switch.

use ckks::keys::KeyGenerator;
use ckks::keyswitch::KeySwitcher;
use ckks::prelude::*;
use ckks_math::poly::Format;
use ckks_math::sampling;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_keyswitch(c: &mut Criterion) {
    let ctx = CkksContext::new(CkksParams::test_small());
    let mut rng = StdRng::seed_from_u64(2);
    let mut kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.gen_secret();
    let relin = kg.gen_relin(&sk);
    let level = ctx.max_level();
    let a = sampling::uniform(&mut rng, ctx.basis_q(level), Format::Eval);
    let ks = KeySwitcher::new(&ctx);

    let mut g = c.benchmark_group("keyswitch");
    g.bench_function("decompose_mod_up", |b| {
        b.iter(|| ks.decompose_mod_up(&a, level))
    });
    let hoisted = ks.decompose_mod_up(&a, level);
    g.bench_function("key_mult", |b| b.iter(|| ks.key_mult(&hoisted, &relin)));
    let (kb, ka) = ks.key_mult(&hoisted, &relin);
    g.bench_function("mod_down_pair", |b| {
        b.iter(|| ks.mod_down_pair(&kb, &ka, level))
    });
    g.bench_function("full_switch", |b| b.iter(|| ks.switch(&a, &relin, level)));
    g.finish();
}

fn bench_keyswitch_2_16(c: &mut Criterion) {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(16)
            .levels(24)
            .alpha(7)
            .scale_bits(40)
            .build(),
    );
    let mut rng = StdRng::seed_from_u64(2);
    let mut kg = KeyGenerator::new(&ctx, &mut rng);
    let sk = kg.gen_secret();
    let relin = kg.gen_relin(&sk);
    let level = ctx.max_level();
    let a = sampling::uniform(&mut rng, ctx.basis_q(level), Format::Eval);
    let ks = KeySwitcher::new(&ctx);
    let hoisted = ks.decompose_mod_up(&a, level);

    let mut g = c.benchmark_group("keyswitch_2_16");
    g.sample_size(10);
    g.bench_function("key_mult", |b| b.iter(|| ks.key_mult(&hoisted, &relin)));
    g.bench_function("full_switch", |b| b.iter(|| ks.switch(&a, &relin, level)));
    g.finish();
}

criterion_group!(benches, bench_keyswitch, bench_keyswitch_2_16);
criterion_main!(benches);
