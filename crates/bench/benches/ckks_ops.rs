//! Criterion bench: the basic CKKS functions (the functional analogue of
//! Fig. 2a) on the small test ring, a prepared BSGS linear transform, and a
//! warm N=2⁹ bootstrap (the `bootstrap_demo` ring).

use ckks::lintrans::LinearTransform;
use ckks::prelude::*;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_ops(c: &mut Criterion) {
    let ctx = CkksContext::new(CkksParams::test_small());
    let mut rng = StdRng::seed_from_u64(1);
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&[1]);
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(i as f64 * 1e-3, 0.0))
        .collect();
    let pt = enc.encode(&msg, ctx.max_level());
    let ct = keys.public.encrypt(&pt, &mut rng);

    let mut g = c.benchmark_group("ckks_functions");
    g.bench_function("hadd", |b| b.iter(|| ev.add(&ct, &ct)));
    g.bench_function("pmult", |b| b.iter(|| ev.mul_plain(&ct, &pt)));
    g.bench_function("hmult", |b| b.iter(|| ev.mul_relin(&ct, &ct, &keys.relin)));
    g.bench_function("hrot", |b| b.iter(|| ev.rotate(&ct, 1, &keys)));
    g.bench_function("rescale", |b| {
        let t = ev.mul_plain(&ct, &pt);
        b.iter(|| ev.rescale(&t))
    });
    g.finish();
}

/// A dense 64-diagonal transform with 8 baby steps, prepared once outside
/// the timed loop, as the bootstrap keeps its transforms.
fn bench_lintrans(c: &mut Criterion) {
    let ctx = CkksContext::new(CkksParams::test_small());
    let n1 = 8;
    let mut rng = StdRng::seed_from_u64(2);
    let mut t = LinearTransform::new(ctx.slots());
    for r in 0..64 {
        let diag = (0..ctx.slots())
            .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
            .collect();
        t.set_diagonal(r, diag);
    }
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&t.required_rotations_bsgs(n1));
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|i| Complex::new(i as f64 * 1e-3, 0.0))
        .collect();
    let ct = keys
        .public
        .encrypt(&enc.encode(&msg, ctx.max_level()), &mut rng);
    let prepared = t.prepare(&enc, ctx.max_level(), n1);

    let mut g = c.benchmark_group("ckks_lintrans");
    g.bench_function("lintrans_bsgs", |b| {
        b.iter(|| prepared.eval(&ev, &ct, &keys))
    });
    g.finish();
}

/// A warm bootstrap: the first call, which also prepares the transforms'
/// plaintexts, runs before the timed loop.
fn bench_bootstrap(c: &mut Criterion) {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_n(9)
            .levels(16)
            .alpha(4)
            .scale_bits(42)
            .q0_bits(50)
            .p_bits(55)
            .hamming_weight(16)
            .build(),
    );
    let bts = Bootstrapper::new(&ctx, BootstrapConfig::sparse_default());
    let mut rng = StdRng::seed_from_u64(3);
    let keys = KeyGenerator::new(&ctx, &mut rng).generate(&bts.required_rotations());
    let enc = Encoder::new(&ctx);
    let ev = Evaluator::new(&ctx);
    let msg: Vec<Complex> = (0..ctx.slots())
        .map(|_| Complex::new(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5)))
        .collect();
    let ct = keys.public.encrypt(&enc.encode(&msg, 1), &mut rng);
    let _ = bts.bootstrap(&ev, &enc, &ct, &keys);

    let mut g = c.benchmark_group("ckks_bootstrap");
    g.sample_size(10);
    g.bench_function("bootstrap_n9", |b| {
        b.iter(|| bts.bootstrap(&ev, &enc, &ct, &keys))
    });
    g.finish();
}

criterion_group!(benches, bench_ops, bench_lintrans, bench_bootstrap);
criterion_main!(benches);
