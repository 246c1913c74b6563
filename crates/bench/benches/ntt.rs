//! Criterion bench: the negacyclic NTT (the compute-intensive op prior
//! work fixates on, §I), across ring degrees from the bootstrap ring 2⁹ up
//! to the paper's 2¹⁶.
//!
//! Each iteration transforms the next of 16 pseudo-random inputs. Replaying
//! a single input lets the branch predictor learn every data-dependent
//! branch of a small transform, which makes a branchy kernel look faster
//! than it runs on fresh data.

use ckks_math::modulus::Modulus;
use ckks_math::ntt::NttContext;
use ckks_math::prime::generate_ntt_primes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const INPUTS: usize = 16;

fn bench_ntt(c: &mut Criterion) {
    let mut g = c.benchmark_group("ntt");
    for log_n in [9u32, 10, 12, 13, 14, 15, 16] {
        let n = 1usize << log_n;
        let q = generate_ntt_primes(55, 1, 2 * n as u64)[0];
        let ctx = NttContext::new(n, Modulus::new(q));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let coeffs: Vec<Vec<u64>> = (0..INPUTS)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        state % q
                    })
                    .collect()
            })
            .collect();
        let evals: Vec<Vec<u64>> = coeffs
            .iter()
            .map(|c| {
                let mut f = c.clone();
                ctx.forward(&mut f);
                f
            })
            .collect();
        g.throughput(Throughput::Elements(n as u64));
        let mut a = vec![0u64; n];
        let mut k = 0usize;
        g.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter(|| {
                k = (k + 1) % INPUTS;
                a.copy_from_slice(&coeffs[k]);
                ctx.forward(&mut a);
                a[0]
            })
        });
        g.bench_with_input(BenchmarkId::new("inverse", n), &n, |b, _| {
            b.iter(|| {
                k = (k + 1) % INPUTS;
                a.copy_from_slice(&evals[k]);
                ctx.inverse(&mut a);
                a[0]
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ntt);
criterion_main!(benches);
