//! Functional execution of Alg. 1 over *simulated bank contents*: the end-
//! to-end check that the column-partitioning addressing (row groups ×
//! column groups), the chunked buffer management (`G = ⌊B/6⌋`), and the
//! Montgomery MMAC datapath together compute exactly the fused KeyMult
//! inner product.
//!
//! The timing model in [`crate::exec`] prices this execution; this module
//! proves the *data* ends up right.

use crate::error::{IntegrityReport, LayoutError, PimError};
use crate::fault::FaultInjector;
use crate::layout::{PolyGroup, PolyGroupAllocator};
use crate::mmac::MontgomeryCtx;

/// Elements per 256-bit chunk (8 × 32-bit words).
pub const ELEMS_PER_CHUNK: usize = 8;

/// One bank's cell array: `rows × chunks_per_row` chunks of 8 words.
#[derive(Debug, Clone)]
pub struct SimulatedBank {
    chunks_per_row: usize,
    rows: Vec<Vec<[u32; ELEMS_PER_CHUNK]>>,
}

impl SimulatedBank {
    /// An all-zero bank.
    pub fn new(rows: usize, chunks_per_row: usize) -> Self {
        Self {
            chunks_per_row,
            rows: vec![vec![[0; ELEMS_PER_CHUNK]; chunks_per_row]; rows],
        }
    }

    /// Rows in the bank.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Chunks per row.
    pub fn chunks_per_row(&self) -> usize {
        self.chunks_per_row
    }

    /// Writes polynomial data into its PolyGroup location, with bounds-
    /// checked addressing: size mismatches and out-of-bank groups surface
    /// as a typed [`LayoutError`] instead of a panic.
    pub fn store_poly(
        &mut self,
        g: &PolyGroup,
        poly: usize,
        data: &[u32],
    ) -> Result<(), LayoutError> {
        let want = g.chunks_per_poly * ELEMS_PER_CHUNK;
        if data.len() != want {
            return Err(LayoutError::DataSizeMismatch {
                got: data.len(),
                want,
            });
        }
        for (chunk_idx, chunk) in data.chunks(ELEMS_PER_CHUNK).enumerate() {
            let row = g.try_row_of(poly, chunk_idx)?;
            let col = g.try_col_of(poly, chunk_idx)?;
            if col >= self.chunks_per_row {
                return Err(LayoutError::ColumnOutOfRange {
                    col,
                    chunks_per_row: self.chunks_per_row,
                });
            }
            if row >= self.rows.len() {
                return Err(LayoutError::RowOutOfRange {
                    row,
                    rows: self.rows.len(),
                });
            }
            self.rows[row][col].copy_from_slice(chunk);
        }
        Ok(())
    }

    /// Inverts one bit of one stored element — the fault-injection hook
    /// behind [`crate::fault::FaultInjector::flip_group_bit`].
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the bank.
    pub fn flip_bit(&mut self, row: usize, col: usize, elem: usize, bit: u8) {
        assert!(bit < 32 && elem < ELEMS_PER_CHUNK, "bad flip coordinates");
        self.rows[row][col][elem] ^= 1 << bit;
    }

    /// FNV-1a residue checksum over every chunk of a PolyGroup's
    /// allocation — the per-group integrity signature verified after each
    /// PIM kernel. Any single bit flip in the group changes it.
    pub fn checksum_group(&self, g: &PolyGroup) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for poly in 0..g.polys {
            for chunk in 0..g.chunks_per_poly {
                for &w in &self.rows[g.row_of(poly, chunk)][g.col_of(poly, chunk)] {
                    h ^= w as u64;
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        h
    }

    /// Reads one chunk.
    pub fn load_chunk(&self, g: &PolyGroup, poly: usize, chunk: usize) -> [u32; ELEMS_PER_CHUNK] {
        self.rows[g.row_of(poly, chunk)][g.col_of(poly, chunk)]
    }

    /// Writes one chunk.
    pub fn store_chunk(
        &mut self,
        g: &PolyGroup,
        poly: usize,
        chunk: usize,
        data: [u32; ELEMS_PER_CHUNK],
    ) {
        let row = g.row_of(poly, chunk);
        let col = g.col_of(poly, chunk);
        self.rows[row][col] = data;
    }

    /// Reads a full polynomial back out.
    pub fn load_poly(&self, g: &PolyGroup, poly: usize) -> Vec<u32> {
        (0..g.chunks_per_poly)
            .flat_map(|c| self.load_chunk(g, poly, c))
            .collect()
    }
}

/// Executes `PAccum⟨K⟩` per Alg. 1 on simulated bank contents:
/// `x = Σ a_k·p_k`, `y = Σ b_k·p_k`.
///
/// `pg_p` holds `p_0..p_{K-1}`; `pg_ab` holds the interleaved pairs
/// `(a_0, b_0), …` as polynomials `2k` (a) and `2k+1` (b); `pg_out`
/// receives `x` (poly 0) and `y` (poly 1). The data buffer holds `B`
/// chunk-entries, giving chunk granularity `G = ⌊B/(K+2)⌋` (Alg. 1 line 1).
///
/// `stuck_lane` (`None` = fault-free) names an MMAC lane that drives zero
/// into every accumulator update, modeling a hard datapath fault.
///
/// Returns [`PimError::Unsupported`] if the buffer is too small (`G = 0`).
///
/// # Panics
///
/// Panics if group shapes disagree (an allocation bug, not a data fault).
#[allow(clippy::too_many_arguments)]
pub fn paccum_alg1(
    bank: &mut SimulatedBank,
    mont: &MontgomeryCtx,
    k: usize,
    buffer_entries: usize,
    pg_p: &PolyGroup,
    pg_ab: &PolyGroup,
    pg_out: &PolyGroup,
    stuck_lane: Option<u8>,
) -> Result<(), PimError> {
    let g = buffer_entries / (k + 2);
    if g < 1 {
        return Err(PimError::Unsupported {
            mnemonic: "PAccum".into(),
            buffer_entries,
        });
    }
    let c = pg_p.chunks_per_poly;
    assert_eq!(pg_ab.chunks_per_poly, c, "group shapes must match");
    assert_eq!(pg_out.chunks_per_poly, c, "group shapes must match");

    // The data buffer: (k + 2) logical slots of G chunks each
    // (p_0..p_{k-1}, x, y), exactly as Alg. 1 lays it out.
    let mut buf = vec![[0u32; ELEMS_PER_CHUNK]; buffer_entries.max((k + 2) * g)];

    let mut done = 0usize;
    while done < c {
        let g_now = g.min(c - done);
        // (1) ACT the PolyGroup0 row(s); load G chunks of each p_k.
        for kk in 0..k {
            for j in 0..g_now {
                buf[kk * g + j] = bank.load_chunk(pg_p, kk, done + j);
            }
        }
        // Clear the accumulator slots.
        for j in 0..g_now {
            buf[k * g + j] = [0; ELEMS_PER_CHUNK];
            buf[(k + 1) * g + j] = [0; ELEMS_PER_CHUNK];
        }
        // (2) ACT PolyGroup1; stream a_k, b_k and MMAC immediately.
        for kk in 0..k {
            for j in 0..g_now {
                let a = bank.load_chunk(pg_ab, 2 * kk, done + j);
                let b = bank.load_chunk(pg_ab, 2 * kk + 1, done + j);
                let p = buf[kk * g + j];
                for lane in 0..ELEMS_PER_CHUNK {
                    if stuck_lane == Some(lane as u8) {
                        buf[k * g + j][lane] = 0;
                        buf[(k + 1) * g + j][lane] = 0;
                        continue;
                    }
                    buf[k * g + j][lane] =
                        mont.add(buf[k * g + j][lane], mont.mul(a[lane], p[lane]));
                    buf[(k + 1) * g + j][lane] =
                        mont.add(buf[(k + 1) * g + j][lane], mont.mul(b[lane], p[lane]));
                }
            }
        }
        // (3) ACT PolyGroup2; write back x, y.
        for j in 0..g_now {
            bank.store_chunk(pg_out, 0, done + j, buf[k * g + j]);
            bank.store_chunk(pg_out, 1, done + j, buf[(k + 1) * g + j]);
        }
        done += g_now;
    }
    Ok(())
}

/// [`paccum_alg1`] wrapped in the post-kernel integrity check, optionally
/// under fault injection — the functional core of the detect-and-degrade
/// loop:
///
/// 1. Residue checksums of both *input* groups are taken up front, and a
///    trusted scalar reference of the outputs is computed.
/// 2. The banked kernel runs (with the injector's stuck lane, if any);
///    afterwards the injector may flip bank cell bits in any group.
/// 3. Verification: input checksums must be unchanged, and the stored
///    outputs must match the reference. Any deviation returns
///    [`PimError::IntegrityViolation`] describing what was caught.
#[allow(clippy::too_many_arguments)]
pub fn paccum_alg1_verified(
    bank: &mut SimulatedBank,
    mont: &MontgomeryCtx,
    k: usize,
    buffer_entries: usize,
    pg_p: &PolyGroup,
    pg_ab: &PolyGroup,
    pg_out: &PolyGroup,
    injector: Option<&mut FaultInjector>,
) -> Result<(), PimError> {
    let sum_p = bank.checksum_group(pg_p);
    let sum_ab = bank.checksum_group(pg_ab);

    // Trusted scalar reference x = Σ a_k·p_k, y = Σ b_k·p_k, taken from
    // the pristine inputs.
    let c = pg_p.chunks_per_poly;
    let n = c * ELEMS_PER_CHUNK;
    let mut want_x = vec![0u32; n];
    let mut want_y = vec![0u32; n];
    for kk in 0..k {
        let p = bank.load_poly(pg_p, kk);
        let a = bank.load_poly(pg_ab, 2 * kk);
        let b = bank.load_poly(pg_ab, 2 * kk + 1);
        for j in 0..n {
            want_x[j] = mont.add(want_x[j], mont.mul(a[j], p[j]));
            want_y[j] = mont.add(want_y[j], mont.mul(b[j], p[j]));
        }
    }

    let stuck = injector.as_ref().and_then(|i| i.stuck_lane());
    paccum_alg1(bank, mont, k, buffer_entries, pg_p, pg_ab, pg_out, stuck)?;

    let mut bit_flips = 0u32;
    if let Some(inj) = injector {
        for g in [pg_p, pg_ab, pg_out] {
            if inj.maybe_corrupt_bank(bank, g).is_some() {
                bit_flips += 1;
            }
        }
    }

    let inputs_intact = bank.checksum_group(pg_p) == sum_p && bank.checksum_group(pg_ab) == sum_ab;
    let outputs_correct =
        bank.load_poly(pg_out, 0) == want_x && bank.load_poly(pg_out, 1) == want_y;
    if inputs_intact && outputs_correct {
        Ok(())
    } else {
        Err(PimError::IntegrityViolation(Box::new(IntegrityReport {
            kernel: "PAccum".into(),
            bit_flips,
            commands_dropped: 0,
            commands_corrupted: 0,
            stuck_lane: stuck,
            wasted: Default::default(),
        })))
    }
}

/// Executes `CAccum⟨K⟩` with the optimized buffer discipline (§VI-C):
/// only the two accumulators stay resident (`G = ⌊B/2⌋`) while the
/// `a_i, b_i` inputs stream through the MMAC lanes against the broadcast
/// constants `C_0..C_K` — which is why CAccum keeps working even at
/// `B = 4` and posts the highest Fig. 9 speedups.
///
/// `pg_in` holds the interleaved `(a_1, b_1), …` as polynomials `2k`/`2k+1`;
/// `pg_out` receives `x` (poly 0) and `y` (poly 1).
///
/// Returns [`PimError::Unsupported`] if the buffer cannot hold two chunk
/// groups.
///
/// # Panics
///
/// Panics if shapes or constant counts disagree (allocation bugs).
pub fn caccum_optimized(
    bank: &mut SimulatedBank,
    mont: &MontgomeryCtx,
    k: usize,
    buffer_entries: usize,
    constants: &[u32],
    pg_in: &PolyGroup,
    pg_out: &PolyGroup,
) -> Result<(), PimError> {
    assert_eq!(constants.len(), k + 1, "CAccum<{k}> takes C_0..C_{k}");
    let g = buffer_entries / 2;
    if g < 1 {
        return Err(PimError::Unsupported {
            mnemonic: "CAccum".into(),
            buffer_entries,
        });
    }
    let c = pg_in.chunks_per_poly;
    assert_eq!(pg_out.chunks_per_poly, c, "group shapes must match");
    let mut buf = vec![[0u32; ELEMS_PER_CHUNK]; 2 * g];
    let mut done = 0usize;
    while done < c {
        let g_now = g.min(c - done);
        // Initialize accumulators with the broadcast C_0.
        for j in 0..g_now {
            buf[j] = [constants[0]; ELEMS_PER_CHUNK];
            buf[g + j] = [constants[0]; ELEMS_PER_CHUNK];
        }
        // Stream inputs, MACing against broadcast constants.
        for kk in 0..k {
            let ck = constants[kk + 1];
            for j in 0..g_now {
                let a = bank.load_chunk(pg_in, 2 * kk, done + j);
                let b = bank.load_chunk(pg_in, 2 * kk + 1, done + j);
                for lane in 0..ELEMS_PER_CHUNK {
                    buf[j][lane] = mont.add(buf[j][lane], mont.mul(ck, a[lane]));
                    buf[g + j][lane] = mont.add(buf[g + j][lane], mont.mul(ck, b[lane]));
                }
            }
        }
        for j in 0..g_now {
            bank.store_chunk(pg_out, 0, done + j, buf[j]);
            bank.store_chunk(pg_out, 1, done + j, buf[g + j]);
        }
        done += g_now;
    }
    Ok(())
}

/// Convenience: allocates the three PolyGroups of Alg. 1 for a `PAccum⟨K⟩`
/// over `c` chunks per polynomial.
pub fn alloc_paccum_groups(
    alloc: &mut PolyGroupAllocator,
    k: usize,
    c: usize,
) -> (PolyGroup, PolyGroup, PolyGroup) {
    let pg_p = alloc.alloc(k, c);
    let pg_ab = alloc.alloc(2 * k, c);
    let pg_out = alloc.alloc(2, c);
    (pg_p, pg_ab, pg_out)
}

/// Runs a kernel over every bank concurrently, fusing the banks into a few
/// chunked `parpool` jobs — the host-simulation analogue of the all-bank
/// command broadcast that gives the Anaheim PIM its throughput (§IV):
/// banks share no state, so their kernels are embarrassingly parallel, and
/// chunking pays pool overhead once per worker instead of once per bank.
/// The `ckks_math::tune` cost model decides the fan-out (bank capacity as
/// the per-item work proxy), so hosts that grant no real parallelism run
/// the banks serially instead of paying pool overhead for nothing.
///
/// Each bank's result is returned in bank order. A kernel error in one bank
/// does not stop the others (matching the per-bank fault containment of the
/// verified kernels); a kernel that *panics* propagates after all banks
/// join.
pub fn for_each_bank_parallel<F>(
    banks: &mut [SimulatedBank],
    kernel: F,
) -> Vec<Result<(), PimError>>
where
    F: Fn(usize, &mut SimulatedBank) -> Result<(), PimError> + Sync,
{
    let elems_per_bank = banks
        .first()
        .map_or(0, |b| b.rows() * b.chunks_per_row() * ELEMS_PER_CHUNK);
    let mut work: Vec<(&mut SimulatedBank, Result<(), PimError>)> =
        banks.iter_mut().map(|b| (b, Ok(()))).collect();
    let decision = ckks_math::tune::decide(
        ckks_math::tune::OpClass::Elementwise,
        work.len(),
        elems_per_bank,
    );
    if decision.parallel() {
        parpool::par_for_each_mut_chunked(&mut work, decision.jobs, |i, slot| {
            slot.1 = kernel(i, slot.0);
        });
    } else {
        for (i, slot) in work.iter_mut().enumerate() {
            slot.1 = kernel(i, slot.0);
        }
    }
    work.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::PimInstruction;
    use crate::layout::LayoutPolicy;
    use crate::mmac::PimUnit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const Q: u32 = 268369921;

    fn random_poly(c: usize, rng: &mut StdRng) -> Vec<u32> {
        (0..c * ELEMS_PER_CHUNK)
            .map(|_| rng.gen_range(0..Q))
            .collect()
    }

    #[test]
    fn alg1_matches_flat_paccum() {
        // The flagship datapath check: Alg. 1 over the column-partitioned
        // bank must equal PAccum on flat vectors, for the paper's exact
        // running example (C = 16 chunks, B = 16 ⇒ G = 2).
        let k = 4;
        let c = 16;
        let b = 16;
        let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
        let (pg_p, pg_ab, pg_out) = alloc_paccum_groups(&mut alloc, k, c);
        let mut bank = SimulatedBank::new(64, 32);

        let mut rng = StdRng::seed_from_u64(101);
        let ps: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        let aas: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        let bs: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        for i in 0..k {
            bank.store_poly(&pg_p, i, &ps[i]).unwrap();
            bank.store_poly(&pg_ab, 2 * i, &aas[i]).unwrap();
            bank.store_poly(&pg_ab, 2 * i + 1, &bs[i]).unwrap();
        }

        let mont = MontgomeryCtx::new(Q);
        paccum_alg1(&mut bank, &mont, k, b, &pg_p, &pg_ab, &pg_out, None).unwrap();
        let x = bank.load_poly(&pg_out, 0);
        let y = bank.load_poly(&pg_out, 1);

        // Reference: the functional PIM unit on flat vectors.
        let unit = PimUnit::new(Q, 32);
        let mut refs: Vec<&[u32]> = Vec::new();
        refs.extend(aas.iter().map(|v| v.as_slice()));
        refs.extend(bs.iter().map(|v| v.as_slice()));
        refs.extend(ps.iter().map(|v| v.as_slice()));
        let want = unit.execute(PimInstruction::PAccum(k), &refs, &[]);
        assert_eq!(x, want[0], "x = Σ a_k·p_k");
        assert_eq!(y, want[1], "y = Σ b_k·p_k");
    }

    #[test]
    fn alg1_works_across_buffer_sizes() {
        // Any B with G ≥ 1 must give identical results (G only changes the
        // chunking, not the math).
        let k = 4;
        let c = 16;
        let mut rng = StdRng::seed_from_u64(102);
        let ps: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        let aas: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        let bs: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        let mont = MontgomeryCtx::new(Q);
        let mut outputs = Vec::new();
        for b in [6usize, 12, 16, 32, 64] {
            let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
            let (pg_p, pg_ab, pg_out) = alloc_paccum_groups(&mut alloc, k, c);
            let mut bank = SimulatedBank::new(64, 32);
            for i in 0..k {
                bank.store_poly(&pg_p, i, &ps[i]).unwrap();
                bank.store_poly(&pg_ab, 2 * i, &aas[i]).unwrap();
                bank.store_poly(&pg_ab, 2 * i + 1, &bs[i]).unwrap();
            }
            paccum_alg1(&mut bank, &mont, k, b, &pg_p, &pg_ab, &pg_out, None).unwrap();
            outputs.push((bank.load_poly(&pg_out, 0), bank.load_poly(&pg_out, 1)));
        }
        for w in outputs.windows(2) {
            assert_eq!(w[0], w[1], "results must not depend on B");
        }
    }

    #[test]
    fn store_load_roundtrip_respects_layout() {
        let mut alloc = PolyGroupAllocator::new(32, 16, LayoutPolicy::ColumnPartitioned);
        let g = alloc.alloc(4, 16); // cg = 8, 2 rows
        let mut bank = SimulatedBank::new(16, 32);
        let mut rng = StdRng::seed_from_u64(103);
        let polys: Vec<Vec<u32>> = (0..4).map(|_| random_poly(16, &mut rng)).collect();
        for (i, p) in polys.iter().enumerate() {
            bank.store_poly(&g, i, p).unwrap();
        }
        // No clobbering between co-located polynomials.
        for (i, p) in polys.iter().enumerate() {
            assert_eq!(&bank.load_poly(&g, i), p, "poly {i}");
        }
    }

    #[test]
    fn caccum_matches_flat_instruction() {
        let k = 4;
        let c = 16;
        let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
        let pg_in = alloc.alloc(2 * k, c);
        let pg_out = alloc.alloc(2, c);
        let mut bank = SimulatedBank::new(64, 32);
        let mut rng = StdRng::seed_from_u64(104);
        let aas: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        let bs: Vec<Vec<u32>> = (0..k).map(|_| random_poly(c, &mut rng)).collect();
        for i in 0..k {
            bank.store_poly(&pg_in, 2 * i, &aas[i]).unwrap();
            bank.store_poly(&pg_in, 2 * i + 1, &bs[i]).unwrap();
        }
        let consts: Vec<u32> = (0..=k as u32).map(|i| (i * 7919 + 13) % Q).collect();
        let mont = MontgomeryCtx::new(Q);
        // CAccum survives even B = 4 (§VII-C), unlike PAccum.
        caccum_optimized(&mut bank, &mont, k, 4, &consts, &pg_in, &pg_out).unwrap();
        let x = bank.load_poly(&pg_out, 0);
        let y = bank.load_poly(&pg_out, 1);

        let unit = PimUnit::new(Q, 8);
        let mut refs: Vec<&[u32]> = Vec::new();
        refs.extend(aas.iter().map(|v| v.as_slice()));
        refs.extend(bs.iter().map(|v| v.as_slice()));
        let want = unit.execute(PimInstruction::CAccum(k), &refs, &consts);
        assert_eq!(x, want[0]);
        assert_eq!(y, want[1]);
    }

    #[test]
    fn small_buffer_rejected_with_typed_error() {
        let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
        let (pg_p, pg_ab, pg_out) = alloc_paccum_groups(&mut alloc, 4, 16);
        let mut bank = SimulatedBank::new(64, 32);
        let mont = MontgomeryCtx::new(Q);
        let err = paccum_alg1(&mut bank, &mont, 4, 4, &pg_p, &pg_ab, &pg_out, None).unwrap_err();
        assert_eq!(
            err,
            PimError::Unsupported {
                mnemonic: "PAccum".into(),
                buffer_entries: 4
            }
        );
    }

    #[test]
    fn store_poly_rejects_bad_shapes_with_typed_errors() {
        let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
        let g = alloc.alloc(2, 16);
        let mut bank = SimulatedBank::new(64, 32);
        let short = vec![0u32; 8];
        assert_eq!(
            bank.store_poly(&g, 0, &short),
            Err(LayoutError::DataSizeMismatch {
                got: 8,
                want: 16 * ELEMS_PER_CHUNK
            })
        );
        let full = vec![0u32; 16 * ELEMS_PER_CHUNK];
        assert_eq!(
            bank.store_poly(&g, 2, &full),
            Err(LayoutError::PolyOutOfRange { poly: 2, polys: 2 })
        );
        // A group minted for a bigger bank must not index out of this one.
        let mut big = PolyGroupAllocator::new(64, 128, LayoutPolicy::ColumnPartitioned);
        let g_wide = big.alloc(2, 32);
        let wide = vec![0u32; 32 * ELEMS_PER_CHUNK];
        assert!(matches!(
            bank.store_poly(&g_wide, 1, &wide),
            Err(LayoutError::ColumnOutOfRange { .. })
        ));
    }

    fn loaded_paccum_setup(
        seed: u64,
    ) -> (
        SimulatedBank,
        MontgomeryCtx,
        PolyGroup,
        PolyGroup,
        PolyGroup,
    ) {
        let k = 4;
        let c = 16;
        let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
        let (pg_p, pg_ab, pg_out) = alloc_paccum_groups(&mut alloc, k, c);
        let mut bank = SimulatedBank::new(64, 32);
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..k {
            bank.store_poly(&pg_p, i, &random_poly(c, &mut rng))
                .unwrap();
            bank.store_poly(&pg_ab, 2 * i, &random_poly(c, &mut rng))
                .unwrap();
            bank.store_poly(&pg_ab, 2 * i + 1, &random_poly(c, &mut rng))
                .unwrap();
        }
        (bank, MontgomeryCtx::new(Q), pg_p, pg_ab, pg_out)
    }

    #[test]
    fn verified_paccum_passes_clean() {
        let (mut bank, mont, pg_p, pg_ab, pg_out) = loaded_paccum_setup(201);
        paccum_alg1_verified(&mut bank, &mont, 4, 16, &pg_p, &pg_ab, &pg_out, None)
            .expect("clean run must verify");
        // And under a benign injector too.
        let mut inj = FaultInjector::new(crate::fault::FaultPlan::none());
        paccum_alg1_verified(
            &mut bank,
            &mont,
            4,
            16,
            &pg_p,
            &pg_ab,
            &pg_out,
            Some(&mut inj),
        )
        .expect("benign injector must verify");
    }

    #[test]
    fn verified_paccum_catches_bank_bit_flip() {
        let (mut bank, mont, pg_p, pg_ab, pg_out) = loaded_paccum_setup(202);
        let plan = crate::fault::FaultPlan::none()
            .with_seed(9)
            .with_bank_flips(1.0);
        let mut inj = FaultInjector::new(plan);
        let err = paccum_alg1_verified(
            &mut bank,
            &mont,
            4,
            16,
            &pg_p,
            &pg_ab,
            &pg_out,
            Some(&mut inj),
        )
        .unwrap_err();
        match err {
            PimError::IntegrityViolation(r) => {
                assert!(r.bit_flips > 0, "checksum must report the flips");
                assert!(!r.is_permanent());
            }
            other => panic!("expected integrity violation, got {other}"),
        }
    }

    /// Builds `num` banks, each loaded with an independent seeded PAccum
    /// instance, and returns them together with the shared groups/context.
    fn paccum_bank_fleet(
        num: usize,
        base_seed: u64,
    ) -> (
        Vec<SimulatedBank>,
        MontgomeryCtx,
        PolyGroup,
        PolyGroup,
        PolyGroup,
    ) {
        let k = 4;
        let c = 16;
        let mut alloc = PolyGroupAllocator::new(32, 64, LayoutPolicy::ColumnPartitioned);
        let (pg_p, pg_ab, pg_out) = alloc_paccum_groups(&mut alloc, k, c);
        let banks = (0..num)
            .map(|bi| {
                let mut bank = SimulatedBank::new(64, 32);
                let mut rng = StdRng::seed_from_u64(base_seed + bi as u64);
                for i in 0..k {
                    bank.store_poly(&pg_p, i, &random_poly(c, &mut rng))
                        .unwrap();
                    bank.store_poly(&pg_ab, 2 * i, &random_poly(c, &mut rng))
                        .unwrap();
                    bank.store_poly(&pg_ab, 2 * i + 1, &random_poly(c, &mut rng))
                        .unwrap();
                }
                bank
            })
            .collect();
        (banks, MontgomeryCtx::new(Q), pg_p, pg_ab, pg_out)
    }

    #[test]
    fn parallel_banks_match_serial() {
        // The all-bank broadcast must be a pure throughput feature: the same
        // kernel run bank-by-bank and run via `for_each_bank_parallel` (at
        // several pool widths) must leave bit-identical bank contents.
        let num = 8;
        let (mut serial, mont, pg_p, pg_ab, pg_out) = paccum_bank_fleet(num, 500);
        for bank in serial.iter_mut() {
            paccum_alg1(bank, &mont, 4, 16, &pg_p, &pg_ab, &pg_out, None).unwrap();
        }
        for threads in [1usize, 2, 8] {
            parpool::set_threads(threads);
            let (mut par, mont, pg_p, pg_ab, pg_out) = paccum_bank_fleet(num, 500);
            let results = for_each_bank_parallel(&mut par, |_, bank| {
                paccum_alg1(bank, &mont, 4, 16, &pg_p, &pg_ab, &pg_out, None)
            });
            assert!(results.iter().all(|r| r.is_ok()));
            for (bi, (s, p)) in serial.iter().zip(par.iter()).enumerate() {
                for out in 0..2 {
                    assert_eq!(
                        s.load_poly(&pg_out, out),
                        p.load_poly(&pg_out, out),
                        "bank {bi} output {out} @ {threads} threads"
                    );
                }
            }
        }
        parpool::set_threads(0);
    }

    #[test]
    fn parallel_bank_errors_are_isolated() {
        // A kernel failing in one bank must not disturb the others: results
        // come back in bank order with exactly the failing banks marked.
        let num = 4;
        let (mut banks, mont, pg_p, pg_ab, pg_out) = paccum_bank_fleet(num, 600);
        let results = for_each_bank_parallel(&mut banks, |i, bank| {
            // B = 2 gives G = 0 on odd banks: a per-bank Unsupported error.
            let b = if i % 2 == 1 { 2 } else { 16 };
            paccum_alg1(bank, &mont, 4, b, &pg_p, &pg_ab, &pg_out, None)
        });
        assert_eq!(results.len(), num);
        for (i, r) in results.iter().enumerate() {
            if i % 2 == 1 {
                assert!(
                    matches!(r, Err(PimError::Unsupported { .. })),
                    "bank {i} should fail"
                );
            } else {
                assert!(r.is_ok(), "bank {i} should succeed");
            }
        }
    }

    #[test]
    fn verified_paccum_catches_stuck_lane() {
        let (mut bank, mont, pg_p, pg_ab, pg_out) = loaded_paccum_setup(203);
        let plan = crate::fault::FaultPlan::none().with_stuck_lane(5);
        let mut inj = FaultInjector::new(plan);
        let err = paccum_alg1_verified(
            &mut bank,
            &mont,
            4,
            16,
            &pg_p,
            &pg_ab,
            &pg_out,
            Some(&mut inj),
        )
        .unwrap_err();
        match err {
            PimError::IntegrityViolation(r) => {
                assert_eq!(r.stuck_lane, Some(5));
                assert!(r.is_permanent(), "stuck lanes are hard faults");
            }
            other => panic!("expected integrity violation, got {other}"),
        }
    }
}
