//! Dense f32 tensors with deterministic operations.
//!
//! Every operation computes each output element by a **fixed, shape-derived
//! accumulation order** (IEEE-754 f32 arithmetic is deterministic when the
//! operation order is fixed — the property the paper's "intra-subnet
//! reproducibility" relies on deterministic CUDA libraries for). The
//! kernels here are additionally *parallel*: work above a shape-derived
//! threshold fans out over the current [`crate::pool`] worker pool, split
//! at fixed chunk boundaries that never depend on the worker count, so
//! results are bitwise identical at 1, 2, 4, or 8 workers.
//!
//! # Matrix-multiply contract (v2: fixed-split compensated FMA)
//!
//! Shared by [`Tensor::matmul`], [`Tensor::matmul_t`], [`Tensor::t_matmul`]
//! and [`Tensor::matmul_batch`]. Every output element is the dot product
//! of a length-`k` row/column pair, computed as:
//!
//! 1. **Fixed split**: the inner index range `0..k` is cut into segments
//!    of [`K_SEG`] (= 256) elements at boundaries `256, 512, ..` — a pure
//!    function of `k`, never of the vector width or worker count.
//! 2. **Fused accumulation within a segment**: each segment partial is an
//!    ascending-`kk` chain of IEEE-754 `fusedMultiplyAdd` from `+0.0`
//!    (`acc = a.mul_add(b, acc)`). `fusedMultiplyAdd` is *correctly
//!    rounded* and fully specified, so the hardware `vfmadd` issued by the
//!    AVX2+FMA tile, the scalar `vfmadd` the tail dots compile to, and the
//!    soft-float `fmaf` of the portable twin all produce the same bits.
//!    This is what makes FMA admissible where the v1 contract had to ban
//!    it: mul-then-add rounds twice and disagrees with fused rounding, but
//!    *every* path here fuses.
//! 3. **Compensated combine across segments**: segment partials are folded
//!    in ascending segment order through a branchless TwoSum error
//!    accumulation — `t = sum + p; z = t - sum;
//!    e = (sum - (t - z)) + (p - z); comp += e; sum = t` — and the element
//!    is `sum + comp`. Only adds and subtracts, so the scalar and vector
//!    forms are identical lane-for-lane. For `k <= 256` this degenerates
//!    to the single segment partial unchanged (the combine of one finite
//!    partial is exact and the fused chain never produces `-0.0` from a
//!    `+0.0` seed).
//!
//! The register-tiled kernels (4x16 accumulator tiles, AVX2+FMA when the
//! CPU has both, an identically-ordered portable scalar twin otherwise —
//! see [`set_force_portable`]) treat lanes as independent output elements
//! and only reorder *across* elements, never within one. Operand packing
//! (`pack_b` column panels, `pack_a` row tiles) is pure data movement.
//! So the tiled, tailed, packed, batched and parallel paths all agree
//! bitwise — with each other and with the reference kernel
//! [`Tensor::matmul_naive`], at any pool size.
//!
//! Non-finite values propagate per IEEE-754 (there is no zero-skip:
//! `0.0 * NaN` surfaces as NaN). One contract-defined wrinkle: a dot
//! whose *segment partial* overflows to `±inf` can surface as NaN, because
//! `inf - inf` appears inside the TwoSum combine. That outcome is itself
//! deterministic and identical on every path.
//!
//! # Reductions
//!
//! Reductions ([`Tensor::mean`], [`Tensor::sum_sq`], [`Tensor::sum_rows`])
//! keep the historical single-pass order below a fixed size threshold and
//! switch to fixed-size chunk partials combined in ascending chunk order
//! above it. The threshold depends only on the shape, so the association
//! is still a pure function of the shape — never of the worker count.

use crate::pool;
use std::fmt;
use std::ops::Range;

/// Rows per register tile (and per accumulator block of the scalar tile).
const MR: usize = 4;
/// Columns per register tile: two 8-lane AVX vectors.
const NR: usize = 16;
/// Inner-loop segment length of the fixed-split accumulation (see the
/// module docs). 256 is a multiple of every SIMD width we would ever
/// vectorise over, long enough that the 6-op TwoSum combine is amortised
/// to noise, and short enough to bound worst-case cancellation within a
/// segment for the `k` values real layers use.
pub const K_SEG: usize = 256;
/// Output rows per parallel matmul chunk (fixed: chunk boundaries must
/// derive from the shape, not the worker count).
const MM_ROW_BAND: usize = 32;
/// Minimum per-item `m * k * n` before one matmul splits into row bands.
const PAR_MIN_FLOPS: usize = 1 << 20;
/// Minimum *combined* `m * k * n` before a [`Tensor::matmul_batch`] call
/// fans out to the pool at all; below it the whole batch runs inline.
const BATCH_PAR_MIN: usize = 1 << 18;
/// Minimum `m * k * n` (with `m >= MR`) before a matmul runs the
/// register-tiled kernel; below it the per-element strided dot path
/// runs. One full `MR x NR` tile over `k = 8`; the products of a
/// dim-16 layer at 8 rows (2^11) train about twice as fast tiled.
const TILE_MIN_FLOPS: usize = 1 << 9;
/// Inner dimension from which a `Tn` product packs its rhs like the
/// other ops do. The tile walks one rhs cache line per `kk`, a row
/// stride apart; up to about this many of them stay L1-resident across
/// the tiles that reuse them whatever the stride, so below it packing is
/// a copy with nothing to gain (the layer's `xᵀ dz` has `k` = batch
/// rows). Longer walks alias, and the packed panel wins again.
const RAW_RHS_MAX_K: usize = 128;
/// Elements per parallel elementwise chunk.
const ELEM_CHUNK: usize = 16 * 1024;
/// Minimum element count before elementwise ops fan out.
const ELEM_PAR_MIN: usize = 32 * 1024;
/// Elements per reduction partial.
const REDUCE_CHUNK: usize = 16 * 1024;
/// Minimum element count before reductions switch to chunked partials.
const REDUCE_PAR_MIN: usize = 64 * 1024;

/// A raw output pointer asserted `Send`/`Sync`: pool chunks write only
/// the disjoint region their chunk index selects.
#[derive(Clone, Copy)]
struct OutPtr(*mut f32);

unsafe impl Send for OutPtr {}
unsafe impl Sync for OutPtr {}

impl OutPtr {
    /// Accessor (rather than direct field use) so closures capture the
    /// `Sync` wrapper, not the raw pointer field.
    fn ptr(&self) -> *mut f32 {
        self.0
    }

    /// The `len` elements starting `at` elements in.
    ///
    /// # Safety
    ///
    /// The range must lie inside the allocation the pointer addresses,
    /// and nothing else may access it while the slice lives (pool
    /// chunks: each one takes only the region its index selects).
    unsafe fn slice<'a>(&self, at: usize, len: usize) -> &'a mut [f32] {
        std::slice::from_raw_parts_mut(self.0.add(at), len)
    }
}

/// Test/CI hook: `NASPIPE_MATMUL_THROTTLE_US=<µs>` sleeps that long at
/// the start of every matmul (once per item of a batched call: a batch
/// of two simulates two degraded kernel launches), simulating a degraded
/// kernel (e.g. a lost SIMD path) without touching any arithmetic —
/// results stay bitwise identical, only wall time and the compute share
/// of the critical path change. Unset or unparsable means zero cost
/// (read once per process).
fn matmul_throttle(items: usize) {
    static THROTTLE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    let us = *THROTTLE.get_or_init(|| {
        std::env::var("NASPIPE_MATMUL_THROTTLE_US")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    });
    if us > 0 && items > 0 {
        std::thread::sleep(std::time::Duration::from_micros(us * items as u64));
    }
}

static FORCE_PORTABLE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Test hook: routes every matmul through the portable scalar twin
/// (software-fused `mul_add`) instead of the AVX2+FMA tile. The two paths
/// are bitwise identical by contract — this switch exists so tests can
/// *prove* that on FMA hardware — so toggling it concurrently with other
/// work is harmless.
pub fn set_force_portable(on: bool) {
    FORCE_PORTABLE.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Whether [`set_force_portable`] is currently engaged.
pub(crate) fn force_portable() -> bool {
    FORCE_PORTABLE.load(std::sync::atomic::Ordering::Relaxed)
}

/// True when the vectorised AVX2+FMA kernels may run: the CPU has both
/// features and the portable override is off.
#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static OK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *OK.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx") && std::arch::is_x86_feature_detected!("fma")
    }) && !force_portable()
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_available() -> bool {
    false
}

/// True when the AVX-512F kernels may run (wider vectors change nothing
/// about per-element order — lanes are independent output elements — so
/// this is purely a throughput gate).
#[cfg(target_arch = "x86_64")]
fn avx512_available() -> bool {
    static OK: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *OK.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f")) && !force_portable()
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512_available() -> bool {
    false
}

/// The strided contract dot product (module docs steps 1–3): segments of
/// [`K_SEG`] fused multiply-adds from `+0.0`, partials TwoSum-combined in
/// ascending order. `a(kk) = a[kk * aks]`, `b(kk) = b[kk * bks]`.
///
/// Inlined into both the portable wrapper (where `mul_add` lowers to the
/// correctly-rounded `fmaf`) and the `#[target_feature(fma)]` wrapper
/// (where it lowers to scalar `vfmadd`); both produce identical bits.
///
/// # Safety
///
/// `a + kk * aks` and `b + kk * bks` must be in bounds for all `kk < k`.
#[inline(always)]
unsafe fn dot_stride_body(a: *const f32, aks: usize, b: *const f32, bks: usize, k: usize) -> f32 {
    let mut sum = 0.0f32;
    let mut comp = 0.0f32;
    let mut s0 = 0usize;
    while s0 < k {
        let s1 = (s0 + K_SEG).min(k);
        let mut acc = 0.0f32;
        for kk in s0..s1 {
            acc = (*a.add(kk * aks)).mul_add(*b.add(kk * bks), acc);
        }
        let t = sum + acc;
        let z = t - sum;
        comp += (sum - (t - z)) + (acc - z);
        sum = t;
        s0 = s1;
    }
    sum + comp
}

/// [`dot_stride_body`] compiled with scalar hardware FMA.
///
/// # Safety
///
/// As [`dot_stride_body`], plus the CPU must support FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx", enable = "fma")]
unsafe fn dot_stride_fma(a: *const f32, aks: usize, b: *const f32, bks: usize, k: usize) -> f32 {
    dot_stride_body(a, aks, b, bks, k)
}

/// Dispatching contract dot: hardware-FMA build when available, portable
/// (libm `fmaf`) body otherwise — bitwise identical either way.
///
/// # Safety
///
/// As [`dot_stride_body`].
unsafe fn dot_stride(a: *const f32, aks: usize, b: *const f32, bks: usize, k: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        return dot_stride_fma(a, aks, b, bks, k);
    }
    dot_stride_body(a, aks, b, bks, k)
}

/// Portable scalar twin of [`tile_fma`]: one `MR x NR` output tile,
/// `out[r][j] = contract-dot(a(r, ..), b(.., j))` with
/// `a(r, kk) = a[r * ars + kk * aks]`, `b(kk, j) = b[kk * bs + j]`, stored
/// over `out` (rows `on` apart). Per-element operation order identical to
/// the vector tile: segment fused chains, ascending TwoSum combine.
///
/// # Safety
///
/// All strided accesses for `r < MR`, `j < NR`, `kk < k` must be in
/// bounds of the underlying allocations.
#[allow(clippy::too_many_arguments)]
unsafe fn tile_portable(
    a: *const f32,
    ars: usize,
    aks: usize,
    k: usize,
    b: *const f32,
    bs: usize,
    out: *mut f32,
    on: usize,
) {
    let mut sum = [[0.0f32; NR]; MR];
    let mut comp = [[0.0f32; NR]; MR];
    let mut s0 = 0usize;
    while s0 < k {
        let s1 = (s0 + K_SEG).min(k);
        let mut acc = [[0.0f32; NR]; MR];
        for kk in s0..s1 {
            let brow = b.add(kk * bs);
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = *a.add(r * ars + kk * aks);
                for (j, slot) in accr.iter_mut().enumerate() {
                    *slot = av.mul_add(*brow.add(j), *slot);
                }
            }
        }
        for r in 0..MR {
            for j in 0..NR {
                let p = acc[r][j];
                let s = sum[r][j];
                let t = s + p;
                let z = t - s;
                comp[r][j] += (s - (t - z)) + (p - z);
                sum[r][j] = t;
            }
        }
        s0 = s1;
    }
    for r in 0..MR {
        let orow = out.add(r * on);
        for j in 0..NR {
            *orow.add(j) = sum[r][j] + comp[r][j];
        }
    }
}

/// AVX2+FMA tile: same per-element operation order as [`tile_portable`]
/// (the lanes are independent elements; `vfmaddps` is the lanewise
/// correctly-rounded `fusedMultiplyAdd`, and the TwoSum combine is pure
/// add/sub, also lanewise). The hot segment loop keeps only the `MR x 2`
/// segment accumulators plus the two `b` vectors live; the running
/// sum/compensation pairs are touched once per [`K_SEG`] iterations.
///
/// # Safety
///
/// As [`tile_portable`], plus the CPU must support AVX and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_fma(
    a: *const f32,
    ars: usize,
    aks: usize,
    k: usize,
    b: *const f32,
    bs: usize,
    out: *mut f32,
    on: usize,
) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm256_sub_ps,
    };
    let mut sum = [[_mm256_setzero_ps(); 2]; MR];
    let mut comp = [[_mm256_setzero_ps(); 2]; MR];
    let mut s0 = 0usize;
    while s0 < k {
        let s1 = (s0 + K_SEG).min(k);
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for kk in s0..s1 {
            let brow = b.add(kk * bs);
            let b0 = _mm256_loadu_ps(brow);
            let b1 = _mm256_loadu_ps(brow.add(8));
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*a.add(r * ars + kk * aks));
                accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
            }
        }
        for r in 0..MR {
            for h in 0..2 {
                let p = acc[r][h];
                let s = sum[r][h];
                let t = _mm256_add_ps(s, p);
                let z = _mm256_sub_ps(t, s);
                let e = _mm256_add_ps(_mm256_sub_ps(s, _mm256_sub_ps(t, z)), _mm256_sub_ps(p, z));
                comp[r][h] = _mm256_add_ps(comp[r][h], e);
                sum[r][h] = t;
            }
        }
        s0 = s1;
    }
    for r in 0..MR {
        let orow = out.add(r * on);
        _mm256_storeu_ps(orow, _mm256_add_ps(sum[r][0], comp[r][0]));
        _mm256_storeu_ps(orow.add(8), _mm256_add_ps(sum[r][1], comp[r][1]));
    }
}

/// AVX-512 twin covering **two** vertically adjacent `MR x NR` tiles
/// (8 rows x one 16-lane zmm): rows `0..MR` read from `a0`, rows
/// `MR..2*MR` from `a1`, both through the same strides. Identical
/// per-element operation order to [`tile_fma`]/[`tile_portable`] —
/// `vfmadd` and the TwoSum add/subs are lanewise correctly-rounded IEEE
/// ops at any width; the wider tile only changes how many independent
/// elements fly at once (8 accumulator chains cover the FMA latency of
/// two 512-bit ports).
///
/// # Safety
///
/// As [`tile_portable`] for both row groups, plus the CPU must support
/// AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_fma512(
    a0: *const f32,
    a1: *const f32,
    ars: usize,
    aks: usize,
    k: usize,
    b: *const f32,
    bs: usize,
    out: *mut f32,
    on: usize,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps, _mm512_sub_ps,
    };
    let mut sum = [_mm512_setzero_ps(); 2 * MR];
    let mut comp = [_mm512_setzero_ps(); 2 * MR];
    let mut s0 = 0usize;
    while s0 < k {
        let s1 = (s0 + K_SEG).min(k);
        let mut acc = [_mm512_setzero_ps(); 2 * MR];
        for kk in s0..s1 {
            let bv = _mm512_loadu_ps(b.add(kk * bs));
            for (r, accr) in acc.iter_mut().enumerate().take(MR) {
                let av = _mm512_set1_ps(*a0.add(r * ars + kk * aks));
                *accr = _mm512_fmadd_ps(av, bv, *accr);
            }
            for r in 0..MR {
                let av = _mm512_set1_ps(*a1.add(r * ars + kk * aks));
                acc[MR + r] = _mm512_fmadd_ps(av, bv, acc[MR + r]);
            }
        }
        for r in 0..2 * MR {
            let p = acc[r];
            let s = sum[r];
            let t = _mm512_add_ps(s, p);
            let z = _mm512_sub_ps(t, s);
            let e = _mm512_add_ps(_mm512_sub_ps(s, _mm512_sub_ps(t, z)), _mm512_sub_ps(p, z));
            comp[r] = _mm512_add_ps(comp[r], e);
            sum[r] = t;
        }
        s0 = s1;
    }
    for r in 0..2 * MR {
        _mm512_storeu_ps(out.add(r * on), _mm512_add_ps(sum[r], comp[r]));
    }
}

/// Non-x86 stand-in (never dispatched: [`avx512_available`] is false).
#[cfg(not(target_arch = "x86_64"))]
#[allow(clippy::too_many_arguments)]
unsafe fn tile_fma512(
    a0: *const f32,
    a1: *const f32,
    ars: usize,
    aks: usize,
    k: usize,
    b: *const f32,
    bs: usize,
    out: *mut f32,
    on: usize,
) {
    tile_portable(a0, ars, aks, k, b, bs, out, on);
    tile_portable(a1, ars, aks, k, b, bs, out.add(MR * on), on);
}

/// Packs column panels `panels` of the logical `[k, n]` operand
/// `b(kk, j) = b[j * bjs + kk * bks]` into the front of `dst`: panel `p`
/// holds element `(kk, j)` at `[(p - panels.start) * k * NR + kk * NR +
/// (j - p * NR)]`. A last panel narrower than `NR` is zero-padded past
/// column `n` (padded lanes are computed by the tile and discarded).
/// `dst` only ever grows, so a reused scratch packs without allocating.
fn pack_b(
    b: &[f32],
    bjs: usize,
    bks: usize,
    k: usize,
    n: usize,
    panels: Range<usize>,
    dst: &mut Vec<f32>,
) {
    let len = panels.len() * k * NR;
    if dst.len() < len {
        dst.resize(len, 0.0);
    }
    if bjs == 1 {
        // Row-major source: stream it once, top to bottom, dealing each
        // row's columns out to their panels (a panel-by-panel walk would
        // re-read every row per panel at a stride the prefetcher gives
        // up on, which is what a cold weight matrix cannot afford).
        let cols = panels.start * NR..n.min(panels.end * NR);
        for kk in 0..k {
            let row = &b[kk * bks + cols.start..kk * bks + cols.end];
            for (p, src) in row.chunks(NR).enumerate() {
                let slot = &mut dst[p * k * NR + kk * NR..][..NR];
                slot[..src.len()].copy_from_slice(src);
                slot[src.len()..].fill(0.0);
            }
        }
    } else {
        // Transposed source (matmul_t): logical column `j` is the
        // contiguous row `j`. Walk kk outermost so every packed row is
        // written once, whole, from NR parallel read streams.
        debug_assert_eq!(bks, 1);
        for (p, dst) in panels.zip(dst.chunks_exact_mut(k * NR)) {
            let w = NR.min(n - p * NR);
            let cols: [&[f32]; NR] = std::array::from_fn(|c| {
                // Columns past `n` re-read the last one; they are zeroed
                // below.
                let j = p * NR + c.min(w - 1);
                &b[j * bjs..j * bjs + k]
            });
            for (kk, row) in dst.chunks_exact_mut(NR).enumerate() {
                for (slot, col) in row.iter_mut().zip(&cols) {
                    *slot = col[kk];
                }
                row[w..].fill(0.0);
            }
        }
    }
}

/// Packs the `MR`-row tiles covering `rows` (tile-aligned) of the
/// row-major `[m, k]` operand `a(i, kk) = a[i * ars + kk]` into the
/// front of `dst`: tile `t` (relative to `rows.start`) holds element
/// `(r, kk)` at `[t * k * MR + kk * MR + r]`, i.e. stride-1 rows /
/// stride-`MR` inner index, which is what the register tile streams.
fn pack_a(a: &[f32], ars: usize, k: usize, rows: Range<usize>, dst: &mut Vec<f32>) {
    let len = rows.len() * k;
    if dst.len() < len {
        dst.resize(len, 0.0);
    }
    for (i, tile) in rows.step_by(MR).zip(dst.chunks_exact_mut(k * MR)) {
        for r in 0..MR {
            let src = (i + r) * ars;
            for kk in 0..k {
                tile[kk * MR + r] = a[src + kk];
            }
        }
    }
}

/// Per-thread packing buffers, reused across matmuls so the steady state
/// packs without allocating.
#[derive(Default)]
struct PackScratch {
    a: Vec<f32>,
    b: Vec<f32>,
    /// [`MmPlan::tag`] of the plan whose complete packed rhs `b` holds
    /// (0 = none), so the row bands of one item that land on the same
    /// thread share one packing.
    b_tag: u64,
}

thread_local! {
    static PACK: std::cell::Cell<PackScratch> = const {
        std::cell::Cell::new(PackScratch { a: Vec::new(), b: Vec::new(), b_tag: 0 })
    };
}

/// A process-unique nonzero id for a plan whose packed rhs is worth
/// keeping between row bands.
fn next_pack_tag() -> u64 {
    // Relaxed: the value only has to be unique; it publishes no data.
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// One matmul of a [`Tensor::matmul_batch`] call: which operand (if any)
/// is transposed. The contract result is identical to materialising the
/// transpose and calling the plain product — these variants exist so the
/// kernels can read through strides / packed panels instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmOp {
    /// `a[m, k] x b[k, n]` — plain product.
    Nn,
    /// `a[m, k] x b[n, k]ᵀ` — [`Tensor::matmul_t`].
    Nt,
    /// `a[r, m]ᵀ x b[r, n]` — [`Tensor::t_matmul`].
    Tn,
}

/// Execution plan for one matmul item: logical shape, raw operand
/// strides (`a(i, kk) = a[i*ars + kk*aks]`, `b(kk, j) = b[j*bjs +
/// kk*bks]`) and which operands the tiled path packs. Building one
/// allocates nothing; packing happens inside the chunk that executes
/// the item, into the executing thread's [`PackScratch`].
struct MmPlan<'a> {
    m: usize,
    k: usize,
    n: usize,
    a: &'a [f32],
    ars: usize,
    aks: usize,
    b: &'a [f32],
    bjs: usize,
    bks: usize,
    /// Register-tiled kernel (else per-element strided dots).
    tiled: bool,
    /// Pack the rhs into `NR`-column panels. Not for a `Tn` product
    /// with a short inner dimension: its rhs is row-major and the tile
    /// reads it in place (see [`RAW_RHS_MAX_K`]). `Nt` needs the
    /// transposition; for `Nn` the rows of a square weight matrix sit a
    /// power-of-two stride apart and alias in L1 when read in place.
    pack_b: bool,
    /// Pack the lhs into `MR`-row tiles: only when its rows are too long
    /// for L1 to keep a row block hot. The `Tn` lhs is already
    /// tile-shaped (`MR` consecutive rows are contiguous per `kk`).
    pack_a: bool,
    /// Row bands this item splits into (1 unless it is large enough to
    /// fan out on its own). Banding is purely a work split — every row
    /// is computed identically whatever band it lands in.
    bands: usize,
    /// Index of this item's first band in the batch's flat chunk space.
    first_chunk: usize,
    /// Identity of this plan's packed rhs (see [`PackScratch::b_tag`]);
    /// 0 when nothing would reuse it.
    tag: u64,
}

impl<'a> MmPlan<'a> {
    fn new(op: MmOp, a: &'a Tensor, b: &'a Tensor) -> Self {
        assert_eq!(a.shape.len(), 2, "matmul lhs must be a matrix");
        assert_eq!(b.shape.len(), 2, "matmul rhs must be a matrix");
        let (m, k, n, ars, aks, bjs, bks) = match op {
            MmOp::Nn => {
                let (m, k) = (a.shape[0], a.shape[1]);
                let (k2, n) = (b.shape[0], b.shape[1]);
                assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
                (m, k, n, k, 1, 1, n)
            }
            MmOp::Nt => {
                let (m, k) = (a.shape[0], a.shape[1]);
                let (n, k2) = (b.shape[0], b.shape[1]);
                assert_eq!(k, k2, "matmul_t inner dimensions differ: {k} vs {k2}");
                (m, k, n, k, 1, k, 1)
            }
            MmOp::Tn => {
                let (r, m) = (a.shape[0], a.shape[1]);
                let (r2, n) = (b.shape[0], b.shape[1]);
                assert_eq!(r, r2, "t_matmul leading dimensions differ: {r} vs {r2}");
                (m, r, n, 1, m, 1, n)
            }
        };
        let flops = m * k * n;
        let tiled = m >= MR && flops >= TILE_MIN_FLOPS;
        let pack_b = tiled && (op != MmOp::Tn || k >= RAW_RHS_MAX_K);
        let bands = if flops >= PAR_MIN_FLOPS && m > MM_ROW_BAND {
            m.div_ceil(MM_ROW_BAND)
        } else {
            1
        };
        MmPlan {
            m,
            k,
            n,
            a: &a.data,
            ars,
            aks,
            b: &b.data,
            bjs,
            bks,
            tiled,
            pack_b,
            pack_a: tiled && aks == 1 && k >= 256,
            bands,
            first_chunk: 0,
            tag: if pack_b && bands > 1 {
                next_pack_tag()
            } else {
                0
            },
        }
    }

    fn flops(&self) -> usize {
        self.m * self.k * self.n
    }

    /// Contract dot of output element `(row, j)` through the raw strided
    /// operands.
    fn dot_raw(&self, row: usize, j: usize) -> f32 {
        // SAFETY: row < m and j < n keep both strided walks in bounds.
        unsafe {
            dot_stride(
                self.a.as_ptr().add(row * self.ars),
                self.aks,
                self.b.as_ptr().add(j * self.bjs),
                self.bks,
                self.k,
            )
        }
    }

    /// Computes output rows `lo..hi` into `out` (row-major, width `n`,
    /// `out[0]` is row `lo`).
    fn exec_rows(&self, lo: usize, hi: usize, out: &mut [f32]) {
        debug_assert_eq!(out.len(), (hi - lo) * self.n);
        // Bands are MM_ROW_BAND-aligned and MM_ROW_BAND % MR == 0, so
        // every band starts on a tile boundary; only the last band can
        // carry tail rows.
        let tile_hi = if self.tiled {
            hi.min(self.m - self.m % MR)
        } else {
            lo
        };
        if lo < tile_hi {
            // Taken, not borrowed: a kernel never re-enters itself, but
            // this way that is not a condition of soundness.
            PACK.with(|cell| {
                let mut scratch = cell.take();
                self.exec_tiles(lo, tile_hi, out, &mut scratch);
                cell.set(scratch);
            });
        }
        // Rows outside the tiles (all of them on the tiny path, < MR of
        // the last band otherwise): strided contract dots.
        for row in tile_hi.max(lo)..hi {
            for j in 0..self.n {
                out[(row - lo) * self.n + j] = self.dot_raw(row, j);
            }
        }
    }

    /// The register-tiled rows `lo..tile_hi` (whole `MR`-row tiles).
    fn exec_tiles(&self, lo: usize, tile_hi: usize, out: &mut [f32], scratch: &mut PackScratch) {
        let (k, n) = (self.k, self.n);
        let panels = n.div_ceil(NR);
        let n_main = (n / NR) * NR;
        let tail_w = n - n_main;
        // Packing is pure data movement: whichever way an operand is
        // read, the values and the per-element order are the same.
        if self.pack_b {
            if self.tag == 0 || scratch.b_tag != self.tag {
                pack_b(self.b, self.bjs, self.bks, k, n, 0..panels, &mut scratch.b);
                scratch.b_tag = self.tag;
            }
        } else if tail_w > 0 {
            // The rhs is read in place; only its ragged last panel needs
            // the zero-padded copy (a full-width load would run past the
            // end of the row).
            let tail = panels - 1..panels;
            pack_b(self.b, self.bjs, self.bks, k, n, tail, &mut scratch.b);
            scratch.b_tag = 0;
        }
        if self.pack_a {
            pack_a(self.a, self.ars, k, lo..tile_hi, &mut scratch.a);
        }
        let (pa, pb) = (scratch.a.as_ptr(), scratch.b.as_ptr());
        // Panel `p` as (pointer to its element (0, 0), stride per kk).
        let b_panel = |p: usize| -> (*const f32, usize) {
            if self.pack_b {
                // SAFETY: all `panels` panels were packed above.
                (unsafe { pb.add(p * k * NR) }, NR)
            } else if p * NR < n_main {
                // SAFETY: a full panel of the row-major rhs is in bounds.
                (unsafe { self.b.as_ptr().add(p * NR) }, self.bks)
            } else {
                (pb, NR)
            }
        };
        // Tile at row `i0` as (pointer to its element (0, 0), row
        // stride, kk stride).
        let a_tile = |i0: usize| -> (*const f32, usize, usize) {
            if self.pack_a {
                // SAFETY: tiles lo..tile_hi were packed above.
                (unsafe { pa.add((i0 - lo) * k) }, 1, MR)
            } else {
                // SAFETY: rows i0..i0+MR are in bounds of the raw lhs.
                (
                    unsafe { self.a.as_ptr().add(i0 * self.ars) },
                    self.ars,
                    self.aks,
                )
            }
        };
        let vec_ok = fma_available();
        let vec512_ok = avx512_available();
        // Cache-block the rows at MM_ROW_BAND and walk panels in the
        // outer loop: each ~k*NR panel is then reused across the whole
        // L1-resident row block instead of being re-streamed from L2 for
        // every MR-row tile. (This is a traversal order over independent
        // output tiles — it cannot affect any element's value.)
        let mut ic = lo;
        while ic < tile_hi {
            let ic_hi = (ic + MM_ROW_BAND).min(tile_hi);
            for p in 0..panels {
                let last = p + 1 == panels && tail_w > 0;
                let (bp, bs) = b_panel(p);
                let mut i0 = ic;
                if vec512_ok && !last {
                    // Wider-vector fast path: two stacked tiles per call.
                    while i0 + 2 * MR <= ic_hi {
                        let (ap0, ars, aks) = a_tile(i0);
                        let (ap1, _, _) = a_tile(i0 + MR);
                        // SAFETY: full panel, 2*MR full rows in bounds.
                        unsafe {
                            let op = out.as_mut_ptr().add((i0 - lo) * n + p * NR);
                            tile_fma512(ap0, ap1, ars, aks, k, bp, bs, op, n);
                        }
                        i0 += 2 * MR;
                    }
                }
                while i0 < ic_hi {
                    let (ap, ars, aks) = a_tile(i0);
                    if last {
                        // Zero-padded tail panel: compute a full NR-wide
                        // tile into scratch, keep the valid columns.
                        let mut tmp = [0.0f32; MR * NR];
                        // SAFETY: the tail panel is packed NR wide.
                        unsafe {
                            if vec_ok {
                                tile_fma(ap, ars, aks, k, bp, bs, tmp.as_mut_ptr(), NR);
                            } else {
                                tile_portable(ap, ars, aks, k, bp, bs, tmp.as_mut_ptr(), NR);
                            }
                        }
                        for r in 0..MR {
                            let dst = (i0 - lo + r) * n + n_main;
                            out[dst..dst + tail_w].copy_from_slice(&tmp[r * NR..r * NR + tail_w]);
                        }
                    } else {
                        // SAFETY: full panel, full tile: all in bounds.
                        unsafe {
                            let op = out.as_mut_ptr().add((i0 - lo) * n + p * NR);
                            if vec_ok {
                                tile_fma(ap, ars, aks, k, bp, bs, op, n);
                            } else {
                                tile_portable(ap, ars, aks, k, bp, bs, op, n);
                            }
                        }
                    }
                    i0 += MR;
                }
            }
            ic = ic_hi;
        }
    }
}

/// Executes prepared plans into `outs` (`outs[i]` addresses item `i`'s
/// whole `[m, n]` output): a single flat chunk space of all items' row
/// bands, one pool fan-out — or, below [`BATCH_PAR_MIN`] combined work,
/// inline on the caller.
fn mm_exec(plans: &mut [MmPlan<'_>], outs: &[OutPtr]) {
    let (mut total_bands, mut total_flops) = (0, 0);
    for plan in plans.iter_mut() {
        plan.first_chunk = total_bands;
        total_bands += plan.bands;
        total_flops += plan.flops();
    }
    let plans = &*plans;
    if total_bands <= 1 || total_flops < BATCH_PAR_MIN {
        for (plan, out) in plans.iter().zip(outs) {
            // SAFETY: `out` addresses the item's whole output.
            let out = unsafe { out.slice(0, plan.m * plan.n) };
            plan.exec_rows(0, plan.m, out);
        }
        return;
    }
    // Batch chunk claims when the band grid is fine-grained; the grab
    // size derives from the band count (a shape function), never the
    // worker count — and claiming order is irrelevant to the result.
    let grab = (total_bands / 64).max(1);
    pool::current().run_chunked(total_bands, grab, &|c| {
        let item = plans.partition_point(|p| p.first_chunk <= c) - 1;
        let plan = &plans[item];
        let (lo, hi) = if plan.bands == 1 {
            (0, plan.m)
        } else {
            let lo = (c - plan.first_chunk) * MM_ROW_BAND;
            (lo, (lo + MM_ROW_BAND).min(plan.m))
        };
        // SAFETY: bands cover disjoint row ranges of item outputs.
        let out = unsafe { outs[item].slice(lo * plan.n, (hi - lo) * plan.n) };
        plan.exec_rows(lo, hi, out);
    });
}

/// Runs `f` over fixed bands of whole rows of a `[rows, n]` elementwise
/// pass: one band inline below [`ELEM_PAR_MIN`] elements, bands of
/// ~[`ELEM_CHUNK`] elements on the pool above it. `n = 1` gives the flat
/// chunking. Elements are independent, so the split cannot affect any
/// value.
fn for_row_bands(rows: usize, n: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
    if rows * n == 0 {
        return;
    }
    if rows * n < ELEM_PAR_MIN {
        return f(0..rows);
    }
    let band = (ELEM_CHUNK / n).max(1);
    let chunks = rows.div_ceil(band);
    pool::current().run_chunked(chunks, (chunks / 64).max(1), &|c| {
        f(c * band..((c + 1) * band).min(rows));
    });
}

/// A dense row-major f32 tensor of rank 1 or 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat `data` vector with the given `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Creates the `n` x `n` identity matrix.
    #[cfg(test)]
    pub(crate) fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of rows of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a matrix");
        self.shape[0]
    }

    /// Number of columns of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a matrix");
        self.shape[1]
    }

    /// Flat element view.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat element view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(row, col)` of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if out of range or the tensor is not rank 2.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.shape.len(), 2, "at() requires a matrix");
        assert!(
            row < self.shape[0] && col < self.shape[1],
            "index out of range"
        );
        self.data[row * self.shape[1] + col]
    }

    /// Matrix product `self x rhs` via the packed, register-tiled
    /// (AVX2+FMA when available) parallel kernel. Every output element
    /// follows the fixed-split compensated contract in the module docs,
    /// so the result is bitwise identical to
    /// [`matmul_naive`](Self::matmul_naive) and invariant to the worker
    /// count. NaN/±inf in either operand propagate per IEEE-754 — there
    /// is no zero-skip shortcut (skipping `a == 0.0` would silently drop
    /// `0.0 * NaN = NaN`).
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[m, k]` x `[k, n]`.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let [out] = Self::matmul_many([(MmOp::Nn, self, rhs)]);
        out
    }

    /// The reference matmul: a direct, single-threaded, unpacked
    /// transcription of the contract in the module docs — per output
    /// element, [`K_SEG`]-segment fused chains TwoSum-combined in
    /// ascending order. Kept as the baseline the tiled kernel is
    /// benchmarked and differentially tested against; produces
    /// bitwise-identical results to [`matmul`](Self::matmul).
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[m, k]` x `[k, n]`.
    pub fn matmul_naive(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be a matrix");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be a matrix");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                // SAFETY: i < m, j < n keep both strided walks in bounds.
                out.data[i * n + j] = unsafe {
                    dot_stride_body(
                        self.data.as_ptr().add(i * k),
                        1,
                        rhs.data.as_ptr().add(j),
                        n,
                        k,
                    )
                };
            }
        }
        out
    }

    /// Fused transposed product `self x rhsᵀ` for `self = [m, k]`,
    /// `rhs = [n, k]`: bitwise identical to
    /// `self.matmul(&rhs.transpose())` (each element is the contract dot
    /// of two rows) without materialising the `[k, n]` transpose — `rhs`
    /// is packed into `NR`-column panels instead, which the tiled kernel
    /// then reads like ordinary column panels.
    ///
    /// # Panics
    ///
    /// Panics if shapes are not `[m, k]` x `[n, k]`.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        let [out] = Self::matmul_many([(MmOp::Nt, self, rhs)]);
        out
    }

    /// Fused transposed product `selfᵀ x rhs` for `self = [r, m]`,
    /// `rhs = [r, n]`: bitwise identical to
    /// `self.transpose().matmul(rhs)` (each element accumulates over the
    /// shared leading dimension by the contract order) without
    /// materialising the `[m, r]` transpose — `self` is packed into
    /// `MR`-row tiles read through their stride instead.
    ///
    /// # Panics
    ///
    /// Panics if the leading dimensions differ or either is not rank 2.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        let [out] = Self::matmul_many([(MmOp::Tn, self, rhs)]);
        out
    }

    /// Executes several matrix products as **one** pool fan-out: the row
    /// bands of all items form a single flat chunk space (mapped back to
    /// `(item, band)`), so a group of small matmuls — the per-layer
    /// sizes the scheduler actually issues — fills the pool instead of
    /// paying one synchronisation per product. Results are bitwise identical to
    /// issuing the items individually, in any batch composition, at any
    /// worker count.
    ///
    /// Below a combined-work threshold the whole batch runs inline on
    /// the caller.
    ///
    /// # Panics
    ///
    /// Panics if any item's shapes are incompatible for its [`MmOp`].
    pub fn matmul_batch(items: &[(MmOp, &Tensor, &Tensor)]) -> Vec<Tensor> {
        matmul_throttle(items.len());
        let mut plans: Vec<MmPlan<'_>> = items
            .iter()
            .map(|&(op, a, b)| MmPlan::new(op, a, b))
            .collect();
        let mut outs: Vec<Tensor> = plans.iter().map(|p| Tensor::zeros(&[p.m, p.n])).collect();
        let ptrs: Vec<OutPtr> = outs
            .iter_mut()
            .map(|t| OutPtr(t.data.as_mut_ptr()))
            .collect();
        mm_exec(&mut plans, &ptrs);
        outs
    }

    /// [`matmul_batch`](Self::matmul_batch) for a batch whose size is
    /// known at compile time: the same single fan-out and the same bits,
    /// with nothing allocated but the outputs.
    pub(crate) fn matmul_many<const N: usize>(items: [(MmOp, &Tensor, &Tensor); N]) -> [Tensor; N] {
        matmul_throttle(N);
        let mut plans = items.map(|(op, a, b)| MmPlan::new(op, a, b));
        let mut outs: [Tensor; N] =
            std::array::from_fn(|i| Tensor::zeros(&[plans[i].m, plans[i].n]));
        let ptrs: [OutPtr; N] = std::array::from_fn(|i| OutPtr(outs[i].data.as_mut_ptr()));
        mm_exec(&mut plans, &ptrs);
        outs
    }

    /// Transpose of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires a matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Applies `f` elementwise over `self` and `rhs` (already
    /// shape-checked by the caller); see [`for_row_bands`] for the split.
    fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        let mut out = vec![0.0f32; self.data.len()];
        let optr = OutPtr(out.as_mut_ptr());
        let (a, b) = (&self.data, &rhs.data);
        for_row_bands(out.len(), 1, &|r| {
            // SAFETY: bands cover disjoint element ranges.
            let dst = unsafe { optr.slice(r.start, r.len()) };
            for ((d, &a), &b) in dst.iter_mut().zip(&a[r.clone()]).zip(&b[r]) {
                *d = f(a, b);
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// Applies `f` elementwise; same split as [`Self::zip_with`].
    fn map_with(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Applies `f` elementwise in place; same split as
    /// [`Self::zip_with`].
    pub(crate) fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let ptr = OutPtr(self.data.as_mut_ptr());
        for_row_bands(self.data.len(), 1, &|r| {
            // SAFETY: bands cover disjoint element ranges.
            let dst = unsafe { ptr.slice(r.start, r.len()) };
            for d in dst {
                *d = f(*d);
            }
        });
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "sub shape mismatch");
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn hadamard(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "hadamard shape mismatch");
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map_with(|a| a * s)
    }

    /// Adds a row vector `bias` (shape `[1, n]` or `[n]`) to every row.
    ///
    /// # Panics
    ///
    /// Panics if widths do not match.
    pub fn add_row(&self, bias: &Tensor) -> Tensor {
        let n = *self.shape.last().expect("non-scalar");
        assert_eq!(bias.numel(), n, "bias width mismatch");
        let mut out = self.clone();
        let optr = OutPtr(out.data.as_mut_ptr());
        let bias = &bias.data;
        let rows = out.data.len().checked_div(n).unwrap_or(0);
        for_row_bands(rows, n, &|r| {
            // SAFETY: bands cover disjoint row ranges.
            let dst = unsafe { optr.slice(r.start * n, r.len() * n) };
            for row in dst.chunks_exact_mut(n) {
                for (d, &b) in row.iter_mut().zip(bias) {
                    *d += b;
                }
            }
        });
        out
    }

    /// The fused forward epilogue of a residual dense layer. `self`
    /// holds the pre-activation `x W` and becomes `t = tanh(x W + bias)`
    /// in place; returns `x + scale * t`. One pass, and per element the
    /// same operation sequence as `add_row`, `tanh`, `scale`, `add`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a matrix of `x`'s shape and `bias`'s
    /// width.
    pub(crate) fn bias_tanh_residual(&mut self, bias: &Tensor, x: &Tensor, scale: f32) -> Tensor {
        assert_eq!(self.shape.len(), 2, "bias_tanh_residual requires a matrix");
        assert_eq!(self.shape, x.shape, "residual shape mismatch");
        let (rows, n) = (self.shape[0], self.shape[1]);
        assert_eq!(bias.numel(), n, "bias width mismatch");
        let mut out = vec![0.0f32; rows * n];
        let (tptr, optr) = (OutPtr(self.data.as_mut_ptr()), OutPtr(out.as_mut_ptr()));
        let (bias, x) = (&bias.data, &x.data);
        for_row_bands(rows, n, &|r| {
            let (at, len) = (r.start * n, r.len() * n);
            // SAFETY: bands cover disjoint row ranges of both buffers.
            let (t, y) = unsafe { (tptr.slice(at, len), optr.slice(at, len)) };
            let rows = t.chunks_exact_mut(n).zip(y.chunks_exact_mut(n));
            for ((t, y), x) in rows.zip(x[at..at + len].chunks_exact(n)) {
                for (((t, y), &x), &b) in t.iter_mut().zip(y).zip(x).zip(bias) {
                    *t = (*t + b).tanh();
                    *y = x + *t * scale;
                }
            }
        });
        Tensor {
            shape: self.shape.clone(),
            data: out,
        }
    }

    /// The fused backward prologue of a residual dense layer. `self`
    /// holds the activation `t` and becomes `dz = (1 - t²) ⊙ (scale *
    /// grad)` in place; returns `dz.sum_rows()`. Per element the same
    /// operation sequence as `scale` then `tanh_backward`, and per
    /// column the same accumulation order as [`Self::sum_rows`] — when
    /// the pass runs as one band (the layer sizes the runtime issues)
    /// the sums ride along in it, otherwise `sum_rows` itself follows.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a matrix of `grad`'s shape.
    pub(crate) fn tanh_grad_inplace(&mut self, grad: &Tensor, scale: f32) -> Tensor {
        assert_eq!(self.shape.len(), 2, "tanh_grad_inplace requires a matrix");
        assert_eq!(self.shape, grad.shape, "tanh_backward shape mismatch");
        let (rows, n) = (self.shape[0], self.shape[1]);
        let dz = |t: f32, g: f32| (1.0 - t * t) * (g * scale);
        if rows * n < ELEM_PAR_MIN && n > 0 {
            let mut sums = Tensor::zeros(&[1, n]);
            let rows = self.data.chunks_exact_mut(n).zip(grad.data.chunks_exact(n));
            for (t, g) in rows {
                for ((t, &g), s) in t.iter_mut().zip(g).zip(&mut sums.data) {
                    *t = dz(*t, g);
                    *s += *t;
                }
            }
            return sums;
        }
        let ptr = OutPtr(self.data.as_mut_ptr());
        let grad = &grad.data;
        for_row_bands(self.data.len(), 1, &|r| {
            // SAFETY: bands cover disjoint element ranges.
            let dst = unsafe { ptr.slice(r.start, r.len()) };
            for (t, &g) in dst.iter_mut().zip(&grad[r]) {
                *t = dz(*t, g);
            }
        });
        self.sum_rows()
    }

    /// `self <- self + rhs` elementwise, in place (IEEE addition
    /// commutes, so which operand owns the buffer cannot show).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub(crate) fn add_inplace(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        let ptr = OutPtr(self.data.as_mut_ptr());
        let rhs = &rhs.data;
        for_row_bands(self.data.len(), 1, &|r| {
            // SAFETY: bands cover disjoint element ranges.
            let dst = unsafe { ptr.slice(r.start, r.len()) };
            for (d, &a) in dst.iter_mut().zip(&rhs[r]) {
                *d += a;
            }
        });
    }

    /// Sums over rows, producing a `[1, n]` tensor. Below the chunking
    /// threshold this is the historical fixed top-to-bottom accumulation;
    /// above it, fixed row bands are reduced independently and their
    /// partial rows combined in ascending band order — either way the
    /// association is a pure function of the shape.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "sum_rows requires a matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[1, n]);
        if m * n < REDUCE_PAR_MIN || n == 0 {
            for i in 0..m {
                for j in 0..n {
                    out.data[j] += self.data[i * n + j];
                }
            }
            return out;
        }
        let band = (REDUCE_CHUNK / n).max(1);
        let bands = m.div_ceil(band);
        let mut partials = vec![0.0f32; bands * n];
        let pptr = OutPtr(partials.as_mut_ptr());
        let data = &self.data;
        pool::current().run(bands, &|c| {
            let lo = c * band;
            let hi = (lo + band).min(m);
            // SAFETY: each chunk owns partial row `c`.
            let partial = unsafe { std::slice::from_raw_parts_mut(pptr.ptr().add(c * n), n) };
            for i in lo..hi {
                for (j, p) in partial.iter_mut().enumerate() {
                    *p += data[i * n + j];
                }
            }
        });
        for c in 0..bands {
            for j in 0..n {
                out.data[j] += partials[c * n + j];
            }
        }
        out
    }

    /// Element-wise `tanh`.
    pub fn tanh(&self) -> Tensor {
        self.map_with(f32::tanh)
    }

    /// Derivative of `tanh` given the *activation output* `y`: `1 - y^2`.
    pub fn tanh_backward(y: &Tensor, grad: &Tensor) -> Tensor {
        assert_eq!(y.shape, grad.shape, "tanh_backward shape mismatch");
        y.zip_with(grad, |y, g| (1.0 - y * y) * g)
    }

    /// Sums `term(x)` over all elements: the historical fixed
    /// left-to-right accumulation below the chunking threshold, fixed
    /// [`REDUCE_CHUNK`]-element partials combined in ascending chunk
    /// order above it (shape-derived either way).
    fn reduce_sum(&self, term: impl Fn(f32) -> f32 + Sync) -> f32 {
        let total = self.data.len();
        if total < REDUCE_PAR_MIN {
            let mut acc = 0.0f32;
            for &x in &self.data {
                acc += term(x);
            }
            return acc;
        }
        let chunks = total.div_ceil(REDUCE_CHUNK);
        let mut partials = vec![0.0f32; chunks];
        let pptr = OutPtr(partials.as_mut_ptr());
        let data = &self.data;
        pool::current().run(chunks, &|c| {
            let lo = c * REDUCE_CHUNK;
            let hi = (lo + REDUCE_CHUNK).min(total);
            let mut acc = 0.0f32;
            for &x in &data[lo..hi] {
                acc += term(x);
            }
            // SAFETY: each chunk owns partial slot `c`.
            unsafe { *pptr.ptr().add(c) = acc };
        });
        let mut acc = 0.0f32;
        for &p in &partials {
            acc += p;
        }
        acc
    }

    /// Mean of all elements (fixed, shape-derived accumulation order).
    pub fn mean(&self) -> f32 {
        self.reduce_sum(|x| x) / self.data.len() as f32
    }

    /// Sum of squared elements (fixed, shape-derived accumulation order).
    pub fn sum_sq(&self) -> f32 {
        self.reduce_sum(|x| x * x)
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sum_sq().sqrt()
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let i = Tensor::eye(3);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_is_bitwise_repeatable() {
        let a = Tensor::from_vec((0..64).map(|i| (i as f32).sin()).collect(), &[8, 8]);
        let b = Tensor::from_vec((0..64).map(|i| (i as f32).cos()).collect(), &[8, 8]);
        let c1 = a.matmul(&b);
        let c2 = a.matmul(&b);
        for (x, y) in c1.data().iter().zip(c2.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    fn wavy(rows: usize, cols: usize, phase: f32) -> Tensor {
        Tensor::from_vec(
            (0..rows * cols)
                .map(|i| (i as f32 * 0.37 + phase).sin())
                .collect(),
            &[rows, cols],
        )
    }

    fn assert_bitwise_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn tiled_matmul_matches_naive_on_ragged_shapes() {
        // Tail paths (m % MR, n % NR, 1xN, Nx1) and segment-crossing k
        // must keep the same per-element contract order as the reference
        // kernel.
        for &(m, k, n) in &[
            (7usize, 5usize, 3usize),
            (123, 77, 50),
            (1, 64, 300),
            (300, 64, 1),
            (33, 16, 17),
            (4, 1, 16),
            (9, 300, 33),
            (5, 513, 17),
        ] {
            let a = wavy(m, k, 0.1);
            let b = wavy(k, n, 0.7);
            assert_bitwise_eq(&a.matmul(&b), &a.matmul_naive(&b), &format!("{m}x{k}x{n}"));
        }
    }

    #[test]
    fn matmul_zero_k_yields_positive_zero() {
        let a = Tensor::zeros(&[3, 0]);
        let b = Tensor::zeros(&[0, 4]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[3, 4]);
        for &v in c.data() {
            assert_eq!(v.to_bits(), 0, "k = 0 must give +0.0 exactly");
        }
    }

    #[test]
    fn matmul_k_one_is_single_fma() {
        // k = 1: one segment, one fused op from +0.0 — exactly round(a*b).
        let a = Tensor::from_vec(vec![1.1, -2.3, 3.7], &[3, 1]);
        let b = Tensor::from_vec(vec![0.9, -1.7], &[1, 2]);
        let c = a.matmul(&b);
        for i in 0..3 {
            for j in 0..2 {
                let want = a.data()[i].mul_add(b.data()[j], 0.0);
                assert_eq!(c.at(i, j).to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn matmul_propagates_nan_from_zero_lhs_rows() {
        // Regression: an early kernel skipped `a == 0.0`, silently
        // dropping `0.0 * NaN = NaN` and `0.0 * inf = NaN`.
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0, 2.0], &[2, 2]);
        let c = a.matmul(&b);
        assert!(c.at(0, 0).is_nan(), "0*NaN must surface as NaN");
        assert!(c.at(0, 1).is_nan(), "0*inf must surface as NaN");
        assert_bitwise_eq(&c, &a.matmul_naive(&b), "NaN propagation");
    }

    /// Builds the `[k, n]` rhs whose every column is the pattern `col`.
    fn columns_of(col: &[f32], n: usize) -> Tensor {
        let k = col.len();
        let mut data = vec![0.0f32; k * n];
        for (kk, &v) in col.iter().enumerate() {
            for j in 0..n {
                data[kk * n + j] = v;
            }
        }
        Tensor::from_vec(data, &[k, n])
    }

    #[test]
    fn kat_segment_boundaries_pin_k_seg_256() {
        // Known-answer test pinning the fixed-split boundaries at k
        // multiples of 256. With a = all-ones and the column pattern
        //   b[0] = 1e8, b[1..256] = 1, b[256] = -1e8, b[257..512] = 1,
        //   b[512..520] = 1
        // the three segment partials are exactly 1e8 (the +1s are
        // absorbed: ulp(1e8) = 8), -1e8, and 8.0; the TwoSum combine
        // telescopes them to exactly 8.0. An unsegmented chain would give
        // 263.0, and segments of 128 would give 264.0 — so any change to
        // K_SEG or to the combine order fails this test.
        let k = 520;
        let mut col = vec![1.0f32; k];
        col[0] = 1e8;
        col[256] = -1e8;
        // m = 5, n = 17: exercises full tiles, the padded tail panel and
        // the tail row, all of which must agree on the pinned value.
        let a = Tensor::from_vec(vec![1.0; 5 * k], &[5, k]);
        let b = columns_of(&col, 17);
        for t in [a.matmul(&b), a.matmul_naive(&b)] {
            for (i, &v) in t.data().iter().enumerate() {
                assert_eq!(v.to_bits(), 8.0f32.to_bits(), "element {i}: {v}");
            }
        }
    }

    #[test]
    fn kat_twosum_combine_preserves_cancelled_partials() {
        // Column pattern: b[0] = 1, b[256] = 1e8, b[512] = -1e8, rest 0.
        // Segment partials are exactly 1, 1e8, -1e8. Plain ascending
        // summation (and Kahan, whose compensation is rounded away here)
        // would give 0; the TwoSum error term preserves the swamped 1.
        let k = 513;
        let mut col = vec![0.0f32; k];
        col[0] = 1.0;
        col[256] = 1e8;
        col[512] = -1e8;
        let a = Tensor::from_vec(vec![1.0; 5 * k], &[5, k]);
        let b = columns_of(&col, 17);
        for t in [a.matmul(&b), a.matmul_naive(&b)] {
            for (i, &v) in t.data().iter().enumerate() {
                assert_eq!(v.to_bits(), 1.0f32.to_bits(), "element {i}: {v}");
            }
        }
    }

    #[test]
    fn kat_accumulation_is_fused_not_mul_then_add() {
        // [x, x] · [x, -x] under mul-then-add is exactly 0 (both products
        // round identically); under the fused contract it is the rounding
        // error of x², which is nonzero for x = 1.1.
        let x = 1.1f32;
        let a = Tensor::from_vec(vec![x, x], &[1, 2]);
        let b = Tensor::from_vec(vec![x, -x], &[2, 1]);
        let want = (-x).mul_add(x, x.mul_add(x, 0.0));
        assert_ne!(want, 0.0, "test premise: fused result must differ");
        let got = a.matmul(&b);
        assert_eq!(got.data()[0].to_bits(), want.to_bits());
        assert_eq!(
            a.matmul_naive(&b).data()[0].to_bits(),
            want.to_bits(),
            "naive"
        );
    }

    #[test]
    fn portable_twin_matches_vector_path() {
        // On FMA hardware this proves scalar fmaf == vfmadd bitwise; on
        // anything else both runs take the portable path and the test
        // degenerates to repeatability.
        let a = wavy(37, 300, 0.3);
        let b = wavy(300, 41, 1.7);
        let fast = a.matmul(&b);
        set_force_portable(true);
        let portable = a.matmul(&b);
        set_force_portable(false);
        assert_bitwise_eq(&fast, &portable, "portable twin");
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        for &(m, k, n) in &[
            (8usize, 16usize, 16usize),
            (23, 19, 37),
            (5, 3, 2),
            (9, 513, 33),
        ] {
            let a = wavy(m, k, 0.2);
            let b = wavy(n, k, 0.9);
            assert_bitwise_eq(
                &a.matmul_t(&b),
                &a.matmul(&b.transpose()),
                &format!("matmul_t {m}x{k}x{n}"),
            );
        }
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        for &(r, m, n) in &[
            (8usize, 16usize, 16usize),
            (19, 23, 37),
            (3, 5, 2),
            (513, 9, 33),
        ] {
            let a = wavy(r, m, 0.4);
            let b = wavy(r, n, 1.3);
            assert_bitwise_eq(
                &a.t_matmul(&b),
                &a.transpose().matmul(&b),
                &format!("t_matmul {r}:{m}x{n}"),
            );
        }
    }

    #[test]
    fn matmul_batch_matches_individual_calls() {
        let a = wavy(48, 96, 0.1);
        let b = wavy(96, 64, 0.5);
        let c = wavy(48, 96, 0.9);
        let d = wavy(64, 96, 1.3);
        let e = wavy(96, 48, 1.7);
        let f = wavy(96, 64, 2.1);
        let batch =
            Tensor::matmul_batch(&[(MmOp::Nn, &a, &b), (MmOp::Nt, &c, &d), (MmOp::Tn, &e, &f)]);
        assert_bitwise_eq(&batch[0], &a.matmul(&b), "batch Nn");
        assert_bitwise_eq(&batch[1], &c.matmul_t(&d), "batch Nt");
        assert_bitwise_eq(&batch[2], &e.t_matmul(&f), "batch Tn");
    }

    #[test]
    fn every_op_matches_naive_across_packing_and_band_switches() {
        // (m, k, n) of the logical product, on both sides of every switch
        // the kernels take: tiny vs tiled (m >= MR, m*k*n >= 2^9), rhs
        // packed (Nn, Nt) vs read in place (Tn) with and without a ragged
        // last panel, lhs packed (k >= 256) or not, one band vs several
        // (where the bands of an item share one packed rhs), tail rows.
        for &(m, k, n) in &[
            (7usize, 5usize, 3usize),
            (4, 16, 64),
            (4, 16, 63),
            (8, 16, 16),
            (3, 40, 40),
            (5, 17, 50),
            (1, 64, 300),
            (300, 64, 1),
            (64, 128, 128),
            (128, 64, 128),
            (66, 130, 130),
            (40, 300, 33),
            (70, 260, 70),
        ] {
            let a = wavy(m, k, 0.1);
            let b = wavy(k, n, 0.7);
            let (at, bt) = (a.transpose(), b.transpose());
            let want = a.matmul_naive(&b);
            for portable in [false, true] {
                set_force_portable(portable);
                for threads in [1, 4, 8] {
                    let what = format!("{m}x{k}x{n} portable={portable} threads={threads}");
                    let (nn, nt, tn) = pool::with_threads(threads, || {
                        (a.matmul(&b), a.matmul_t(&bt), at.t_matmul(&b))
                    });
                    assert_bitwise_eq(&nn, &want, &format!("Nn {what}"));
                    assert_bitwise_eq(&nt, &want, &format!("Nt {what}"));
                    assert_bitwise_eq(&tn, &want, &format!("Tn {what}"));
                }
            }
            set_force_portable(false);
        }
    }

    #[test]
    fn small_layer_band_matches_naive_on_both_sides_of_the_tile_threshold() {
        // The shapes of a dim-16 layer at 4 and 8 batch rows, and their
        // neighbours: m * k * n from 2^8 (strided dots) across the
        // threshold through 2^13 (tiled), on all three ops, vector and
        // portable twins.
        for m in [4usize, 8] {
            for k in [8usize, 16, 32] {
                for n in [8usize, 16, 32] {
                    let a = wavy(m, k, 0.3);
                    let b = wavy(k, n, 1.1);
                    let (at, bt) = (a.transpose(), b.transpose());
                    let want = a.matmul_naive(&b);
                    for portable in [false, true] {
                        set_force_portable(portable);
                        let what = format!("{m}x{k}x{n} portable={portable}");
                        assert_bitwise_eq(&a.matmul(&b), &want, &format!("Nn {what}"));
                        assert_bitwise_eq(&a.matmul_t(&bt), &want, &format!("Nt {what}"));
                        assert_bitwise_eq(&at.t_matmul(&b), &want, &format!("Tn {what}"));
                    }
                    set_force_portable(false);
                }
            }
        }
    }

    #[test]
    fn packed_rhs_is_never_reused_across_calls() {
        // Two multi-band products in a row through the same thread's
        // scratch, same shapes, different rhs values: the second must not
        // see the first one's panels.
        let a = wavy(66, 130, 0.1);
        let (b1, b2) = (wavy(130, 130, 0.7), wavy(130, 130, 1.9));
        pool::with_threads(1, || {
            assert_bitwise_eq(&a.matmul(&b1), &a.matmul_naive(&b1), "first");
            assert_bitwise_eq(&a.matmul(&b2), &a.matmul_naive(&b2), "second");
        });
    }

    #[test]
    fn parallel_matmul_is_worker_count_invariant() {
        // Big enough to cross PAR_MIN_FLOPS and actually fan out.
        let a = wavy(160, 96, 0.3);
        let b = wavy(96, 110, 1.1);
        let reference = pool::with_threads(1, || a.matmul(&b));
        for threads in [2, 4, 8] {
            let c = pool::with_threads(threads, || a.matmul(&b));
            assert_bitwise_eq(&c, &reference, &format!("{threads} workers"));
        }
        assert_bitwise_eq(&reference, &a.matmul_naive(&b), "vs naive");
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), &[3, 2]);
        assert_eq!(a.transpose().at(0, 1), 4.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[1, 2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.hadamard(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn add_row_broadcasts() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[1, 2]);
        assert_eq!(x.add_row(&b).data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn sum_rows_reduces() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(x.sum_rows().data(), &[4.0, 6.0]);
        assert_eq!(x.sum_rows().shape(), &[1, 2]);
    }

    #[test]
    fn tanh_and_backward() {
        let x = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        let y = x.tanh();
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 0.7615942).abs() < 1e-6);
        let g = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let dx = Tensor::tanh_backward(&y, &g);
        assert_eq!(dx.data()[0], 1.0); // 1 - tanh(0)^2
    }

    #[test]
    fn reductions() {
        let x = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        assert_eq!(x.mean(), 3.5);
        assert_eq!(x.sum_sq(), 25.0);
        assert_eq!(x.norm(), 5.0);
    }

    #[test]
    fn parallel_elementwise_and_reductions_are_worker_count_invariant() {
        // Above ELEM_PAR_MIN / REDUCE_PAR_MIN, so the chunked paths run.
        let x = wavy(260, 300, 0.0);
        let y = wavy(260, 300, 2.0);
        let reference = pool::with_threads(1, || {
            (
                x.add(&y),
                x.hadamard(&y),
                x.tanh(),
                x.sum_rows(),
                x.mean(),
                x.sum_sq(),
            )
        });
        for threads in [2, 8] {
            let got = pool::with_threads(threads, || {
                (
                    x.add(&y),
                    x.hadamard(&y),
                    x.tanh(),
                    x.sum_rows(),
                    x.mean(),
                    x.sum_sq(),
                )
            });
            assert_bitwise_eq(&got.0, &reference.0, "add");
            assert_bitwise_eq(&got.1, &reference.1, "hadamard");
            assert_bitwise_eq(&got.2, &reference.2, "tanh");
            assert_bitwise_eq(&got.3, &reference.3, "sum_rows");
            assert_eq!(got.4.to_bits(), reference.4.to_bits(), "mean");
            assert_eq!(got.5.to_bits(), reference.5.to_bits(), "sum_sq");
        }
    }

    #[test]
    fn accessors() {
        let x = Tensor::zeros(&[3, 4]);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), 4);
        assert_eq!(x.numel(), 12);
        assert_eq!(x.to_string(), "Tensor[3, 4]");
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn bad_shape_panics() {
        Tensor::from_vec(vec![1.0], &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn bad_matmul_panics() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }
}
