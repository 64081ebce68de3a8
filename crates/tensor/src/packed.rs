//! The blocked GEMM core for f32 and int8, its panel packers, and the
//! packed-weight cache.
//!
//! The blocked kernel behind [`Tensor::matmul`] and the int8 `qmatmul*`
//! entry points never walks the operand matrices in their row-major
//! layout. Both sides are repacked into *panels* whose element order
//! matches the micro-kernel's access pattern, so the hot loop reads
//! nothing but forward-contiguous memory:
//!
//! * the right-hand side `[k, n]` becomes `⌈n/NR⌉` **column panels**, each
//!   holding `kp × NR` values p-major (`b[p][j0..j0+NR]` for ascending
//!   `p`), zero-padded in the last panel and below depth `k`;
//! * the left-hand side `[m, k]` becomes `⌈m/MR⌉` **row panels** of
//!   `kp × MR` values, zero-padded in the last panel.
//!
//! One core serves both element types. The panel depth `kp` is `k` for
//! f32 and `k` rounded up to even for i8, whose kernels consume depth
//! pairs. B panels share one p-major layout, so each rhs packer is one
//! generic function. A panels differ: f32 is p-major (`a[i0..i0+MR][p]`),
//! i8 pair-interleaved (see "Int8 inference path" below). `gemm_sweep`
//! walks the `MR × NR` tiles of a row span for every path; only the tile
//! kernel and the row write-back (a copy, or the i32→f32 rescale) vary.
//!
//! Each tile keeps its accumulators in registers and streams both panels
//! once over the *entire* depth in ascending order. On the f32 path every
//! output element's accumulation chain is exactly the chain the naive
//! i-k-j kernel produces (same terms, same order, same zero-skip on the
//! left operand), so the blocked kernel is bit-identical to the reference
//! kernel — and to itself at any pool width, since row spans only change
//! *which worker* owns a chain, never the chain itself. On the i8 path the
//! sums are exact integers, so every order agrees.
//!
//! [`PackedMatrix`] and [`QPackedMatrix`] make the packing reusable across
//! calls: inference constants (`Linear`/`Conv` weights, attention
//! projections) are packed once per parameter version through
//! [`PackedCache`], which repacks only when the owner reports a new
//! version (invalidation-on-write).

use crate::{exec, Im2ColSpec, Tensor};

/// Register-tile rows of the micro-kernel (rows of A per panel).
pub const MR: usize = 4;

/// Register-tile columns of the micro-kernel (columns of B per panel).
pub const NR: usize = 16;

/// Which operand a [`PackedMatrix`] was packed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelKind {
    /// Left operand of a GEMM: row panels of `MR` rows, p-major.
    Lhs,
    /// Right operand of a GEMM: column panels of `NR` columns, p-major.
    Rhs,
}

/// A matrix repacked into micro-kernel panels (see the module docs).
///
/// Packing preserves values exactly — it is a permutation plus zero
/// padding that the kernel never lets escape into the output — so a GEMM
/// over packed operands is bit-identical to the same GEMM packed on the
/// fly.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrix {
    data: Vec<f32>,
    /// Logical row count of the packed matrix (`m` for Lhs, `k` for Rhs).
    rows: usize,
    /// Logical column count (`k` for Lhs, `n` for Rhs).
    cols: usize,
    kind: PanelKind,
}

impl PackedMatrix {
    /// Packs a `[k, n]` right-hand operand into column panels.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not rank-2.
    pub fn pack_rhs(b: &Tensor) -> Self {
        assert_eq!(b.shape().ndim(), 2, "pack_rhs requires rank-2");
        let (k, n) = (b.shape().dim(0), b.shape().dim(1));
        let mut data = vec![0.0f32; n.div_ceil(NR).max(1) * k * NR];
        pack_rhs_into(&mut data, b.as_slice(), k, n, k);
        Self {
            data,
            rows: k,
            cols: n,
            kind: PanelKind::Rhs,
        }
    }

    /// Packs the *transpose* of an `[n, k]` matrix into column panels —
    /// equivalent to `pack_rhs(&w.transpose())` without materializing the
    /// transpose. This is the shape `Linear` wants: its weight is stored
    /// `[out, in]` but multiplies as `x · Wᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_rhs_transposed(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_rhs_transposed requires rank-2");
        let (n, k) = (w.shape().dim(0), w.shape().dim(1));
        let mut data = vec![0.0f32; n.div_ceil(NR).max(1) * k * NR];
        pack_rhs_transposed_into(&mut data, w.as_slice(), n, k, k);
        Self {
            data,
            rows: k,
            cols: n,
            kind: PanelKind::Rhs,
        }
    }

    /// Packs an `[m, k]` left-hand operand into row panels.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not rank-2.
    pub fn pack_lhs(a: &Tensor) -> Self {
        assert_eq!(a.shape().ndim(), 2, "pack_lhs requires rank-2");
        let (m, k) = (a.shape().dim(0), a.shape().dim(1));
        let mut data = vec![0.0f32; m.div_ceil(MR).max(1) * k * MR];
        pack_lhs_into(&mut data, a.as_slice(), m, k);
        Self {
            data,
            rows: m,
            cols: k,
            kind: PanelKind::Lhs,
        }
    }

    /// Packs the *transpose* of a `[k, m]` matrix into row panels —
    /// equivalent to `pack_lhs(&w.transpose())` without materializing the
    /// transpose. This is the shape the convolution backward pass wants:
    /// `dcols = Wᵀ · g` with the `[outC, C·k·k]` weight as the constant
    /// left operand.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_lhs_transposed(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_lhs_transposed requires rank-2");
        let (k, m) = (w.shape().dim(0), w.shape().dim(1));
        let mut data = vec![0.0f32; m.div_ceil(MR).max(1) * k * MR];
        pack_lhs_transposed_into(&mut data, w.as_slice(), k, m);
        Self {
            data,
            rows: m,
            cols: k,
            kind: PanelKind::Lhs,
        }
    }

    /// Logical row count (`m` for Lhs panels, `k` for Rhs panels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count (`k` for Lhs panels, `n` for Rhs panels).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Which GEMM operand the panels were laid out for.
    pub fn kind(&self) -> PanelKind {
        self.kind
    }

    /// The packed panel storage (p-major; see the module docs).
    pub(crate) fn panels(&self) -> &[f32] {
        &self.data
    }
}

/// A one-slot packed-weight cache keyed by a parameter version.
///
/// Owners (e.g. `solo-nn` layers) bump their version counter on every
/// mutable access to the parameter value; `get_or_pack` repacks only when
/// the version it sees differs from the one it cached — so inference-time
/// constants are packed once per training step instead of once per frame,
/// and a weight update can never be served from a stale packing.
///
/// The slot is generic over the packed representation: the f32 path caches
/// a [`PackedMatrix`] (the default), the quantized path a
/// [`QPackedMatrix`] whose per-channel scales requantize under exactly the
/// same version key.
#[derive(Debug, Clone)]
pub struct PackedCache<T = PackedMatrix> {
    slot: Option<(u64, T)>,
}

impl<T> Default for PackedCache<T> {
    fn default() -> Self {
        Self { slot: None }
    }
}

impl<T> PackedCache<T> {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached packing for `version`, invoking `pack` to build
    /// (or rebuild) it when the cache is empty or holds a different
    /// version.
    pub fn get_or_pack(&mut self, version: u64, pack: impl FnOnce() -> T) -> &T {
        if !matches!(&self.slot, Some((v, _)) if *v == version) {
            self.slot = Some((version, pack()));
        }
        match &self.slot {
            Some((_, p)) => p,
            // Unreachable: the slot was populated just above.
            None => unreachable!("PackedCache slot populated above"),
        }
    }

    /// Drops the cached packing (the next `get_or_pack` repacks).
    pub fn invalidate(&mut self) {
        self.slot = None;
    }

    /// The version of the packing currently held, if any. Exposed so tests
    /// can assert the repack-on-update contract.
    pub fn cached_version(&self) -> Option<u64> {
        self.slot.as_ref().map(|(v, _)| *v)
    }
}

/// A process-wide, thread-safe [`PackedCache`]: every serving session holds
/// a clone of one `SharedPackedCache`, so a weight matrix packs exactly
/// once per parameter *version* per process — never once per session.
///
/// The cached packing is handed out behind an [`Arc`], so sessions keep
/// using the panels they fetched even while another session triggers a
/// repack for a newer version; the old panels drop when the last holder
/// releases them. [`SharedPackedCache::pack_count`] counts how many times
/// the pack closure actually ran, which is what the staleness tests pin:
/// a version bump repacks once, not once per session.
#[derive(Debug)]
pub struct SharedPackedCache<T = PackedMatrix> {
    inner: std::sync::Arc<std::sync::Mutex<SharedSlot<T>>>,
}

#[derive(Debug)]
struct SharedSlot<T> {
    cache: PackedCache<std::sync::Arc<T>>,
    packs: u64,
}

impl<T> Clone for SharedPackedCache<T> {
    fn clone(&self) -> Self {
        Self {
            inner: std::sync::Arc::clone(&self.inner),
        }
    }
}

impl<T> Default for SharedPackedCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SharedPackedCache<T> {
    /// An empty shared cache.
    pub fn new() -> Self {
        Self {
            inner: std::sync::Arc::new(std::sync::Mutex::new(SharedSlot {
                cache: PackedCache::new(),
                packs: 0,
            })),
        }
    }

    /// Returns the shared packing for `version`, invoking `pack` at most
    /// once per version change across every clone of this cache.
    pub fn get_or_pack(&self, version: u64, pack: impl FnOnce() -> T) -> std::sync::Arc<T> {
        let mut slot = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut packed = false;
        let panels = std::sync::Arc::clone(slot.cache.get_or_pack(version, || {
            packed = true;
            std::sync::Arc::new(pack())
        }));
        if packed {
            slot.packs += 1;
        }
        panels
    }

    /// Drops the cached packing (the next `get_or_pack` repacks).
    pub fn invalidate(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cache
            .invalidate();
    }

    /// The version currently cached, if any.
    pub fn cached_version(&self) -> Option<u64> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .cache
            .cached_version()
    }

    /// How many times the pack closure has actually run — the number of
    /// repacks the whole process paid, across all clones.
    pub fn pack_count(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).packs
    }
}

/// Packs row-major `b` (`k × n`) into `⌈n/NR⌉` p-major column panels of
/// depth `kp ≥ k` (`k` for f32, `kpad(k)` for i8). `data` must be zeroed
/// and sized `⌈n/NR⌉·kp·NR` (padding lanes and depths stay zero).
pub(crate) fn pack_rhs_into<T: Copy>(data: &mut [T], src: &[T], k: usize, n: usize, kp: usize) {
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let panel = &mut data[jp * kp * NR..(jp + 1) * kp * NR];
        let depths = panel.chunks_exact_mut(NR).take(k).enumerate();
        if j0 + NR <= n {
            // Full panels: each source row contributes NR contiguous values.
            for (p, dst) in depths {
                dst.copy_from_slice(&src[p * n + j0..p * n + j0 + NR]);
            }
        } else {
            for (p, dst) in depths {
                dst[..n - j0].copy_from_slice(&src[p * n + j0..p * n + n]);
            }
        }
    }
}

/// Packs row-major `a` (`m × k`) into `⌈m/MR⌉` p-major row panels.
fn pack_lhs_into(data: &mut [f32], src: &[f32], m: usize, k: usize) {
    for ip in 0..m.div_ceil(MR) {
        let i0 = ip * MR;
        let height = MR.min(m - i0);
        let panel = &mut data[ip * k * MR..(ip + 1) * k * MR];
        for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
            for (r, v) in dst[..height].iter_mut().enumerate() {
                *v = src[(i0 + r) * k + p];
            }
        }
    }
}

/// Packs the transpose of row-major `w` (`n × k`) into `⌈n/NR⌉` p-major
/// column panels of depth `kp ≥ k` — exactly the panels [`pack_rhs_into`]
/// would produce for the materialized `wᵀ` (`k × n`). Column `j` of `wᵀ` is
/// row `j` of `w`, so the pack reads `w` row-wise with stride `k`. `data`
/// must be zeroed and sized `⌈n/NR⌉·kp·NR`.
pub(crate) fn pack_rhs_transposed_into<T: Copy>(
    data: &mut [T],
    src: &[T],
    n: usize,
    k: usize,
    kp: usize,
) {
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let width = NR.min(n - j0);
        let panel = &mut data[jp * kp * NR..(jp + 1) * kp * NR];
        for (p, dst) in panel.chunks_exact_mut(NR).take(k).enumerate() {
            // Column j of wᵀ is row j of w: dst[s] = w[j0+s][p].
            for (s, v) in dst[..width].iter_mut().enumerate() {
                *v = src[(j0 + s) * k + p];
            }
        }
    }
}

/// Packs the transpose of row-major `w` (`k × m`) into `⌈m/MR⌉` p-major
/// row panels — exactly the panels [`pack_lhs_into`] would produce for the
/// materialized `wᵀ` (`m × k`). Row `i0+r` of `wᵀ` at depth `p` is
/// `w[p][i0+r]`, so each panel row is a *contiguous* slice of a source
/// row: this pack is a strided memcpy, cheaper than transposing. `data`
/// must be zeroed and sized `⌈m/MR⌉·k·MR`.
pub(crate) fn pack_lhs_transposed_into(data: &mut [f32], src: &[f32], k: usize, m: usize) {
    for ip in 0..m.div_ceil(MR) {
        let i0 = ip * MR;
        let height = MR.min(m - i0);
        let panel = &mut data[ip * k * MR..(ip + 1) * k * MR];
        for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
            dst[..height].copy_from_slice(&src[p * m + i0..p * m + i0 + height]);
        }
    }
}

/// Packs the im2col patch matrix of a `[C, H, W]` image into p-major column
/// panels of depth `kp ≥ C·k²`, straight from the image — exactly the
/// panels [`pack_rhs_into`] would produce for the materialized
/// `[C·k·k, outH·outW]` matrix, which therefore never has to exist. Lane
/// `s` of panel `jp` at depth `p` is the zero-padded pixel kernel tap `p`
/// reads at output position `jp·NR + s` ([`Im2ColSpec::pixel`] — the same
/// geometry rule [`crate::im2col`] applies), so every packed value is a
/// pure copy of the materialized one and the downstream GEMM is
/// bit-identical. Out-of-bounds taps keep the buffer's pre-zeroed lanes,
/// which is exactly the zero padding (0 quantizes to 0 on the i8 path).
/// `data` must be zeroed and sized `⌈outH·outW/NR⌉·kp·NR`.
pub(crate) fn pack_rhs_im2col_into<T: Copy + Send + Sync>(
    data: &mut [T],
    src: &[T],
    spec: &Im2ColSpec,
    kp: usize,
) {
    let rows = spec.patch_rows();
    let cols = spec.patch_cols();
    let ow = spec.out_width();
    let (h, w) = (spec.height, spec.width);
    let stride = spec.stride;
    let panel_len = kp * NR;
    // One task per column panel: panels are disjoint chunks of `data`, and
    // every lane is a pure function of (panel, p, lane), so the dispatch is
    // bit-identical at any pool width.
    exec::pool().par_rows(data, panel_len, 2 * panel_len, |jp, panel| {
        let j0 = jp * NR;
        let width = NR.min(cols - j0);
        for (p, dst) in panel.chunks_exact_mut(NR).take(rows).enumerate() {
            let (c, ki, kj) = spec.tap(p);
            let ib = (ki * spec.dilation) as isize - spec.padding as isize;
            let jb = (kj * spec.dilation) as isize - spec.padding as isize;
            let plane = &src[c * h * w..(c + 1) * h * w];
            // Lanes sharing an output row form a run whose input reads
            // advance by `stride`; out-of-bounds taps keep the buffer's
            // pre-zeroed lanes, which is exactly the zero padding.
            let mut s = 0;
            while s < width {
                let (oi, oj) = ((j0 + s) / ow, (j0 + s) % ow);
                let run = (ow - oj).min(width - s);
                let ii = (oi * stride) as isize + ib;
                if 0 <= ii && ii < h as isize {
                    let row = &plane[ii as usize * w..(ii as usize + 1) * w];
                    let jj = (oj * stride) as isize + jb;
                    if stride == 1 {
                        // Unit stride: the in-bounds middle of the run is one
                        // contiguous copy from the input row.
                        let lo = (-jj).clamp(0, run as isize) as usize;
                        let hi = (w as isize - jj).clamp(0, run as isize) as usize;
                        if hi > lo {
                            dst[s + lo..s + hi].copy_from_slice(
                                &row[(jj + lo as isize) as usize..(jj + hi as isize) as usize],
                            );
                        }
                    } else {
                        // Strided gather: precompute the in-bounds lane
                        // range so the inner loop is a branch-free strided
                        // read. Lane `t` reads column `jj + t·stride`,
                        // in-bounds for `lo ≤ t < hi`; the lanes outside
                        // keep the buffer's pre-zeroed padding.
                        let lo = if jj >= 0 {
                            0
                        } else {
                            ((-jj) as usize).div_ceil(stride).min(run)
                        };
                        let hi = if (w as isize) > jj {
                            ((w as isize - jj) as usize).div_ceil(stride).min(run)
                        } else {
                            0
                        };
                        if hi > lo {
                            let mut src_j = (jj + (lo * stride) as isize) as usize;
                            for v in &mut dst[s + lo..s + hi] {
                                *v = row[src_j];
                                src_j += stride;
                            }
                        }
                    }
                }
                s += run;
            }
        }
    });
}

/// Packs the *transpose* of the im2col patch matrix (`[outH·outW, C·k·k]`)
/// into p-major column panels, straight from the image — the right-hand
/// operand of `dW = g · colsᵀ` in the convolution backward pass. Panels
/// run over the kernel taps; the p-extent runs over output positions. Same
/// geometry rule, same bit-identity argument as [`pack_rhs_im2col_into`].
/// `data` must be zeroed and sized `⌈C·k²/NR⌉·outH·outW·NR`.
pub(crate) fn pack_rhs_im2col_t_into(data: &mut [f32], src: &[f32], spec: &Im2ColSpec) {
    let rows = spec.patch_rows();
    let cols = spec.patch_cols();
    let (oh, ow) = (spec.out_height(), spec.out_width());
    let (h, w) = (spec.height, spec.width);
    let stride = spec.stride;
    let panel_len = cols * NR;
    // One task per panel (disjoint `data` chunks, pure lane values: same
    // width-invariance argument as `pack_rhs_im2col_into`).
    exec::pool().par_rows(data, panel_len, 2 * panel_len, |jp, panel| {
        let j0 = jp * NR;
        let width = NR.min(rows - j0);
        // Hoist each lane's tap geometry out of the output-position sweep.
        let (mut ib, mut jb, mut base) = ([0isize; NR], [0isize; NR], [0usize; NR]);
        for s in 0..width {
            let (c, ki, kj) = spec.tap(j0 + s);
            ib[s] = (ki * spec.dilation) as isize - spec.padding as isize;
            jb[s] = (kj * spec.dilation) as isize - spec.padding as isize;
            base[s] = c * h * w;
        }
        let mut chunks = panel.chunks_exact_mut(NR);
        for oi in 0..oh {
            let i0 = (oi * stride) as isize;
            for oj in 0..ow {
                // The panel holds exactly outH·outW depth chunks, one per
                // (oi, oj) in row-major order.
                // lint:allow(P1): panel.len() == cols·NR with cols == oh·ow
                let dst = chunks.next().expect("panel depth matches outH*outW");
                let jpos = (oj * stride) as isize;
                for s in 0..width {
                    let (ii, jj) = (i0 + ib[s], jpos + jb[s]);
                    if 0 <= ii && ii < h as isize && 0 <= jj && jj < w as isize {
                        dst[s] = src[base[s] + ii as usize * w + jj as usize];
                    }
                }
            }
        }
    });
}

/// Lane-parallel AVX2 variant of the scalar micro-kernel.
///
/// The vectorization is purely over the `NR` lane dimension: each output
/// element's accumulation chain is still the scalar chain (one mul, one
/// add per non-zero `p`, ascending `p`), just computed for eight `j` lanes
/// at once with `vmulps`/`vaddps`. No FMA is emitted — multiply and add
/// stay separate instructions with separate roundings — so the result is
/// bit-identical to the scalar micro-kernel, and the runtime dispatch
/// between the two can never change an output. `unsafe` here is the
/// workspace's sanctioned exception: it is confined to this module and
/// consists only of the `target_feature` call contract plus unaligned
/// loads/stores whose bounds are pinned by `chunks_exact`/array types.
#[cfg(target_arch = "x86_64")]
mod simd {
    #![allow(unsafe_code)]

    use super::{MR, NR};
    use core::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };

    /// Whether the AVX2 micro-kernel may be dispatched (detected once).
    pub fn available() -> bool {
        static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// AVX2 micro-kernel; see the module docs for the bit-identity
    /// argument.
    ///
    /// # Safety
    ///
    /// The caller must have verified [`available`] returns true. The slice
    /// geometry (`a_panel.len() == k·MR`, `b_panel.len() == k·NR`) is
    /// enforced by `chunks_exact`, and every load/store is the unaligned
    /// variant, so no further alignment or bounds contract is needed.
    #[target_feature(enable = "avx2")]
    pub unsafe fn microkernel(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
        const { assert!(NR == 16, "AVX2 kernel assumes two 8-lane registers per row") };
        const { assert!(MR == 4, "AVX2 kernel unrolls exactly four rows") };
        let mut a0l = _mm256_loadu_ps(acc[0].as_ptr());
        let mut a0h = _mm256_loadu_ps(acc[0][8..].as_ptr());
        let mut a1l = _mm256_loadu_ps(acc[1].as_ptr());
        let mut a1h = _mm256_loadu_ps(acc[1][8..].as_ptr());
        let mut a2l = _mm256_loadu_ps(acc[2].as_ptr());
        let mut a2h = _mm256_loadu_ps(acc[2][8..].as_ptr());
        let mut a3l = _mm256_loadu_ps(acc[3].as_ptr());
        let mut a3h = _mm256_loadu_ps(acc[3][8..].as_ptr());
        for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
            let bl = _mm256_loadu_ps(bp.as_ptr());
            let bh = _mm256_loadu_ps(bp[8..].as_ptr());
            // Same `== 0.0` skip (and NaN semantics) as the scalar kernel.
            if ap[0] != 0.0 {
                let av = _mm256_set1_ps(ap[0]);
                a0l = _mm256_add_ps(a0l, _mm256_mul_ps(av, bl));
                a0h = _mm256_add_ps(a0h, _mm256_mul_ps(av, bh));
            }
            if ap[1] != 0.0 {
                let av = _mm256_set1_ps(ap[1]);
                a1l = _mm256_add_ps(a1l, _mm256_mul_ps(av, bl));
                a1h = _mm256_add_ps(a1h, _mm256_mul_ps(av, bh));
            }
            if ap[2] != 0.0 {
                let av = _mm256_set1_ps(ap[2]);
                a2l = _mm256_add_ps(a2l, _mm256_mul_ps(av, bl));
                a2h = _mm256_add_ps(a2h, _mm256_mul_ps(av, bh));
            }
            if ap[3] != 0.0 {
                let av = _mm256_set1_ps(ap[3]);
                a3l = _mm256_add_ps(a3l, _mm256_mul_ps(av, bl));
                a3h = _mm256_add_ps(a3h, _mm256_mul_ps(av, bh));
            }
        }
        _mm256_storeu_ps(acc[0].as_mut_ptr(), a0l);
        _mm256_storeu_ps(acc[0][8..].as_mut_ptr(), a0h);
        _mm256_storeu_ps(acc[1].as_mut_ptr(), a1l);
        _mm256_storeu_ps(acc[1][8..].as_mut_ptr(), a1h);
        _mm256_storeu_ps(acc[2].as_mut_ptr(), a2l);
        _mm256_storeu_ps(acc[2][8..].as_mut_ptr(), a2h);
        _mm256_storeu_ps(acc[3].as_mut_ptr(), a3l);
        _mm256_storeu_ps(acc[3][8..].as_mut_ptr(), a3h);
    }
}

/// The register-tiled micro-kernel: accumulates the full-`k` product of
/// one `MR`-row A panel and one `NR`-column B panel into `acc`.
///
/// The accumulation runs over ascending `p` with the same
/// skip-zero-left-operand rule as the reference kernel, so each
/// accumulator's floating-point chain is exactly the reference chain for
/// its output element. `chunks_exact` pins the panel stride for the
/// compiler: the inner loop is bounds-check-free and vectorizes over the
/// `NR` lane dimension.
#[inline]
fn microkernel(a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ap, bp) in a_panel.chunks_exact(MR).zip(b_panel.chunks_exact(NR)) {
        let bp: &[f32; NR] = bp.try_into().unwrap_or(&[0.0; NR]);
        for (r, accr) in acc.iter_mut().enumerate() {
            let av = ap[r];
            // Same sparsity skip as the reference kernel (and the same
            // NaN/∞ semantics: only exact ±0.0 left operands are skipped).
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in accr.iter_mut().zip(bp) {
                *o += av * bv;
            }
        }
    }
}

/// Computes one MR×NR f32 tile from the packed panels with the AVX2
/// micro-kernel when `use_simd` witnessed it, else the scalar one. Both
/// tiers produce the same bits, so dispatch can never change an output.
#[inline]
fn gemm_tile(a_panel: &[f32], b_panel: &[f32], use_simd: bool) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` witnessed AVX2 support; the panel slices
        // carry exactly k·MR / k·NR elements by construction.
        #[allow(unsafe_code)]
        unsafe {
            simd::microkernel(a_panel, b_panel, &mut acc)
        };
        return acc;
    }
    let _ = use_simd;
    microkernel(a_panel, b_panel, &mut acc);
    acc
}

/// The blocked GEMM core behind every f32 and int8 product:
/// `a_panels · b_panels` into the row-major `out` (`n` columns),
/// row-span partitioned across the execution pool.
///
/// Each span holds output rows `[row0, row0 + span.len()/n)`; `row0` is
/// always a multiple of [`MR`] (the span dispatch aligns blocks) so A
/// panels line up with the span. Loop order is column-panel outer /
/// row-panel inner: the `kp × NR` B panel stays resident in L1 across the
/// whole row sweep while the tile lives in registers until write-back.
/// The two path-specific steps are arguments: `tile` computes one `MR × NR`
/// accumulator tile from a `kp`-deep panel pair, and `write(orow, acc,
/// row, j0)` stores the accumulators of output row `row` into `orow`, its
/// columns `j0..j0 + orow.len()`. `work_per_row` is the pool's cost hint.
fn gemm_sweep<T: Sync, A, O: Send>(
    out: &mut [O],
    a_panels: &[T],
    b_panels: &[T],
    (kp, n): (usize, usize),
    work_per_row: usize,
    tile: impl Fn(&[T], &[T]) -> [[A; NR]; MR] + Sync,
    write: impl Fn(&mut [O], &[A], usize, usize) + Sync,
) {
    exec::pool().par_row_spans(out, n.max(1), MR, work_per_row, |row0, span| {
        debug_assert_eq!(row0 % MR, 0, "span must start on an MR boundary");
        let span_rows = span.len() / n.max(1);
        for jp in 0..n.div_ceil(NR) {
            let b_panel = &b_panels[jp * kp * NR..(jp + 1) * kp * NR];
            let j0 = jp * NR;
            let width = NR.min(n - j0);
            for i0 in (0..span_rows).step_by(MR) {
                let ip = (row0 + i0) / MR;
                let acc = tile(&a_panels[ip * kp * MR..(ip + 1) * kp * MR], b_panel);
                for (r, accr) in acc.iter().take(span_rows - i0).enumerate() {
                    let o = (i0 + r) * n + j0;
                    write(&mut span[o..o + width], &accr[..width], row0 + i0 + r, j0);
                }
            }
        }
    });
}

/// Blocked GEMM into a fresh output tensor: `a_panels · b_panels → [m, n]`.
pub(crate) fn gemm_packed(
    a_panels: &[f32],
    b_panels: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Tensor {
    #[cfg(target_arch = "x86_64")]
    let use_simd = simd::available();
    #[cfg(not(target_arch = "x86_64"))]
    let use_simd = false;
    let mut out = exec::take_buf_at("gemm.out", m * n);
    gemm_sweep(
        &mut out,
        a_panels,
        b_panels,
        (k, n),
        2 * k * n,
        |a, b| gemm_tile(a, b, use_simd),
        |orow, acc, _, _| orow.copy_from_slice(acc),
    );
    Tensor::from_vec(out, &[m, n])
}

/// Packs `a` on the fly (recycling the scratch through the buffer pool)
/// and runs the blocked GEMM against pre-packed B panels.
pub(crate) fn gemm_pack_lhs(a: &[f32], b_panels: &[f32], m: usize, k: usize, n: usize) -> Tensor {
    let mut a_panels = exec::take_buf_at("gemm.pack_lhs", m.div_ceil(MR).max(1) * k * MR);
    pack_lhs_into(&mut a_panels, a, m, k);
    let out = gemm_packed(&a_panels, b_panels, m, k, n);
    exec::recycle_buf(a_panels);
    out
}

impl Tensor {
    /// Matrix product against a pre-packed right-hand operand:
    /// `[m,k] × packed([k,n]) → [m,n]`.
    ///
    /// Bit-identical to `self.matmul(&b)` for the `b` the panels were
    /// packed from; use with [`PackedCache`] to pack inference constants
    /// once per parameter version.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2, `rhs` was not packed with a
    /// `pack_rhs*` constructor, or the inner dimensions differ.
    pub fn matmul_packed(&self, rhs: &PackedMatrix) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "matmul_packed lhs must be rank-2");
        assert_eq!(
            rhs.kind(),
            PanelKind::Rhs,
            "matmul_packed needs Rhs panels (got {:?})",
            rhs.kind()
        );
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        assert_eq!(
            k,
            rhs.rows(),
            "matmul_packed inner dimension mismatch: {} vs packed {}×{}",
            self.shape(),
            rhs.rows(),
            rhs.cols()
        );
        gemm_pack_lhs(self.as_slice(), rhs.panels(), m, k, rhs.cols())
    }
}

/// Computes the MR-aligned panel offset of every batch member and the
/// total panel count: member `i`'s rows start at `offsets[i] · MR` in the
/// fused output, so each member occupies exactly the row panels its solo
/// pack would produce. Shared by the f32 and i8 batched entry points.
///
/// # Panics
///
/// Panics if any member is not rank-2 or its inner dimension is not `k`.
fn batch_panel_offsets(lhs: &[&Tensor], k: usize) -> (Vec<usize>, usize) {
    let mut offsets = Vec::with_capacity(lhs.len());
    let mut total = 0usize;
    for a in lhs {
        assert_eq!(
            a.shape().ndim(),
            2,
            "batched matmul lhs members must be rank-2"
        );
        assert_eq!(
            a.shape().dim(1),
            k,
            "batched matmul inner dimension mismatch: {} vs packed k={k}",
            a.shape()
        );
        offsets.push(total);
        total += a.shape().dim(0).div_ceil(MR);
    }
    (offsets, total)
}

/// Packs every non-empty batch member into its MR-aligned slot of the
/// fused `kp`-deep row panels: `pack(slot, member, row0)` fills the slot of
/// the member whose rows start at fused output row `row0`. The slots
/// between members stay zero. Shared by the f32 and i8 batched entry
/// points.
fn pack_batch<T>(
    a_panels: &mut [T],
    lhs: &[&Tensor],
    offsets: &[usize],
    kp: usize,
    mut pack: impl FnMut(&mut [T], &Tensor, usize),
) {
    for (a, &off) in lhs.iter().zip(offsets) {
        let panels = a.shape().dim(0).div_ceil(MR);
        if panels > 0 {
            pack(
                &mut a_panels[off * kp * MR..(off + panels) * kp * MR],
                a,
                off * MR,
            );
        }
    }
}

/// Splits the fused `[panels·MR, n]` output back into one tensor per batch
/// member, dropping the zero padding rows between members.
fn split_batch_out(out: Tensor, lhs: &[&Tensor], offsets: &[usize], n: usize) -> Vec<Tensor> {
    let src = out.as_slice();
    let parts = lhs
        .iter()
        .zip(offsets)
        .map(|(a, &off)| {
            let m = a.shape().dim(0);
            let row0 = off * MR;
            let mut o = exec::take_buf_at("gemm.batch_split", m * n);
            o.copy_from_slice(&src[row0 * n..row0 * n + m * n]);
            Tensor::from_vec(o, &[m, n])
        })
        .collect();
    out.recycle();
    parts
}

/// Cross-session batched matrix product: every `lhs[i]` (`[m_i, k]`)
/// multiplies the *same* resident pre-packed right-hand panels in one
/// fused blocked-GEMM dispatch, instead of `lhs.len()` separate calls.
///
/// Each member's rows are packed at an MR-aligned offset of one shared
/// panel buffer, so its panels are byte-identical to the panels its solo
/// [`Tensor::matmul_packed`] call would build; the inter-member padding
/// rows pack as zero and are dropped when the fused output is split. An
/// output row's accumulation chain depends only on its own lhs row and the
/// B panels (ascending `k`, like the reference kernel), so every returned
/// tensor is **bit-identical** to the corresponding sequential
/// `lhs[i].matmul_packed(rhs)` — batching can change throughput, never
/// results. This is the serving layer's perf core: one dispatch, one
/// scratch round-trip and one resident B panel set amortized over all
/// sessions.
///
/// # Panics
///
/// Panics if `rhs` was not packed with a `pack_rhs*` constructor, or any
/// member is not rank-2 with inner dimension `rhs.rows()`.
pub fn matmul_packed_batched(lhs: &[&Tensor], rhs: &PackedMatrix) -> Vec<Tensor> {
    assert_eq!(
        rhs.kind(),
        PanelKind::Rhs,
        "matmul_packed_batched needs Rhs panels (got {:?})",
        rhs.kind()
    );
    let (k, n) = (rhs.rows(), rhs.cols());
    let (offsets, total_panels) = batch_panel_offsets(lhs, k);
    if total_panels == 0 {
        return lhs
            .iter()
            .map(|a| Tensor::zeros(&[a.shape().dim(0), n]))
            .collect();
    }
    let mut a_panels = exec::take_buf_at("gemm.batch_lhs", total_panels * k * MR);
    pack_batch(&mut a_panels, lhs, &offsets, k, |slot, a, _| {
        pack_lhs_into(slot, a.as_slice(), a.shape().dim(0), k);
    });
    let out = gemm_packed(&a_panels, rhs.panels(), total_panels * MR, k, n);
    exec::recycle_buf(a_panels);
    split_batch_out(out, lhs, &offsets, n)
}

impl PackedMatrix {
    /// Matrix product with `self` as a pre-packed *left* operand:
    /// `packed([m,k]) × [k,n] → [m,n]`.
    ///
    /// This is the convolution shape: the `[outC, C·k·k]` weight is the
    /// constant left operand of the im2col GEMM. Bit-identical to
    /// `w.matmul(&rhs)` for the `w` the panels were packed from.
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with [`PackedMatrix::pack_lhs`],
    /// `rhs` is not rank-2, or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.kind(),
            PanelKind::Lhs,
            "PackedMatrix::matmul needs Lhs panels (got {:?})",
            self.kind()
        );
        assert_eq!(rhs.shape().ndim(), 2, "matmul rhs must be rank-2");
        let (k, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        assert_eq!(
            self.cols(),
            k,
            "matmul inner dimension mismatch: packed {}×{} vs {}",
            self.rows(),
            self.cols(),
            rhs.shape()
        );
        let mut b_panels = exec::take_buf_at("gemm.pack_rhs", n.div_ceil(NR).max(1) * k * NR);
        pack_rhs_into(&mut b_panels, rhs.as_slice(), k, n, k);
        let out = gemm_packed(self.panels(), &b_panels, self.rows(), k, n);
        exec::recycle_buf(b_panels);
        out
    }

    /// Implicit-GEMM convolution forward: `self · im2col(input, spec)` with
    /// `self` a pre-packed `[outC, C·k·k]` left operand, producing the
    /// `[outC, outH·outW]` response matrix — without ever materializing the
    /// im2col patch matrix. The column panels are filled straight from the
    /// image by [`pack_rhs_im2col_into`]; since packing is a pure value
    /// copy, the result is bit-identical to
    /// `self.matmul(&im2col(input, spec))` at any pool width, while the
    /// peak scratch drops by the whole patch-matrix footprint.
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with a `pack_lhs*` constructor, if
    /// `input` is not the `[C, H, W]` tensor `spec` describes, or if the
    /// packed `k` extent differs from `spec.patch_rows()`.
    pub fn matmul_im2col(&self, input: &Tensor, spec: &Im2ColSpec) -> Tensor {
        assert_eq!(
            self.kind(),
            PanelKind::Lhs,
            "matmul_im2col needs Lhs panels (got {:?})",
            self.kind()
        );
        assert_eq!(
            input.shape().dims(),
            &[spec.channels, spec.height, spec.width],
            "matmul_im2col input does not match spec"
        );
        let (k, n) = (spec.patch_rows(), spec.patch_cols());
        assert_eq!(
            self.cols(),
            k,
            "matmul_im2col inner dimension mismatch: packed {}×{} vs {} patch rows",
            self.rows(),
            self.cols(),
            k
        );
        let mut b_panels = exec::take_buf_at("gemm.pack_im2col", n.div_ceil(NR).max(1) * k * NR);
        pack_rhs_im2col_into(&mut b_panels, input.as_slice(), spec, k);
        let out = gemm_packed(self.panels(), &b_panels, self.rows(), k, n);
        exec::recycle_buf(b_panels);
        out
    }
}

impl Tensor {
    /// Implicit-GEMM weight gradient: `self · im2col(input, spec)ᵀ`,
    /// `[m, outH·outW] × [outH·outW, C·k·k] → [m, C·k·k]` — the
    /// `dW = g · colsᵀ` product of the convolution backward pass, computed
    /// without materializing either the patch matrix or its transpose. The
    /// transposed column panels are filled straight from the image by
    /// [`pack_rhs_im2col_t_into`], so the result is bit-identical to
    /// `self.matmul(&im2col(input, spec).transpose())` at any pool width.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2 with `spec.patch_cols()` columns, or
    /// if `input` is not the `[C, H, W]` tensor `spec` describes.
    pub fn matmul_at_im2col(&self, input: &Tensor, spec: &Im2ColSpec) -> Tensor {
        assert_eq!(
            self.shape().ndim(),
            2,
            "matmul_at_im2col lhs must be rank-2"
        );
        assert_eq!(
            input.shape().dims(),
            &[spec.channels, spec.height, spec.width],
            "matmul_at_im2col input does not match spec"
        );
        let (m, l) = (self.shape().dim(0), self.shape().dim(1));
        assert_eq!(
            l,
            spec.patch_cols(),
            "matmul_at_im2col inner dimension mismatch: {} vs {} patch cols",
            self.shape(),
            spec.patch_cols()
        );
        let n = spec.patch_rows();
        let mut b_panels = exec::take_buf_at("gemm.pack_im2col_t", n.div_ceil(NR).max(1) * l * NR);
        pack_rhs_im2col_t_into(&mut b_panels, input.as_slice(), spec);
        let out = gemm_pack_lhs(self.as_slice(), &b_panels, m, l, n);
        exec::recycle_buf(b_panels);
        out
    }
}

// ---------------------------------------------------------------------------
// Int8 inference path: quantization, i8 A panels, kernels and rescale.
// ---------------------------------------------------------------------------
//
// The int8 path runs on the f32 core: the same MR×NR tiles, rhs packers and
// `gemm_sweep`. Three things are its own. The depth pads to `kpad(k)`, as
// the kernels consume depth *pairs* (two multiply-accumulates per `madd`
// lane). A row panels are pair-interleaved: per pair `pp`, the 8 bytes
// `[a[r][2pp], a[r][2pp+1]]` for ascending row `r`, so one 64-bit load and
// a sign-extension yield all four rows' pairs; the SIMD kernels interleave
// the two p-major B depth rows of a pair in-register to match. And the
// write-back rescales the i32 tile to f32 ([`QRescale`]).
//
// Bit-identity is *stronger* than on the f32 path: i8×i8 products and their
// i32 sums are exact, so every kernel tier and pool width agree by
// construction, and padding pairs add nothing. The i32 accumulator cannot
// overflow below k ≈ 1.3·10⁵ (k·127² ≤ i32::MAX); `madd`'s only saturating
// case (both pair operands −32768) is unreachable from i8 inputs.
//
// Scales are symmetric: activations quantize per-tensor on the fly, weights
// per output channel at pack time (the channel axis is never the contracted
// axis, so the scale factors out of the integer sum exactly).

/// The k extent padded to an even number of depths (the pair layout).
#[inline]
fn kpad(k: usize) -> usize {
    k + (k & 1)
}

/// Symmetric per-tensor quantization to i8: `scale = max|x| / 127`
/// (1.0 for an all-zero slice), values rounded to nearest and clamped to
/// `[-127, 127]`.
pub(crate) fn quantize_slice(src: &[f32]) -> (Vec<i8>, f32) {
    let max = src.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max == 0.0 { 1.0 } else { max / 127.0 };
    let inv = 1.0 / scale;
    let q = src.iter().map(|&v| quantize_one(v, inv)).collect();
    (q, scale)
}

/// Rounds `v · inv` to the nearest integer (half away from zero — the
/// same rule as `f32::round`, but via a truncating cast, which
/// vectorizes) and clamps to the symmetric i8 range.
#[inline]
fn quantize_one(v: f32, inv: f32) -> i8 {
    let r = v * inv;
    let rounded = if r >= 0.0 {
        (r + 0.5) as i32
    } else {
        (r - 0.5) as i32
    };
    rounded.clamp(-127, 127) as i8
}

/// Symmetric per-row quantization of a row-major `rows × cols` matrix: one
/// scale per row (the per-output-channel weight scheme).
fn quantize_rows(src: &[f32], rows: usize, cols: usize) -> (Vec<i8>, Vec<f32>) {
    let mut q = vec![0i8; rows * cols];
    let mut scales = vec![1.0f32; rows];
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let max = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max > 0.0 {
            let scale = max / 127.0;
            scales[r] = scale;
            let inv = 1.0 / scale;
            for (o, &v) in q[r * cols..(r + 1) * cols].iter_mut().zip(row) {
                *o = (v * inv).round().clamp(-127.0, 127.0) as i8;
            }
        }
    }
    (q, scales)
}

/// A weight matrix quantized to i8 and repacked into `kpad(k)`-deep panels
/// (pair-interleaved Lhs, p-major Rhs), with one symmetric scale per output
/// channel (per column for Rhs panels, per row for Lhs panels).
///
/// This is the int8 counterpart of [`PackedMatrix`]: `Linear` and `Conv2d`
/// build one per parameter version through [`PackedCache`], so weights are
/// quantized and packed once per update, never per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct QPackedMatrix {
    data: Vec<i8>,
    /// Logical row count of the packed matrix (`m` for Lhs, `k` for Rhs).
    rows: usize,
    /// Logical column count (`k` for Lhs, `n` for Rhs).
    cols: usize,
    kind: PanelKind,
    /// One scale per output channel: `cols` entries for Rhs panels, `rows`
    /// entries for Lhs panels.
    scales: Vec<f32>,
}

impl QPackedMatrix {
    /// Quantizes an `[n, k]` weight per row and packs its *transpose* into
    /// column panels — the `Linear` shape (`x · Wᵀ`), with the row scales
    /// becoming per-column output scales.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_rhs_transposed(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_rhs_transposed requires rank-2");
        let (n, k) = (w.shape().dim(0), w.shape().dim(1));
        let (q, scales) = quantize_rows(w.as_slice(), n, k);
        let mut data = vec![0i8; n.div_ceil(NR).max(1) * kpad(k) * NR];
        pack_rhs_transposed_into(&mut data, &q, n, k, kpad(k));
        Self {
            data,
            rows: k,
            cols: n,
            kind: PanelKind::Rhs,
            scales,
        }
    }

    /// Quantizes an `[m, k]` weight per row and packs it into row panels —
    /// the convolution shape (`W · im2col`), with the row scales staying
    /// per-row output scales.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not rank-2.
    pub fn pack_lhs(w: &Tensor) -> Self {
        assert_eq!(w.shape().ndim(), 2, "pack_lhs requires rank-2");
        let (m, k) = (w.shape().dim(0), w.shape().dim(1));
        let (q, scales) = quantize_rows(w.as_slice(), m, k);
        let mut data = vec![0i8; m.div_ceil(MR).max(1) * kpad(k) * MR];
        pack_lhs_q_into(&mut data, &q, m, k);
        Self {
            data,
            rows: m,
            cols: k,
            kind: PanelKind::Lhs,
            scales,
        }
    }

    /// Logical row count (`m` for Lhs panels, `k` for Rhs panels).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count (`k` for Lhs panels, `n` for Rhs panels).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Which GEMM operand the panels were laid out for.
    pub fn kind(&self) -> PanelKind {
        self.kind
    }

    /// The per-output-channel weight scales packed with the panels.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The packed i8 panel storage (see "Int8 inference path" above).
    pub(crate) fn panels(&self) -> &[i8] {
        &self.data
    }
}

/// Packs row-major i8 `a` (`m × k`) into pair-interleaved row panels.
/// `data` must be zeroed and sized `⌈m/MR⌉·kpad(k)·MR`.
pub(crate) fn pack_lhs_q_into(data: &mut [i8], src: &[i8], m: usize, k: usize) {
    let kp = kpad(k);
    for ip in 0..m.div_ceil(MR) {
        let i0 = ip * MR;
        let height = MR.min(m - i0);
        let panel = &mut data[ip * kp * MR..(ip + 1) * kp * MR];
        for p in 0..k {
            let base = (p / 2) * (2 * MR) + (p & 1);
            for r in 0..height {
                panel[base + 2 * r] = src[(i0 + r) * k + p];
            }
        }
    }
}

/// The scalar i8 reference micro-kernel: accumulates the full-`k` product
/// of one pair-interleaved A panel and one p-major B panel into
/// the `i32` tile. Integer arithmetic is exact, so this kernel defines the
/// bit pattern every other i8 kernel (and every pool width) must reproduce.
#[inline]
fn microkernel_i8(a_panel: &[i8], b_panel: &[i8], acc: &mut [[i32; NR]; MR]) {
    for (ap, bp) in a_panel
        .chunks_exact(2 * MR)
        .zip(b_panel.chunks_exact(2 * NR))
    {
        // The two p-major depth rows of this pair.
        let (b0, b1) = bp.split_at(NR);
        for (r, accr) in acc.iter_mut().enumerate() {
            let a0 = ap[2 * r] as i32;
            let a1 = ap[2 * r + 1] as i32;
            // Skipping an all-zero pair is a pure speed heuristic: unlike
            // the f32 kernel's zero-skip, it cannot change the (exact)
            // integer result.
            if a0 == 0 && a1 == 0 {
                continue;
            }
            for (j, o) in accr.iter_mut().enumerate() {
                *o += a0 * b0[j] as i32 + a1 * b1[j] as i32;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd_i8;

/// Computes one MR×NR i32 tile from the packed panels, dispatching to
/// the best i8 kernel tier the caller witnessed (`simd_i8::level()`):
/// 2 = VNNI, 1 = AVX2, else the scalar reference. Every tier computes
/// the same exact integers, so dispatch can never change an output.
#[inline]
fn qgemm_tile(a_panel: &[i8], b_panel: &[i8], simd_level: u8) -> [[i32; NR]; MR] {
    let mut acc = [[0i32; NR]; MR];
    #[cfg(target_arch = "x86_64")]
    {
        if simd_level >= 2 {
            // SAFETY: level ≥ 2 witnessed avx512vnni+avx512vl (and avx2)
            // via `simd_i8::level`; the panel slices carry exactly kp·MR /
            // kp·NR elements by construction and the kernel only uses
            // unaligned loads/stores.
            #[allow(unsafe_code)]
            unsafe {
                simd_i8::microkernel_i8_vnni(a_panel, b_panel, &mut acc)
            };
            return acc;
        } else if simd_level == 1 {
            // SAFETY: level 1 witnessed AVX2 via `simd_i8::level`; the
            // panel slices carry exactly kp·MR / kp·NR elements by
            // construction and the kernel only uses unaligned
            // loads/stores.
            #[allow(unsafe_code)]
            unsafe {
                simd_i8::microkernel_i8(a_panel, b_panel, &mut acc)
            };
            return acc;
        }
    }
    let _ = simd_level;
    microkernel_i8(a_panel, b_panel, &mut acc);
    acc
}

/// How the quantized GEMM rescales its i32 accumulators to f32 at
/// write-back: `acc · act_scale · w_scale[channel]`, with the weight's
/// channel axis being either the output columns (Rhs-packed weights) or
/// the output rows (Lhs-packed weights).
enum QRescale<'a> {
    /// Weight scales indexed by output column (`Linear`: `x · Wᵀ`).
    Col { act: f32, w: &'a [f32] },
    /// Weight scales indexed by output row (`Conv2d`: `W · im2col`).
    Row { act: f32, w: &'a [f32] },
    /// Weight scales indexed by output column, activation scale indexed by
    /// output *row* — the cross-session batched `Linear` shape, where each
    /// session's activations were quantized with their own per-tensor
    /// scale. Write-back evaluates `acc · (acts[row] · w[col])`, the exact
    /// float expression [`QRescale::Col`] uses, so a batched row is
    /// bit-identical to the same row rescaled solo.
    ColRowAct { acts: &'a [f32], w: &'a [f32] },
}

impl QRescale<'_> {
    /// Rescales the accumulators of output row `row`, columns
    /// `j0..j0 + orow.len()`, into `orow`.
    #[inline]
    fn write(&self, orow: &mut [f32], acc: &[i32], row: usize, j0: usize) {
        match *self {
            QRescale::Col { act, w } => {
                for (s, o) in orow.iter_mut().enumerate() {
                    *o = acc[s] as f32 * (act * w[j0 + s]);
                }
            }
            QRescale::Row { act, w } => {
                let factor = act * w[row];
                for (s, o) in orow.iter_mut().enumerate() {
                    *o = acc[s] as f32 * factor;
                }
            }
            QRescale::ColRowAct { acts, w } => {
                let act = acts[row];
                for (s, o) in orow.iter_mut().enumerate() {
                    *o = acc[s] as f32 * (act * w[j0 + s]);
                }
            }
        }
    }
}

/// The i8 kernel tier this host supports (see `simd_i8::level`; always
/// the scalar reference off x86-64).
fn i8_level() -> u8 {
    #[cfg(target_arch = "x86_64")]
    return simd_i8::level();
    #[cfg(not(target_arch = "x86_64"))]
    0
}

/// Quantized blocked GEMM into a fresh f32 tensor: the shared
/// [`gemm_sweep`] over `kpad(k)`-deep i8 panels, rescaling each i32
/// accumulator at write-back.
fn qgemm_packed(
    a_panels: &[i8],
    b_panels: &[i8],
    m: usize,
    k: usize,
    n: usize,
    rescale: QRescale<'_>,
) -> Tensor {
    let level = i8_level();
    let mut out = exec::take_buf_at("qgemm.out", m * n);
    gemm_sweep(
        &mut out,
        a_panels,
        b_panels,
        (kpad(k), n),
        k * n,
        |a, b| qgemm_tile(a, b, level),
        |orow, acc, row, j0| rescale.write(orow, acc, row, j0),
    );
    Tensor::from_vec(out, &[m, n])
}

/// Blocked i8×i8→i32 GEMM over row-major operands, returning the raw
/// integer accumulators: `a (m×k) · b (k×n) → [m·n]` in row-major order.
///
/// This is the exact integer product the modeled systolic array executes
/// (`solo-hw` delegates its functional model here) and the backend behind
/// `solo-nn`'s `qmatmul`; the f32 entry points rescale the same
/// accumulators at write-back instead of materializing them.
///
/// # Panics
///
/// Panics if the operand lengths do not match `m·k` / `k·n`.
pub fn qgemm_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "qgemm_i8 lhs length mismatch");
    assert_eq!(b.len(), k * n, "qgemm_i8 rhs length mismatch");
    let kp = kpad(k);
    let mut a_panels = vec![0i8; m.div_ceil(MR).max(1) * kp * MR];
    pack_lhs_q_into(&mut a_panels, a, m, k);
    let mut b_panels = vec![0i8; n.div_ceil(NR).max(1) * kp * NR];
    pack_rhs_into(&mut b_panels, b, k, n, kp);
    let level = i8_level();
    let mut out = vec![0i32; m * n];
    gemm_sweep(
        &mut out,
        &a_panels,
        &b_panels,
        (kp, n),
        k * n,
        |a, b| qgemm_tile(a, b, level),
        |orow, acc, _, _| orow.copy_from_slice(acc),
    );
    out
}

impl Tensor {
    /// Quantized matrix product against pre-quantized, pre-packed weight
    /// panels: `[m,k] × qpacked([k,n]) → [m,n]` in f32.
    ///
    /// `self` is quantized symmetrically per-tensor on the fly; the weight
    /// was quantized per output column at pack time. The i32 accumulators
    /// rescale to f32 at write-back, so the result approximates
    /// `self.matmul_packed(..)` to quantization accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank-2, `rhs` was not packed with
    /// [`QPackedMatrix::pack_rhs_transposed`], or the inner dimensions
    /// differ.
    pub fn qmatmul_packed(&self, rhs: &QPackedMatrix) -> Tensor {
        assert_eq!(self.shape().ndim(), 2, "qmatmul_packed lhs must be rank-2");
        assert_eq!(
            rhs.kind(),
            PanelKind::Rhs,
            "qmatmul_packed needs Rhs panels (got {:?})",
            rhs.kind()
        );
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        assert_eq!(
            k,
            rhs.rows(),
            "qmatmul_packed inner dimension mismatch: {} vs packed {}×{}",
            self.shape(),
            rhs.rows(),
            rhs.cols()
        );
        let (qa, act) = quantize_slice(self.as_slice());
        let mut a_panels = vec![0i8; m.div_ceil(MR).max(1) * kpad(k) * MR];
        pack_lhs_q_into(&mut a_panels, &qa, m, k);
        qgemm_packed(
            &a_panels,
            rhs.panels(),
            m,
            k,
            rhs.cols(),
            QRescale::Col {
                act,
                w: rhs.scales(),
            },
        )
    }
}

/// Cross-session batched quantized matrix product: the i8 counterpart of
/// [`matmul_packed_batched`]. Every member's activations quantize with
/// their **own** per-tensor scale — exactly the scale the sequential
/// [`Tensor::qmatmul_packed`] call computes — and the fused write-back
/// rescales each output row by its member's activation scale
/// ([`QRescale::ColRowAct`]). Integer accumulation is exact and the
/// rescale expression matches the solo path term-for-term, so every
/// returned tensor is bit-identical to the corresponding sequential call,
/// at any pool width and kernel tier.
///
/// # Panics
///
/// Panics if `rhs` was not packed with
/// [`QPackedMatrix::pack_rhs_transposed`], or any member is not rank-2
/// with inner dimension `rhs.rows()`.
pub fn qmatmul_packed_batched(lhs: &[&Tensor], rhs: &QPackedMatrix) -> Vec<Tensor> {
    assert_eq!(
        rhs.kind(),
        PanelKind::Rhs,
        "qmatmul_packed_batched needs Rhs panels (got {:?})",
        rhs.kind()
    );
    let (k, n) = (rhs.rows(), rhs.cols());
    let (offsets, total_panels) = batch_panel_offsets(lhs, k);
    if total_panels == 0 {
        return lhs
            .iter()
            .map(|a| Tensor::zeros(&[a.shape().dim(0), n]))
            .collect();
    }
    let m_pad = total_panels * MR;
    let kp = kpad(k);
    let mut a_panels = vec![0i8; total_panels * kp * MR];
    // Padding rows rescale by 1.0 · w, but their exact-zero accumulators
    // make the product 0.0 regardless; the rows are dropped at the split.
    let mut row_acts = vec![1.0f32; m_pad];
    pack_batch(&mut a_panels, lhs, &offsets, kp, |slot, a, row0| {
        let m = a.shape().dim(0);
        let (qa, act) = quantize_slice(a.as_slice());
        pack_lhs_q_into(slot, &qa, m, k);
        row_acts[row0..row0 + m].fill(act);
    });
    let out = qgemm_packed(
        &a_panels,
        rhs.panels(),
        m_pad,
        k,
        n,
        QRescale::ColRowAct {
            acts: &row_acts,
            w: rhs.scales(),
        },
    );
    split_batch_out(out, lhs, &offsets, n)
}

impl QPackedMatrix {
    /// Quantized matrix product with `self` as a pre-packed *left*
    /// operand: `qpacked([m,k]) × [k,n] → [m,n]` in f32. The convolution
    /// shape; `rhs` quantizes per-tensor on the fly.
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with [`QPackedMatrix::pack_lhs`],
    /// `rhs` is not rank-2, or the inner dimensions differ.
    pub fn qmatmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.kind(),
            PanelKind::Lhs,
            "QPackedMatrix::qmatmul needs Lhs panels (got {:?})",
            self.kind()
        );
        assert_eq!(rhs.shape().ndim(), 2, "qmatmul rhs must be rank-2");
        let (k, n) = (rhs.shape().dim(0), rhs.shape().dim(1));
        assert_eq!(
            self.cols(),
            k,
            "qmatmul inner dimension mismatch: packed {}×{} vs {}",
            self.rows(),
            self.cols(),
            rhs.shape()
        );
        let (qb, act) = quantize_slice(rhs.as_slice());
        let mut b_panels = vec![0i8; n.div_ceil(NR).max(1) * kpad(k) * NR];
        pack_rhs_into(&mut b_panels, &qb, k, n, kpad(k));
        qgemm_packed(
            self.panels(),
            &b_panels,
            self.rows(),
            k,
            n,
            QRescale::Row {
                act,
                w: self.scales(),
            },
        )
    }

    /// Quantized implicit-GEMM convolution forward:
    /// `self · im2col(input, spec)` with the patch matrix packed straight
    /// from the quantized image by [`pack_rhs_im2col_into`] — the
    /// quantized counterpart of [`PackedMatrix::matmul_im2col`].
    ///
    /// # Panics
    ///
    /// Panics if `self` was not packed with [`QPackedMatrix::pack_lhs`],
    /// if `input` is not the `[C, H, W]` tensor `spec` describes, or if
    /// the packed `k` extent differs from `spec.patch_rows()`.
    pub fn qmatmul_im2col(&self, input: &Tensor, spec: &Im2ColSpec) -> Tensor {
        assert_eq!(
            self.kind(),
            PanelKind::Lhs,
            "qmatmul_im2col needs Lhs panels (got {:?})",
            self.kind()
        );
        assert_eq!(
            input.shape().dims(),
            &[spec.channels, spec.height, spec.width],
            "qmatmul_im2col input does not match spec"
        );
        let (k, n) = (spec.patch_rows(), spec.patch_cols());
        assert_eq!(
            self.cols(),
            k,
            "qmatmul_im2col inner dimension mismatch: packed {}×{} vs {} patch rows",
            self.rows(),
            self.cols(),
            k
        );
        let (qimg, act) = quantize_slice(input.as_slice());
        let mut b_panels = vec![0i8; n.div_ceil(NR).max(1) * kpad(k) * NR];
        pack_rhs_im2col_into(&mut b_panels, &qimg, spec, kpad(k));
        qgemm_packed(
            self.panels(),
            &b_panels,
            self.rows(),
            k,
            n,
            QRescale::Row {
                act,
                w: self.scales(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_rhs_round_trips_values() {
        let b = Tensor::arange(6).reshape(&[2, 3]); // k=2, n=3 (< NR: one padded panel)
        let p = PackedMatrix::pack_rhs(&b);
        assert_eq!(p.rows(), 2);
        assert_eq!(p.cols(), 3);
        // Panel is p-major: row 0 then row 1, each padded to NR.
        assert_eq!(&p.panels()[..3], &[0.0, 1.0, 2.0]);
        assert_eq!(&p.panels()[NR..NR + 3], &[3.0, 4.0, 5.0]);
        assert!(p.panels()[3..NR].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_rhs_transposed_matches_pack_of_transpose() {
        let w = Tensor::arange(12).reshape(&[4, 3]);
        let direct = PackedMatrix::pack_rhs_transposed(&w);
        let via_transpose = PackedMatrix::pack_rhs(&w.transpose());
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn pack_lhs_transposed_matches_pack_of_transpose() {
        let w = Tensor::arange(12).reshape(&[3, 4]);
        let direct = PackedMatrix::pack_lhs_transposed(&w);
        let via_transpose = PackedMatrix::pack_lhs(&w.transpose());
        assert_eq!(direct, via_transpose);
    }

    fn test_spec() -> Im2ColSpec {
        Im2ColSpec {
            channels: 2,
            height: 6,
            width: 5,
            kernel: 3,
            stride: 2,
            padding: 1,
            dilation: 1,
        }
    }

    #[test]
    fn pack_rhs_im2col_matches_pack_of_materialized_matrix() {
        let spec = test_spec();
        let img = Tensor::arange(2 * 6 * 5).reshape(&[2, 6, 5]);
        let cols = crate::im2col(&img, &spec);
        let (k, n) = (spec.patch_rows(), spec.patch_cols());
        let mut want = vec![0.0f32; n.div_ceil(NR).max(1) * k * NR];
        pack_rhs_into(&mut want, cols.as_slice(), k, n, k);
        let mut got = vec![0.0f32; want.len()];
        pack_rhs_im2col_into(&mut got, img.as_slice(), &spec, k);
        assert_eq!(got, want);
        // And the transposed packing against the materialized transpose.
        let cols_t = cols.transpose();
        let mut want_t = vec![0.0f32; k.div_ceil(NR).max(1) * n * NR];
        pack_rhs_into(&mut want_t, cols_t.as_slice(), n, k, n);
        let mut got_t = vec![0.0f32; want_t.len()];
        pack_rhs_im2col_t_into(&mut got_t, img.as_slice(), &spec);
        assert_eq!(got_t, want_t);
    }

    #[test]
    fn strided_gather_fast_path_matches_materialized_pack() {
        // Sweep stride/dilation/padding combinations so the precomputed
        // in-bounds lane range is exercised at both edges of every run.
        for (stride, dilation, padding) in [
            (2, 1, 0),
            (2, 2, 1),
            (3, 1, 2),
            (3, 2, 3),
            (2, 3, 2),
            (4, 1, 1),
        ] {
            let spec = Im2ColSpec {
                channels: 2,
                height: 9,
                width: 7,
                kernel: 3,
                stride,
                padding,
                dilation,
            };
            let img = Tensor::arange(2 * 9 * 7).reshape(&[2, 9, 7]);
            let cols = crate::im2col(&img, &spec);
            let (k, n) = (spec.patch_rows(), spec.patch_cols());
            let mut want = vec![0.0f32; n.div_ceil(NR).max(1) * k * NR];
            pack_rhs_into(&mut want, cols.as_slice(), k, n, k);
            let mut got = vec![0.0f32; want.len()];
            pack_rhs_im2col_into(&mut got, img.as_slice(), &spec, k);
            assert_eq!(
                got, want,
                "stride {stride} dilation {dilation} padding {padding}"
            );
        }
    }

    #[test]
    fn implicit_gemm_bit_identical_to_materialized_path() {
        use crate::{normal, seeded_rng};
        let spec = test_spec();
        let mut rng = seeded_rng(77);
        let img = normal(&mut rng, &[2, 6, 5], 0.0, 1.0);
        let w = normal(&mut rng, &[4, spec.patch_rows()], 0.0, 1.0);
        let cols = crate::im2col(&img, &spec);
        let packed = PackedMatrix::pack_lhs(&w);
        let want_fwd = packed.matmul(&cols);
        let got_fwd = packed.matmul_im2col(&img, &spec);
        assert_eq!(got_fwd.as_slice(), want_fwd.as_slice());
        let g = normal(&mut rng, &[4, spec.patch_cols()], 0.0, 1.0);
        let want_dw = g.matmul(&cols.transpose());
        let got_dw = g.matmul_at_im2col(&img, &spec);
        assert_eq!(got_dw.as_slice(), want_dw.as_slice());
    }

    #[test]
    fn pack_lhs_is_p_major() {
        let a = Tensor::arange(8).reshape(&[2, 4]); // m=2 (< MR: padded), k=4
        let p = PackedMatrix::pack_lhs(&a);
        // For each p: a[0][p], a[1][p], pad, pad.
        assert_eq!(&p.panels()[..MR], &[0.0, 4.0, 0.0, 0.0]);
        assert_eq!(&p.panels()[MR..2 * MR], &[1.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn blocked_gemm_bit_identical_to_reference_on_ragged_shapes() {
        use crate::{normal, seeded_rng};
        // Shapes straddle every tile boundary: exact multiples of MR/NR,
        // off-by-one raggedness in each dimension, degenerate 1×1, and k=0.
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 8),
            (5, 7, 9),
            (7, 3, 17),
            (13, 29, 31),
            (64, 1, 1),
            (1, 64, 1),
            (5, 0, 7),
            (33, 17, 40),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let mut rng = seeded_rng(100 + i as u64);
            // Exact zeros in A exercise the sparsity skip, whose per-element
            // ordering the bit-identity contract depends on.
            let a =
                normal(&mut rng, &[m, k], 0.0, 1.0).map(|v| if v.abs() < 0.3 { 0.0 } else { v });
            let b = normal(&mut rng, &[k, n], 0.0, 1.0);
            let want = a.matmul_reference(&b);
            let rhs_packed = a.matmul_packed(&PackedMatrix::pack_rhs(&b));
            assert_eq!(rhs_packed.shape().dims(), &[m, n]);
            assert_eq!(
                rhs_packed.as_slice(),
                want.as_slice(),
                "rhs-packed {m}x{k}x{n} diverged from reference"
            );
            let lhs_packed = PackedMatrix::pack_lhs(&a).matmul(&b);
            assert_eq!(
                lhs_packed.as_slice(),
                want.as_slice(),
                "lhs-packed {m}x{k}x{n} diverged from reference"
            );
        }
    }

    #[test]
    fn matmul_auto_path_matches_reference_above_threshold() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(7);
        let a = normal(&mut rng, &[24, 40], 0.0, 1.0);
        let b = normal(&mut rng, &[40, 32], 0.0, 1.0);
        assert_eq!(a.matmul(&b).as_slice(), a.matmul_reference(&b).as_slice());
    }

    #[test]
    fn cache_repacks_only_on_version_change() {
        let w = Tensor::arange(6).reshape(&[2, 3]);
        let mut cache = PackedCache::new();
        let mut packs = 0;
        for version in [0u64, 0, 0, 1, 1, 2] {
            cache.get_or_pack(version, || {
                packs += 1;
                PackedMatrix::pack_rhs(&w)
            });
        }
        assert_eq!(packs, 3, "one pack per distinct version");
        assert_eq!(cache.cached_version(), Some(2));
        cache.invalidate();
        assert_eq!(cache.cached_version(), None);
    }

    // --- int8 path ---

    use proptest::prelude::*;

    /// The naive i-p-j integer GEMM every i8 kernel must reproduce exactly.
    fn qgemm_reference(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p] as i32;
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j] as i32;
                }
            }
        }
        out
    }

    fn random_i8(rng: &mut impl rand::Rng, len: usize) -> Vec<i8> {
        (0..len)
            .map(|_| (rng.gen_range(-127i32..=127)) as i8)
            .collect()
    }

    /// Dispatch always picks the best tier the host has, so the slower
    /// tiers would go untested on a SIMD host: this calls each tier the
    /// host supports directly on the same panels and pins it to the scalar
    /// kernel — bit-identical for f32, equal integers for i8.
    #[test]
    fn every_kernel_tier_matches_the_scalar_kernel() {
        use crate::{normal, seeded_rng};
        for (i, k) in [1usize, 2, 7, 8, 33, 64].into_iter().enumerate() {
            let mut rng = seeded_rng(700 + i as u64);
            // f32: exact zeros in A exercise the zero-skip in every tier.
            let a =
                normal(&mut rng, &[MR, k], 0.0, 1.0).map(|v| if v.abs() < 0.3 { 0.0 } else { v });
            let b = normal(&mut rng, &[k, NR], 0.0, 1.0);
            let (mut ap, mut bp) = (vec![0.0f32; k * MR], vec![0.0f32; k * NR]);
            pack_lhs_into(&mut ap, a.as_slice(), MR, k);
            pack_rhs_into(&mut bp, b.as_slice(), k, NR, k);
            let bits = |t: [[f32; NR]; MR]| t.map(|row| row.map(f32::to_bits));
            let scalar = bits(gemm_tile(&ap, &bp, false));
            #[cfg(target_arch = "x86_64")]
            if simd::available() {
                assert_eq!(
                    bits(gemm_tile(&ap, &bp, true)),
                    scalar,
                    "f32 AVX2 tier, k={k}"
                );
            }
            // i8: every third value pinned to ±127, the extremes of the
            // symmetric range (the largest pair sums the kernels see).
            let extreme = |v: Vec<i8>| -> Vec<i8> {
                v.into_iter()
                    .enumerate()
                    .map(|(j, x)| {
                        if j % 3 == 0 {
                            if x < 0 {
                                -127
                            } else {
                                127
                            }
                        } else {
                            x
                        }
                    })
                    .collect()
            };
            let qa = extreme(random_i8(&mut rng, MR * k));
            let qb = extreme(random_i8(&mut rng, k * NR));
            let kp = kpad(k);
            let (mut qap, mut qbp) = (vec![0i8; kp * MR], vec![0i8; kp * NR]);
            pack_lhs_q_into(&mut qap, &qa, MR, k);
            pack_rhs_into(&mut qbp, &qb, k, NR, kp);
            let scalar = qgemm_tile(&qap, &qbp, 0);
            let want = qgemm_reference(&qa, &qb, MR, k, NR);
            assert_eq!(scalar.concat(), want, "scalar i8 kernel, k={k}");
            for level in 1..=i8_level() {
                assert_eq!(
                    qgemm_tile(&qap, &qbp, level),
                    scalar,
                    "i8 tier {level}, k={k}"
                );
            }
        }
    }

    #[test]
    fn quantized_gemm_bit_identical_to_integer_reference_on_ragged_shapes() {
        use crate::seeded_rng;
        let shapes = [
            (1, 1, 1),
            (3, 5, 2),
            (4, 8, 8),
            (5, 7, 9),
            (7, 3, 17),
            (13, 29, 31),
            (64, 1, 1),
            (1, 64, 1),
            (5, 0, 7),
            (33, 17, 40),
        ];
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let mut rng = seeded_rng(300 + i as u64);
            let a = random_i8(&mut rng, m * k);
            let b = random_i8(&mut rng, k * n);
            let want = qgemm_reference(&a, &b, m, k, n);
            for width in [1usize, 8] {
                let got = exec::with_threads(width, || qgemm_i8(&a, &b, m, k, n));
                assert_eq!(got, want, "{m}x{k}x{n} diverged at pool width {width}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The blocked/SIMD i8 GEMM is pinned bit-identical to the scalar
        /// integer reference at pool widths 1 and 8 on arbitrary ragged
        /// shapes (integer arithmetic is exact, so equality is bitwise).
        #[test]
        fn prop_quantized_gemm_matches_reference_at_widths_1_and_8(
            (m, k, n, seed) in (1usize..24, 0usize..40, 1usize..40, 0u64..1000)
        ) {
            use crate::seeded_rng;
            let mut rng = seeded_rng(seed);
            let a = random_i8(&mut rng, m * k);
            let b = random_i8(&mut rng, k * n);
            let want = qgemm_reference(&a, &b, m, k, n);
            for width in [1usize, 8] {
                let got = exec::with_threads(width, || qgemm_i8(&a, &b, m, k, n));
                prop_assert_eq!(&got, &want, "{}x{}x{} width {}", m, k, n, width);
            }
        }

        /// The quantized implicit-conv path is pinned bit-identical across
        /// pool widths, and — for specs where every pixel reaches a patch —
        /// to the plain quantized GEMM over the materialized patch matrix.
        #[test]
        fn prop_quantized_im2col_matches_materialized_at_widths_1_and_8(
            (oc, stride, padding, seed) in (1usize..7, 1usize..3, 0usize..2, 0u64..1000)
        ) {
            use crate::{normal, seeded_rng};
            let spec = Im2ColSpec {
                channels: 2,
                height: 7,
                width: 6,
                kernel: 3,
                stride,
                padding,
                dilation: 1,
            };
            let mut rng = seeded_rng(seed);
            let img = normal(&mut rng, &[2, 7, 6], 0.0, 1.0);
            let w = normal(&mut rng, &[oc, spec.patch_rows()], 0.0, 1.0);
            let packed = QPackedMatrix::pack_lhs(&w);
            let serial = exec::with_threads(1, || packed.qmatmul_im2col(&img, &spec));
            let wide = exec::with_threads(8, || packed.qmatmul_im2col(&img, &spec));
            prop_assert_eq!(serial.as_slice(), wide.as_slice());
            if stride == 1 && padding == 1 {
                // Every pixel appears in some patch, so quantizing the
                // image commutes with materializing im2col and the two
                // paths agree bitwise.
                let cols = crate::im2col(&img, &spec);
                let via_cols = packed.qmatmul(&cols);
                prop_assert_eq!(serial.as_slice(), via_cols.as_slice());
            }
        }
    }

    #[test]
    fn quantized_im2col_pack_matches_materialized_q_pack() {
        use crate::{normal, seeded_rng};
        // Sweep the same stride/dilation/padding grid as the f32 gather
        // test so the run-bounds reuse is exercised at every edge.
        for (i, &(stride, dilation, padding)) in [
            (1, 1, 1),
            (2, 1, 0),
            (2, 2, 1),
            (3, 1, 2),
            (3, 2, 3),
            (2, 3, 2),
            (4, 1, 1),
        ]
        .iter()
        .enumerate()
        {
            let spec = Im2ColSpec {
                channels: 2,
                height: 9,
                width: 7,
                kernel: 3,
                stride,
                padding,
                dilation,
            };
            let mut rng = seeded_rng(500 + i as u64);
            let img = normal(&mut rng, &[2, 9, 7], 0.0, 1.0);
            let (qimg, _) = quantize_slice(img.as_slice());
            // Materialize im2col over the quantized values (exact small
            // integers survive the f32 round trip) and pack that.
            let qimg_f: Vec<f32> = qimg.iter().map(|&v| v as f32).collect();
            let cols = crate::im2col(&Tensor::from_vec(qimg_f, &[2, 9, 7]), &spec);
            let qcols: Vec<i8> = cols.as_slice().iter().map(|&v| v as i8).collect();
            let (k, n) = (spec.patch_rows(), spec.patch_cols());
            let mut want = vec![0i8; n.div_ceil(NR).max(1) * kpad(k) * NR];
            pack_rhs_into(&mut want, &qcols, k, n, kpad(k));
            let mut got = vec![0i8; want.len()];
            pack_rhs_im2col_into(&mut got, &qimg, &spec, kpad(k));
            assert_eq!(
                got, want,
                "stride {stride} dilation {dilation} padding {padding}"
            );
        }
    }

    #[test]
    fn qmatmul_packed_tracks_f32_within_the_analytic_quant_bound() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(42);
        let (m, k, n) = (9, 23, 18);
        let x = normal(&mut rng, &[m, k], 0.0, 1.0);
        let w = normal(&mut rng, &[n, k], 0.0, 1.0);
        let packed = QPackedMatrix::pack_rhs_transposed(&w);
        let got = x.qmatmul_packed(&packed);
        let want = x.matmul(&w.transpose());
        // out_ij = Σ_p x_ip·w_jp with x = sa·qx + ex (|ex| ≤ sa/2) and
        // w = sw_j·qw + ew (|ew| ≤ sw_j/2), so the per-element error is
        // bounded by Σ_p (sa/2·|w_jp| + sw_j/2·|x_ip| + sa·sw_j/4).
        let (_, sa) = quantize_slice(x.as_slice());
        for i in 0..m {
            for j in 0..n {
                let swj = packed.scales()[j];
                let mut bound = 0.0f32;
                for p in 0..k {
                    bound += 0.5 * sa * w.as_slice()[j * k + p].abs()
                        + 0.5 * swj * x.as_slice()[i * k + p].abs()
                        + 0.25 * sa * swj;
                }
                let err = (got.as_slice()[i * n + j] - want.as_slice()[i * n + j]).abs();
                assert!(
                    err <= bound,
                    "({i},{j}): err {err} exceeds analytic bound {bound}"
                );
            }
        }
    }

    #[test]
    fn quantized_cache_requantizes_on_version_bump() {
        let w = Tensor::arange(8).reshape(&[2, 4]);
        let mut cache: PackedCache<QPackedMatrix> = PackedCache::new();
        let mut packs = 0;
        for version in [3u64, 3, 4, 4, 5] {
            cache.get_or_pack(version, || {
                packs += 1;
                QPackedMatrix::pack_rhs_transposed(&w)
            });
        }
        assert_eq!(packs, 3, "one quantize+pack per distinct version");
        assert_eq!(cache.cached_version(), Some(5));
    }

    #[test]
    fn batched_matmul_is_bit_identical_to_sequential_calls() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(77);
        let (k, n) = (21, 19);
        let w = normal(&mut rng, &[n, k], 0.0, 1.0);
        let packed = PackedMatrix::pack_rhs_transposed(&w);
        // Ragged session shapes around the MR boundary, including m = 0.
        let sessions: Vec<Tensor> = [1usize, 4, 7, 0, 3, 12]
            .iter()
            .map(|&m| normal(&mut rng, &[m, k], 0.0, 1.0))
            .collect();
        let refs: Vec<&Tensor> = sessions.iter().collect();
        for width in [1usize, 8] {
            exec::with_threads(width, || {
                let batched = matmul_packed_batched(&refs, &packed);
                for (a, got) in sessions.iter().zip(&batched) {
                    let want = a.matmul_packed(&packed);
                    assert_eq!(got.shape(), want.shape());
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "width {width}, m={}",
                        a.shape().dim(0)
                    );
                }
            });
        }
    }

    #[test]
    fn batched_qmatmul_is_bit_identical_to_sequential_calls() {
        use crate::{normal, seeded_rng};
        let mut rng = seeded_rng(78);
        let (k, n) = (23, 18);
        let w = normal(&mut rng, &[n, k], 0.0, 1.0);
        let packed = QPackedMatrix::pack_rhs_transposed(&w);
        // Different value ranges per session force *different* per-tensor
        // activation scales, so the per-row rescale is genuinely exercised.
        let sessions: Vec<Tensor> = [(1usize, 0.5f32), (5, 2.0), (8, 0.1), (3, 7.0)]
            .iter()
            .map(|&(m, sd)| normal(&mut rng, &[m, k], 0.0, sd))
            .collect();
        let refs: Vec<&Tensor> = sessions.iter().collect();
        for width in [1usize, 8] {
            exec::with_threads(width, || {
                let batched = qmatmul_packed_batched(&refs, &packed);
                for (a, got) in sessions.iter().zip(&batched) {
                    let want = a.qmatmul_packed(&packed);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "width {width}, m={}",
                        a.shape().dim(0)
                    );
                }
            });
        }
    }

    #[test]
    fn batched_matmul_handles_empty_batches() {
        let w = Tensor::arange(8).reshape(&[2, 4]);
        let f = PackedMatrix::pack_rhs_transposed(&w);
        let q = QPackedMatrix::pack_rhs_transposed(&w);
        assert!(matmul_packed_batched(&[], &f).is_empty());
        assert!(qmatmul_packed_batched(&[], &q).is_empty());
        let empty = Tensor::zeros(&[0, 4]);
        let out = matmul_packed_batched(&[&empty], &f);
        assert_eq!(out[0].shape().dims(), &[0, 2]);
        let qout = qmatmul_packed_batched(&[&empty], &q);
        assert_eq!(qout[0].shape().dims(), &[0, 2]);
    }

    #[test]
    fn shared_cache_version_bump_repacks_once_not_once_per_session() {
        let w = Tensor::arange(8).reshape(&[2, 4]);
        let shared: SharedPackedCache = SharedPackedCache::new();
        // Every session holds a clone of the same process-wide cache.
        let sessions: Vec<SharedPackedCache> = (0..6).map(|_| shared.clone()).collect();
        for s in &sessions {
            s.get_or_pack(1, || PackedMatrix::pack_rhs_transposed(&w));
        }
        assert_eq!(shared.pack_count(), 1, "first version packs once");
        // A weight push bumps the version: the first session to notice
        // repacks; the other five reuse the new panels.
        for s in &sessions {
            s.get_or_pack(2, || PackedMatrix::pack_rhs_transposed(&w));
        }
        assert_eq!(shared.pack_count(), 2, "version bump repacks exactly once");
        assert_eq!(shared.cached_version(), Some(2));
        shared.invalidate();
        assert_eq!(shared.cached_version(), None);
        sessions[0].get_or_pack(2, || PackedMatrix::pack_rhs_transposed(&w));
        assert_eq!(shared.pack_count(), 3, "invalidation forces one repack");
    }

    #[test]
    fn shared_cache_handout_survives_a_concurrent_repack() {
        let w1 = Tensor::arange(8).reshape(&[2, 4]);
        let w2 = w1.map(|v| v + 1.0);
        let shared: SharedPackedCache = SharedPackedCache::new();
        let old = shared.get_or_pack(1, || PackedMatrix::pack_rhs_transposed(&w1));
        // Another session races ahead to version 2; the old handout's
        // panels must stay valid (Arc keeps them alive).
        let new = shared.get_or_pack(2, || PackedMatrix::pack_rhs_transposed(&w2));
        assert_ne!(old.panels(), new.panels());
        let x = Tensor::arange(4).reshape(&[1, 4]);
        assert_eq!(
            x.matmul_packed(&old).as_slice(),
            x.matmul(&w1.transpose()).as_slice()
        );
    }
}
