// Runtime-dispatched SIMD kernels for the Stage-1/Stage-2 hot loops.
//
// One dispatch table (KernelTable) holds every vectorizable primitive the
// pipeline needs: dot-product reductions for covariance/Householder work,
// the register-tiled panel product behind PCA projection and
// back-projection, elementwise axpy/scale families, Givens-pair rotations
// for the QL sweep, radix-2/3/5 butterfly stages for the FFT behind the
// DCT, and the 64Ki-value quantize/dequantize strip codecs.
// The active implementation is chosen once at runtime from CPUID (x86) or
// AT_HWCAP (aarch64): AVX2, NEON, or the portable scalar reference.
//
// Bit-exactness contract (docs/SIMD.md): every implementation of a kernel
// produces bit-identical output to the scalar reference in this table for
// the same inputs.
//  * Elementwise kernels perform the documented operation order per
//    element (multiply then add, never fused) so lanes round exactly like
//    the scalar loop; kernel TUs build with -ffp-contract=off.
//  * Reduction kernels (dot, dot_centered) use a fixed sixteen-lane
//    decomposition regardless of ISA (wide enough to hide the add
//    latency of four AVX2 accumulators): lane l in [0, 16) accumulates
//    terms l, l+16, l+32, ... serially; the lanes fold to four partials
//    a_l = (s_l + s_{l+8}) + (s_{l+4} + s_{l+12}) for l in [0, 4), those
//    combine as (a0 + a2) + (a1 + a3), and the remaining tail terms are
//    folded in serially afterwards. The scalar reference implements this
//    same tree, so the reduction order is a property of the kernel
//    contract, not of the CPU the archive was written on.
//  * The ordered accumulation (dot_ordered_rows) is the exception to
//    the tree: each row is one serial left-to-right chain, because its
//    caller must reproduce a sequence of axpy scatters bit for bit.
//    Interleaving four rows hides the add latency instead.
//  * The panel product (panel_accumulate) is ordered too: each output
//    element is one serial chain over the depth, so a 4 x 8 register
//    tile carries 32 independent chains and needs no tree.
//  * Complex kernels use the finite-operand product
//    (ar*br - ai*bi, ar*bi + ai*br) with one rounding per part; callers
//    only pass finite data (DCT/FFT intermediates).
// The kernel-equivalence harness (tests/test_simd_kernels.cpp) enforces
// the contract for every ISA reachable on the build machine, including
// unaligned pointers and non-multiple-of-width tails.
//
// Forcing a path: the DPZ_FORCE_ISA environment variable (or the CLI's
// --isa flag, which routes here through set_force_isa) pins dispatch to
// "scalar", "avx2", or "neon". Forcing an ISA the CPU cannot execute
// fails with InvalidArgument at dispatch time rather than crashing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dpz::simd {

enum class Isa : std::uint8_t {
  kScalar = 0,  ///< portable reference, always available
  kAvx2,        ///< x86-64 AVX2 (no FMA: the contract forbids fusing)
  kNeon,        ///< aarch64 Advanced SIMD
};

/// CPU capability bits, decoupled from detection so selection logic can
/// be unit-tested with faked features.
struct CpuFeatures {
  bool avx2 = false;
  bool neon = false;
};

/// Queries the running CPU: CPUID leaf 7 + XGETBV on x86-64 (AVX2 needs
/// OS-enabled YMM state), getauxval(AT_HWCAP) on aarch64.
CpuFeatures detect_cpu_features();

/// Pure selection logic: highest available ISA, or `forced` when set.
/// Throws InvalidArgument when the forced ISA is not executable on
/// `features` (the "clean error, not crash" contract).
Isa select_isa(const CpuFeatures& features, std::optional<Isa> forced);

/// "scalar" / "avx2" / "neon".
const char* isa_name(Isa isa);

/// Parses an ISA name as spelled by isa_name; nullopt for anything else.
std::optional<Isa> parse_isa(const std::string& name);

/// Every ISA the current CPU can execute (always includes kScalar).
std::vector<Isa> available_isas();

/// The ISA dispatch currently resolves to (forcing included).
Isa active_isa();

/// Pins (or, with nullopt, unpins) dispatch to one ISA. Overrides the
/// DPZ_FORCE_ISA environment variable. Throws InvalidArgument if the
/// requested ISA is unavailable on this CPU. Not meant for concurrent
/// use against in-flight kernels; call it between pipeline runs (tests,
/// CLI startup).
void set_force_isa(std::optional<Isa> isa);

/// One entry per vectorized primitive. All pointers may be unaligned;
/// every size argument counts elements (doubles, or complex values where
/// noted), and n == 0 is a no-op for the void kernels.
struct KernelTable {
  // ---- reductions (fixed sixteen-lane tree, see header comment) -------
  /// sum_i x[i]*y[i]
  double (*dot)(const double* x, const double* y, std::size_t n);
  /// sum_i (x[i]-mx)*(y[i]-my) — the covariance inner loop
  double (*dot_centered)(const double* x, double mx, const double* y,
                         double my, std::size_t n);
  /// acc[r] += a[r*lda + j]*y[j] for j = begin+r, begin+r+1, ..., end-1:
  /// one strictly ascending serial chain per row r in [0, rows), no
  /// lane tree. Row r starts one column later than row r-1 (a
  /// staircase), so rows t0..t0+rows-1 of a full symmetric matrix with
  /// begin = t0+1 accumulate exactly their strictly-upper entries — the
  /// same additions, in the same order, as the Householder reduction's
  /// scatter of axpy calls over the lower triangle. Every ISA's table
  /// points at the one scalar reference (see kernel_tables.h).
  void (*dot_ordered_rows)(const double* a, std::size_t lda,
                           std::size_t rows, const double* y,
                           std::size_t begin, std::size_t end, double* acc);

  // ---- elementwise (per-element order identical to the scalar loop) ---
  /// y[i] += a*x[i]
  void (*axpy)(double a, const double* x, double* y, std::size_t n);
  /// row[i] -= f*e[i] + g*w[i] — the Householder rank-2 row update
  void (*rank2_update)(double f, const double* e, double g, const double* w,
                       double* row, std::size_t n);
  /// out[i] = (x[i]-mu)*inv_s — centering/standardization
  void (*center_scale)(const double* x, double mu, double inv_s,
                       double* out, std::size_t n);
  /// x[i] = x[i]*s + mu — PCA back-projection epilogue
  void (*scale_shift)(double s, double mu, double* x, std::size_t n);
  /// x[i] *= a
  void (*scale)(double a, double* x, std::size_t n);
  /// x[i] /= s (true division: rounding differs from *1/s)
  void (*divide)(double s, double* x, std::size_t n);
  /// Givens pair: f=v[i]; v[i]=s*u[i]+c*f; u[i]=c*u[i]-s*f — QL rotation
  void (*rot2)(double c, double s, double* u, double* v, std::size_t n);

  // ---- register-tiled panel product (PCA projection/back-projection) --
  /// out[r*ldo + c] += a[4*t + r] * panel[8*t + c] for r in [0, 4),
  /// c in [0, 8) and t = 0, 1, ..., depth-1 in ascending order: one
  /// serial chain per output element, each term one rounded multiply
  /// then one rounded add. `a` is a 4-row coefficient tile packed
  /// depth-major, `panel` an 8-column panel packed the same way. A zero
  /// coefficient (of either sign) adds nothing, even against an inf or
  /// NaN panel value. No out entry may be -0 on entry; sums that start
  /// at +0 never become -0, so that holds for the callers, and it makes
  /// masking a zero coefficient's term to +0 the same as skipping it.
  /// `finite` promises every panel value is finite: a zero coefficient's
  /// product is then +-0, which leaves such an accumulator unchanged,
  /// so implementations may drop the mask.
  void (*panel_accumulate)(const double* a, const double* panel,
                           std::size_t depth, bool finite, double* out,
                           std::size_t ldo);

  // ---- complex (interleaved re,im; n counts complex values) -----------
  /// out[i] = a[i]*b[i] (complex); out may alias a
  void (*cmul)(const double* a, const double* b, double* out,
               std::size_t n);
  /// One radix-2 butterfly stage over a[0..n): for each group of `len`
  /// and k in [0, len/2): v = a[g+k+len/2] * w[k] (conjugated when
  /// `conj`), a[g+k] = u+v, a[g+k+len/2] = u-v.
  void (*radix2_stage)(double* a, std::size_t n, std::size_t len,
                       const double* w, bool conj);
  /// One radix-3 stage over a[0..n): for each group of `len`, m = len/3
  /// and k in [0, m), x_q = a[g+k+q*m], twiddled b = x_1*w[k] and
  /// c = x_2*w[m+k] (w conjugated when `conj`). With s = b+c,
  /// d = (b-c)*sin60 and t = x_0 - s*0.5, the outputs are x_0+s, t-i*d
  /// and t+i*d, the last two exchanged when `conj`: the 3-point DFT,
  /// or the unscaled inverse. sin60 is sin(2*pi/3) rounded to double.
  void (*radix3_stage)(double* a, std::size_t n, std::size_t len,
                       const double* w, bool conj);
  /// One radix-5 stage: m = len/5, b_j = x_j*w[(j-1)*m+k] for j in
  /// [1, 5), a1 = b1+b4, a2 = b2+b3, d1 = b1-b4, d2 = b2-b3, and
  ///   y0 = (x0 + a1) + a2,
  ///   t1 = (x0 + a1*cos72) + a2*cos144,  u1 = d1*sin72 + d2*sin144,
  ///   t2 = (x0 + a1*cos144) + a2*cos72,  u2 = d1*sin144 - d2*sin72,
  /// y1 = t1-i*u1, y2 = t2-i*u2, y3 = t2+i*u2, y4 = t1+i*u1, with y1/y4
  /// and y2/y3 exchanged when `conj`. The constants are cos and sin of
  /// 2*pi/5 and 4*pi/5 rounded to double.
  void (*radix5_stage)(double* a, std::size_t n, std::size_t len,
                       const double* w, bool conj);
  /// out[i] = (w[i]*v[i]).real() * s — the DCT-II twiddle epilogue
  void (*cmul_real_scale)(const double* w, const double* v, double s,
                          double* out, std::size_t n);

  // ---- quantizer strips (64Ki-value units; see codec/quantizer.cpp) ---
  /// Writes n codes at stride (wide ? 2 : 1) bytes, little-endian:
  /// in-range values get min((v+half)/(2p), bins-1), anything else
  /// (including NaN) gets the escape code == bins.
  void (*quantize_codes)(const double* v, std::size_t n, double half,
                         double p, std::uint32_t bins, bool wide,
                         std::uint8_t* codes);
  /// out[i] = -half + p*(2*code[i]+1) for every code, escapes included
  /// (the caller overwrites escape slots from the outlier list).
  void (*dequantize_codes)(const std::uint8_t* codes, std::size_t n,
                           double p, double half, bool wide, double* out);
};

/// The dispatched table (detection + DPZ_FORCE_ISA resolved on first
/// use). Hot loops grab this once per call site and invoke members.
const KernelTable& kernels();

/// Direct access to one ISA's table for tests and microbenches. Throws
/// InvalidArgument when `isa` cannot execute on this CPU.
const KernelTable& kernel_table(Isa isa);

}  // namespace dpz::simd
