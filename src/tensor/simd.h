#ifndef OODGNN_TENSOR_SIMD_H_
#define OODGNN_TENSOR_SIMD_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace oodgnn {

namespace kernels {
struct MatMulTail;
}  // namespace kernels

namespace simd {

// ---------------------------------------------------------------------------
// SIMD mirrors of the dense scalar kernels (src/tensor/kernels.h),
// selected per dispatch by the Backend entry points (DESIGN.md §16).
//
// Every function here is *bitwise identical* to its scalar twin: the
// vector lanes perform exactly the scalar per-element operation
// sequence, the same per-output-element accumulation order, and the
// same zero-skip decisions on the same a coefficients. The matmul
// family and Dot fuse each multiply-add (one rounding) where their
// oracles call std::fma; every other kernel multiplies, then adds, as
// its oracle does, and the build pins -ffp-contract=off so the
// compiler fuses nothing on its own. The one exception is which NaN
// payload survives NaN + NaN, which C++ leaves to the compiler's
// operand order; NaNs still land in the same elements.
// Dot is a horizontal reduction whose oracle fixes one association,
// 8 lanes folded in halves (kernels::Dot), so its mirror sums the
// same lanes in vector registers. The other reductions (EdgeDot,
// HadamardRowSum) sum serially and have no mirror: vectorizing them
// would reassociate the sum. Otherwise only kernels where the
// innermost loop walks the contiguous output (or panel-packed)
// dimension with independent per-lane accumulators are mirrored. The
// scalar kernels' branches become lane masks: ReLU is an `x > 0`
// compare ANDed with x, never a `max`: by ISA and operand order,
// max(x, 0) returns NaN for a NaN lane and −0 for −0, where the scalar
// `x > 0 ? x : 0` returns +0. tests/simd_test.cc pins the bitwise
// contract across shapes, tails, denormals, ±0/NaN and thread counts.
// The matmul bodies are register-tiled (DESIGN.md §16): each output
// tile is summed in vector registers. a·b and aᵀ·b apply the zero-skip
// once per row through a list of nonzero terms, or share one
// multi-row tile that also adds the zero terms' ±0 products where
// that changes no sum (b finite, and no −0 among the stored sums).
//
// The matmul family has a second, 16-lane body in simd::avx512, built
// from the same tile source (src/tensor/simd_matmul.inc). With vector
// dispatch on, the Backend runs it where avx512::Available() holds and
// the AVX2 (or NEON) body everywhere else; Dot, the dropout mask and
// every other kernel run the AVX2 body on either kind of CPU.
//
// Two translation units are compiled with vector flags:
// src/tensor/simd.cc with -mavx2 -mfma (x86; NEON is baseline on
// aarch64) and src/tensor/simd_avx512.cc with -mavx512f -mfma. Their
// functions are reached only after Enabled() (and, for the AVX-512
// body, avx512::Available()) returned true, so no instruction of
// either ISA can execute on a CPU without it. Neither defines an
// inline or template function with external linkage, whose one
// program-wide copy the linker might take from them
// (scripts/check_isa_symbols.sh, a `lint` ctest).
// ---------------------------------------------------------------------------

/// True when this binary carries a vector ISA (compile-time) *and* the
/// running CPU supports it (AVX2 and FMA on x86). False on the
/// pure-scalar build.
bool Available();

/// The ISA of the matmul body a vector dispatch runs: "avx512",
/// "avx2", "neon", or "scalar" when Available() is false.
const char* IsaName();

/// Dispatch decision the Backend reads: Available(), unless a
/// SetEnabled(false) call turned it off. Lock-free.
bool Enabled();

/// Overrides the dispatch decision (clamped to Available(): enabling
/// on a scalar-only build stays off). For A/B benchmarking and the
/// oracle tests (tests/oracle_test.cc runs every config both ways).
void SetEnabled(bool enabled);

/// RAII Enabled() override for tests and benches.
class ScopedSimdEnabled {
 public:
  explicit ScopedSimdEnabled(bool enabled) : previous_(Enabled()) {
    SetEnabled(enabled);
  }
  ~ScopedSimdEnabled() { SetEnabled(previous_); }
  ScopedSimdEnabled(const ScopedSimdEnabled&) = delete;
  ScopedSimdEnabled& operator=(const ScopedSimdEnabled&) = delete;

 private:
  bool previous_;
};

// --- dense matmul family ---

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);

/// out[r0:r1,:] = tail(a · b) (kernels::MatMulTail); an empty tail
/// gives the plain product. Each tile's sums start from +0 in
/// registers, so out is never zero-filled or read, and the tail runs
/// on the last contraction block's registers before the one store.
/// Bitwise identical to kernels::MatMulWithTail.
void MatMulWithTail(const Tensor& a, const Tensor& b,
                    const kernels::MatMulTail& tail, Tensor* out, int r0,
                    int r1);

/// The 16-lane matmul bodies (src/tensor/simd_avx512.cc), bitwise
/// identical to the scalar oracle like the ones above.
namespace avx512 {

/// True when this binary carries the AVX-512 body and the running CPU
/// has avx512f and fma. The Backend's vector dispatch then runs it in
/// place of the AVX2 matmuls.
bool Available();

void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);
void MatMulWithTail(const Tensor& a, const Tensor& b,
                    const kernels::MatMulTail& tail, Tensor* out, int r0,
                    int r1);

}  // namespace avx512

/// kernels::Dot's 8 lanes in vector registers, then its fold and tail.
float Dot(const Tensor& a, const Tensor& b);

// --- element-wise maps ---

void Axpy(float alpha, const Tensor& x, Tensor* y, int i0, int i1);
void Scale(Tensor* y, float s, int i0, int i1);
void AddScalar(Tensor* y, float s, int i0, int i1);
void Hadamard(const Tensor& a, const Tensor& b, Tensor* out, int i0, int i1);
void HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y, int i0, int i1);
void Relu(const Tensor& x, Tensor* out, int i0, int i1);
void ReluBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                     int i1);
void SquareBackwardAcc(const Tensor& g, const Tensor& x, Tensor* dx, int i0,
                       int i1);

// --- column-vector broadcasts (ranges over rows) ---

void MulColVec(const Tensor& a, const Tensor& col, Tensor* out, int r0,
               int r1);
void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx, int r0,
                  int r1);

// --- column-ranged reductions and broadcast adjoints ---

void ColumnSumAcc(const Tensor& a, Tensor* out, int c0, int c1);
void RowBroadcastAcc(const Tensor& row, Tensor* out, int r0, int r1);

// --- the BatchNorm1d node (kernels.h states each contract) ---

/// kernels::ApplyTail over rows [r0, r1), through the lane form the
/// matmul bodies store with.
void ApplyTailRows(const kernels::MatMulTail& tail, const Tensor& x,
                   Tensor* out, int r0, int r1);
void CenteredSquareSumAcc(const Tensor& x, const float* neg_mean,
                          Tensor* out, int c0, int c1);
void BatchNormGradSumsAcc(const Tensor& g, const Tensor& y, const Tensor& x,
                          const kernels::MatMulTail& tail, Tensor* dgamma,
                          Tensor* dbeta, Tensor* dn_xhat, int c0, int c1);
void BatchNormGradX(const Tensor& g, const Tensor& y, const Tensor& x,
                    const kernels::MatMulTail& tail, const float* dsq,
                    bool accumulate, Tensor* dx, Tensor* dx_sum, int c0,
                    int c1);

// --- gather / scatter family (planned) ---

void GatherRowsAcc(const Tensor& g, const std::vector<int>& index, Tensor* out,
                   int r0, int r1);
void ScatterAddRowsPlanned(const Tensor& a, const std::vector<int>& perm,
                           const std::vector<int>& offsets, Tensor* out,
                           int s0, int s1);
void GatherScatterAcc(const Tensor& h, const std::vector<int>& gather,
                      const std::vector<int>& offsets, Tensor* out, int s0,
                      int s1);
void GatherScatterWeightedAcc(const Tensor& h, const Tensor& w,
                              const std::vector<int>& perm,
                              const std::vector<int>& gather,
                              const std::vector<int>& offsets, Tensor* out,
                              int e_s0, int e_s1);

/// RFF feature map (src/core/rff.h): the gather + omega·x + phase
/// argument computation is vectorized; cos() itself stays scalar libm
/// per element (a vector cos could not match libm bitwise), so the
/// whole map still matches the scalar kernel exactly.
void RffMap(const Tensor& z, const std::vector<int>& source_dim,
            const std::vector<float>& omega, const std::vector<float>& phase,
            bool linear_only, float scale, Tensor* out, int r0, int r1);

/// Dropout mask from untempered MT19937-64 words
/// (kernels::DropoutMask). The AVX2 body tempers four words per vector
/// with 64-bit shifts, ands and xors, and tests x < threshold as a
/// signed compare of both sides with the sign bit flipped (AVX2 has no
/// unsigned 64-bit compare). aarch64 and scalar builds run the oracle.
void DropoutMask(const std::uint64_t* words, std::uint64_t threshold,
                 float keep_scale, Tensor* out, int i0, int i1);

}  // namespace simd
}  // namespace oodgnn

#endif  // OODGNN_TENSOR_SIMD_H_
