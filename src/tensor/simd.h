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
// sequence — separate multiply and add (never FMA; fused rounding
// would diverge from the scalar oracle, so the build also pins
// -ffp-contract=off), the same per-output-element accumulation order,
// and the same zero-skip decisions on the same a coefficients. The one
// exception is which NaN payload survives NaN + NaN, which C++ leaves
// to the compiler's operand order; NaNs still land in the same
// elements.
// Kernels whose scalar form is a horizontal reduction (Dot, RowSum,
// EdgeDot, softmax) have no mirror: vectorizing them would reassociate
// the sum. Only kernels where the innermost loop walks the contiguous
// output (or panel-packed) dimension with independent per-lane
// accumulators are mirrored. The scalar kernels' branches become lane
// masks: ReLU is an `x > 0` compare ANDed with x, never a `max`: by ISA
// and operand order, max(x, 0) returns NaN for a NaN lane and −0 for
// −0, where the scalar `x > 0 ? x : 0` returns +0. tests/simd_test.cc
// pins the bitwise contract across shapes, tails, denormals, ±0/NaN and
// thread counts. The matmul bodies are register-tiled (DESIGN.md §16):
// each output tile is summed in vector registers, and a·b and aᵀ·b
// apply the zero-skip once per row through a list of nonzero terms.
//
// The file src/tensor/simd.cc is the only translation unit compiled
// with -mavx2 (x86; NEON is baseline on aarch64); its functions are
// reached only after Enabled() returned true, so no AVX2 instruction
// can execute on a CPU without the feature.
// ---------------------------------------------------------------------------

/// True when this binary carries a vector ISA (compile-time) *and* the
/// running CPU supports it. False on the pure-scalar build.
bool Available();

/// The ISA the vector path was compiled for: "avx2", "neon" or
/// "scalar".
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

void MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0, int r1);
void MatMulTransAAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);
void MatMulTransBAcc(const Tensor& a, const Tensor& b, Tensor* out, int r0,
                     int r1);

/// out[r0:r1,:] = tail(a · b) (kernels::MatMulTail). Each tile's sums
/// start from +0 in registers, so out is never zero-filled or read,
/// and the tail runs on the last contraction block's registers before
/// the one store. Bitwise identical to kernels::MatMulWithTail.
void MatMulWithTail(const Tensor& a, const Tensor& b,
                    const kernels::MatMulTail& tail, Tensor* out, int r0,
                    int r1);

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

// --- row- and column-vector broadcasts (ranges over rows) ---

void MulRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1);
void MulRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1);
void DivRowVec(const Tensor& a, const Tensor& row, Tensor* out, int r0,
               int r1);
void DivRowVecAcc(const Tensor& g, const Tensor& row, Tensor* dx, int r0,
                  int r1);
void MulColVec(const Tensor& a, const Tensor& col, Tensor* out, int r0,
               int r1);
void MulColVecAcc(const Tensor& g, const Tensor& col, Tensor* dx, int r0,
                  int r1);

// --- column-ranged reductions and broadcast adjoints ---

void ColumnSumAcc(const Tensor& a, Tensor* out, int c0, int c1);
void RowBroadcastAcc(const Tensor& row, Tensor* out, int r0, int r1);
void ColBroadcastAcc(const Tensor& col, Tensor* out, int r0, int r1);
void HadamardColumnSumAcc(const Tensor& x, const Tensor& y, Tensor* out,
                          int c0, int c1);

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
