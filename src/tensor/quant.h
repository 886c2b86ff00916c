#ifndef OODGNN_TENSOR_QUANT_H_
#define OODGNN_TENSOR_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/tensor/tensor.h"

namespace oodgnn {

// ---------------------------------------------------------------------------
// Q8_0-style block weight quantization for the inference engine
// (DESIGN.md §16). A weight matrix is quantized along each row in
// blocks of kQuantBlockSize columns: every block stores one fp32
// scale = max|x|/127 and kQuantBlockSize int8 codes
// q = clamp(round(x/scale), -127, 127), so the dequantized value is
// scale·q and the per-element reconstruction error is bounded by
// scale/2 (all-zero blocks get scale 0 and reconstruct exactly).
// Training never sees this format — only published serving snapshots
// carry quantized weights, and the golden-parity gate in
// tests/quant_test.cc pins the end-to-end metric drift it may cause.
// ---------------------------------------------------------------------------

inline constexpr int kQuantBlockSize = 32;

/// Weight representation a serving snapshot publishes: plain fp32, or
/// Q8_0 blocks (QuantizedTensor below) behind a dequantized fp32 image.
enum class WeightDtype : int {
  kF32 = 0,
  kQ8 = 1,
};

/// A row-major int8 image of a [rows, cols] fp32 matrix plus per-block
/// fp32 scales. Codes keep the source's row-major layout (cols per
/// row, no padding); scales are [rows, blocks_per_row] row-major.
struct QuantizedTensor {
  int rows = 0;
  int cols = 0;
  std::vector<int8_t> q;      ///< rows·cols codes.
  std::vector<float> scales;  ///< rows·blocks_per_row() scales.

  int blocks_per_row() const {
    return (cols + kQuantBlockSize - 1) / kQuantBlockSize;
  }
  const int8_t* qrow(int r) const {
    return q.data() + static_cast<size_t>(r) * static_cast<size_t>(cols);
  }
  const float* srow(int r) const {
    return scales.data() +
           static_cast<size_t>(r) * static_cast<size_t>(blocks_per_row());
  }
  /// Storage footprint of the quantized image (codes + scales).
  size_t byte_size() const {
    return q.size() * sizeof(int8_t) + scales.size() * sizeof(float);
  }
};

/// Quantizes `w` into the block format above.
QuantizedTensor QuantizeQ8(const Tensor& w);

/// Reconstructs the fp32 image scale·q. Quantizing the result again
/// reproduces `qw` exactly (idempotent fixed point).
Tensor DequantizeQ8(const QuantizedTensor& qw);

namespace kernels {

/// out[r0:r1, :] += a[m,k] · dequant(w)[k,n], consuming the block
/// format directly: per (i, p) the scalar m = a[i,p]·scale(p, block)
/// is formed once per block, then out[i,j] += m·q[p,j] over the
/// block's columns. This exact operation sequence is the quantized
/// oracle that simd::MatMulQuantAcc must match bitwise; like
/// MatMulAcc it ranges over rows of out and skips a-zeros.
void MatMulQuantAcc(const Tensor& a, const QuantizedTensor& w, Tensor* out,
                    int r0, int r1);

}  // namespace kernels

// --- quantized-weight routing ---
//
// The autograd/op layer passes fp32 tensors everywhere; the serving
// engine routes matmuls onto quantized weights by storage identity. A
// scope installs a map from an fp32 weight's data() pointer to its
// quantized image, and Backend::MatMulAcc consults it for the b
// operand. Training threads never install a scope, so the lookup cost
// there is a single thread-local null check.

using QuantizedWeightMap =
    std::unordered_map<const float*, const QuantizedTensor*>;

/// Installs `map` (nullptr deactivates routing) for the current thread
/// for the scope's lifetime; nests by restoring the previous map. The
/// caller owns the map and the QuantizedTensors it points to; both
/// must outlive the scope.
class ScopedQuantizedWeights {
 public:
  explicit ScopedQuantizedWeights(const QuantizedWeightMap* map);
  ~ScopedQuantizedWeights();
  ScopedQuantizedWeights(const ScopedQuantizedWeights&) = delete;
  ScopedQuantizedWeights& operator=(const ScopedQuantizedWeights&) = delete;

 private:
  const QuantizedWeightMap* previous_;
};

/// The quantized image registered for fp32 storage `data` in the
/// current thread's active map, or nullptr (no scope / not a routed
/// weight).
const QuantizedTensor* ActiveQuantizedWeightFor(const float* data);

// --- process-wide default ---

/// Whether serving publishes quantize by default
/// (InferenceOptions::QuantizeMode::kFollowProcess). Initialized
/// lazily from OODGNN_QUANTIZE; SetQuantizeEnabled overrides.
bool QuantizeEnabled();
void SetQuantizeEnabled(bool enabled);

}  // namespace oodgnn

#endif  // OODGNN_TENSOR_QUANT_H_
