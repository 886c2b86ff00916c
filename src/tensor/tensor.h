#ifndef OODGNN_TENSOR_TENSOR_H_
#define OODGNN_TENSOR_TENSOR_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace oodgnn {

class Rng;

/// Dense row-major float32 matrix. Vectors are represented as N×1 or
/// 1×N matrices. This is the plain value type; automatic
/// differentiation lives in `Variable` (src/tensor/variable.h), which
/// wraps Tensors in a backward graph.
///
/// Storage is a 64-byte-aligned block from the calling thread's arena
/// (AllocateTensorStorage, src/tensor/arena.h); any thread may drop
/// the last reference. Tensor keeps strict value semantics: copies
/// are deep, moves leave the source empty (0×0).
class Tensor {
 public:
  /// Empty 0×0 tensor (no storage).
  Tensor() = default;

  /// Zero-initialized rows×cols matrix.
  Tensor(int rows, int cols);

  /// rows×cols matrix filled with `fill`.
  Tensor(int rows, int cols, float fill);

  /// rows×cols matrix whose contents are unspecified: stale data from
  /// the arena. Only for an op that writes every element before
  /// anything reads one (DESIGN.md §13). AddressSanitizer builds fill
  /// it with 0xFF bytes (a NaN), so an element an op forgets to write
  /// shows up in the bitwise tests instead of reading stale data.
  static Tensor Unfilled(int rows, int cols);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  /// Builds a tensor from explicit data (row-major); data.size() must
  /// equal rows*cols.
  static Tensor FromData(int rows, int cols, std::vector<float> data);

  /// n×1 column vector from values.
  static Tensor ColVector(std::vector<float> values);

  /// rows×cols with i.i.d. N(mean, stddev) entries.
  static Tensor RandomNormal(int rows, int cols, Rng* rng, float mean = 0.f,
                             float stddev = 1.f);

  /// rows×cols with i.i.d. U[lo, hi) entries.
  static Tensor RandomUniform(int rows, int cols, Rng* rng, float lo,
                              float hi);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  /// Element access; bounds-checked in debug builds.
  float& at(int r, int c);
  float at(int r, int c) const;

  /// Flat (row-major) element access.
  float& operator[](int i) { return storage_.get()[static_cast<size_t>(i)]; }
  float operator[](int i) const {
    return storage_.get()[static_cast<size_t>(i)];
  }

  float* data() { return storage_.get(); }
  const float* data() const { return storage_.get(); }

  /// Pointer to the start of row r.
  float* row(int r) { return storage_.get() + static_cast<size_t>(r) * cols_; }
  const float* row(int r) const {
    return storage_.get() + static_cast<size_t>(r) * cols_;
  }

  /// True if this tensor has the same shape as `other`.
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Sets every element to `value` (a memset for +0.f).
  void Fill(float value);

  /// In-place element-wise accumulate: this += other. Shapes must match.
  void Add(const Tensor& other);

  /// Sum of all elements.
  float Sum() const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::shared_ptr<float> storage_;  ///< Null iff size() == 0.
};

/// Returns true if every element differs by at most `tol`. NaN is
/// never close to anything, itself included; equal infinities are.
bool AllClose(const Tensor& a, const Tensor& b, float tol = 1e-5f);

}  // namespace oodgnn

#endif  // OODGNN_TENSOR_TENSOR_H_
