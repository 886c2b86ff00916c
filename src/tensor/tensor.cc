#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/tensor/arena.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace oodgnn {

Tensor::Tensor(int rows, int cols) : Tensor(rows, cols, 0.f) {}

Tensor::Tensor(int rows, int cols, float fill)
    : Tensor(Unfilled(rows, cols)) {
  Fill(fill);
}

Tensor Tensor::Unfilled(int rows, int cols) {
  OODGNN_CHECK_GE(rows, 0);
  OODGNN_CHECK_GE(cols, 0);
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  const size_t n = static_cast<size_t>(rows) * static_cast<size_t>(cols);
  if (n > 0) {
    t.storage_ = AllocateTensorStorage(n);
#if defined(__SANITIZE_ADDRESS__)
    std::memset(t.storage_.get(), 0xFF, n * sizeof(float));
#endif
  }
  return t;
}

Tensor::Tensor(const Tensor& other) : rows_(other.rows_), cols_(other.cols_) {
  const size_t n = static_cast<size_t>(other.size());
  if (n > 0) {
    storage_ = AllocateTensorStorage(n);
    std::memcpy(storage_.get(), other.storage_.get(), n * sizeof(float));
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  const size_t n = static_cast<size_t>(other.size());
  if (n > 0) {
    storage_ = AllocateTensorStorage(n);
    std::memcpy(storage_.get(), other.storage_.get(), n * sizeof(float));
  } else {
    storage_.reset();
  }
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : rows_(other.rows_), cols_(other.cols_),
      storage_(std::move(other.storage_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  storage_ = std::move(other.storage_);
  other.rows_ = 0;
  other.cols_ = 0;
  return *this;
}

Tensor Tensor::FromData(int rows, int cols, std::vector<float> data) {
  OODGNN_CHECK_EQ(data.size(),
                  static_cast<size_t>(rows) * static_cast<size_t>(cols));
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  if (!data.empty()) {
    t.storage_ = AllocateTensorStorage(data.size());
    std::memcpy(t.storage_.get(), data.data(), data.size() * sizeof(float));
  }
  return t;
}

Tensor Tensor::ColVector(std::vector<float> values) {
  int n = static_cast<int>(values.size());
  return FromData(n, 1, std::move(values));
}

Tensor Tensor::RandomNormal(int rows, int cols, Rng* rng, float mean,
                            float stddev) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::RandomUniform(int rows, int cols, Rng* rng, float lo,
                             float hi) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

float& Tensor::at(int r, int c) {
  OODGNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return storage_.get()[static_cast<size_t>(r) * cols_ + c];
}

float Tensor::at(int r, int c) const {
  OODGNN_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return storage_.get()[static_cast<size_t>(r) * cols_ + c];
}

void Tensor::Fill(float value) {
  const size_t n = static_cast<size_t>(size());
  if (n == 0) return;
  if (value == 0.f && !std::signbit(value)) {
    // +0.f is all zero bytes; −0.f is not, so it takes the loop.
    std::memset(storage_.get(), 0, n * sizeof(float));
  } else {
    std::fill_n(storage_.get(), n, value);
  }
}

void Tensor::Add(const Tensor& other) {
  OODGNN_CHECK(SameShape(other));
  float* dst = storage_.get();
  const float* src = other.storage_.get();
  for (int i = 0; i < size(); ++i) dst[i] += src[i];
}

float Tensor::Sum() const {
  double acc = 0.0;
  const float* src = storage_.get();
  for (int i = 0; i < size(); ++i) acc += src[i];
  return static_cast<float>(acc);
}

bool AllClose(const Tensor& a, const Tensor& b, float tol) {
  if (!a.SameShape(b)) return false;
  for (int i = 0; i < a.size(); ++i) {
    // Equal values (infinities included) are close; the negated test
    // keeps NaN on either side from passing.
    if (a[i] == b[i]) continue;
    if (!(std::fabs(a[i] - b[i]) <= tol)) return false;
  }
  return true;
}

}  // namespace oodgnn
