#include "src/tensor/simd_scratch.h"

#include <vector>

namespace oodgnn {
namespace simd {

MatMulScratch ThreadMatMulScratch(int terms, size_t panel_floats) {
  struct Buffers {
    std::vector<const float*> rows;
    std::vector<float> coefs;
    std::vector<float> panel;
  };
  thread_local Buffers s;
  if (s.rows.size() < static_cast<size_t>(terms)) {
    s.rows.resize(static_cast<size_t>(terms));
    s.coefs.resize(static_cast<size_t>(terms));
  }
  if (s.panel.size() < panel_floats) s.panel.resize(panel_floats);
  return {s.rows.data(), s.coefs.data(), s.panel.data()};
}

}  // namespace simd
}  // namespace oodgnn
