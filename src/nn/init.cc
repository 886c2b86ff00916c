#include "src/nn/init.h"

#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace oodgnn {

Tensor GlorotUniform(int fan_in, int fan_out, Rng* rng) {
  OODGNN_CHECK(fan_in > 0 && fan_out > 0);
  const float a =
      std::sqrt(6.f / static_cast<float>(fan_in + fan_out));
  return Tensor::RandomUniform(fan_in, fan_out, rng, -a, a);
}

}  // namespace oodgnn
