#ifndef OODGNN_NN_INIT_H_
#define OODGNN_NN_INIT_H_

#include "src/tensor/tensor.h"

namespace oodgnn {

class Rng;

/// Glorot/Xavier uniform initialization: U[-a, a] with
/// a = sqrt(6 / (fan_in + fan_out)). Shape [fan_in, fan_out].
Tensor GlorotUniform(int fan_in, int fan_out, Rng* rng);

}  // namespace oodgnn

#endif  // OODGNN_NN_INIT_H_
