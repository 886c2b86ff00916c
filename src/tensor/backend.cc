#include "src/tensor/backend.h"

#include <array>
#include <mutex>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tensor/kernels.h"
#include "src/tensor/simd.h"
#include "src/util/check.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace oodgnn {
namespace {

/// Below this much estimated work, dispatching to the pool costs more
/// than it saves; run inline instead. The cutoff does not affect
/// results (any partition of a range is bitwise equivalent).
constexpr std::int64_t kMinFlopsToParallelize = 32 * 1024;

std::mutex g_backend_mu;
std::unique_ptr<Backend> g_backend;  // guarded by g_backend_mu

// --- per-kernel perf counters (the ggml perf_runs/perf_time_us idea) ---
//
// Every dense entry point below opens a KernelScope naming its op.
// While profiling is off (the common case) the scope is a single
// relaxed atomic load; while it is on, each call records dispatch
// count, output elements processed, wall microseconds, and whether the
// range went to the worker pool — into the global metrics registry
// under "kernel/<op>/{calls,elems,us,parallel_calls}".

enum class KernelOp : int {
  kMatMul = 0,
  kMatMulTransA,
  kMatMulTransB,
  kAxpy,
  kScale,
  kAddScalar,
  kHadamard,
  kHadamardAcc,
  kColumnSum,
  kRowSum,
  kRowBroadcast,
  kColBroadcast,
  kAddTransposed,
  kHadamardColumnSum,
  kHadamardRowSum,
  kDot,
  kSoftmaxRows,
  kSoftmaxRowsBackward,
  kGatherRows,
  kGatherRowsAcc,
  kScatterPlanned,
  kGatherScatter,
  kGatherScatterWeighted,
  kEdgeDot,
  kSegmentExtremePlanned,
  kSegmentExtremeBackward,
  kCopyRows,
  kRffMap,
  kRelu,
  kReluBackward,
  kSquareBackward,
  kMulRowVec,
  kMulRowVecAcc,
  kDivRowVec,
  kDivRowVecAcc,
  kMulColVec,
  kMulColVecAcc,
  kDropoutMask,
  kNumOps,
};

constexpr int kNumKernelOps = static_cast<int>(KernelOp::kNumOps);

const char* KernelOpName(KernelOp op) {
  switch (op) {
    case KernelOp::kMatMul:
      return "matmul";
    case KernelOp::kMatMulTransA:
      return "matmul_ta";
    case KernelOp::kMatMulTransB:
      return "matmul_tb";
    case KernelOp::kAxpy:
      return "axpy";
    case KernelOp::kScale:
      return "scale";
    case KernelOp::kAddScalar:
      return "add_scalar";
    case KernelOp::kHadamard:
      return "hadamard";
    case KernelOp::kHadamardAcc:
      return "hadamard_acc";
    case KernelOp::kColumnSum:
      return "column_sum";
    case KernelOp::kRowSum:
      return "row_sum";
    case KernelOp::kRowBroadcast:
      return "row_broadcast";
    case KernelOp::kColBroadcast:
      return "col_broadcast";
    case KernelOp::kAddTransposed:
      return "add_transposed";
    case KernelOp::kHadamardColumnSum:
      return "hadamard_column_sum";
    case KernelOp::kHadamardRowSum:
      return "hadamard_row_sum";
    case KernelOp::kDot:
      return "dot";
    case KernelOp::kSoftmaxRows:
      return "softmax_rows";
    case KernelOp::kSoftmaxRowsBackward:
      return "softmax_rows_backward";
    case KernelOp::kGatherRows:
      return "gather_rows";
    case KernelOp::kGatherRowsAcc:
      return "gather_rows_acc";
    case KernelOp::kScatterPlanned:
      return "scatter_planned";
    case KernelOp::kGatherScatter:
      return "gather_scatter";
    case KernelOp::kGatherScatterWeighted:
      return "gather_scatter_weighted";
    case KernelOp::kEdgeDot:
      return "edge_dot";
    case KernelOp::kSegmentExtremePlanned:
      return "segment_extreme_planned";
    case KernelOp::kSegmentExtremeBackward:
      return "segment_extreme_backward";
    case KernelOp::kCopyRows:
      return "copy_rows";
    case KernelOp::kRffMap:
      return "rff_map";
    case KernelOp::kRelu:
      return "relu";
    case KernelOp::kReluBackward:
      return "relu_backward";
    case KernelOp::kSquareBackward:
      return "square_backward";
    case KernelOp::kMulRowVec:
      return "mul_row_vec";
    case KernelOp::kMulRowVecAcc:
      return "mul_row_vec_acc";
    case KernelOp::kDivRowVec:
      return "div_row_vec";
    case KernelOp::kDivRowVecAcc:
      return "div_row_vec_acc";
    case KernelOp::kMulColVec:
      return "mul_col_vec";
    case KernelOp::kMulColVecAcc:
      return "mul_col_vec_acc";
    case KernelOp::kDropoutMask:
      return "dropout_mask";
    case KernelOp::kNumOps:
      break;
  }
  return "?";
}

struct OpCounters {
  obs::Counter* calls;
  obs::Counter* elems;
  obs::Counter* us;
  obs::Counter* parallel_calls;
};

/// Counters for `op`, registered on first instrumented call — so the
/// registry stays empty while profiling is disabled.
OpCounters& CountersFor(KernelOp op) {
  static std::array<OpCounters, kNumKernelOps>* table = [] {
    auto* t = new std::array<OpCounters, kNumKernelOps>();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    for (int i = 0; i < kNumKernelOps; ++i) {
      const std::string prefix =
          std::string("kernel/") + KernelOpName(static_cast<KernelOp>(i));
      (*t)[static_cast<size_t>(i)] = {
          &registry.GetCounter(prefix + "/calls"),
          &registry.GetCounter(prefix + "/elems"),
          &registry.GetCounter(prefix + "/us"),
          &registry.GetCounter(prefix + "/parallel_calls"),
      };
    }
    return t;
  }();
  return (*table)[static_cast<size_t>(static_cast<int>(op))];
}

class KernelScope {
 public:
  KernelScope(KernelOp op, std::int64_t elems, bool parallel)
      : active_(obs::ProfilingEnabled()) {
    if (!active_) return;
    op_ = op;
    elems_ = elems;
    parallel_ = parallel;
    start_us_ = NowMicros();
  }

  ~KernelScope() {
    if (!active_) return;
    const OpCounters& counters = CountersFor(op_);
    counters.calls->Increment();
    counters.elems->Add(elems_);
    counters.us->Add(NowMicros() - start_us_);
    if (parallel_) counters.parallel_calls->Increment();
  }

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  bool active_;
  KernelOp op_ = KernelOp::kMatMul;
  std::int64_t elems_ = 0;
  bool parallel_ = false;
  std::int64_t start_us_ = 0;
};

/// SIMD dispatch split across the vector-capable entry points:
/// "kernel/simd/vector_calls" when the vector mirror ran,
/// "kernel/simd/scalar_calls" when a capable op fell back to the
/// scalar oracle (simd::Enabled() false). Profiling-gated like
/// KernelScope so the common case stays one relaxed atomic load.
void RecordSimdDispatch(bool vector) {
  if (!obs::ProfilingEnabled()) return;
  static obs::Counter* vector_calls =
      &obs::MetricsRegistry::Global().GetCounter("kernel/simd/vector_calls");
  static obs::Counter* scalar_calls =
      &obs::MetricsRegistry::Global().GetCounter("kernel/simd/scalar_calls");
  (vector ? vector_calls : scalar_calls)->Increment();
}

/// A range kernel reading two tensors into a third; the scalar kernel
/// and its simd:: mirror share this signature.
using BinaryRangeKernel = void (*)(const Tensor&, const Tensor&, Tensor*,
                                   int, int);

/// Runs `vector` (SIMD enabled) or `scalar` over ForCost(n, flops),
/// counted under `op` with out's size as its element count.
void RunMirrored(const Backend& be, KernelOp op, BinaryRangeKernel scalar,
                 BinaryRangeKernel vector, const Tensor& x, const Tensor& y,
                 Tensor* out, int n, std::int64_t flops) {
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(op, out->size(), be.WouldParallelize(n, flops));
  const BinaryRangeKernel kernel = use_simd ? vector : scalar;
  be.ForCost(n, flops, [&](int b, int e) { kernel(x, y, out, b, e); });
}

}  // namespace

bool Backend::WouldParallelize(int n, std::int64_t flops) const {
  return n > 0 && num_threads() != 1 && flops >= kMinFlopsToParallelize;
}

void Backend::ForCost(int n, std::int64_t flops,
                      const std::function<void(int, int)>& fn) const {
  if (n <= 0) return;
  if (!WouldParallelize(n, flops)) {
    fn(0, n);
    return;
  }
  For(n, fn);
}

namespace {

/// a·b into out: out += a·b when `tail` is null, out = tail(a·b)
/// otherwise. Counted under `matmul` either way — the tail replaces
/// element-wise passes, not a matmul.
void DispatchMatMul(const Backend& be, const Tensor& a, const Tensor& b,
                    const kernels::MatMulTail* tail, Tensor* out) {
  OODGNN_CHECK_EQ(a.cols(), b.rows());
  OODGNN_CHECK(out->rows() == a.rows() && out->cols() == b.cols());
  const std::int64_t flops =
      2ll * a.rows() * a.cols() * b.cols();
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kMatMul, out->size(),
                    be.WouldParallelize(out->rows(), flops));
  be.ForCost(out->rows(), flops, [&](int r0, int r1) {
    if (tail != nullptr) {
      if (use_simd) {
        simd::MatMulWithTail(a, b, *tail, out, r0, r1);
      } else {
        kernels::MatMulWithTail(a, b, *tail, out, r0, r1);
      }
    } else if (use_simd) {
      simd::MatMulAcc(a, b, out, r0, r1);
    } else {
      kernels::MatMulAcc(a, b, out, r0, r1);
    }
  });
}

}  // namespace

void Backend::MatMulAcc(const Tensor& a, const Tensor& b, Tensor* out) const {
  DispatchMatMul(*this, a, b, /*tail=*/nullptr, out);
}

void Backend::MatMulWithTail(const Tensor& a, const Tensor& b,
                             const kernels::MatMulTail& tail,
                             Tensor* out) const {
  DispatchMatMul(*this, a, b, &tail, out);
}

void Backend::MatMulTransAAcc(const Tensor& a, const Tensor& b,
                              Tensor* out) const {
  OODGNN_CHECK_EQ(a.rows(), b.rows());
  OODGNN_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  const std::int64_t flops =
      2ll * a.rows() * a.cols() * b.cols();
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kMatMulTransA, out->size(),
                    WouldParallelize(out->rows(), flops));
  ForCost(out->rows(), flops, [&](int r0, int r1) {
    if (use_simd) {
      simd::MatMulTransAAcc(a, b, out, r0, r1);
    } else {
      kernels::MatMulTransAAcc(a, b, out, r0, r1);
    }
  });
}

void Backend::MatMulTransBAcc(const Tensor& a, const Tensor& b,
                              Tensor* out) const {
  OODGNN_CHECK_EQ(a.cols(), b.cols());
  OODGNN_CHECK(out->rows() == a.rows() && out->cols() == b.rows());
  const std::int64_t flops =
      2ll * a.rows() * a.cols() * b.rows();
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kMatMulTransB, out->size(),
                    WouldParallelize(out->rows(), flops));
  ForCost(out->rows(), flops, [&](int r0, int r1) {
    if (use_simd) {
      simd::MatMulTransBAcc(a, b, out, r0, r1);
    } else {
      kernels::MatMulTransBAcc(a, b, out, r0, r1);
    }
  });
}

void Backend::Axpy(float alpha, const Tensor& x, Tensor* y) const {
  OODGNN_CHECK(x.SameShape(*y));
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kAxpy, y->size(),
                    WouldParallelize(y->size(), y->size()));
  ForCost(y->size(), y->size(), [&](int i0, int i1) {
    if (use_simd) {
      simd::Axpy(alpha, x, y, i0, i1);
    } else {
      kernels::Axpy(alpha, x, y, i0, i1);
    }
  });
}

void Backend::ScaleInPlace(float s, Tensor* y) const {
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kScale, y->size(),
                    WouldParallelize(y->size(), y->size()));
  ForCost(y->size(), y->size(), [&](int i0, int i1) {
    if (use_simd) {
      simd::Scale(y, s, i0, i1);
    } else {
      kernels::Scale(y, s, i0, i1);
    }
  });
}

void Backend::AddScalarAcc(float s, Tensor* y) const {
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kAddScalar, y->size(),
                    WouldParallelize(y->size(), y->size()));
  ForCost(y->size(), y->size(), [&](int i0, int i1) {
    if (use_simd) {
      simd::AddScalar(y, s, i0, i1);
    } else {
      kernels::AddScalar(y, s, i0, i1);
    }
  });
}

void Backend::Hadamard(const Tensor& a, const Tensor& b, Tensor* out) const {
  OODGNN_CHECK(a.SameShape(b) && a.SameShape(*out));
  RunMirrored(*this, KernelOp::kHadamard, kernels::Hadamard, simd::Hadamard,
              a, b, out, out->size(), out->size());
}

void Backend::HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y) const {
  OODGNN_CHECK(g.SameShape(x) && g.SameShape(*y));
  RunMirrored(*this, KernelOp::kHadamardAcc, kernels::HadamardAcc,
              simd::HadamardAcc, g, x, y, y->size(), y->size());
}

void Backend::Relu(const Tensor& x, Tensor* out) const {
  OODGNN_CHECK(x.SameShape(*out));
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  const std::int64_t flops = 2ll * out->size();
  KernelScope scope(KernelOp::kRelu, out->size(),
                    WouldParallelize(out->size(), flops));
  ForCost(out->size(), flops, [&](int i0, int i1) {
    if (use_simd) {
      simd::Relu(x, out, i0, i1);
    } else {
      kernels::Relu(x, out, i0, i1);
    }
  });
}

void Backend::ReluBackwardAcc(const Tensor& g, const Tensor& x,
                              Tensor* dx) const {
  OODGNN_CHECK(g.SameShape(x) && g.SameShape(*dx));
  RunMirrored(*this, KernelOp::kReluBackward, kernels::ReluBackwardAcc,
              simd::ReluBackwardAcc, g, x, dx, dx->size(), 2ll * dx->size());
}

void Backend::SquareBackwardAcc(const Tensor& g, const Tensor& x,
                                Tensor* dx) const {
  OODGNN_CHECK(g.SameShape(x) && g.SameShape(*dx));
  RunMirrored(*this, KernelOp::kSquareBackward, kernels::SquareBackwardAcc,
              simd::SquareBackwardAcc, g, x, dx, dx->size(),
              2ll * dx->size());
}

void Backend::MulRowVec(const Tensor& a, const Tensor& row,
                        Tensor* out) const {
  OODGNN_CHECK(row.rows() == 1 && row.cols() == a.cols());
  OODGNN_CHECK(a.SameShape(*out));
  RunMirrored(*this, KernelOp::kMulRowVec, kernels::MulRowVec,
              simd::MulRowVec, a, row, out, out->rows(), out->size());
}

void Backend::MulRowVecAcc(const Tensor& g, const Tensor& row,
                           Tensor* dx) const {
  OODGNN_CHECK(row.rows() == 1 && row.cols() == g.cols());
  OODGNN_CHECK(g.SameShape(*dx));
  RunMirrored(*this, KernelOp::kMulRowVecAcc, kernels::MulRowVecAcc,
              simd::MulRowVecAcc, g, row, dx, dx->rows(), dx->size());
}

void Backend::DivRowVec(const Tensor& a, const Tensor& row,
                        Tensor* out) const {
  OODGNN_CHECK(row.rows() == 1 && row.cols() == a.cols());
  OODGNN_CHECK(a.SameShape(*out));
  RunMirrored(*this, KernelOp::kDivRowVec, kernels::DivRowVec,
              simd::DivRowVec, a, row, out, out->rows(), out->size());
}

void Backend::DivRowVecAcc(const Tensor& g, const Tensor& row,
                           Tensor* dx) const {
  OODGNN_CHECK(row.rows() == 1 && row.cols() == g.cols());
  OODGNN_CHECK(g.SameShape(*dx));
  RunMirrored(*this, KernelOp::kDivRowVecAcc, kernels::DivRowVecAcc,
              simd::DivRowVecAcc, g, row, dx, dx->rows(), dx->size());
}

void Backend::MulColVec(const Tensor& a, const Tensor& col,
                        Tensor* out) const {
  OODGNN_CHECK(col.rows() == a.rows() && col.cols() == 1);
  OODGNN_CHECK(a.SameShape(*out));
  RunMirrored(*this, KernelOp::kMulColVec, kernels::MulColVec,
              simd::MulColVec, a, col, out, out->rows(), out->size());
}

void Backend::MulColVecAcc(const Tensor& g, const Tensor& col,
                           Tensor* dx) const {
  OODGNN_CHECK(col.rows() == g.rows() && col.cols() == 1);
  OODGNN_CHECK(g.SameShape(*dx));
  RunMirrored(*this, KernelOp::kMulColVecAcc, kernels::MulColVecAcc,
              simd::MulColVecAcc, g, col, dx, dx->rows(), dx->size());
}

void Backend::ColumnSumAcc(const Tensor& a, Tensor* out) const {
  OODGNN_CHECK(out->rows() == 1 && out->cols() == a.cols());
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kColumnSum, a.size(),
                    WouldParallelize(a.cols(), a.size()));
  ForCost(a.cols(), a.size(), [&](int c0, int c1) {
    if (use_simd) {
      simd::ColumnSumAcc(a, out, c0, c1);
    } else {
      kernels::ColumnSumAcc(a, out, c0, c1);
    }
  });
}

void Backend::RowSumAcc(const Tensor& a, Tensor* out) const {
  OODGNN_CHECK(out->rows() == a.rows() && out->cols() == 1);
  KernelScope scope(KernelOp::kRowSum, a.size(),
                    WouldParallelize(a.rows(), a.size()));
  ForCost(a.rows(), a.size(), [&](int r0, int r1) {
    kernels::RowSumAcc(a, out, r0, r1);
  });
}

void Backend::RowBroadcastAcc(const Tensor& row, Tensor* out) const {
  OODGNN_CHECK(row.rows() == 1 && row.cols() == out->cols());
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kRowBroadcast, out->size(),
                    WouldParallelize(out->rows(), out->size()));
  ForCost(out->rows(), out->size(), [&](int r0, int r1) {
    if (use_simd) {
      simd::RowBroadcastAcc(row, out, r0, r1);
    } else {
      kernels::RowBroadcastAcc(row, out, r0, r1);
    }
  });
}

void Backend::ColBroadcastAcc(const Tensor& col, Tensor* out) const {
  OODGNN_CHECK(col.rows() == out->rows() && col.cols() == 1);
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kColBroadcast, out->size(),
                    WouldParallelize(out->rows(), out->size()));
  ForCost(out->rows(), out->size(), [&](int r0, int r1) {
    if (use_simd) {
      simd::ColBroadcastAcc(col, out, r0, r1);
    } else {
      kernels::ColBroadcastAcc(col, out, r0, r1);
    }
  });
}

void Backend::AddTransposedAcc(const Tensor& g, Tensor* out) const {
  OODGNN_CHECK(g.rows() == out->cols() && g.cols() == out->rows());
  KernelScope scope(KernelOp::kAddTransposed, out->size(),
                    WouldParallelize(out->rows(), out->size()));
  ForCost(out->rows(), out->size(), [&](int r0, int r1) {
    kernels::AddTransposedAcc(g, out, r0, r1);
  });
}

void Backend::HadamardColumnSumAcc(const Tensor& x, const Tensor& y,
                                   Tensor* out) const {
  OODGNN_CHECK(x.SameShape(y));
  OODGNN_CHECK(out->rows() == 1 && out->cols() == x.cols());
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kHadamardColumnSum, x.size(),
                    WouldParallelize(x.cols(), 2ll * x.size()));
  ForCost(x.cols(), 2ll * x.size(), [&](int c0, int c1) {
    if (use_simd) {
      simd::HadamardColumnSumAcc(x, y, out, c0, c1);
    } else {
      kernels::HadamardColumnSumAcc(x, y, out, c0, c1);
    }
  });
}

void Backend::HadamardRowSumAcc(const Tensor& x, const Tensor& y,
                                Tensor* out) const {
  OODGNN_CHECK(x.SameShape(y));
  OODGNN_CHECK(out->rows() == x.rows() && out->cols() == 1);
  KernelScope scope(KernelOp::kHadamardRowSum, x.size(),
                    WouldParallelize(x.rows(), 2ll * x.size()));
  ForCost(x.rows(), 2ll * x.size(), [&](int r0, int r1) {
    kernels::HadamardRowSumAcc(x, y, out, r0, r1);
  });
}

float Backend::Dot(const Tensor& a, const Tensor& b) const {
  OODGNN_CHECK(a.SameShape(b));
  KernelScope scope(KernelOp::kDot, a.size(), /*parallel=*/false);
  return kernels::Dot(a, b, 0, a.size());
}

void Backend::RffMap(const Tensor& z, const std::vector<int>& source_dim,
                     const std::vector<float>& omega,
                     const std::vector<float>& phase, bool linear_only,
                     float scale, Tensor* out) const {
  OODGNN_CHECK_EQ(out->rows(), z.rows());
  OODGNN_CHECK_EQ(out->cols(), static_cast<int>(source_dim.size()));
  OODGNN_CHECK_EQ(source_dim.size(), omega.size());
  OODGNN_CHECK_EQ(source_dim.size(), phase.size());
  const std::int64_t flops = 8ll * out->rows() * out->cols();
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kRffMap, out->size(),
                    WouldParallelize(out->rows(), flops));
  ForCost(out->rows(), flops, [&](int r0, int r1) {
    if (use_simd) {
      simd::RffMap(z, source_dim, omega, phase, linear_only, scale, out, r0,
                   r1);
    } else {
      kernels::RffMap(z, source_dim, omega, phase, linear_only, scale, out,
                      r0, r1);
    }
  });
}

void Backend::SoftmaxRows(const Tensor& a, Tensor* out) const {
  OODGNN_CHECK(a.SameShape(*out));
  KernelScope scope(KernelOp::kSoftmaxRows, out->size(),
                    WouldParallelize(a.rows(), 4ll * a.size()));
  ForCost(a.rows(), 4ll * a.size(), [&](int r0, int r1) {
    kernels::SoftmaxRows(a, out, r0, r1);
  });
}

void Backend::SoftmaxRowsBackwardAcc(const Tensor& y, const Tensor& g,
                                     Tensor* out) const {
  OODGNN_CHECK(y.SameShape(g) && y.SameShape(*out));
  KernelScope scope(KernelOp::kSoftmaxRowsBackward, out->size(),
                    WouldParallelize(y.rows(), 4ll * y.size()));
  ForCost(y.rows(), 4ll * y.size(), [&](int r0, int r1) {
    kernels::SoftmaxRowsBackwardAcc(y, g, out, r0, r1);
  });
}

void Backend::GatherRows(const Tensor& a, const std::vector<int>& index,
                         Tensor* out) const {
  OODGNN_CHECK(out->rows() == static_cast<int>(index.size()) &&
               out->cols() == a.cols());
  KernelScope scope(KernelOp::kGatherRows, out->size(),
                    WouldParallelize(out->rows(), out->size()));
  ForCost(out->rows(), out->size(), [&](int r0, int r1) {
    kernels::GatherRows(a, index, out, r0, r1);
  });
}

void Backend::GatherRowsAcc(const Tensor& g, const std::vector<int>& index,
                            Tensor* out) const {
  OODGNN_CHECK(out->rows() == static_cast<int>(index.size()) &&
               out->cols() == g.cols());
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kGatherRowsAcc, out->size(),
                    WouldParallelize(out->rows(), out->size()));
  ForCost(out->rows(), out->size(), [&](int r0, int r1) {
    if (use_simd) {
      simd::GatherRowsAcc(g, index, out, r0, r1);
    } else {
      kernels::GatherRowsAcc(g, index, out, r0, r1);
    }
  });
}

void Backend::ScatterAddRowsPlanned(const Tensor& a, const SegmentPlan& plan,
                                    Tensor* out) const {
  OODGNN_CHECK_EQ(a.rows(), plan.num_items());
  OODGNN_CHECK_EQ(a.cols(), out->cols());
  OODGNN_CHECK_EQ(out->rows(), plan.num_segments);
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(
      KernelOp::kScatterPlanned, a.size(),
      WouldParallelize(plan.num_segments, static_cast<std::int64_t>(a.size())));
  ForCost(plan.num_segments, static_cast<std::int64_t>(a.size()),
          [&](int s0, int s1) {
            if (use_simd) {
              simd::ScatterAddRowsPlanned(a, plan.perm, plan.offsets, out, s0,
                                          s1);
            } else {
              kernels::ScatterAddRowsPlanned(a, plan.perm, plan.offsets, out,
                                             s0, s1);
            }
          });
}

void Backend::GatherScatterAcc(const Tensor& h, const std::vector<int>& gather,
                               const SegmentPlan& plan, Tensor* out) const {
  OODGNN_CHECK_EQ(static_cast<int>(gather.size()), plan.num_items());
  OODGNN_CHECK_EQ(h.cols(), out->cols());
  OODGNN_CHECK_EQ(out->rows(), plan.num_segments);
  const std::int64_t flops =
      static_cast<std::int64_t>(plan.num_items()) * h.cols();
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kGatherScatter, flops,
                    WouldParallelize(plan.num_segments, flops));
  ForCost(plan.num_segments, flops, [&](int s0, int s1) {
    if (use_simd) {
      simd::GatherScatterAcc(h, gather, plan.offsets, out, s0, s1);
    } else {
      kernels::GatherScatterAcc(h, gather, plan.offsets, out, s0, s1);
    }
  });
}

void Backend::GatherScatterWeightedAcc(const Tensor& h, const Tensor& w,
                                       const std::vector<int>& gather,
                                       const SegmentPlan& plan,
                                       Tensor* out) const {
  OODGNN_CHECK_EQ(static_cast<int>(gather.size()), plan.num_items());
  OODGNN_CHECK_EQ(w.rows(), plan.num_items());
  OODGNN_CHECK_EQ(w.cols(), 1);
  OODGNN_CHECK_EQ(h.cols(), out->cols());
  OODGNN_CHECK_EQ(out->rows(), plan.num_segments);
  const std::int64_t flops =
      2ll * plan.num_items() * h.cols();
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kGatherScatterWeighted, flops,
                    WouldParallelize(plan.num_segments, flops));
  ForCost(plan.num_segments, flops, [&](int s0, int s1) {
    if (use_simd) {
      simd::GatherScatterWeightedAcc(h, w, plan.perm, gather, plan.offsets,
                                     out, s0, s1);
    } else {
      kernels::GatherScatterWeightedAcc(h, w, plan.perm, gather, plan.offsets,
                                        out, s0, s1);
    }
  });
}

void Backend::EdgeDotAcc(const Tensor& x, const Tensor& y,
                         const std::vector<int>& xi,
                         const std::vector<int>& yi, Tensor* out) const {
  OODGNN_CHECK_EQ(xi.size(), yi.size());
  OODGNN_CHECK_EQ(x.cols(), y.cols());
  OODGNN_CHECK_EQ(out->rows(), static_cast<int>(xi.size()));
  OODGNN_CHECK_EQ(out->cols(), 1);
  const int edges = static_cast<int>(xi.size());
  const std::int64_t flops = 2ll * edges * x.cols();
  KernelScope scope(KernelOp::kEdgeDot, flops,
                    WouldParallelize(edges, flops));
  ForCost(edges, flops, [&](int e0, int e1) {
    kernels::EdgeDotAcc(x, y, xi, yi, out, e0, e1);
  });
}

void Backend::SegmentExtremePlanned(const Tensor& a, const SegmentPlan& plan,
                                    bool is_max, Tensor* out,
                                    std::vector<int>* argrow) const {
  OODGNN_CHECK_EQ(a.rows(), plan.num_items());
  OODGNN_CHECK_EQ(a.cols(), out->cols());
  OODGNN_CHECK_EQ(out->rows(), plan.num_segments);
  OODGNN_CHECK_EQ(static_cast<int>(argrow->size()), out->size());
  KernelScope scope(
      KernelOp::kSegmentExtremePlanned, a.size(),
      WouldParallelize(plan.num_segments, static_cast<std::int64_t>(a.size())));
  ForCost(plan.num_segments, static_cast<std::int64_t>(a.size()),
          [&](int s0, int s1) {
            kernels::SegmentExtremePlanned(a, plan.perm, plan.offsets, is_max,
                                           out, argrow, s0, s1);
          });
}

void Backend::SegmentExtremeBackwardAcc(const Tensor& g,
                                        const std::vector<int>& argrow,
                                        Tensor* out) const {
  OODGNN_CHECK_EQ(static_cast<int>(argrow.size()), g.size());
  KernelScope scope(
      KernelOp::kSegmentExtremeBackward, g.size(),
      WouldParallelize(g.rows(), static_cast<std::int64_t>(g.size())));
  ForCost(g.rows(), static_cast<std::int64_t>(g.size()),
          [&](int s0, int s1) {
            kernels::SegmentExtremeBackwardAcc(g, argrow, out, s0, s1);
          });
}

void Backend::CopyRowsTo(const Tensor& src, Tensor* dst,
                         int dst_row_begin) const {
  OODGNN_CHECK_EQ(src.cols(), dst->cols());
  OODGNN_CHECK_LE(dst_row_begin + src.rows(), dst->rows());
  KernelScope scope(KernelOp::kCopyRows, src.size(),
                    WouldParallelize(src.rows(), src.size()));
  ForCost(src.rows(), src.size(), [&](int r0, int r1) {
    kernels::CopyRowsTo(src, dst, dst_row_begin, r0, r1);
  });
}

void Backend::DropoutMask(double p, float keep_scale, Rng* rng,
                          Tensor* mask) const {
  const std::uint64_t threshold = Rng::BernoulliThreshold(p);
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kDropoutMask, mask->size(), /*parallel=*/false);
  // One pass per run of words left in the engine's state block.
  for (int i = 0; i < mask->size();) {
    int count = 0;
    const std::uint64_t* words =
        rng->engine().TakeWords(mask->size() - i, &count);
    if (use_simd) {
      simd::DropoutMask(words, threshold, keep_scale, mask, i, i + count);
    } else {
      kernels::DropoutMask(words, threshold, keep_scale, mask, i, i + count);
    }
    i += count;
  }
}

void SerialBackend::For(int n, const std::function<void(int, int)>& fn) const {
  if (n > 0) fn(0, n);
}

ParallelBackend::ParallelBackend(int num_threads)
    : pool_(std::make_unique<ThreadPool>(num_threads)) {}

ParallelBackend::~ParallelBackend() = default;

int ParallelBackend::num_threads() const { return pool_->num_threads(); }

void ParallelBackend::For(int n,
                          const std::function<void(int, int)>& fn) const {
  pool_->ParallelFor(n, fn);
}

std::unique_ptr<Backend> MakeBackend(int threads) {
  if (threads <= 1) return std::make_unique<SerialBackend>();
  return std::make_unique<ParallelBackend>(threads);
}

Backend& GetBackend() {
  std::lock_guard<std::mutex> lock(g_backend_mu);
  if (!g_backend) g_backend = MakeBackend(ThreadCountFromEnv(1));
  return *g_backend;
}

void SetBackend(std::unique_ptr<Backend> backend) {
  OODGNN_CHECK(backend != nullptr);
  std::lock_guard<std::mutex> lock(g_backend_mu);
  g_backend = std::move(backend);
}

std::unique_ptr<Backend> ExchangeBackend(std::unique_ptr<Backend> backend) {
  OODGNN_CHECK(backend != nullptr);
  std::lock_guard<std::mutex> lock(g_backend_mu);
  std::unique_ptr<Backend> previous = std::move(g_backend);
  g_backend = std::move(backend);
  if (!previous) previous = MakeBackend(ThreadCountFromEnv(1));
  return previous;
}

void SetBackendThreads(int threads) { SetBackend(MakeBackend(threads)); }

}  // namespace oodgnn
