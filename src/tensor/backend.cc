#include "src/tensor/backend.h"

#include <array>
#include <mutex>
#include <type_traits>
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
  kRowBroadcast,
  kHadamardRowSum,
  kDot,
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
  kMulColVec,
  kMulColVecAcc,
  kDropoutMask,
  kBatchNorm,
  kCenteredSquareSum,
  kBatchNormGradSums,
  kBatchNormGradX,
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
    case KernelOp::kRowBroadcast:
      return "row_broadcast";
    case KernelOp::kHadamardRowSum:
      return "hadamard_row_sum";
    case KernelOp::kDot:
      return "dot";
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
    case KernelOp::kMulColVec:
      return "mul_col_vec";
    case KernelOp::kMulColVecAcc:
      return "mul_col_vec_acc";
    case KernelOp::kDropoutMask:
      return "dropout_mask";
    case KernelOp::kBatchNorm:
      return "batch_norm";
    case KernelOp::kCenteredSquareSum:
      return "centered_square_sum";
    case KernelOp::kBatchNormGradSums:
      return "batch_norm_grad_sums";
    case KernelOp::kBatchNormGradX:
      return "batch_norm_grad_x";
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

/// SIMD dispatch split across the kernels with a vector body:
/// "kernel/simd/vector_calls" when the vector body ran,
/// "kernel/simd/scalar_calls" when such a kernel ran its scalar oracle
/// instead (simd::Enabled() false). Profiling-gated like KernelScope
/// so the common case stays one relaxed atomic load.
void RecordSimdDispatch(bool vector) {
  if (!obs::ProfilingEnabled()) return;
  static obs::Counter* vector_calls =
      &obs::MetricsRegistry::Global().GetCounter("kernel/simd/vector_calls");
  static obs::Counter* scalar_calls =
      &obs::MetricsRegistry::Global().GetCounter("kernel/simd/scalar_calls");
  (vector ? vector_calls : scalar_calls)->Increment();
}

/// The dispatch of every range-partitioned entry point: runs
/// body(args..., begin, end) over be.ForCost(n, flops), counted under
/// `op` with `elems` elements. The body is `vector` when the kernel has
/// one (non-null) and simd::Enabled(), else the scalar oracle; only a
/// kernel with a vector body records the SIMD dispatch split.
template <typename Body, typename... Args>
void Run(const Backend& be, KernelOp op, std::int64_t elems, int n,
         std::int64_t flops, Body scalar, std::type_identity_t<Body> vector,
         const Args&... args) {
  Body body = scalar;
  if (vector != nullptr) {
    const bool use_simd = simd::Enabled();
    RecordSimdDispatch(use_simd);
    if (use_simd) body = vector;
  }
  KernelScope scope(op, elems, be.WouldParallelize(n, flops));
  be.ForCost(n, flops, [&](int begin, int end) { body(args..., begin, end); });
}

/// Installs `backend` as the process-wide backend and returns the one
/// it replaces (null before the first GetBackend()).
std::unique_ptr<Backend> ExchangeBackend(std::unique_ptr<Backend> backend) {
  std::lock_guard<std::mutex> lock(g_backend_mu);
  return std::exchange(g_backend, std::move(backend));
}

}  // namespace

Backend::Backend(int num_threads)
    : pool_(std::make_unique<ThreadPool>(num_threads)) {}

Backend::~Backend() = default;

int Backend::num_threads() const { return pool_->num_threads(); }

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
  pool_->ParallelFor(n, fn);
}

void Backend::MatMulWithTail(const Tensor& a, const Tensor& b,
                             const kernels::MatMulTail& tail,
                             Tensor* out) const {
  OODGNN_CHECK_EQ(a.cols(), b.rows());
  OODGNN_CHECK(out->rows() == a.rows() && out->cols() == b.cols());
  Run(*this, KernelOp::kMatMul, out->size(), out->rows(),
      2ll * a.rows() * a.cols() * b.cols(), kernels::MatMulWithTail,
      simd::avx512::Available() ? simd::avx512::MatMulWithTail
                                : simd::MatMulWithTail,
      a, b, tail, out);
}

void Backend::MatMulTransAAcc(const Tensor& a, const Tensor& b,
                              Tensor* out) const {
  OODGNN_CHECK_EQ(a.rows(), b.rows());
  OODGNN_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  Run(*this, KernelOp::kMatMulTransA, out->size(), out->rows(),
      2ll * a.rows() * a.cols() * b.cols(), kernels::MatMulTransAAcc,
      simd::avx512::Available() ? simd::avx512::MatMulTransAAcc
                                : simd::MatMulTransAAcc,
      a, b, out);
}

void Backend::MatMulTransBAcc(const Tensor& a, const Tensor& b,
                              Tensor* out) const {
  OODGNN_CHECK_EQ(a.cols(), b.cols());
  OODGNN_CHECK(out->rows() == a.rows() && out->cols() == b.rows());
  Run(*this, KernelOp::kMatMulTransB, out->size(), out->rows(),
      2ll * a.rows() * a.cols() * b.rows(), kernels::MatMulTransBAcc,
      simd::avx512::Available() ? simd::avx512::MatMulTransBAcc
                                : simd::MatMulTransBAcc,
      a, b, out);
}

void Backend::Axpy(float alpha, const Tensor& x, Tensor* y) const {
  OODGNN_CHECK(x.SameShape(*y));
  Run(*this, KernelOp::kAxpy, y->size(), y->size(), y->size(), kernels::Axpy,
      simd::Axpy, alpha, x, y);
}

void Backend::ScaleInPlace(float s, Tensor* y) const {
  Run(*this, KernelOp::kScale, y->size(), y->size(), y->size(),
      kernels::Scale, simd::Scale, y, s);
}

void Backend::AddScalarAcc(float s, Tensor* y) const {
  Run(*this, KernelOp::kAddScalar, y->size(), y->size(), y->size(),
      kernels::AddScalar, nullptr, y, s);
}

void Backend::Hadamard(const Tensor& a, const Tensor& b, Tensor* out) const {
  OODGNN_CHECK(a.SameShape(b) && a.SameShape(*out));
  Run(*this, KernelOp::kHadamard, out->size(), out->size(), out->size(),
      kernels::Hadamard, simd::Hadamard, a, b, out);
}

void Backend::HadamardAcc(const Tensor& g, const Tensor& x, Tensor* y) const {
  OODGNN_CHECK(g.SameShape(x) && g.SameShape(*y));
  Run(*this, KernelOp::kHadamardAcc, y->size(), y->size(), y->size(),
      kernels::HadamardAcc, simd::HadamardAcc, g, x, y);
}

void Backend::Relu(const Tensor& x, Tensor* out) const {
  OODGNN_CHECK(x.SameShape(*out));
  Run(*this, KernelOp::kRelu, out->size(), out->size(), 2ll * out->size(),
      kernels::Relu, simd::Relu, x, out);
}

void Backend::ReluBackwardAcc(const Tensor& g, const Tensor& x,
                              Tensor* dx) const {
  OODGNN_CHECK(g.SameShape(x) && g.SameShape(*dx));
  Run(*this, KernelOp::kReluBackward, dx->size(), dx->size(),
      2ll * dx->size(), kernels::ReluBackwardAcc, simd::ReluBackwardAcc, g, x,
      dx);
}

void Backend::SquareBackwardAcc(const Tensor& g, const Tensor& x,
                                Tensor* dx) const {
  OODGNN_CHECK(g.SameShape(x) && g.SameShape(*dx));
  Run(*this, KernelOp::kSquareBackward, dx->size(), dx->size(),
      2ll * dx->size(), kernels::SquareBackwardAcc, nullptr, g, x, dx);
}

void Backend::MulColVec(const Tensor& a, const Tensor& col,
                        Tensor* out) const {
  OODGNN_CHECK(col.rows() == a.rows() && col.cols() == 1);
  OODGNN_CHECK(a.SameShape(*out));
  Run(*this, KernelOp::kMulColVec, out->size(), out->rows(), out->size(),
      kernels::MulColVec, simd::MulColVec, a, col, out);
}

void Backend::MulColVecAcc(const Tensor& g, const Tensor& col,
                           Tensor* dx) const {
  OODGNN_CHECK(col.rows() == g.rows() && col.cols() == 1);
  OODGNN_CHECK(g.SameShape(*dx));
  Run(*this, KernelOp::kMulColVecAcc, dx->size(), dx->rows(), dx->size(),
      kernels::MulColVecAcc, simd::MulColVecAcc, g, col, dx);
}

void Backend::ColumnSumAcc(const Tensor& a, Tensor* out) const {
  OODGNN_CHECK(out->rows() == 1 && out->cols() == a.cols());
  Run(*this, KernelOp::kColumnSum, a.size(), a.cols(), a.size(),
      kernels::ColumnSumAcc, simd::ColumnSumAcc, a, out);
}

void Backend::RowBroadcastAcc(const Tensor& row, Tensor* out) const {
  OODGNN_CHECK(row.rows() == 1 && row.cols() == out->cols());
  Run(*this, KernelOp::kRowBroadcast, out->size(), out->rows(), out->size(),
      kernels::RowBroadcastAcc, simd::RowBroadcastAcc, row, out);
}

void Backend::HadamardRowSumAcc(const Tensor& x, const Tensor& y,
                                Tensor* out) const {
  OODGNN_CHECK(x.SameShape(y));
  OODGNN_CHECK(out->rows() == x.rows() && out->cols() == 1);
  Run(*this, KernelOp::kHadamardRowSum, x.size(), x.rows(), 2ll * x.size(),
      kernels::HadamardRowSumAcc, nullptr, x, y, out);
}

void Backend::BatchNorm(const kernels::MatMulTail& tail, const Tensor& x,
                        Tensor* out) const {
  OODGNN_CHECK(x.SameShape(*out));
  Run(*this, KernelOp::kBatchNorm, out->size(), out->rows(),
      5ll * out->size(), kernels::ApplyTailRows, simd::ApplyTailRows, tail, x,
      out);
}

void Backend::CenteredSquareSumAcc(const Tensor& x, const Tensor& neg_mean,
                                   Tensor* out) const {
  OODGNN_CHECK(neg_mean.rows() == 1 && neg_mean.cols() == x.cols());
  OODGNN_CHECK(out->rows() == 1 && out->cols() == x.cols());
  Run(*this, KernelOp::kCenteredSquareSum, x.size(), x.cols(), 3ll * x.size(),
      kernels::CenteredSquareSumAcc, simd::CenteredSquareSumAcc, x,
      neg_mean.data(), out);
}

void Backend::BatchNormGradSumsAcc(const Tensor& g, const Tensor& y,
                                   const Tensor& x,
                                   const kernels::MatMulTail& tail,
                                   Tensor* dgamma, Tensor* dbeta,
                                   Tensor* dn_xhat) const {
  OODGNN_CHECK(g.SameShape(y) && g.SameShape(x));
  for (const Tensor* sum : {dgamma, dbeta, dn_xhat}) {
    OODGNN_CHECK(sum == nullptr ||
                 (sum->rows() == 1 && sum->cols() == x.cols()));
  }
  Run(*this, KernelOp::kBatchNormGradSums, x.size(), x.cols(), 8ll * x.size(),
      kernels::BatchNormGradSumsAcc, simd::BatchNormGradSumsAcc, g, y, x,
      tail, dgamma, dbeta, dn_xhat);
}

void Backend::BatchNormGradX(const Tensor& g, const Tensor& y,
                             const Tensor& x, const kernels::MatMulTail& tail,
                             const Tensor* dsq, bool accumulate, Tensor* dx,
                             Tensor* dx_sum) const {
  OODGNN_CHECK(g.SameShape(y) && g.SameShape(x) && g.SameShape(*dx));
  for (const Tensor* row : {dsq, static_cast<const Tensor*>(dx_sum)}) {
    OODGNN_CHECK(row == nullptr ||
                 (row->rows() == 1 && row->cols() == x.cols()));
  }
  const float* dsq_row = dsq != nullptr ? dsq->data() : nullptr;
  Run(*this, KernelOp::kBatchNormGradX, x.size(), x.cols(), 8ll * x.size(),
      kernels::BatchNormGradX, simd::BatchNormGradX, g, y, x, tail, dsq_row,
      accumulate, dx, dx_sum);
}

float Backend::Dot(const Tensor& a, const Tensor& b) const {
  OODGNN_CHECK(a.SameShape(b));
  const bool use_simd = simd::Enabled();
  RecordSimdDispatch(use_simd);
  KernelScope scope(KernelOp::kDot, a.size(), /*parallel=*/false);
  return use_simd ? simd::Dot(a, b) : kernels::Dot(a, b);
}

void Backend::RffMap(const Tensor& z, const std::vector<int>& source_dim,
                     const std::vector<float>& omega,
                     const std::vector<float>& phase, bool linear_only,
                     float scale, Tensor* out) const {
  OODGNN_CHECK_EQ(out->rows(), z.rows());
  OODGNN_CHECK_EQ(out->cols(), static_cast<int>(source_dim.size()));
  OODGNN_CHECK_EQ(source_dim.size(), omega.size());
  OODGNN_CHECK_EQ(source_dim.size(), phase.size());
  Run(*this, KernelOp::kRffMap, out->size(), out->rows(),
      8ll * out->rows() * out->cols(), kernels::RffMap, simd::RffMap, z,
      source_dim, omega, phase, linear_only, scale, out);
}

void Backend::GatherRows(const Tensor& a, const std::vector<int>& index,
                         Tensor* out) const {
  OODGNN_CHECK(out->rows() == static_cast<int>(index.size()) &&
               out->cols() == a.cols());
  Run(*this, KernelOp::kGatherRows, out->size(), out->rows(), out->size(),
      kernels::GatherRows, nullptr, a, index, out);
}

void Backend::GatherRowsAcc(const Tensor& g, const std::vector<int>& index,
                            Tensor* out) const {
  OODGNN_CHECK(out->rows() == static_cast<int>(index.size()) &&
               out->cols() == g.cols());
  Run(*this, KernelOp::kGatherRowsAcc, out->size(), out->rows(), out->size(),
      kernels::GatherRowsAcc, simd::GatherRowsAcc, g, index, out);
}

void Backend::ScatterAddRowsPlanned(const Tensor& a, const SegmentPlan& plan,
                                    Tensor* out) const {
  OODGNN_CHECK_EQ(a.rows(), plan.num_items());
  OODGNN_CHECK_EQ(a.cols(), out->cols());
  OODGNN_CHECK_EQ(out->rows(), plan.num_segments);
  // The gather-scatter kernel, gathering each segment's rows in plan
  // order.
  Run(*this, KernelOp::kScatterPlanned, a.size(), plan.num_segments,
      a.size(), kernels::GatherScatterAcc, simd::GatherScatterAcc, a,
      plan.perm, plan.offsets, out);
}

void Backend::GatherScatterAcc(const Tensor& h, const std::vector<int>& gather,
                               const SegmentPlan& plan, Tensor* out) const {
  OODGNN_CHECK_EQ(static_cast<int>(gather.size()), plan.num_items());
  OODGNN_CHECK_EQ(h.cols(), out->cols());
  OODGNN_CHECK_EQ(out->rows(), plan.num_segments);
  const std::int64_t flops =
      static_cast<std::int64_t>(plan.num_items()) * h.cols();
  Run(*this, KernelOp::kGatherScatter, flops, plan.num_segments, flops,
      kernels::GatherScatterAcc, simd::GatherScatterAcc, h, gather,
      plan.offsets, out);
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
  const std::int64_t flops = 2ll * plan.num_items() * h.cols();
  Run(*this, KernelOp::kGatherScatterWeighted, flops, plan.num_segments,
      flops, kernels::GatherScatterWeightedAcc,
      simd::GatherScatterWeightedAcc, h, w, plan.perm, gather, plan.offsets,
      out);
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
  Run(*this, KernelOp::kEdgeDot, flops, edges, flops, kernels::EdgeDotAcc,
      nullptr, x, y, xi, yi, out);
}

void Backend::SegmentExtremePlanned(const Tensor& a, const SegmentPlan& plan,
                                    bool is_max, Tensor* out,
                                    std::vector<int>* argrow) const {
  OODGNN_CHECK_EQ(a.rows(), plan.num_items());
  OODGNN_CHECK_EQ(a.cols(), out->cols());
  OODGNN_CHECK_EQ(out->rows(), plan.num_segments);
  OODGNN_CHECK_EQ(static_cast<int>(argrow->size()), out->size());
  Run(*this, KernelOp::kSegmentExtremePlanned, a.size(), plan.num_segments,
      a.size(), kernels::SegmentExtremePlanned, nullptr, a, plan.perm,
      plan.offsets, is_max, out, argrow);
}

void Backend::SegmentExtremeBackwardAcc(const Tensor& g,
                                        const std::vector<int>& argrow,
                                        Tensor* out) const {
  OODGNN_CHECK_EQ(static_cast<int>(argrow.size()), g.size());
  Run(*this, KernelOp::kSegmentExtremeBackward, g.size(), g.rows(), g.size(),
      kernels::SegmentExtremeBackwardAcc, nullptr, g, argrow, out);
}

void Backend::CopyRowsTo(const Tensor& src, Tensor* dst,
                         int dst_row_begin) const {
  OODGNN_CHECK_EQ(src.cols(), dst->cols());
  OODGNN_CHECK_LE(dst_row_begin + src.rows(), dst->rows());
  Run(*this, KernelOp::kCopyRows, src.size(), src.rows(), src.size(),
      kernels::CopyRowsTo, nullptr, src, dst, dst_row_begin);
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

Backend& GetBackend() {
  std::lock_guard<std::mutex> lock(g_backend_mu);
  if (!g_backend) g_backend = std::make_unique<Backend>(ThreadCountFromEnv(1));
  return *g_backend;
}

void SetBackendThreads(int threads) {
  ExchangeBackend(std::make_unique<Backend>(threads));
}

ScopedBackendThreads::ScopedBackendThreads(int threads)
    : previous_(ExchangeBackend(std::make_unique<Backend>(threads))) {}

ScopedBackendThreads::~ScopedBackendThreads() {
  ExchangeBackend(std::move(previous_));
}

}  // namespace oodgnn
