#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/tensor/backend.h"
#include "src/util/check.h"
#include "src/util/rng.h"

// Thin autograd layer: every function here only validates shapes,
// builds VariableNodes and wires backward closures. All arithmetic is
// delegated to the active compute backend (src/tensor/backend.h), which
// drives the pure kernels in src/tensor/kernels.cc — serially or across
// a thread pool, with bitwise-identical results either way.

namespace oodgnn {
namespace {

using NodePtr = std::shared_ptr<VariableNode>;

/// Unary element-wise op helper: forward maps value, backward multiplies
/// upstream grad by a locally computed derivative. The map itself runs
/// under the backend's partitioned loop.
template <typename Fwd, typename Bwd>
Variable UnaryOp(const Variable& a, Fwd&& fwd, Bwd&& dfn) {
  OODGNN_CHECK(a.defined());
  const Tensor& av = a.value();
  Tensor out = Tensor::Unfilled(av.rows(), av.cols());
  GetBackend().ForCost(av.size(), 2ll * av.size(), [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) out[i] = fwd(av[i]);
  });
  NodePtr pa = a.node();
  // The derivative receives (input, output) so implementations can use
  // whichever is cheaper.
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, dfn](const VariableNode& self) {
        if (!pa->requires_grad) return;
        const Tensor& g = self.grad;
        GetBackend().ForCost(g.size(), 2ll * g.size(), [&](int i0, int i1) {
          for (int i = i0; i < i1; ++i) {
            pa->grad[i] += g[i] * dfn(pa->value[i], self.value[i]);
          }
        });
      });
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  OODGNN_CHECK(a.defined() && b.defined());
  OODGNN_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  Tensor out(a.rows(), b.cols());
  GetBackend().MatMulAcc(a.value(), b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) {
          be.MatMulTransBAcc(self.grad, pb->value, &pa->grad);
        }
        if (pb->requires_grad) {
          be.MatMulTransAAcc(pa->value, self.grad, &pb->grad);
        }
      });
}

Variable MatMulWithTail(const Variable& a, const Variable& b,
                        const kernels::MatMulTail& tail) {
  OODGNN_CHECK(!GradMode::Enabled()) << "MatMulWithTail builds no tape";
  OODGNN_CHECK(a.defined() && b.defined());
  OODGNN_CHECK_EQ(a.cols(), b.rows()) << "MatMulWithTail shape mismatch";
  Tensor out = Tensor::Unfilled(a.rows(), b.cols());
  GetBackend().MatMulWithTail(a.value(), b.value(), tail, &out);
  return Variable::Constant(std::move(out));
}

Variable Add(const Variable& a, const Variable& b) {
  OODGNN_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  GetBackend().Axpy(1.f, b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) be.Axpy(1.f, self.grad, &pa->grad);
        if (pb->requires_grad) be.Axpy(1.f, self.grad, &pb->grad);
      });
}

Variable Sub(const Variable& a, const Variable& b) {
  OODGNN_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  GetBackend().Axpy(-1.f, b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) be.Axpy(1.f, self.grad, &pa->grad);
        if (pb->requires_grad) be.Axpy(-1.f, self.grad, &pb->grad);
      });
}

Variable Mul(const Variable& a, const Variable& b) {
  OODGNN_CHECK(a.value().SameShape(b.value()));
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().Hadamard(a.value(), b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) be.HadamardAcc(self.grad, pb->value, &pa->grad);
        if (pb->requires_grad) be.HadamardAcc(self.grad, pa->value, &pb->grad);
      });
}

Variable AddRowVec(const Variable& a, const Variable& b) {
  OODGNN_CHECK_EQ(b.rows(), 1);
  OODGNN_CHECK_EQ(b.cols(), a.cols());
  Tensor out = a.value();
  GetBackend().RowBroadcastAcc(b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) be.Axpy(1.f, self.grad, &pa->grad);
        if (pb->requires_grad) be.ColumnSumAcc(self.grad, &pb->grad);
      });
}

Variable MulRowVec(const Variable& a, const Variable& b) {
  OODGNN_CHECK_EQ(b.rows(), 1);
  OODGNN_CHECK_EQ(b.cols(), a.cols());
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().MulRowVec(a.value(), b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) be.MulRowVecAcc(self.grad, pb->value, &pa->grad);
        if (pb->requires_grad) {
          be.HadamardColumnSumAcc(self.grad, pa->value, &pb->grad);
        }
      });
}

Variable DivRowVec(const Variable& a, const Variable& b) {
  OODGNN_CHECK_EQ(b.rows(), 1);
  OODGNN_CHECK_EQ(b.cols(), a.cols());
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().DivRowVec(a.value(), b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](const VariableNode& self) {
        const Backend& be = GetBackend();
        const Tensor& g = self.grad;
        if (pa->requires_grad) be.DivRowVecAcc(g, pb->value, &pa->grad);
        if (pb->requires_grad) {
          // d/db (a/b) = -y/b with y = a/b: column sums of g ⊙ y, scaled
          // by -1/b per column.
          Tensor colsum(1, g.cols());
          be.HadamardColumnSumAcc(g, self.value, &colsum);
          const float* brow = pb->value.row(0);
          float* out_row = pb->grad.row(0);
          for (int c = 0; c < g.cols(); ++c) {
            out_row[c] -= colsum.at(0, c) / brow[c];
          }
        }
      });
}

Variable MulColVec(const Variable& a, const Variable& w) {
  OODGNN_CHECK_EQ(w.cols(), 1);
  OODGNN_CHECK_EQ(w.rows(), a.rows());
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().MulColVec(a.value(), w.value(), &out);
  NodePtr pa = a.node();
  NodePtr pw = w.node();
  return Variable::MakeOp(
      std::move(out), {pa, pw}, [pa, pw](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) be.MulColVecAcc(self.grad, pw->value, &pa->grad);
        if (pw->requires_grad) {
          be.HadamardRowSumAcc(self.grad, pa->value, &pw->grad);
        }
      });
}

Variable Scale(const Variable& a, float s) {
  Tensor out = a.value();
  GetBackend().ScaleInPlace(s, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, s](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().Axpy(s, self.grad, &pa->grad);
      });
}

Variable MulByScalarVar(const Variable& a, const Variable& s) {
  OODGNN_CHECK_EQ(s.value().size(), 1);
  Tensor out = a.value();
  GetBackend().ScaleInPlace(s.value()[0], &out);
  NodePtr pa = a.node();
  NodePtr ps = s.node();
  return Variable::MakeOp(
      std::move(out), {pa, ps}, [pa, ps](const VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) {
          be.Axpy(ps->value[0], self.grad, &pa->grad);
        }
        if (ps->requires_grad) {
          ps->grad[0] += be.Dot(self.grad, pa->value);
        }
      });
}

Variable Reciprocal(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return 1.f / x; },
      [](float, float y) { return -y * y; });
}

Variable AddScalar(const Variable& a, float s) {
  Tensor out = a.value();
  GetBackend().AddScalarAcc(s, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(std::move(out), {pa},
                          [pa](const VariableNode& self) {
                            if (!pa->requires_grad) return;
                            GetBackend().Axpy(1.f, self.grad, &pa->grad);
                          });
}

Variable Relu(const Variable& a) {
  OODGNN_CHECK(a.defined());
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().Relu(a.value(), &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().ReluBackwardAcc(self.grad, pa->value, &pa->grad);
      });
}

Variable LeakyRelu(const Variable& a, float negative_slope) {
  return UnaryOp(
      a,
      [negative_slope](float x) {
        return x > 0.f ? x : negative_slope * x;
      },
      [negative_slope](float x, float) {
        return x > 0.f ? 1.f : negative_slope;
      });
}

Variable Sigmoid(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return 1.f / (1.f + std::exp(-x)); },
      [](float, float y) { return y * (1.f - y); });
}

Variable TanhOp(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.f - y * y; });
}

Variable CosOp(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return std::cos(x); },
      [](float x, float) { return -std::sin(x); });
}

Variable ExpOp(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Variable LogOp(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.f / x; });
}

Variable SqrtOp(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / std::max(y, 1e-12f); });
}

Variable Square(const Variable& a) {
  OODGNN_CHECK(a.defined());
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().Hadamard(a.value(), a.value(), &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().SquareBackwardAcc(self.grad, pa->value, &pa->grad);
      });
}

Variable AbsOp(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0.f ? 1.f : (x < 0.f ? -1.f : 0.f); });
}

Variable Sum(const Variable& a) {
  // Full-tensor scalar reduction: serial on every backend (contract).
  Tensor out(1, 1, a.value().Sum());
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().AddScalarAcc(self.grad[0], &pa->grad);
      });
}

Variable MeanAll(const Variable& a) {
  OODGNN_CHECK_GT(a.value().size(), 0);
  return Scale(Sum(a), 1.f / static_cast<float>(a.value().size()));
}

Variable SumRows(const Variable& a) {
  Tensor out(1, a.cols());
  GetBackend().ColumnSumAcc(a.value(), &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().RowBroadcastAcc(self.grad, &pa->grad);
      });
}

Variable SumCols(const Variable& a) {
  Tensor out(a.rows(), 1);
  GetBackend().RowSumAcc(a.value(), &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().ColBroadcastAcc(self.grad, &pa->grad);
      });
}

Variable MeanRows(const Variable& a) {
  OODGNN_CHECK_GT(a.rows(), 0);
  return Scale(SumRows(a), 1.f / static_cast<float>(a.rows()));
}

Variable Transpose(const Variable& a) {
  Tensor out = a.value().Transposed();
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().AddTransposedAcc(self.grad, &pa->grad);
      });
}

Variable SoftmaxRows(const Variable& a) {
  Tensor out(a.rows(), a.cols());
  GetBackend().SoftmaxRows(a.value(), &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().SoftmaxRowsBackwardAcc(self.value, self.grad, &pa->grad);
      });
}

// --- message passing over segment plans ---

Variable RowGather(const Variable& a, const SegmentPlanPtr& plan) {
  OODGNN_CHECK(plan != nullptr);
  OODGNN_CHECK_EQ(plan->num_segments, a.rows());
  Tensor out(plan->num_items(), a.cols());
  GetBackend().GatherRows(a.value(), plan->items, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, plan](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().ScatterAddRowsPlanned(self.grad, *plan, &pa->grad);
      });
}

Variable ScatterAddRows(const Variable& a, const SegmentPlanPtr& plan) {
  OODGNN_CHECK(plan != nullptr);
  OODGNN_CHECK_EQ(plan->num_items(), a.rows());
  Tensor out(plan->num_segments, a.cols());
  GetBackend().ScatterAddRowsPlanned(a.value(), *plan, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, plan](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().GatherRowsAcc(self.grad, plan->items, &pa->grad);
      });
}

Variable SegmentSum(const Variable& a, const SegmentPlanPtr& plan) {
  return ScatterAddRows(a, plan);
}

Variable SegmentMean(const Variable& a, const SegmentPlanPtr& plan) {
  OODGNN_CHECK(plan != nullptr);
  std::vector<float> inv_count(static_cast<size_t>(plan->num_segments));
  for (int s = 0; s < plan->num_segments; ++s) {
    const int count = plan->SegmentSize(s);
    inv_count[static_cast<size_t>(s)] =
        count > 0 ? 1.f / static_cast<float>(count) : 0.f;
  }
  Variable sum = ScatterAddRows(a, plan);
  Variable scale = Variable::Constant(Tensor::ColVector(inv_count));
  return MulColVec(sum, scale);
}

namespace {

Variable SegmentExtreme(const Variable& a, const SegmentPlanPtr& plan,
                        bool is_max) {
  OODGNN_CHECK(plan != nullptr);
  OODGNN_CHECK_EQ(plan->num_items(), a.rows());
  Tensor out(plan->num_segments, a.cols());
  auto argrow = std::make_shared<std::vector<int>>(
      static_cast<size_t>(plan->num_segments) * a.cols(), -1);
  GetBackend().SegmentExtremePlanned(a.value(), *plan, is_max, &out,
                                     argrow.get());
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, argrow](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().SegmentExtremeBackwardAcc(self.grad, *argrow, &pa->grad);
      });
}

}  // namespace

Variable SegmentMax(const Variable& a, const SegmentPlanPtr& plan) {
  return SegmentExtreme(a, plan, /*is_max=*/true);
}

Variable SegmentMin(const Variable& a, const SegmentPlanPtr& plan) {
  return SegmentExtreme(a, plan, /*is_max=*/false);
}

Variable GatherScatter(const Variable& h, const MessagePlanPtr& plan) {
  OODGNN_CHECK(plan != nullptr);
  OODGNN_CHECK_EQ(plan->num_rows, h.rows());
  Tensor out(plan->num_rows, h.cols());
  GetBackend().GatherScatterAcc(h.value(), plan->src_by_dst, plan->by_dst,
                                &out);
  NodePtr ph = h.node();
  return Variable::MakeOp(
      std::move(out), {ph}, [ph, plan](const VariableNode& self) {
        if (!ph->requires_grad) return;
        // The adjoint is the transposed message pass: gradient rows
        // gathered by dst, accumulated into src segments.
        GetBackend().GatherScatterAcc(self.grad, plan->dst_by_src,
                                      plan->by_src, &ph->grad);
      });
}

Variable GatherScatterWeighted(const Variable& h, const Variable& w,
                               const MessagePlanPtr& plan) {
  OODGNN_CHECK(plan != nullptr);
  OODGNN_CHECK_EQ(plan->num_rows, h.rows());
  OODGNN_CHECK_EQ(w.rows(), plan->num_edges());
  OODGNN_CHECK_EQ(w.cols(), 1);
  Tensor out(plan->num_rows, h.cols());
  GetBackend().GatherScatterWeightedAcc(h.value(), w.value(), plan->src_by_dst,
                                        plan->by_dst, &out);
  NodePtr ph = h.node();
  NodePtr pw = w.node();
  return Variable::MakeOp(
      std::move(out), {ph, pw}, [ph, pw, plan](const VariableNode& self) {
        if (ph->requires_grad) {
          GetBackend().GatherScatterWeightedAcc(self.grad, pw->value,
                                                plan->dst_by_src, plan->by_src,
                                                &ph->grad);
        }
        if (pw->requires_grad) {
          GetBackend().EdgeDotAcc(self.grad, ph->value, plan->dst(),
                                  plan->src(), &pw->grad);
        }
      });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  OODGNN_CHECK(!parts.empty());
  const int rows = parts[0].rows();
  int total_cols = 0;
  for (const Variable& p : parts) {
    OODGNN_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
  }
  Tensor out(rows, total_cols);
  const Backend& be = GetBackend();
  int offset = 0;
  for (const Variable& p : parts) {
    const Tensor& pv = p.value();
    be.ForCost(rows, pv.size(), [&](int r0, int r1) {
      for (int r = r0; r < r1; ++r) {
        const float* src = pv.row(r);
        std::copy(src, src + pv.cols(), out.row(r) + offset);
      }
    });
    offset += p.cols();
  }
  std::vector<NodePtr> nodes;
  nodes.reserve(parts.size());
  for (const Variable& p : parts) nodes.push_back(p.node());
  return Variable::MakeOp(
      std::move(out), nodes, [nodes](const VariableNode& self) {
        const Backend& be = GetBackend();
        int offset = 0;
        for (const NodePtr& node : nodes) {
          const int cols = node->value.cols();
          if (node->requires_grad) {
            be.ForCost(node->value.rows(), node->value.size(),
                       [&](int r0, int r1) {
                         for (int r = r0; r < r1; ++r) {
                           const float* grow = self.grad.row(r) + offset;
                           float* drow = node->grad.row(r);
                           for (int c = 0; c < cols; ++c) drow[c] += grow[c];
                         }
                       });
          }
          offset += cols;
        }
      });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  OODGNN_CHECK(!parts.empty());
  const int cols = parts[0].cols();
  int total_rows = 0;
  for (const Variable& p : parts) {
    OODGNN_CHECK_EQ(p.cols(), cols);
    total_rows += p.rows();
  }
  Tensor out(total_rows, cols);
  const Backend& be = GetBackend();
  int offset = 0;
  for (const Variable& p : parts) {
    be.CopyRowsTo(p.value(), &out, offset);
    offset += p.rows();
  }
  std::vector<NodePtr> nodes;
  nodes.reserve(parts.size());
  for (const Variable& p : parts) nodes.push_back(p.node());
  return Variable::MakeOp(
      std::move(out), nodes, [nodes](const VariableNode& self) {
        const Backend& be = GetBackend();
        int offset = 0;
        for (const NodePtr& node : nodes) {
          if (node->requires_grad) {
            const int part_rows = node->value.rows();
            be.ForCost(part_rows, node->value.size(), [&](int r0, int r1) {
              for (int r = r0; r < r1; ++r) {
                const float* grow = self.grad.row(offset + r);
                float* drow = node->grad.row(r);
                for (int c = 0; c < self.grad.cols(); ++c) drow[c] += grow[c];
              }
            });
          }
          offset += node->value.rows();
        }
      });
}

Variable SliceRows(const Variable& a, int start, int len) {
  OODGNN_CHECK(start >= 0 && len >= 0 && start + len <= a.rows());
  Tensor out(len, a.cols());
  const Tensor& av = a.value();
  GetBackend().ForCost(len, out.size(), [&](int r0, int r1) {
    for (int r = r0; r < r1; ++r) {
      const float* src = av.row(start + r);
      std::copy(src, src + av.cols(), out.row(r));
    }
  });
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, start](const VariableNode& self) {
        if (!pa->requires_grad) return;
        const Tensor& g = self.grad;
        GetBackend().ForCost(g.rows(), g.size(), [&](int r0, int r1) {
          for (int r = r0; r < r1; ++r) {
            const float* grow = g.row(r);
            float* drow = pa->grad.row(start + r);
            for (int c = 0; c < g.cols(); ++c) drow[c] += grow[c];
          }
        });
      });
}

Variable Dropout(const Variable& a, float p, Rng* rng, bool training) {
  OODGNN_CHECK(p >= 0.f && p < 1.f);
  if (!training || p == 0.f) return a;
  auto mask =
      std::make_shared<Tensor>(Tensor::Unfilled(a.rows(), a.cols()));
  const float keep_scale = 1.f / (1.f - p);
  // Element i is dropped where the i-th rng->Bernoulli(p) would be true.
  GetBackend().DropoutMask(p, keep_scale, rng, mask.get());
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().Hadamard(a.value(), *mask, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, mask](const VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().HadamardAcc(self.grad, *mask, &pa->grad);
      });
}

Variable Clamp(const Variable& a, float lo, float hi) {
  OODGNN_CHECK_LE(lo, hi);
  return UnaryOp(
      a, [lo, hi](float x) { return std::clamp(x, lo, hi); },
      [lo, hi](float x, float) { return (x >= lo && x <= hi) ? 1.f : 0.f; });
}

}  // namespace oodgnn
