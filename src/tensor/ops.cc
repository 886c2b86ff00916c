#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "src/tensor/backend.h"
#include "src/tensor/kernels.h"
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

/// Adds `self`'s gradient, unchanged, to `parent`'s. A parent with no
/// buffer yet takes self.grad's buffer instead of a zero-fill plus an
/// Axpy. That stores the same bits: a gradient buffer is only ever
/// written by accumulation onto a +0 fill, so it never holds −0, and
/// +0 + g is g. The hand-off empties self.grad, so this must be the
/// closure's last read of it.
void PassGrad(VariableNode& self, VariableNode& parent) {
  if (parent.grad.SameShape(parent.value)) {
    GetBackend().Axpy(1.f, self.grad, &parent.grad);
  } else {
    parent.grad = std::move(self.grad);
  }
}

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
      std::move(out), {pa}, [pa, dfn](VariableNode& self) {
        if (!pa->requires_grad) return;
        const Tensor& g = self.grad;
        Tensor& da = pa->GradBuffer();
        GetBackend().ForCost(g.size(), 2ll * g.size(), [&](int i0, int i1) {
          for (int i = i0; i < i1; ++i) {
            da[i] += g[i] * dfn(pa->value[i], self.value[i]);
          }
        });
      });
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  OODGNN_CHECK(a.defined() && b.defined());
  OODGNN_CHECK_EQ(a.cols(), b.rows()) << "MatMul shape mismatch";
  // The eval Linear's entry with an empty tail: sums start from +0 in
  // the kernel, so the output needs no zero fill.
  Tensor out = Tensor::Unfilled(a.rows(), b.cols());
  GetBackend().MatMulWithTail(a.value(), b.value(), kernels::MatMulTail{},
                              &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) {
          be.MatMulTransBAcc(self.grad, pb->value, &pa->GradBuffer());
        }
        if (pb->requires_grad) {
          be.MatMulTransAAcc(pa->value, self.grad, &pb->GradBuffer());
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
      std::move(out), {pa, pb}, [pa, pb](VariableNode& self) {
        // Only the last pass-through may hand self.grad over; Add(x, x)
        // adds it to x twice, as two Axpys.
        if (pa->requires_grad) {
          if (pb->requires_grad) {
            GetBackend().Axpy(1.f, self.grad, &pa->GradBuffer());
          } else {
            PassGrad(self, *pa);
          }
        }
        if (pb->requires_grad) PassGrad(self, *pb);
      });
}

Variable Sub(const Variable& a, const Variable& b) {
  OODGNN_CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  GetBackend().Axpy(-1.f, b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](VariableNode& self) {
        const Backend& be = GetBackend();
        // a's pass-through goes last, as it may hand self.grad over;
        // Sub(x, x) keeps x += g before x -= g.
        if (pa == pb) be.Axpy(1.f, self.grad, &pa->GradBuffer());
        if (pb->requires_grad) be.Axpy(-1.f, self.grad, &pb->GradBuffer());
        if (pa->requires_grad && pa != pb) PassGrad(self, *pa);
      });
}

Variable Mul(const Variable& a, const Variable& b) {
  OODGNN_CHECK(a.value().SameShape(b.value()));
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().Hadamard(a.value(), b.value(), &out);
  NodePtr pa = a.node();
  NodePtr pb = b.node();
  return Variable::MakeOp(
      std::move(out), {pa, pb}, [pa, pb](VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) {
          be.HadamardAcc(self.grad, pb->value, &pa->GradBuffer());
        }
        if (pb->requires_grad) {
          be.HadamardAcc(self.grad, pa->value, &pb->GradBuffer());
        }
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
      std::move(out), {pa, pb}, [pa, pb](VariableNode& self) {
        // a's pass-through goes last, as it may hand self.grad over. In
        // a 1-row AddRowVec(x, x) both contributions add the same g to
        // x, so their order cannot change a bit.
        if (pb->requires_grad) {
          GetBackend().ColumnSumAcc(self.grad, &pb->GradBuffer());
        }
        if (pa->requires_grad) PassGrad(self, *pa);
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
      std::move(out), {pa, pw}, [pa, pw](VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) {
          be.MulColVecAcc(self.grad, pw->value, &pa->GradBuffer());
        }
        if (pw->requires_grad) {
          be.HadamardRowSumAcc(self.grad, pa->value, &pw->GradBuffer());
        }
      });
}

Variable Scale(const Variable& a, float s) {
  Tensor out = a.value();
  GetBackend().ScaleInPlace(s, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, s](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().Axpy(s, self.grad, &pa->GradBuffer());
      });
}

Variable MulByScalarVar(const Variable& a, const Variable& s) {
  OODGNN_CHECK_EQ(s.value().size(), 1);
  Tensor out = a.value();
  GetBackend().ScaleInPlace(s.value()[0], &out);
  NodePtr pa = a.node();
  NodePtr ps = s.node();
  return Variable::MakeOp(
      std::move(out), {pa, ps}, [pa, ps](VariableNode& self) {
        const Backend& be = GetBackend();
        if (pa->requires_grad) {
          be.Axpy(ps->value[0], self.grad, &pa->GradBuffer());
        }
        if (ps->requires_grad) {
          ps->GradBuffer()[0] += be.Dot(self.grad, pa->value);
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
  return Variable::MakeOp(std::move(out), {pa}, [pa](VariableNode& self) {
    if (pa->requires_grad) PassGrad(self, *pa);
  });
}

Variable Relu(const Variable& a) {
  OODGNN_CHECK(a.defined());
  Tensor out = Tensor::Unfilled(a.rows(), a.cols());
  GetBackend().Relu(a.value(), &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().ReluBackwardAcc(self.grad, pa->value, &pa->GradBuffer());
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

Variable ExpOp(const Variable& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
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
      std::move(out), {pa}, [pa](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().SquareBackwardAcc(self.grad, pa->value, &pa->GradBuffer());
      });
}

Variable Sum(const Variable& a) {
  // Full-tensor scalar reduction: serial at every thread count (contract).
  Tensor out(1, 1, a.value().Sum());
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().AddScalarAcc(self.grad[0], &pa->GradBuffer());
      });
}

Variable MeanAll(const Variable& a) {
  OODGNN_CHECK_GT(a.value().size(), 0);
  return Scale(Sum(a), 1.f / static_cast<float>(a.value().size()));
}

// --- message passing over segment plans ---

Variable RowGather(const Variable& a, const SegmentPlanPtr& plan) {
  OODGNN_CHECK(plan != nullptr);
  OODGNN_CHECK_EQ(plan->num_segments, a.rows());
  Tensor out(plan->num_items(), a.cols());
  GetBackend().GatherRows(a.value(), plan->items, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, plan](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().ScatterAddRowsPlanned(self.grad, *plan, &pa->GradBuffer());
      });
}

Variable ScatterAddRows(const Variable& a, const SegmentPlanPtr& plan) {
  OODGNN_CHECK(plan != nullptr);
  OODGNN_CHECK_EQ(plan->num_items(), a.rows());
  Tensor out(plan->num_segments, a.cols());
  GetBackend().ScatterAddRowsPlanned(a.value(), *plan, &out);
  NodePtr pa = a.node();
  return Variable::MakeOp(
      std::move(out), {pa}, [pa, plan](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().GatherRowsAcc(self.grad, plan->items, &pa->GradBuffer());
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
      std::move(out), {pa}, [pa, argrow](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().SegmentExtremeBackwardAcc(self.grad, *argrow,
                                               &pa->GradBuffer());
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
      std::move(out), {ph}, [ph, plan](VariableNode& self) {
        if (!ph->requires_grad) return;
        // The adjoint is the transposed message pass: gradient rows
        // gathered by dst, accumulated into src segments.
        GetBackend().GatherScatterAcc(self.grad, plan->dst_by_src,
                                      plan->by_src, &ph->GradBuffer());
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
      std::move(out), {ph, pw}, [ph, pw, plan](VariableNode& self) {
        if (ph->requires_grad) {
          GetBackend().GatherScatterWeightedAcc(self.grad, pw->value,
                                                plan->dst_by_src, plan->by_src,
                                                &ph->GradBuffer());
        }
        if (pw->requires_grad) {
          GetBackend().EdgeDotAcc(self.grad, ph->value, plan->dst(),
                                  plan->src(), &pw->GradBuffer());
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
      std::move(out), nodes, [nodes](VariableNode& self) {
        const Backend& be = GetBackend();
        int offset = 0;
        for (const NodePtr& node : nodes) {
          const int cols = node->value.cols();
          if (node->requires_grad) {
            Tensor& grad = node->GradBuffer();
            be.ForCost(node->value.rows(), node->value.size(),
                       [&](int r0, int r1) {
                         for (int r = r0; r < r1; ++r) {
                           const float* grow = self.grad.row(r) + offset;
                           float* drow = grad.row(r);
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
      std::move(out), nodes, [nodes](VariableNode& self) {
        const Backend& be = GetBackend();
        int offset = 0;
        for (const NodePtr& node : nodes) {
          if (node->requires_grad) {
            const int part_rows = node->value.rows();
            Tensor& grad = node->GradBuffer();
            be.ForCost(part_rows, node->value.size(), [&](int r0, int r1) {
              for (int r = r0; r < r1; ++r) {
                const float* grow = self.grad.row(offset + r);
                float* drow = grad.row(r);
                for (int c = 0; c < self.grad.cols(); ++c) drow[c] += grow[c];
              }
            });
          }
          offset += node->value.rows();
        }
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
      std::move(out), {pa}, [pa, mask](VariableNode& self) {
        if (!pa->requires_grad) return;
        GetBackend().HadamardAcc(self.grad, *mask, &pa->GradBuffer());
      });
}

}  // namespace oodgnn
