#include "src/gnn/pna_conv.h"

#include <cmath>

#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

PnaConv::PnaConv(int in_dim, int out_dim, float delta, Rng* rng)
    : delta_(delta),
      pre_(std::make_unique<Linear>(in_dim, out_dim, rng)),
      // 4 aggregators × 3 scalers of width out_dim, plus the self
      // embedding of width in_dim.
      post_(std::make_unique<Linear>(12 * out_dim + in_dim, out_dim, rng)) {
  OODGNN_CHECK_GT(delta, 0.f);
  RegisterModule(pre_.get());
  RegisterModule(post_.get());
}

Variable PnaConv::Forward(const Variable& h, const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());
  const int n = batch.num_nodes();
  Variable messages = pre_->Forward(h);

  Variable sum_agg;
  Variable mean_agg;
  Variable max_agg;
  Variable min_agg;
  if (batch.edge_src().empty()) {
    Tensor zeros(n, messages.cols());
    sum_agg = Variable::Constant(zeros);
    mean_agg = Variable::Constant(zeros);
    max_agg = Variable::Constant(zeros);
    min_agg = Variable::Constant(zeros);
  } else {
    // `gathered` feeds three aggregators, so it stays materialized (no
    // gather-scatter fusion).
    const SegmentPlanPtr by_dst = ByDst(batch.plan());
    Variable gathered = RowGather(messages, BySrc(batch.plan()));
    sum_agg = ScatterAddRows(gathered, by_dst);
    // Mean: divide by in-degree (zero-degree nodes keep zero rows).
    std::vector<float> inv_deg(static_cast<size_t>(n));
    for (int v = 0; v < n; ++v) {
      const int d = batch.in_degree()[static_cast<size_t>(v)];
      inv_deg[static_cast<size_t>(v)] =
          d > 0 ? 1.f / static_cast<float>(d) : 0.f;
    }
    mean_agg =
        MulColVec(sum_agg, Variable::Constant(Tensor::ColVector(inv_deg)));
    max_agg = SegmentMax(gathered, by_dst);
    min_agg = SegmentMin(gathered, by_dst);
  }

  // Degree scalers (Corso et al. Eq. 5): identity, amplification
  // log(d+1)/δ, attenuation δ/log(d+1).
  std::vector<float> amplify(static_cast<size_t>(n));
  std::vector<float> attenuate(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    const float log_deg = std::log(
        static_cast<float>(batch.in_degree()[static_cast<size_t>(v)] + 1));
    amplify[static_cast<size_t>(v)] = log_deg / delta_;
    attenuate[static_cast<size_t>(v)] =
        log_deg > 0.f ? delta_ / log_deg : 0.f;
  }
  Variable amp = Variable::Constant(Tensor::ColVector(amplify));
  Variable att = Variable::Constant(Tensor::ColVector(attenuate));

  std::vector<Variable> blocks;
  blocks.reserve(13);
  for (const Variable& agg : {mean_agg, max_agg, min_agg, sum_agg}) {
    blocks.push_back(agg);
    blocks.push_back(MulColVec(agg, amp));
    blocks.push_back(MulColVec(agg, att));
  }
  blocks.push_back(h);
  return post_->Forward(ConcatCols(blocks));
}

float ComputePnaDelta(const std::vector<const Graph*>& graphs) {
  double total = 0.0;
  int64_t count = 0;
  for (const Graph* g : graphs) {
    for (int d : g->InDegrees()) {
      total += std::log(static_cast<double>(d + 1));
      ++count;
    }
  }
  if (count == 0 || total <= 0.0) return 1.f;
  return static_cast<float>(total / static_cast<double>(count));
}

}  // namespace oodgnn
