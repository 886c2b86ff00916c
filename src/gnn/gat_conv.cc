#include "src/gnn/gat_conv.h"

#include "src/nn/init.h"
#include "src/tensor/ops.h"
#include "src/util/check.h"

namespace oodgnn {

GatConv::GatConv(int in_dim, int out_dim, int num_heads, Rng* rng) {
  OODGNN_CHECK_GT(num_heads, 0);
  OODGNN_CHECK_EQ(out_dim % num_heads, 0)
      << "out_dim must be divisible by num_heads";
  const int head_dim = out_dim / num_heads;
  for (int h = 0; h < num_heads; ++h) {
    value_.push_back(
        std::make_unique<Linear>(in_dim, head_dim, rng, /*bias=*/false));
    RegisterModule(value_.back().get());
    attn_src_.push_back(RegisterParameter(GlorotUniform(head_dim, 1, rng)));
    attn_dst_.push_back(RegisterParameter(GlorotUniform(head_dim, 1, rng)));
  }
}

Variable GatConv::Forward(const Variable& h, const GraphBatch& batch) const {
  OODGNN_CHECK_EQ(h.rows(), batch.num_nodes());

  // Self loops guarantee every node attends to at least itself: the
  // batch's self-loop plan covers the original edges followed by one
  // self-loop per node.
  const SegmentPlanPtr by_src = BySrc(batch.self_loop_plan());
  const SegmentPlanPtr by_dst = ByDst(batch.self_loop_plan());
  // No gather-scatter fusion here: fusing the final aggregation would
  // move the message-path gradient ahead of the attention-score
  // gradients in transformed.grad's accumulation order.

  std::vector<Variable> head_outputs;
  head_outputs.reserve(value_.size());
  for (size_t head = 0; head < value_.size(); ++head) {
    Variable transformed = value_[head]->Forward(h);
    Variable src_score = MatMul(transformed, attn_src_[head]);  // [N,1]
    Variable dst_score = MatMul(transformed, attn_dst_[head]);  // [N,1]
    Variable edge_score = LeakyRelu(
        Add(RowGather(src_score, by_src), RowGather(dst_score, by_dst)));

    // Numerically stable segment softmax over each target's in-edges.
    Variable seg_max = SegmentMax(edge_score, by_dst);
    Variable shifted = Sub(edge_score, RowGather(seg_max, by_dst));
    Variable exp_score = ExpOp(shifted);
    Variable seg_sum = SegmentSum(exp_score, by_dst);
    Variable alpha =
        Mul(exp_score, Reciprocal(RowGather(seg_sum, by_dst)));

    Variable messages = MulColVec(RowGather(transformed, by_src), alpha);
    head_outputs.push_back(ScatterAddRows(messages, by_dst));
  }
  return ConcatCols(head_outputs);
}

}  // namespace oodgnn
