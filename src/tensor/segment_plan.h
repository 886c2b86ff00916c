#ifndef OODGNN_TENSOR_SEGMENT_PLAN_H_
#define OODGNN_TENSOR_SEGMENT_PLAN_H_

#include <memory>
#include <vector>

namespace oodgnn {

/// CSR-style plan over an integer index vector: the item order sorted
/// (stably) by segment id, plus per-segment offsets. Built once per
/// GraphBatch and reused by every gather/scatter kernel, which can then
/// parallelize over contiguous *segments* — each output row is owned by
/// exactly one chunk and its contributions are visited in ascending
/// original item order. That makes every kernel bitwise identical at
/// any thread count (DESIGN.md §12).
///
/// A plan owns its `items` and is immutable once shared, so it cannot
/// go stale; GraphBatch::FromTopology builds a batch's plans.
struct SegmentPlan {
  int num_segments = 0;

  /// The original segment/index vector the plan was built from.
  std::vector<int> items;

  /// Item positions sorted by segment, stable: within a segment,
  /// ascending original position.
  std::vector<int> perm;

  /// offsets[s]..offsets[s+1] delimit segment s inside `perm`;
  /// size num_segments + 1.
  std::vector<int> offsets;

  int num_items() const { return static_cast<int>(items.size()); }

  /// Items in segment s (= offsets[s+1] - offsets[s]).
  int SegmentSize(int s) const {
    return offsets[static_cast<size_t>(s) + 1] - offsets[static_cast<size_t>(s)];
  }

  /// Per-segment item counts — the shared in-degree helper (segment =
  /// edge destination ⇒ count = in-degree).
  std::vector<int> SegmentCounts() const;

  /// Builds the plan by stable counting sort; O(num_items +
  /// num_segments). Every entry of `items` must lie in
  /// [0, num_segments).
  static SegmentPlan Build(std::vector<int> items, int num_segments);
};

/// Paired plans for the directed message pattern
/// `RowGather(h, src) → ScatterAddRows(·, dst)` over one edge list:
/// the dst-sorted plan drives the forward scatter, the src-sorted twin
/// drives the RowGather gradient, and the pre-permuted gather arrays
/// let the fused kernels read h directly without materializing the
/// gathered edge tensor.
struct MessagePlan {
  /// Node count: rows of the gather source and of the scatter output.
  int num_rows = 0;

  /// Plan over edge destinations (items = dst).
  SegmentPlan by_dst;

  /// Plan over edge sources (items = src).
  SegmentPlan by_src;

  /// src[by_dst.perm[j]] — source row feeding slot j of the forward.
  std::vector<int> src_by_dst;

  /// dst[by_src.perm[j]] — gradient row feeding slot j of the backward.
  std::vector<int> dst_by_src;

  const std::vector<int>& src() const { return by_src.items; }
  const std::vector<int>& dst() const { return by_dst.items; }
  int num_edges() const { return by_dst.num_items(); }

  static MessagePlan Build(std::vector<int> src, std::vector<int> dst,
                           int num_rows);
};

/// Plans are shared into autograd closures (the tape may outlive the
/// batch that built them, e.g. pooled topologies moved between layers).
using SegmentPlanPtr = std::shared_ptr<const SegmentPlan>;
using MessagePlanPtr = std::shared_ptr<const MessagePlan>;

/// Aliased pointer to one side of a MessagePlan, keeping the whole plan
/// alive.
inline SegmentPlanPtr ByDst(const MessagePlanPtr& plan) {
  return SegmentPlanPtr(plan, &plan->by_dst);
}
inline SegmentPlanPtr BySrc(const MessagePlanPtr& plan) {
  return SegmentPlanPtr(plan, &plan->by_src);
}

}  // namespace oodgnn

#endif  // OODGNN_TENSOR_SEGMENT_PLAN_H_
