// The perfbench workloads. Each runs in its own process (see
// perfbench/run.py) so peak RSS and set-up time are per workload.
//
// The option structs carry no defaults: every frozen value comes from
// perfbench/config.json through perfbench_bench's (required) flags.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/src/harness.h"

namespace perfbench {

/// Options shared by every workload.
struct CommonOptions {
  std::uint64_t seed{};   ///< Data, arrivals and model init.
  double seconds{};       ///< Measured phase length.
  bool trace{};           ///< Traced run: per-layer metrics only.
  int setup_repeats{};    ///< Set-ups timed; the median is reported.
  std::string trace_out;  ///< Span log path (traced runs); may be empty.
};

/// OOD-GNN training through TrainAndEvaluate (untraced), or through a
/// benchmark-side replica of its loop built from public calls (traced).
struct TrainOptions {
  std::string dataset;
  int epochs{};  ///< Epochs per TrainAndEvaluate call.
};

/// Open-loop Poisson traffic into an InferenceEngine at two fixed rates.
struct ServeOptions {
  std::string dataset;
  int workers{};
  int max_batch{};
  int wait_us{};
  int max_queue{};
  double lo_rps{};
  double hi_rps{};
  double free_quota_rps{};
  double quota_burst{};
  std::int64_t deadline_us{};
  double slo_ms{};
  double rollout_every_ms{};
  int rounds{};  ///< lo/hi tier pairs in an untraced run.
};

RunResult RunTrainWorkload(const CommonOptions& common,
                           const TrainOptions& options);
RunResult RunServeWorkload(const CommonOptions& common,
                           const ServeOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
