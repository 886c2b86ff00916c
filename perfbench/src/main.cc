// perfbench_bench: one workload of the repository benchmark, in its own
// process. perfbench/run.py builds this binary, passes the workload's
// frozen parameters from perfbench/config.json, and turns the last
// stdout line into the benchmark result.
//
//   perfbench_bench --kind train|serve --seed N --seconds S --trace 0|1
//                   --dataset NAME --threads N --setup-repeats N
//                   [--trace-out PATH]
//                   train: --epochs N
//                   serve: --workers N --max-batch N --wait-us N
//                          --max-queue N --lo-rps R --hi-rps R
//                          --free-quota-rps R --quota-burst B
//                          --deadline-us N --slo-ms N
//                          --rollout-every-ms N --rounds N
//
// Every flag but --trace-out is required: config.json is the only
// record of the frozen values. Stdout: a provenance line, then the
// result line. Exit status is 0 only when every correctness gate held.

#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "src/tensor/backend.h"
#include "src/util/flags.h"

namespace {

/// Reads required flags, remembering the ones that are missing.
class RequiredFlags {
 public:
  explicit RequiredFlags(const oodgnn::Flags& flags) : flags_(flags) {}

  std::string String(const char* name) {
    return Need(name) ? flags_.GetString(name, "") : "";
  }
  int Int(const char* name) { return Need(name) ? flags_.GetInt(name, 0) : 0; }
  double Double(const char* name) {
    return Need(name) ? flags_.GetDouble(name, 0.0) : 0.0;
  }

  const std::vector<std::string>& missing() const { return missing_; }

 private:
  bool Need(const char* name) {
    if (flags_.Has(name)) return true;
    missing_.push_back(name);
    return false;
  }

  const oodgnn::Flags& flags_;
  std::vector<std::string> missing_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const oodgnn::Flags flags(argc, argv);

  // Ambient toggles (threads, compiled modes, quantization, forced
  // scalar kernels, profiling) would change what is measured.
  const std::vector<std::string> env = OodgnnEnvVars();
  if (!env.empty()) {
    std::fprintf(stderr, "perfbench: refusing to run with %s set\n",
                 env.front().c_str());
    return 2;
  }

  RequiredFlags required(flags);
  CommonOptions common;
  const std::string seed = required.String("seed");
  common.seconds = required.Double("seconds");
  common.trace = required.Int("trace") != 0;
  common.setup_repeats = required.Int("setup-repeats");
  common.trace_out = flags.GetString("trace-out", "");
  const int threads = required.Int("threads");
  const std::string kind = required.String("kind");
  const std::string dataset = required.String("dataset");

  TrainOptions train;
  ServeOptions serve;
  if (kind == "train") {
    train.dataset = dataset;
    train.epochs = required.Int("epochs");
  } else if (kind == "serve") {
    serve.dataset = dataset;
    serve.workers = required.Int("workers");
    serve.max_batch = required.Int("max-batch");
    serve.wait_us = required.Int("wait-us");
    serve.max_queue = required.Int("max-queue");
    serve.lo_rps = required.Double("lo-rps");
    serve.hi_rps = required.Double("hi-rps");
    serve.free_quota_rps = required.Double("free-quota-rps");
    serve.quota_burst = required.Double("quota-burst");
    serve.deadline_us = required.Int("deadline-us");
    serve.slo_ms = required.Double("slo-ms");
    serve.rollout_every_ms = required.Double("rollout-every-ms");
    serve.rounds = required.Int("rounds");
  } else if (required.missing().empty()) {
    std::fprintf(stderr, "perfbench: --kind must be train or serve\n");
    return 2;
  }
  if (!required.missing().empty()) {
    std::fprintf(stderr, "perfbench: missing --%s\n",
                 required.missing().front().c_str());
    return 2;
  }
  common.seed = std::stoull(seed);

  oodgnn::SetBackendThreads(threads);
  RunResult result;
  if (kind == "train") {
    std::printf("{\"provenance\":%s}\n", ProvenanceJson(0).c_str());
    result = RunTrainWorkload(common, train);
  } else {
    if (!(serve.lo_rps > 0 && serve.hi_rps > serve.lo_rps &&
          serve.free_quota_rps > 0 && serve.rounds > 0)) {
      std::fprintf(stderr,
                   "perfbench: serve needs 0 < --lo-rps < --hi-rps, "
                   "--free-quota-rps > 0 and --rounds > 0\n");
      return 2;
    }
    std::printf("{\"provenance\":%s}\n",
                ProvenanceJson(serve.workers).c_str());
    result = RunServeWorkload(common, serve);
  }
  result.correct = result.correct && result.failed == 0;
  PrintResult(result);
  return result.correct ? 0 : 1;
}
