#ifndef OODGNN_TRAIN_CHECKPOINT_H_
#define OODGNN_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/gnn/model_zoo.h"
#include "src/nn/optimizer.h"
#include "src/tensor/tensor.h"

namespace oodgnn {

/// Full snapshot of an in-flight training run (everything
/// TrainAndEvaluate mutates across epochs). Restoring a TrainState into
/// freshly constructed model/optimizer/reweighter objects and
/// continuing is bitwise identical to never having stopped: model
/// parameters, optimizer moments, the RNG stream, the shuffled epoch
/// order, the global-local weight bank (Eqs. 8–9), and the
/// best-validation bookkeeping are all captured.
struct TrainState {
  /// Run identity, validated before anything is restored so a
  /// checkpoint can never be resumed into a different experiment.
  std::string dataset_name;
  uint32_t method = 0;
  uint64_t seed = 0;
  uint32_t epochs = 0;
  uint32_t batch_size = 0;

  /// First epoch that has NOT been completed yet (resume entry point).
  uint32_t next_epoch = 0;

  /// Serialized Rng engine (Rng::SaveState) as of the end of the last
  /// completed epoch.
  std::string rng_state;

  /// The shuffled training order; the next epoch's shuffle permutes
  /// this in place, so it is part of the deterministic trajectory.
  std::vector<uint64_t> order;

  /// Model parameters in registration order, and the optimizer's slot
  /// state (Adam moments + step count).
  std::vector<Tensor> params;
  OptimizerState optimizer;

  /// Non-trainable module state (Module::Buffers), e.g. batch-norm
  /// running statistics. These evolve during training without
  /// gradients, and evaluation-mode forward passes read them, so
  /// omitting them would make a resumed run's metrics diverge even
  /// when the parameter trajectory is bitwise identical.
  std::vector<Tensor> buffers;

  /// Global-local weight bank (present only for OOD-GNN runs).
  bool has_bank = false;
  bool bank_initialized = false;
  std::vector<float> bank_gammas;
  std::vector<Tensor> bank_z;
  std::vector<Tensor> bank_w;

  /// Best-validation bookkeeping and the result-so-far (metrics at the
  /// best epoch, the loss curves, and any final-epoch weights).
  double best_valid = 0.0;
  double train_metric = -1.0;
  double valid_metric = -1.0;
  double test_metric = -1.0;
  double test2_metric = -1.0;
  std::vector<double> epoch_losses;
  std::vector<double> epoch_decorrelation_losses;
  std::vector<float> final_weights;
  std::vector<uint64_t> final_weight_graphs;
};

/// Exit code used by the crash-injection hooks; tests assert on it to
/// distinguish an injected crash from any other failure.
inline constexpr int kCrashExitCode = 137;

/// Canonical snapshot file name for one (dataset, method, seed) run
/// inside `dir` (empty dir means the current directory).
std::string CheckpointPath(const std::string& dir,
                           const std::string& dataset_name,
                           const std::string& method_name, uint64_t seed);

/// Creates `path` (and missing parents) like `mkdir -p`. Returns false
/// when a component exists as a non-directory or creation fails.
bool EnsureDirectory(const std::string& path);

/// Atomically writes `state` to `path` through WriteFramedFile
/// (src/nn/serialize.h): the framed payload (magic, version, size,
/// FNV-1a checksum) goes to `path + ".tmp"`, is fsynced, and only then
/// renamed over `path`, so a crash mid-write can never destroy the
/// previous snapshot. Honors the OODGNN_CRASH_IN_WRITE
/// fault hook (see below). Returns false on I/O failure.
bool SaveTrainState(const std::string& path, const TrainState& state);

/// Loads a snapshot written by SaveTrainState. Hardened against hostile
/// bytes: the header-declared payload size must match the file's actual
/// size, the checksum must verify, and every count inside the payload
/// is bounds-checked against the remaining bytes before allocation.
/// Returns false with a logged reason on any corruption; never crashes
/// or over-allocates.
bool LoadTrainState(const std::string& path, TrainState* state);

/// Restores `module`'s parameters and buffers — everything an eval
/// forward reads — from the checkpoint at `path`. The file is loaded
/// through LoadTrainState, then its method tag must equal `method` and
/// every tensor must match `module`'s shapes (MatchesModuleShapes)
/// before ApplyModuleState copies anything. On any failure it returns
/// false with a logged reason and leaves `module` untouched. This is
/// how a trained model is served (InferenceEngine::LoadCheckpoint).
bool LoadCheckpointWeights(const std::string& path, Method method,
                           Module* module);

/// Crash-injection hooks for fault-tolerance tests, driven by
/// environment variables (read at call time):
///  - OODGNN_CRASH_AFTER_EPOCH=<n>: the trainer calls
///    CrashAfterEpochRequested(n) after checkpointing epoch n and, if it
///    matches, terminates via CrashNow.
///  - OODGNN_CRASH_IN_WRITE=1: SaveTrainState aborts after writing a
///    partial temp file (exercising the atomic-rename protocol).
bool CrashAfterEpochRequested(int completed_epoch);
[[noreturn]] void CrashNow(const char* where);

}  // namespace oodgnn

#endif  // OODGNN_TRAIN_CHECKPOINT_H_
