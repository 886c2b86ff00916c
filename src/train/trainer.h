#ifndef OODGNN_TRAIN_TRAINER_H_
#define OODGNN_TRAIN_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/ood_gnn.h"
#include "src/gnn/model_zoo.h"
#include "src/graph/dataset.h"

namespace oodgnn {

/// Hyper-parameters shared by every method (§4.1.3 of the paper).
struct TrainConfig {
  int epochs = 30;
  int batch_size = 64;
  float lr = 1e-3f;
  float weight_decay = 0.f;
  uint64_t seed = 0;
  bool verbose = false;

  /// Evaluate (and run model selection) every `eval_every`-th epoch;
  /// the final epoch is always evaluated so a run never ends without
  /// metrics. Evaluation is grad-free, draws no randomness, and uses
  /// its own seed-derived Rng, so the training trajectory is bitwise
  /// identical for every eval cadence (pinned by a regression test).
  int eval_every = 1;

  /// Fault tolerance (src/train/checkpoint.h). With checkpoint_every
  /// > 0, a full TrainState snapshot is written atomically to
  /// checkpoint_dir after every checkpoint_every-th epoch. With resume,
  /// an existing compatible snapshot is restored first and training
  /// continues bitwise-identically to an uninterrupted run; an absent,
  /// corrupted, or incompatible snapshot logs a warning and starts
  /// fresh. Snapshots are keyed by (dataset, method, seed), so repeated
  /// seeds get independent files.
  int checkpoint_every = 0;
  std::string checkpoint_dir = "checkpoints";
  bool resume = false;

  /// Encoder hyper-parameters. feature_dim and pna_delta are filled in
  /// automatically from the dataset.
  EncoderConfig encoder;

  /// Reweighting hyper-parameters (used only by Method::kOodGnn).
  OodGnnConfig ood;
};

/// Outcome of one training run. Split metrics are reported at the epoch
/// with the best validation metric (higher-is-better for accuracy and
/// ROC-AUC, lower-is-better for RMSE); −1 marks an absent split.
struct TrainResult {
  double train_metric = -1.0;
  double valid_metric = -1.0;
  double test_metric = -1.0;
  double test2_metric = -1.0;

  /// Mean weighted prediction loss per epoch (the Fig. 3 curve).
  std::vector<double> epoch_losses;

  /// Decorrelation loss after the inner weight step, per epoch
  /// (OOD-GNN only).
  std::vector<double> epoch_decorrelation_losses;

  /// Learned sample weights collected over the final epoch (the Fig. 4
  /// histogram input; empty for baselines).
  std::vector<float> final_weights;

  /// Dataset indices aligned with final_weights: final_weights[i] is
  /// the weight learned for graphs[final_weight_graphs[i]]. Enables
  /// correlating weights with per-graph properties.
  std::vector<size_t> final_weight_graphs;

  int64_t num_parameters = 0;
  double train_seconds = 0.0;
};

/// The encoder TrainAndEvaluate builds for `method` on `dataset`:
/// `base` with the dataset's feature width and, for PNA, the degree
/// scaler of its train split. A server rebuilding a trained model for
/// its checkpoint starts from the same config.
EncoderConfig ModelEncoderConfig(Method method, const GraphDataset& dataset,
                                 const EncoderConfig& base);

/// Trains `method` on the dataset's train split and evaluates on every
/// split. Deterministic given config.seed.
TrainResult TrainAndEvaluate(Method method, const GraphDataset& dataset,
                             const TrainConfig& config);

/// Evaluates an already-trained model on the given index split with the
/// dataset's native metric (accuracy / ROC-AUC / RMSE).
double EvaluateSplit(GraphPredictionModel* model, const GraphDataset& dataset,
                     const std::vector<size_t>& indices, int batch_size,
                     Rng* rng);

/// True when a larger metric value is better for this task type
/// (accuracy, ROC-AUC); false for RMSE.
bool HigherIsBetter(TaskType type);

}  // namespace oodgnn

#endif  // OODGNN_TRAIN_TRAINER_H_
