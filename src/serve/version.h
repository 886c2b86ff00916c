#ifndef OODGNN_SERVE_VERSION_H_
#define OODGNN_SERVE_VERSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/obs/metrics.h"
#include "src/tensor/tensor.h"

namespace oodgnn {
namespace serve {

/// One immutable published weight state: parameters + buffers in
/// module registration order, and the version id that tags every span
/// served from it.
struct WeightSnapshot {
  std::int64_t version = 0;
  std::vector<Tensor> params;
  std::vector<Tensor> buffers;
};

/// Per-version lifetime accounting (see WeightVersionManager::counts).
struct VersionCount {
  std::int64_t version = 0;
  std::int64_t requests = 0;  ///< Graphs served on this version.
};

/// Versioned hot weight rollout for the inference engine.
///
/// Publishers (SyncFrom from a live model, LoadCheckpoint from a
/// training checkpoint) push an immutable WeightSnapshot; workers poll
/// `current()` at their own batch boundaries and copy the snapshot into
/// their private replica when the version moved — so a rollout
/// staggers across workers instead of stopping the world, and two
/// workers may briefly serve different versions (each span carries the
/// version that served it).
///
/// Thread-safe. Snapshots are shared_ptr<const>: a worker mid-copy
/// pins the state it is reading even if a newer publish lands.
///
/// Registry metrics (null registry keeps the manager purely local):
///
///   gauge    serve/version/current    latest published version id
///   counter  serve/version/rollouts   publishes (including the initial)
///   counter  serve/version/requests   graphs served across all versions
class WeightVersionManager {
 public:
  explicit WeightVersionManager(obs::MetricsRegistry* registry);

  WeightVersionManager(const WeightVersionManager&) = delete;
  WeightVersionManager& operator=(const WeightVersionManager&) = delete;

  /// Publishes a new snapshot and returns its (monotonically
  /// increasing) version id. The replaced snapshot stays alive only
  /// while a worker still copies from it.
  std::int64_t Publish(std::vector<Tensor> params,
                       std::vector<Tensor> buffers);

  /// The snapshot workers should converge to. Null until the first
  /// Publish.
  std::shared_ptr<const WeightSnapshot> current() const;

  /// Latest published version id (0 before the first Publish).
  std::int64_t current_version() const;

  /// Attributes `requests` served graphs to `version`.
  void RecordServed(std::int64_t version, std::int64_t requests);

  /// Per-version served-request counts, sorted by version. Their sum
  /// is exactly the number of graphs executed — the attribution
  /// invariant the chaos suite pins.
  std::vector<VersionCount> counts() const;

  std::int64_t rollouts() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const WeightSnapshot> current_;   // guarded by mu_
  std::int64_t next_version_ = 1;                   // guarded by mu_
  std::int64_t rollouts_ = 0;                       // guarded by mu_
  std::vector<VersionCount> counts_;                // guarded by mu_

  // Null when constructed without a registry.
  obs::Gauge* current_gauge_ = nullptr;
  obs::Counter* rollouts_counter_ = nullptr;
  obs::Counter* requests_counter_ = nullptr;
};

}  // namespace serve
}  // namespace oodgnn

#endif  // OODGNN_SERVE_VERSION_H_
