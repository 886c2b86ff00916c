#include "src/serve/version.h"

#include <algorithm>
#include <utility>

namespace oodgnn {
namespace serve {

WeightVersionManager::WeightVersionManager(obs::MetricsRegistry* registry) {
  if (registry != nullptr) {
    current_gauge_ = &registry->GetGauge("serve/version/current");
    rollouts_counter_ = &registry->GetCounter("serve/version/rollouts");
    requests_counter_ = &registry->GetCounter("serve/version/requests");
  }
}

std::int64_t WeightVersionManager::Publish(std::vector<Tensor> params,
                                          std::vector<Tensor> buffers) {
  auto snapshot = std::make_shared<WeightSnapshot>();
  std::lock_guard<std::mutex> lock(mu_);
  snapshot->version = next_version_++;
  snapshot->params = std::move(params);
  snapshot->buffers = std::move(buffers);
  current_ = std::move(snapshot);
  ++rollouts_;
  if (rollouts_counter_ != nullptr) rollouts_counter_->Increment();
  if (current_gauge_ != nullptr) {
    current_gauge_->Set(static_cast<double>(current_->version));
  }
  return current_->version;
}

std::shared_ptr<const WeightSnapshot> WeightVersionManager::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::int64_t WeightVersionManager::current_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ != nullptr ? current_->version : 0;
}

void WeightVersionManager::RecordServed(std::int64_t version,
                                        std::int64_t requests) {
  if (requests <= 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::lower_bound(
        counts_.begin(), counts_.end(), version,
        [](const VersionCount& c, std::int64_t v) { return c.version < v; });
    if (it == counts_.end() || it->version != version) {
      it = counts_.insert(it, VersionCount{version, 0});
    }
    it->requests += requests;
  }
  if (requests_counter_ != nullptr) requests_counter_->Add(requests);
}

std::vector<VersionCount> WeightVersionManager::counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

std::int64_t WeightVersionManager::rollouts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rollouts_;
}

}  // namespace serve
}  // namespace oodgnn
