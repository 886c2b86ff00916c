#include "src/data/splits.h"

#include <algorithm>
#include <map>

#include "src/util/check.h"

namespace oodgnn {

void ScaffoldSplit(GraphDataset* dataset, double train_fraction,
                   double valid_fraction) {
  OODGNN_CHECK(dataset != nullptr);
  OODGNN_CHECK(train_fraction > 0 && valid_fraction >= 0 &&
               train_fraction + valid_fraction < 1.0);
  dataset->train_idx.clear();
  dataset->valid_idx.clear();
  dataset->test_idx.clear();

  std::map<int64_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < dataset->graphs.size(); ++i) {
    groups[dataset->graphs[i].scaffold_id].push_back(i);
  }
  std::vector<const std::vector<size_t>*> ordered;
  ordered.reserve(groups.size());
  for (const auto& [id, members] : groups) ordered.push_back(&members);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const std::vector<size_t>* a,
                      const std::vector<size_t>* b) {
                     return a->size() > b->size();
                   });

  const size_t total = dataset->graphs.size();
  const size_t train_cutoff =
      static_cast<size_t>(train_fraction * static_cast<double>(total));
  const size_t valid_cutoff = static_cast<size_t>(
      (train_fraction + valid_fraction) * static_cast<double>(total));
  size_t assigned = 0;
  for (const std::vector<size_t>* group : ordered) {
    std::vector<size_t>* target = nullptr;
    if (assigned < train_cutoff) {
      target = &dataset->train_idx;
    } else if (assigned < valid_cutoff) {
      target = &dataset->valid_idx;
    } else {
      target = &dataset->test_idx;
    }
    target->insert(target->end(), group->begin(), group->end());
    assigned += group->size();
  }
}

}  // namespace oodgnn
