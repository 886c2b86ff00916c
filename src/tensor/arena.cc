#include "src/tensor/arena.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "src/util/check.h"

namespace oodgnn {
namespace {

thread_local std::int64_t tls_heap_allocs = 0;

void AlignedFree(float* p) { std::free(p); }

#if defined(__SANITIZE_ADDRESS__)
/// Every block reserves one extra granule that stays poisoned, so a
/// write just past a tensor's aligned extent is reported instead of
/// landing in a neighbouring block.
constexpr std::size_t kRedzoneFloats = kTensorStorageAlignFloats;
void Poison(float* p, std::size_t n) {
  ASAN_POISON_MEMORY_REGION(p, n * sizeof(float));
}
void Unpoison(float* p, std::size_t n) {
  ASAN_UNPOISON_MEMORY_REGION(p, n * sizeof(float));
}
#else
constexpr std::size_t kRedzoneFloats = 0;
void Poison(float*, std::size_t) {}
void Unpoison(float*, std::size_t) {}
#endif

/// A fresh 64-byte-aligned heap block of `n_floats` floats (contents
/// unspecified) for an arena slab. Increments the thread's
/// heap-allocation counter.
std::shared_ptr<float> AllocateAlignedHeapBlock(std::size_t n_floats) {
  const std::size_t bytes =
      std::max<std::size_t>(AlignUpFloats(n_floats), kTensorStorageAlignFloats) *
      sizeof(float);
  // aligned_alloc requires the size to be a multiple of the alignment;
  // AlignUpFloats guarantees it.
  float* p = static_cast<float*>(
      std::aligned_alloc(kTensorStorageAlignBytes, bytes));
  OODGNN_CHECK(p != nullptr) << "aligned tensor allocation of " << bytes
                             << " bytes failed";
  ++tls_heap_allocs;
  return std::shared_ptr<float>(p, AlignedFree);
}

}  // namespace

std::int64_t TensorHeapAllocsThisThread() { return tls_heap_allocs; }

std::shared_ptr<float> AllocateTensorStorage(std::size_t n_floats) {
  thread_local Arena arena;
  return arena.Allocate(n_floats);
}

// ---------------------------------------------------------------------------
// Arena (first-fit slab allocator)
// ---------------------------------------------------------------------------

struct Arena::State {
  struct Slab {
    std::shared_ptr<float> base;
    std::size_t capacity = 0;  // floats
    /// Free extents, offset -> length (floats); adjacent holes are
    /// coalesced on free.
    std::map<std::size_t, std::size_t> holes;
  };

  mutable std::mutex mu;
  std::vector<Slab> slabs;  // guarded by mu
  ArenaStats stats;         // guarded by mu

  ~State() {
    for (Slab& slab : slabs) Unpoison(slab.base.get(), slab.capacity);
  }

  /// Appends a slab of `capacity` floats, all of it one poisoned hole.
  void AddSlab(std::size_t capacity) {
    Slab slab;
    slab.base = AllocateAlignedHeapBlock(capacity);
    slab.capacity = capacity;
    slab.holes.emplace(0, capacity);
    Poison(slab.base.get(), capacity);
    slabs.push_back(std::move(slab));
    stats.slab_bytes += static_cast<std::int64_t>(capacity * sizeof(float));
    stats.slab_count += 1;
  }

  void Free(std::size_t slab_index, std::size_t offset, std::size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    Slab& slab = slabs[slab_index];
    Poison(slab.base.get() + offset, n);
    auto [it, inserted] = slab.holes.emplace(offset, n);
    OODGNN_CHECK(inserted) << "double free in arena";
    // Coalesce with the following hole, then with the preceding one.
    auto next = std::next(it);
    if (next != slab.holes.end() && it->first + it->second == next->first) {
      it->second += next->second;
      slab.holes.erase(next);
    }
    if (it != slab.holes.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second == it->first) {
        prev->second += it->second;
        slab.holes.erase(it);
      }
    }
    stats.live_floats -= static_cast<std::int64_t>(n);
  }
};

Arena::Arena(std::size_t initial_floats) : state_(std::make_shared<State>()) {
  state_->AddSlab(
      std::max(AlignUpFloats(initial_floats), kTensorStorageAlignFloats));
}

std::shared_ptr<float> Arena::Allocate(std::size_t n_floats) {
  const std::size_t usable =
      std::max(AlignUpFloats(n_floats), kTensorStorageAlignFloats);
  const std::size_t n = usable + kRedzoneFloats;
  State& state = *state_;
  std::size_t slab_index = 0;
  std::size_t offset = 0;
  float* ptr = nullptr;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    std::map<std::size_t, std::size_t>::iterator hole;
    for (; slab_index < state.slabs.size(); ++slab_index) {
      auto& holes = state.slabs[slab_index].holes;
      hole = std::find_if(holes.begin(), holes.end(),
                          [n](const auto& h) { return h.second >= n; });
      if (hole != holes.end()) break;
    }
    if (slab_index == state.slabs.size()) {
      // No hole fits: grow by a doubling slab (at least n).
      state.AddSlab(std::max(n, state.slabs.back().capacity * 2));
      hole = state.slabs.back().holes.begin();
    }
    State::Slab& slab = state.slabs[slab_index];
    offset = hole->first;
    ptr = slab.base.get() + offset;
    // Re-key the hole to its remaining tail without a map allocation,
    // or drop it when the block fills it exactly.
    auto node = slab.holes.extract(hole);
    if (node.mapped() > n) {
      node.key() += n;
      node.mapped() -= n;
      slab.holes.insert(std::move(node));
    }
    Unpoison(ptr, usable);
    state.stats.allocs += 1;
    state.stats.live_floats += static_cast<std::int64_t>(n);
    state.stats.peak_live_floats =
        std::max(state.stats.peak_live_floats, state.stats.live_floats);
  }
  // The deleter holds the arena state (and through it the slab), so a
  // block may outlive the Arena handle and the thread that owned it.
  return std::shared_ptr<float>(
      ptr, [state = state_, slab_index, offset, n](float*) {
        state->Free(slab_index, offset, n);
      });
}

ArenaStats Arena::stats() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->stats;
}

}  // namespace oodgnn
