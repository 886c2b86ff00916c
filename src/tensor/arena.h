#ifndef OODGNN_TENSOR_ARENA_H_
#define OODGNN_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace oodgnn {

// ---------------------------------------------------------------------------
// Tensor storage allocation (DESIGN.md §13).
//
// Every Tensor float buffer in the process comes out of the calling
// thread's Arena: a first-fit allocator over 64-byte-aligned heap slabs
// (so the SIMD kernels can assume aligned rows everywhere). A block's
// death returns its extent to the arena that served it, from whichever
// thread drops the last reference, so a steady sequence of same-shaped
// steps — training, eval or serving — stops touching the heap once the
// slabs have grown to fit it.
// ---------------------------------------------------------------------------

/// All tensor storage is aligned to this many bytes (one cache line;
/// also the widest vector register the SIMD kernels use).
inline constexpr std::size_t kTensorStorageAlignBytes = 64;

/// Block granularity in floats (64 bytes / sizeof(float)). Arena
/// offsets and capacities are multiples of this.
inline constexpr std::size_t kTensorStorageAlignFloats =
    kTensorStorageAlignBytes / sizeof(float);

/// `n` rounded up to the alignment granule (0 stays 0).
inline std::size_t AlignUpFloats(std::size_t n) {
  return (n + kTensorStorageAlignFloats - 1) & ~(kTensorStorageAlignFloats - 1);
}

/// Tensor-storage heap allocations (arena slabs) performed by the
/// calling thread since it started. Monotonic; read deltas around a
/// region to assert it allocates nothing.
std::int64_t TensorHeapAllocsThisThread();

/// The storage entry point Tensor uses: a block of `n_floats` floats
/// from the calling thread's Arena. The block may be freed from any
/// thread and may outlive the thread that allocated it.
std::shared_ptr<float> AllocateTensorStorage(std::size_t n_floats);

/// Live statistics of an Arena (floats, not bytes, unless suffixed).
struct ArenaStats {
  std::int64_t slab_bytes = 0;      ///< Total backing memory owned.
  std::int64_t live_floats = 0;     ///< Currently allocated floats.
  std::int64_t peak_live_floats = 0;
  std::int64_t allocs = 0;          ///< Blocks served since construction.
  std::int64_t slab_count = 0;
};

/// First-fit slab allocator. Blocks are served from doubling-capacity
/// slabs; a block's death returns its extent to a per-slab hole list
/// (coalescing with neighbours), so a repeated allocation pattern stops
/// growing after its first round. Slabs are never released before the
/// arena's state dies, and that state is kept alive by outstanding
/// block deleters, so a block may outlive the Arena handle. Thread-safe:
/// blocks may be freed from any thread.
///
/// In AddressSanitizer builds free extents are poisoned and every block
/// carries one poisoned granule past its aligned extent, so tensor
/// overruns are reported as they would be for separate heap blocks.
class Arena {
 public:
  /// `initial_floats` sizes the first slab (rounded up to alignment).
  explicit Arena(std::size_t initial_floats = 1 << 16);
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  std::shared_ptr<float> Allocate(std::size_t n_floats);

  ArenaStats stats() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace oodgnn

#endif  // OODGNN_TENSOR_ARENA_H_
