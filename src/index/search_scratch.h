// Reusable per-search scratch state for the HNSW hot path: an epoch-stamped
// visited list (O(1) reset instead of an O(n) allocation+memset per query)
// and the candidate/result containers, one set per thread so a steady-state
// Search performs no heap allocations at all.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/topk.h"

namespace dhnsw {

/// Visited-set with epoch stamps: Reset bumps the epoch instead of clearing
/// the array; the array is only zeroed when the 16-bit epoch wraps (every
/// 65535 resets) or the index grew past the array's size.
class VisitedList {
 public:
  void Reset(size_t n) {
    if (marks_.size() < n) {
      marks_.assign(n, 0);
      epoch_ = 1;
      return;
    }
    if (++epoch_ == 0) {
      std::fill(marks_.begin(), marks_.end(), uint16_t{0});
      epoch_ = 1;
    }
  }

  /// Marks `id` visited; returns whether it already was.
  bool TestAndSet(uint32_t id) noexcept {
    if (marks_[id] == epoch_) return true;
    marks_[id] = epoch_;
    return false;
  }

  bool Test(uint32_t id) const noexcept { return marks_[id] == epoch_; }

 private:
  std::vector<uint16_t> marks_;
  uint16_t epoch_ = 0;
};

/// Everything one in-flight search (or insert) needs. Containers keep their
/// capacity across uses, so after warm-up nothing here allocates.
struct SearchScratch {
  VisitedList visited;
  std::vector<Scored> frontier;  ///< min-heap (std::push_heap w/ reversed cmp)
  TopKHeap best{0};              ///< ef-bounded result heap
  std::vector<uint32_t> ids;     ///< unvisited-neighbor staging for batch scoring
  std::vector<float> dists;      ///< batch-kernel output
  // Construction-only working sets (insert path; not part of the
  // allocation-free Search contract).
  std::vector<Scored> candidates;    ///< per-layer ef_construction results
  std::vector<Scored> selected;      ///< SelectNeighbors output for the new node
  std::vector<Scored> shrink_scored; ///< back-link shrink candidate scores
  std::vector<Scored> shrink_out;    ///< back-link shrink re-selection
  std::vector<Scored> pruned;        ///< Algorithm 4 keepPrunedConnections pool
  std::vector<uint32_t> sel_ids;     ///< contiguous ids of selected (batch diversity)
  std::vector<uint32_t> nb_snapshot; ///< lock-held neighbor-list copy (parallel insert)

  /// Guarantees the batch-staging buffers can hold `n` entries.
  void EnsureBatchCapacity(size_t n) {
    if (ids.size() < n) ids.resize(n);
    if (dists.size() < n) dists.resize(n);
  }
};

/// The calling thread's scratch, shared by every index the thread searches.
/// Sharing is safe because a search or insert never nests inside another on
/// the same thread, and VisitedList::Reset grows the list to the largest
/// index seen. Once warm on one index, a first search on another allocates
/// nothing.
inline SearchScratch& ThreadScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

}  // namespace dhnsw
