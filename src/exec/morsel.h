#ifndef PHOTON_EXEC_MORSEL_H_
#define PHOTON_EXEC_MORSEL_H_

#include <algorithm>
#include <atomic>
#include <vector>

namespace photon {
namespace exec {

/// A contiguous range of work units — table batches or scan files — one
/// task's slice of a stage's input (morsel-driven parallelism). The
/// decomposition is a function of the input only, never of the thread
/// count, so a plan produces the same per-morsel partials (and therefore
/// the same final result) at any parallelism.
struct Morsel {
  int begin = 0;
  int end = 0;  // exclusive
};

/// Splits `total` units into morsels of `per_morsel` units (the last may
/// be short). `total == 0` yields one empty morsel so every stage runs at
/// least one task — scalar aggregates must still emit their empty-input
/// row.
inline std::vector<Morsel> SplitMorsels(int total, int per_morsel) {
  std::vector<Morsel> morsels;
  if (total <= 0) {
    morsels.push_back(Morsel{0, 0});
    return morsels;
  }
  for (int begin = 0; begin < total; begin += per_morsel) {
    morsels.push_back(Morsel{begin, std::min(total, begin + per_morsel)});
  }
  return morsels;
}

/// Shared work queue for one stage: workers claim the next morsel index
/// with a single atomic increment (no locks, no static partitioning), so
/// a task finishing a cheap morsel immediately steals the next one —
/// dynamic load balancing across skewed morsels.
class MorselQueue {
 public:
  explicit MorselQueue(int num_morsels) : num_(num_morsels) {}

  /// Claims the next morsel index, or -1 when the queue is drained.
  int Next() {
    int i = next_.fetch_add(1, std::memory_order_relaxed);
    return i < num_ ? i : -1;
  }

 private:
  std::atomic<int> next_{0};
  int num_;
};

}  // namespace exec
}  // namespace photon

#endif  // PHOTON_EXEC_MORSEL_H_
