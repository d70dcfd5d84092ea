#ifndef PHOTON_EXPR_EVAL_CONTEXT_H_
#define PHOTON_EXPR_EVAL_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "vector/column_vector.h"

namespace photon {

/// Which expression-execution tier filter→project chains run on. The rule
/// is static, never timing-driven: `kCompiledOnly` (the default) runs a
/// fused unit's compiled terms and steps wherever it has them and the
/// fused interpreter everywhere else; `kFusedOnly` keeps every unit on the
/// fused interpreter; `kTreeOnly` disables fusion and runs one vectorized
/// FilterOperator/ProjectOperator per plan node. The differential fuzzer
/// pins each value (every tier must agree bit-for-bit) and the benches
/// measure them against each other.
enum class ExprPolicy : uint8_t {
  kTreeOnly,
  kFusedOnly,
  kCompiledOnly,
};

/// Per-task expression evaluation context. Owns the scratch vectors kernels
/// write into and recycles them across batches (§4.5): because the operator
/// tree is fixed, each input batch needs the same set of vector
/// allocations, so after the first batch every NewVector call is a cache
/// hit.
class EvalContext {
 public:
  EvalContext() = default;
  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  /// Returns a scratch vector valid until the next ResetPerBatch call.
  ColumnVector* NewVector(const DataType& type, int capacity) {
    uint64_t key = VectorKey(type, capacity);
    auto it = free_lists_.find(key);
    if (it != free_lists_.end() && !it->second.empty()) {
      std::unique_ptr<ColumnVector> vec = std::move(it->second.back());
      it->second.pop_back();
      vec->ResetMetadata();
      if (vec->type().is_var_len()) vec->var_pool()->Reset();
      pool_hits_++;
      in_use_.emplace_back(key, std::move(vec));
      return in_use_.back().second.get();
    }
    pool_misses_++;
    in_use_.emplace_back(key,
                         std::make_unique<ColumnVector>(type, capacity));
    // Scratch vectors start all-valid; kernels set nulls where needed.
    in_use_.back().second->nulls();  // ensure allocated
    return in_use_.back().second.get();
  }

  /// Recycles all scratch vectors handed out since the last reset. Any
  /// ColumnVector* previously returned is invalidated.
  void ResetPerBatch() {
    for (auto& [key, vec] : in_use_) {
      // Null bytes must be clean for the next user: kernels only write
      // nulls at active rows, so stale 1s at other rows would leak.
      std::memset(vec->nulls(), 0, vec->capacity());
      free_lists_[key].push_back(std::move(vec));
    }
    in_use_.clear();
  }

  int64_t pool_hits() const { return pool_hits_; }
  int64_t pool_misses() const { return pool_misses_; }

 private:
  static uint64_t VectorKey(const DataType& type, int capacity) {
    return (static_cast<uint64_t>(type.id()) << 56) |
           (static_cast<uint64_t>(type.precision() & 0xFF) << 48) |
           (static_cast<uint64_t>(type.scale() & 0xFF) << 40) |
           static_cast<uint64_t>(static_cast<uint32_t>(capacity));
  }

  std::unordered_map<uint64_t, std::vector<std::unique_ptr<ColumnVector>>>
      free_lists_;
  std::vector<std::pair<uint64_t, std::unique_ptr<ColumnVector>>> in_use_;
  int64_t pool_hits_ = 0;
  int64_t pool_misses_ = 0;
};

}  // namespace photon

#endif  // PHOTON_EXPR_EVAL_CONTEXT_H_
