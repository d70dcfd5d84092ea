#ifndef PHOTON_VECTOR_VAR_LEN_POOL_H_
#define PHOTON_VECTOR_VAR_LEN_POOL_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "types/data_type.h"
#include "vector/buffer.h"

namespace photon {

/// Append-only arena for variable-length (string) data (§4.5). Freed
/// wholesale before each new batch is processed; individual strings are
/// never freed. Chunked so appends never invalidate previously returned
/// pointers.
class VarLenPool {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  explicit VarLenPool(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  /// Copies `len` bytes into the arena and returns a stable ref.
  StringRef AddString(const char* data, int32_t len) {
    char* dst = AllocateBytes(len);
    if (len > 0) std::memcpy(dst, data, len);
    return StringRef(dst, len);
  }
  StringRef AddString(const StringRef& s) {
    return AddString(s.data, s.len);
  }

  /// Reserves `len` writable bytes (caller fills them in).
  char* AllocateBytes(int32_t len) {
    if (len == 0) {
      static char kEmpty = 0;
      return &kEmpty;
    }
    if (current_ == nullptr ||
        used_ + static_cast<size_t>(len) > current_->capacity()) {
      NewChunk(static_cast<size_t>(len));
    }
    char* out = reinterpret_cast<char*>(current_->data()) + used_;
    used_ += static_cast<size_t>(len);
    total_bytes_ += static_cast<size_t>(len);
    return out;
  }

  /// Reserves `len` bytes aligned to `align` (a power of two up to the
  /// chunks' 64-byte alignment), for fixed-layout structs kept among the
  /// strings.
  void* AllocateAligned(int32_t len, size_t align) {
    size_t pad = (align - used_ % align) % align;
    if (current_ == nullptr ||
        used_ + pad + static_cast<size_t>(len) > current_->capacity()) {
      NewChunk(static_cast<size_t>(len));
    } else {
      used_ += pad;
    }
    return AllocateBytes(len);
  }

  /// Drops all strings; chunk memory of the first chunk is retained so the
  /// per-batch steady state does not reallocate.
  void Reset() {
    if (chunks_.size() > 1) {
      chunks_.resize(1);
    }
    current_ = chunks_.empty() ? nullptr : chunks_[0].get();
    used_ = 0;
    total_bytes_ = 0;
  }

  size_t total_bytes() const { return total_bytes_; }

 private:
  void NewChunk(size_t min_bytes) {
    size_t bytes = chunk_bytes_;
    while (bytes < min_bytes) bytes *= 2;
    chunks_.push_back(std::make_unique<Buffer>(bytes));
    current_ = chunks_.back().get();
    used_ = 0;
  }

  size_t chunk_bytes_;
  std::vector<std::unique_ptr<Buffer>> chunks_;
  Buffer* current_ = nullptr;
  size_t used_ = 0;
  size_t total_bytes_ = 0;
};

}  // namespace photon

#endif  // PHOTON_VECTOR_VAR_LEN_POOL_H_
