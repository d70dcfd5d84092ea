#ifndef PHOTON_VECTOR_COLUMN_VECTOR_H_
#define PHOTON_VECTOR_COLUMN_VECTOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/macros.h"
#include "types/data_type.h"
#include "types/value.h"
#include "vector/buffer.h"
#include "vector/var_len_pool.h"

namespace photon {

/// Tri-state batch-level metadata used for adaptive kernel dispatch (§4.6).
enum class TriState : uint8_t { kUnknown = 0, kYes = 1, kNo = 2 };

/// A single column holding one batch worth of values (§4.1): a contiguous
/// values buffer, a byte vector marking NULL-ness (1 = NULL), and
/// batch-level metadata such as whether any NULLs are present and whether
/// all string values are ASCII.
///
/// Fixed-width types store raw primitives; strings store StringRef entries
/// whose bytes live in the vector's VarLenPool (or external stable memory).
class ColumnVector {
 public:
  ColumnVector(DataType type, int capacity)
      : type_(type),
        capacity_(capacity),
        values_(static_cast<size_t>(capacity) * type.byte_width()),
        nulls_(static_cast<size_t>(capacity)) {
    nulls_.ZeroFill();
    if (type.is_var_len()) var_pool_ = std::make_unique<VarLenPool>();
  }

  ColumnVector(const ColumnVector&) = delete;
  ColumnVector& operator=(const ColumnVector&) = delete;

  const DataType& type() const { return type_; }
  int capacity() const { return capacity_; }

  /// Raw typed access to the values buffer.
  template <typename T>
  T* data() {
    return values_.as<T>();
  }
  template <typename T>
  const T* data() const {
    return values_.as<T>();
  }

  uint8_t* nulls() { return nulls_.as<uint8_t>(); }
  const uint8_t* nulls() const { return nulls_.as<uint8_t>(); }

  bool IsNull(int row) const { return nulls()[row] != 0; }
  void SetNull(int row) {
    nulls()[row] = 1;
    has_nulls_ = TriState::kYes;
  }
  void SetNotNull(int row) { nulls()[row] = 0; }

  /// Batch-level metadata ------------------------------------------------

  /// Whether any active row is NULL. kUnknown forces the conservative
  /// kernel; producers that know better set kNo to unlock the fast path.
  TriState has_nulls() const { return has_nulls_; }
  void set_has_nulls(TriState v) { has_nulls_ = v; }

  /// Whether all active string values are pure ASCII.
  TriState all_ascii() const { return all_ascii_; }
  void set_all_ascii(TriState v) { all_ascii_ = v; }

  /// Scans the null bytes of the given active rows and caches the result.
  /// This is the "discover batch properties at runtime" step of §4.6.
  bool ComputeHasNulls(const int32_t* pos_list, int num_rows,
                       bool all_active);

  /// Scans active string values for non-ASCII bytes and caches the result.
  bool ComputeAllAscii(const int32_t* pos_list, int num_rows,
                       bool all_active);

  /// True when has-NULLs (and all-ASCII, for strings) is known, so the
  /// Compute* calls only read it. Every batch a Table holds is resolved:
  /// scans lend those vectors to concurrent queries, which must not write.
  bool MetadataResolved() const {
    return has_nulls_ != TriState::kUnknown &&
           (!type_.is_string() || all_ascii_ != TriState::kUnknown);
  }

  void ResetMetadata() {
    has_nulls_ = TriState::kUnknown;
    all_ascii_ = TriState::kUnknown;
  }

  /// Variable-length storage ---------------------------------------------

  VarLenPool* var_pool() {
    PHOTON_DCHECK(var_pool_ != nullptr);
    return var_pool_.get();
  }

  /// Copies a string into the pool and stores the ref at `row`.
  void SetString(int row, const char* s, int32_t len) {
    data<StringRef>()[row] = var_pool_->AddString(s, len);
  }
  void SetString(int row, const std::string& s) {
    SetString(row, s.data(), static_cast<int32_t>(s.size()));
  }
  /// Stores a ref without copying; caller guarantees the bytes outlive the
  /// vector (used by zero-copy scans and dictionary-backed data).
  void SetStringRef(int row, StringRef ref) { data<StringRef>()[row] = ref; }

  StringRef GetString(int row) const { return data<StringRef>()[row]; }

  /// Boxed access for tests, debugging, and the transition node.
  Value GetValue(int row) const;
  void SetValue(int row, const Value& v);

 private:
  DataType type_;
  int capacity_;
  Buffer values_;
  Buffer nulls_;
  std::unique_ptr<VarLenPool> var_pool_;
  TriState has_nulls_ = TriState::kUnknown;
  TriState all_ascii_ = TriState::kUnknown;
};

}  // namespace photon

#endif  // PHOTON_VECTOR_COLUMN_VECTOR_H_
