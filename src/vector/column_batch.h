#ifndef PHOTON_VECTOR_COLUMN_BATCH_H_
#define PHOTON_VECTOR_COLUMN_BATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "types/data_type.h"
#include "vector/column_vector.h"

namespace photon {

/// Default number of rows per batch. Sized so a handful of columns fit in L2
/// while still amortizing per-batch dispatch overhead.
constexpr int kDefaultBatchSize = 2048;

/// A collection of column vectors plus a *position list* designating which
/// row indices are active (§4.1, Figure 2). Filters deactivate rows by
/// shrinking the position list; data at inactive indices may still be valid
/// and must never be overwritten (§4.3).
class ColumnBatch {
 public:
  ColumnBatch(Schema schema, int capacity)
      : schema_(std::move(schema)), capacity_(capacity) {
    owned_.reserve(schema_.num_fields());
    for (int i = 0; i < schema_.num_fields(); i++) {
      owned_.push_back(
          std::make_unique<ColumnVector>(schema_.field(i).type, capacity));
      columns_.push_back(owned_.back().get());
    }
    pos_list_.resize(capacity);
  }

  /// Creates a batch whose columns are *views*: raw pointers installed later
  /// via SetColumnView. Used by Project, which returns expression results
  /// without copying them (the vectors stay owned by its EvalContext), and
  /// by the in-memory scan, which lends the table's vectors.
  static std::unique_ptr<ColumnBatch> MakeView(Schema schema, int capacity) {
    auto batch =
        std::unique_ptr<ColumnBatch>(new ColumnBatch(capacity));
    batch->schema_ = std::move(schema);
    batch->columns_.assign(batch->schema_.num_fields(), nullptr);
    return batch;
  }

  /// Points column `i` at an externally owned vector (view batches only).
  void SetColumnView(int i, ColumnVector* vec) {
    PHOTON_DCHECK(owned_.empty());
    columns_[i] = vec;
  }

  ColumnBatch(const ColumnBatch&) = delete;
  ColumnBatch& operator=(const ColumnBatch&) = delete;

  const Schema& schema() const { return schema_; }
  int capacity() const { return capacity_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  ColumnVector* column(int i) { return columns_[i]; }
  const ColumnVector* column(int i) const { return columns_[i]; }

  /// Rows physically populated in the vectors (active or not).
  int num_rows() const { return num_rows_; }
  void set_num_rows(int n) {
    PHOTON_DCHECK(n <= capacity_);
    num_rows_ = n;
    if (all_active_) num_active_ = n;
  }

  /// Active-row interface -------------------------------------------------

  /// Number of rows that survive all filters applied so far.
  int num_active() const { return num_active_; }
  /// True when the position list is the identity [0, num_rows).
  bool all_active() const { return all_active_; }

  const int32_t* pos_list() const { return pos_list_.data(); }
  int32_t* mutable_pos_list() { return pos_list_.data(); }

  /// Row index of the i-th active row.
  int32_t ActiveRow(int i) const {
    return all_active_ ? i : pos_list_[i];
  }

  /// Marks all populated rows active (identity position list).
  void SetAllActive() {
    all_active_ = true;
    num_active_ = num_rows_;
  }

  /// Installs an explicit position list of length n (ascending row indices,
  /// a subset of the previous active set).
  void SetActiveRows(int n) {
    PHOTON_DCHECK(n <= capacity_);
    all_active_ = false;
    num_active_ = n;
  }

  /// Fraction of populated rows still active; drives adaptive compaction.
  double Sparsity() const {
    return num_rows_ == 0
               ? 1.0
               : static_cast<double>(num_active_) / num_rows_;
  }

  /// Resets to an empty, all-active batch and clears metadata; var-len
  /// arenas are reset for reuse (§4.5). Owned columns only.
  void Reset() {
    num_rows_ = 0;
    num_active_ = 0;
    all_active_ = true;
    for (auto& col : owned_) {
      col->ResetMetadata();
      if (col->type().is_var_len()) col->var_pool()->Reset();
    }
  }

  /// Computes every column's unknown has-NULLs (and all-ASCII) metadata
  /// over the active rows. Producers of Table batches call this, or
  /// resolve it while they touch the rows: scans lend those vectors
  /// read-only (ColumnVector::MetadataResolved).
  void ResolveMetadata();

  std::string ToString() const;

 private:
  explicit ColumnBatch(int capacity) : capacity_(capacity) {
    pos_list_.resize(capacity);
  }

  Schema schema_;
  int capacity_;
  int num_rows_ = 0;
  std::vector<ColumnVector*> columns_;
  std::vector<std::unique_ptr<ColumnVector>> owned_;
  std::vector<int32_t> pos_list_;
  int num_active_ = 0;
  bool all_active_ = true;
};

/// How GatherRows moves string values: kCopy deep-copies the bytes into
/// the destination column's pool, kRef copies only the StringRef (the
/// caller guarantees the source bytes outlive every use of `dst`).
enum class StringGather { kCopy, kRef };

/// Column-at-a-time gather: copies rows `rows[0..n)` of every column of
/// `src` into rows [dst_begin, dst_begin + n) of the first
/// src.num_columns() columns of `dst` (same types), with one type dispatch
/// per column. `rows` must be active rows of `src`: the batch metadata
/// (has-NULLs, all-ASCII) of the gathered range is derived from them, and
/// a kCopy gather resolves all-ASCII from the bytes it copies.
void GatherRows(const ColumnBatch& src, const int32_t* rows, int n,
                ColumnBatch* dst, int dst_begin, StringGather strings);

/// The active rows of `batch` as row indices, for GatherRows: its position
/// list, or `identity` filled with [0, num_active) when it is all-active.
const int32_t* ActiveRowIndices(const ColumnBatch& batch,
                                std::vector<int32_t>* identity);

/// Copies the active rows of `src` densely into a fresh batch whose position
/// list is the identity. This is the adaptive batch compaction of §4.6;
/// string bytes are copied so the result owns its data (stage sinks and
/// sort keep batches this way).
std::unique_ptr<ColumnBatch> CompactBatch(const ColumnBatch& src);

/// Copies active row `src_row` of `src` to `dst_row` in `dst` (schemas
/// must match), deep-copying strings: a one-row GatherRows for callers
/// that interleave sources row by row (sort merges, shuffle partitioning).
inline void CopyRow(const ColumnBatch& src, int32_t src_row, ColumnBatch* dst,
                    int dst_row) {
  GatherRows(src, &src_row, 1, dst, dst_row, StringGather::kCopy);
}

}  // namespace photon

#endif  // PHOTON_VECTOR_COLUMN_BATCH_H_
