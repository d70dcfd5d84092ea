#ifndef PHOTON_OPS_SCAN_H_
#define PHOTON_OPS_SCAN_H_

#include "ops/operator.h"
#include "vector/table.h"

namespace photon {

/// Scans the stored batches [begin_batch, end_batch) of an in-memory
/// Table (all of them by default; a range is one task's morsel), yielding
/// one batch per stored batch. Values and null bytes are copied into a
/// reusable scan-owned batch (string bytes are shared zero-copy: the source
/// table outlives the query), so downstream filters may freely rewrite the
/// position list without corrupting the table.
class InMemoryScanOperator : public Operator {
 public:
  /// `end_batch < 0` scans to the table's end.
  explicit InMemoryScanOperator(const Table* table, int begin_batch = 0,
                                int end_batch = -1)
      : Operator(table->schema()),
        table_(table),
        begin_(begin_batch),
        end_(end_batch) {}

  Status Open() override {
    next_batch_ = begin_;
    return Status::OK();
  }

  Result<ColumnBatch*> GetNextImpl() override;

  std::string name() const override { return "PhotonScan"; }

 private:
  const Table* table_;
  int begin_;
  int end_;  // exclusive; < 0 = the table's end
  int next_batch_ = 0;
  std::unique_ptr<ColumnBatch> out_;
};

/// Copies batch contents (values, nulls, activity) from src into dst;
/// string payload bytes are shared, not copied. dst must have the same
/// schema and at least the same capacity.
void CopyBatchShallow(const ColumnBatch& src, ColumnBatch* dst);

}  // namespace photon

#endif  // PHOTON_OPS_SCAN_H_
