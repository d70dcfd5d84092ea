#ifndef PHOTON_OPS_SCAN_H_
#define PHOTON_OPS_SCAN_H_

#include "ops/operator.h"
#include "vector/table.h"

namespace photon {

/// Scans the stored batches [begin_batch, end_batch) of an in-memory
/// Table (all of them by default; a range is one task's morsel), yielding
/// one batch per stored batch. Nothing is copied: each batch is a view that
/// lends the table's own column vectors (the source table outlives the
/// query) and carries its own position list, which is all a downstream
/// filter rewrites (§4.3). Lent vectors are read-only; the table's batches
/// carry resolved has-NULLs/all-ASCII metadata, so kernels that consult it
/// never write into them.
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
  std::unique_ptr<ColumnBatch> view_;
};

}  // namespace photon

#endif  // PHOTON_OPS_SCAN_H_
