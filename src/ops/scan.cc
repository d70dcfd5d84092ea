#include "ops/scan.h"

#include <cstring>

namespace photon {

Result<ColumnBatch*> InMemoryScanOperator::GetNextImpl() {
  const int end = end_ < 0 ? table_->num_batches() : end_;
  if (next_batch_ >= end) return nullptr;
  const ColumnBatch& src = table_->batch(next_batch_++);
  if (view_ == nullptr || view_->capacity() < src.num_rows()) {
    view_ = ColumnBatch::MakeView(table_->schema(),
                                  std::max(src.capacity(), kDefaultBatchSize));
  }
  for (int c = 0; c < src.num_columns(); c++) {
    // Lent vectors are read-only: resolved metadata means no kernel's
    // Compute* call writes into the shared table.
    PHOTON_DCHECK(src.column(c)->MetadataResolved());
    view_->SetColumnView(c, const_cast<ColumnVector*>(src.column(c)));
  }
  view_->set_num_rows(src.num_rows());
  if (src.all_active()) {
    view_->SetAllActive();
  } else {
    std::memcpy(view_->mutable_pos_list(), src.pos_list(),
                static_cast<size_t>(src.num_active()) * sizeof(int32_t));
    view_->SetActiveRows(src.num_active());
  }
  return view_.get();
}

}  // namespace photon
