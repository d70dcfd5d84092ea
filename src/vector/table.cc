#include "vector/table.h"

namespace photon {

std::vector<Value> Table::GetRow(int64_t row) const {
  for (const auto& b : batches_) {
    if (row < b->num_active()) {
      std::vector<Value> out;
      out.reserve(b->num_columns());
      int r = b->ActiveRow(static_cast<int>(row));
      for (int c = 0; c < b->num_columns(); c++) {
        out.push_back(b->column(c)->GetValue(r));
      }
      return out;
    }
    row -= b->num_active();
  }
  PHOTON_CHECK(false);
  return {};
}

std::vector<std::vector<Value>> Table::ToRows() const {
  std::vector<std::vector<Value>> out;
  out.reserve(static_cast<size_t>(num_rows()));
  for (const auto& b : batches_) {
    for (int i = 0; i < b->num_active(); i++) {
      int r = b->ActiveRow(i);
      std::vector<Value> row;
      row.reserve(b->num_columns());
      for (int c = 0; c < b->num_columns(); c++) {
        row.push_back(b->column(c)->GetValue(r));
      }
      out.push_back(std::move(row));
    }
  }
  return out;
}

void TableBuilder::AppendRow(const std::vector<Value>& row) {
  PHOTON_CHECK(static_cast<int>(row.size()) == table_.schema().num_fields());
  if (current_ == nullptr) {
    current_ = std::make_unique<ColumnBatch>(table_.schema(), batch_size_);
    current_rows_ = 0;
  }
  for (size_t c = 0; c < row.size(); c++) {
    current_->column(static_cast<int>(c))
        ->SetValue(current_rows_, row[c]);
  }
  current_rows_++;
  if (current_rows_ == batch_size_) SealBatch();
}

void TableBuilder::SealBatch() {
  if (current_ == nullptr) return;
  current_->set_num_rows(current_rows_);
  current_->SetAllActive();
  current_->ResolveMetadata();
  table_.AppendBatch(std::move(current_));
  current_ = nullptr;
  current_rows_ = 0;
}

Table TableBuilder::Finish() {
  SealBatch();
  return std::move(table_);
}

}  // namespace photon
