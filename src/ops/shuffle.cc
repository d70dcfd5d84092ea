#include "ops/shuffle.h"

#include "ht/vectorized_hash_table.h"
#include "vector/vector_serde.h"

namespace photon {

ShuffleWriteOperator::ShuffleWriteOperator(OperatorPtr child,
                                           std::vector<ExprPtr> partition_keys,
                                           std::string shuffle_id,
                                           ShuffleOptions options,
                                           ExecContext exec_ctx)
    : Operator(child->output_schema()),
      child_(std::move(child)),
      partition_keys_(std::move(partition_keys)),
      shuffle_id_(std::move(shuffle_id)),
      options_(options),
      exec_ctx_(exec_ctx) {
  PHOTON_CHECK(!partition_keys_.empty());
  PHOTON_CHECK(options_.num_partitions > 0);
}

Status ShuffleWriteOperator::Open() {
  PHOTON_RETURN_NOT_OK(child_->Open());
  staging_.clear();
  staging_rows_.assign(options_.num_partitions, 0);
  block_seq_.assign(options_.num_partitions, 0);
  for (int p = 0; p < options_.num_partitions; p++) {
    staging_.push_back(std::make_unique<ColumnBatch>(
        output_schema_, exec_ctx_.batch_size));
  }
  done_ = false;
  return Status::OK();
}

Status ShuffleWriteOperator::FlushPartition(int p) {
  if (staging_rows_[p] == 0) return Status::OK();
  ColumnBatch* batch = staging_[p].get();
  batch->set_num_rows(staging_rows_[p]);
  batch->SetAllActive();

  // Runtime adaptivity (Table 1): pick per-column encodings by inspecting
  // this block's data.
  std::vector<ColumnEncoding> encodings;
  if (options_.adaptive_encoding) {
    encodings = ChooseAdaptiveEncodings(*batch);
  }
  BinaryWriter writer;
  SerializeBatch(*batch, encodings, &writer);
  std::string compressed =
      Compress(std::string_view(reinterpret_cast<const char*>(
                                    writer.data().data()),
                                writer.size()),
               options_.codec);
  std::string key = "shuffle/" + shuffle_id_ + "/p" + std::to_string(p) +
                    "/w" + std::to_string(options_.writer_id) + "-blk" +
                    std::to_string(block_seq_[p]++);
  bytes_written_ += static_cast<int64_t>(compressed.size());
  blocks_written_++;
  PHOTON_RETURN_NOT_OK(ObjectStore::Default().Put(key, std::move(compressed)));

  batch->Reset();
  staging_rows_[p] = 0;
  return Status::OK();
}

Status ShuffleWriteOperator::PartitionBatch(ColumnBatch* batch) {
  int n = batch->num_active();
  std::vector<const ColumnVector*> key_vecs;
  for (const ExprPtr& k : partition_keys_) {
    PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &ctx_));
    key_vecs.push_back(v);
  }
  hashes_.resize(n);
  VectorizedHashTable::HashKeys(key_vecs, *batch, hashes_.data());

  for (int i = 0; i < n; i++) {
    int row = batch->ActiveRow(i);
    int p = static_cast<int>(hashes_[i] %
                             static_cast<uint64_t>(options_.num_partitions));
    CopyRow(*batch, row, staging_[p].get(), staging_rows_[p]);
    staging_rows_[p]++;
    if (staging_rows_[p] == staging_[p]->capacity()) {
      PHOTON_RETURN_NOT_OK(FlushPartition(p));
    }
  }
  return Status::OK();
}

Result<ColumnBatch*> ShuffleWriteOperator::GetNextImpl() {
  if (done_) return nullptr;
  while (true) {
    ctx_.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, child_->GetNext());
    if (batch == nullptr) break;
    PHOTON_RETURN_NOT_OK(PartitionBatch(batch));
  }
  for (int p = 0; p < options_.num_partitions; p++) {
    PHOTON_RETURN_NOT_OK(FlushPartition(p));
  }
  done_ = true;
  return nullptr;
}

ShuffleReadOperator::ShuffleReadOperator(Schema schema,
                                         std::string shuffle_id,
                                         int partition)
    : Operator(std::move(schema)),
      shuffle_id_(std::move(shuffle_id)),
      partition_(partition) {}

Status ShuffleReadOperator::Open() {
  std::string prefix = "shuffle/" + shuffle_id_ + "/";
  if (partition_ >= 0) prefix += "p" + std::to_string(partition_) + "/";
  block_keys_ = ObjectStore::Default().List(prefix);
  next_block_ = 0;
  return Status::OK();
}

Result<ColumnBatch*> ShuffleReadOperator::GetNextImpl() {
  while (next_block_ < block_keys_.size()) {
    PHOTON_ASSIGN_OR_RETURN(std::string frame,
                            ObjectStore::Default().Get(
                                block_keys_[next_block_++]));
    PHOTON_ASSIGN_OR_RETURN(std::string bytes, Decompress(frame));
    BinaryReader reader(bytes);
    PHOTON_ASSIGN_OR_RETURN(current_,
                            DeserializeBatch(output_schema_, &reader));
    if (current_->num_rows() > 0) return current_.get();
  }
  return nullptr;
}

void DeleteShuffle(const std::string& shuffle_id) {
  ObjectStore::Default().DeletePrefix("shuffle/" + shuffle_id + "/");
}

}  // namespace photon
