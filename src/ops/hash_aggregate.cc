#include "ops/hash_aggregate.h"

#include <algorithm>
#include <cstring>

namespace photon {
namespace {

// Spill-file key/value serialization helpers. Fixed-width keys travel as
// their raw bytes; strings as a length-prefixed byte string.
void WriteKeySlot(const DataType& type, const VectorizedHashTable& table,
                  const uint8_t* entry, int k, BinaryWriter* out) {
  if (table.KeyIsNull(entry, k)) {
    out->WriteU8(1);
    return;
  }
  out->WriteU8(0);
  const uint8_t* slot = table.key_slot(entry, k);
  if (type.is_var_len()) {
    StringRef s;
    std::memcpy(&s, slot, sizeof(s));
    out->WriteString(std::string_view(s.data, s.len));
  } else {
    out->Append(slot, type.byte_width());
  }
}

Status ReadKeyIntoVector(const DataType& type, BinaryReader* in,
                         ColumnVector* vec, int row) {
  uint8_t is_null = 0;
  PHOTON_RETURN_NOT_OK(in->ReadU8(&is_null));
  if (is_null) {
    vec->SetNull(row);
    return Status::OK();
  }
  vec->SetNotNull(row);
  if (!type.is_var_len()) {
    const int width = type.byte_width();
    return in->ReadRaw(vec->data<uint8_t>() + static_cast<size_t>(row) * width,
                       width);
  }
  // Zero-copy: the ref points into the serialized bytes, which outlive the
  // merge; inserting the key copies it into the table's arena.
  uint64_t len = 0;
  const uint8_t* bytes = nullptr;
  PHOTON_RETURN_NOT_OK(in->ReadVarU64(&len));
  PHOTON_RETURN_NOT_OK(in->ReadSpan(len, &bytes));
  vec->SetStringRef(row, StringRef(reinterpret_cast<const char*>(bytes),
                                   static_cast<int32_t>(len)));
  return Status::OK();
}

/// Final-merge partition of a hash table entry, from its stored hash.
int MergePartitionOf(const uint8_t* entry) {
  return VectorizedHashTable::PartitionOf(
      VectorizedHashTable::entry_hash(entry),
      HashAggregateOperator::kPartitionBits);
}

/// Writes a hash table key column into an output vector (typed, no
/// boxing); string bytes are copied into the vector's pool.
void EmitKeyColumn(const VectorizedHashTable& table,
                   const std::vector<uint8_t*>& entries, size_t begin,
                   int count, int k, ColumnVector* out) {
  const DataType& type = table.key_type(k);
  const int width = type.byte_width();
  for (int i = 0; i < count; i++) {
    const uint8_t* entry = entries[begin + i];
    if (table.KeyIsNull(entry, k)) {
      out->SetNull(i);
      continue;
    }
    out->SetNotNull(i);
    const uint8_t* slot = table.key_slot(entry, k);
    if (type.is_var_len()) {
      StringRef s;
      std::memcpy(&s, slot, sizeof(s));
      out->SetString(i, s.data, s.len);
    } else {
      std::memcpy(out->data<uint8_t>() + static_cast<size_t>(i) * width, slot,
                  width);
    }
  }
}

}  // namespace

Schema HashAggregateOperator::MakeOutputSchema(
    const std::vector<ExprPtr>& keys,
    const std::vector<std::string>& key_names,
    const std::vector<AggregateSpec>& aggs) {
  PHOTON_CHECK(keys.size() == key_names.size());
  Schema schema;
  for (size_t i = 0; i < keys.size(); i++) {
    schema.AddField(Field(key_names[i], keys[i]->type()));
  }
  for (const AggregateSpec& spec : aggs) {
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->type() : DataType::Int64();
    Result<DataType> result = AggResultType(spec.kind, arg_type);
    PHOTON_CHECK(result.ok());
    schema.AddField(Field(spec.name, *result));
  }
  return schema;
}

Schema HashAggregateOperator::PartialOutputSchema() {
  Schema schema;
  schema.AddField(Field("partition", DataType::Int32()));
  schema.AddField(Field("agg_state", DataType::String()));
  return schema;
}

HashAggregateOperator::HashAggregateOperator(
    OperatorPtr child, std::vector<ExprPtr> keys,
    std::vector<std::string> key_names, std::vector<AggregateSpec> aggs,
    ExecContext exec_ctx, AggMode mode)
    : Operator(mode == AggMode::kPartial ? PartialOutputSchema()
                                         : MakeOutputSchema(keys, key_names,
                                                            aggs)),
      MemoryConsumer("PhotonHashAggregate"),
      child_(std::move(child)),
      keys_(std::move(keys)),
      specs_(std::move(aggs)),
      exec_ctx_(exec_ctx),
      mode_(mode) {
  scalar_mode_ = keys_.empty();
  int offset = 0;
  for (const AggregateSpec& spec : specs_) {
    DataType arg_type =
        spec.arg != nullptr ? spec.arg->type() : DataType::Int64();
    Result<std::unique_ptr<AggregateFunction>> fn =
        MakeAggregateFunction(spec.kind, arg_type);
    PHOTON_CHECK(fn.ok());
    aggs_.push_back(std::move(fn).ValueOrDie());
    // 16-align each state: decimal sums embed __int128.
    offset = (offset + 15) & ~15;
    agg_state_offsets_.push_back(offset);
    offset += aggs_.back()->state_bytes();
  }
  payload_bytes_ = offset;
  spill_keys_.resize(kSpillPartitions);
}

HashAggregateOperator::~HashAggregateOperator() {
  // A task that failed before Close() still owns its spill files.
  DeleteSpillFiles();
  if (exec_ctx_.memory_manager != nullptr) {
    exec_ctx_.memory_manager->Release(this, reserved_bytes());
    exec_ctx_.memory_manager->UnregisterConsumer(this);
  }
}

Status HashAggregateOperator::Open() {
  PHOTON_RETURN_NOT_OK(child_->Open());
  arena_ = std::make_unique<VarLenPool>();
  for (auto& agg : aggs_) agg->set_arena(arena_.get());
  if (scalar_mode_) {
    scalar_state_.assign(payload_bytes_, 0);
    for (size_t j = 0; j < aggs_.size(); j++) {
      aggs_[j]->Init(scalar_state_.data() + agg_state_offsets_[j]);
    }
  } else {
    std::vector<DataType> key_types;
    for (const ExprPtr& k : keys_) key_types.push_back(k->type());
    table_ = std::make_unique<VectorizedHashTable>(
        key_types, payload_bytes_, /*match_null_keys=*/true);
  }
  if (exec_ctx_.memory_manager != nullptr) {
    BindConsumerToContext(this, exec_ctx_);
    exec_ctx_.memory_manager->RegisterConsumer(this);
  }
  input_consumed_ = false;
  scalar_emitted_ = false;
  emit_pos_ = 0;
  partial_spill_stream_.clear();
  partial_spill_pos_ = 0;
  return Status::OK();
}

int64_t HashAggregateOperator::CurrentMemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(arena_->total_bytes());
  if (table_ != nullptr) bytes += table_->memory_bytes();
  return bytes;
}

Status HashAggregateOperator::Reserve(int64_t bytes) {
  Status st = exec_ctx_.memory_manager->Reserve(this, bytes);
  if (st.ok()) reserved_for_data_ += bytes;
  PHOTON_RETURN_NOT_OK(spill_status_);
  return st;
}

Status HashAggregateOperator::ReserveForDelta() {
  if (exec_ctx_.memory_manager == nullptr) return Status::OK();
  int64_t actual = CurrentMemoryBytes();
  if (actual > reserved_for_data_) {
    const int spills = spill_seq_;
    PHOTON_RETURN_NOT_OK(Reserve(actual - reserved_for_data_));
    if (spill_seq_ != spills) {
      // The top-up spilled this operator itself: the table it was sized
      // for is gone, and Spill() already returned the rest. Keeping it
      // would leave a reservation that the next Spill() cannot free.
      exec_ctx_.memory_manager->Release(this, reserved_for_data_);
      reserved_for_data_ = 0;
    }
  }
  return Status::OK();
}

Status HashAggregateOperator::ProcessBatch(ColumnBatch* batch) {
  int n = batch->num_active();
  if (n == 0) return Status::OK();
  // Recycle expression scratch from the previous batch (§4.5).
  ctx_.ResetPerBatch();
  EvalContext& ctx = ctx_;

  // Evaluate aggregate arguments first (they see the same active set).
  std::vector<const ColumnVector*> arg_vecs(specs_.size(), nullptr);
  for (size_t j = 0; j < specs_.size(); j++) {
    if (specs_[j].arg != nullptr) {
      PHOTON_ASSIGN_OR_RETURN(ColumnVector * v,
                              specs_[j].arg->Evaluate(batch, &ctx));
      arg_vecs[j] = v;
    }
  }

  if (scalar_mode_) {
    entries_.assign(n, scalar_state_.data());
    std::vector<uint8_t*> states(n);
    for (size_t j = 0; j < aggs_.size(); j++) {
      for (int i = 0; i < n; i++) {
        states[i] = scalar_state_.data() + agg_state_offsets_[j];
      }
      aggs_[j]->Update(arg_vecs[j], *batch, states.data());
    }
    return Status::OK();
  }

  // Reservation phase (§5.3): acquire memory for this batch's worst-case
  // growth before touching the table; spilling can only happen here.
  if (exec_ctx_.memory_manager != nullptr) {
    PHOTON_RETURN_NOT_OK(
        Reserve(static_cast<int64_t>(n) * (payload_bytes_ + 96)));
  }

  // Allocation phase: evaluate keys, probe/insert, update states.
  std::vector<const ColumnVector*> key_vecs;
  for (const ExprPtr& k : keys_) {
    PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &ctx));
    key_vecs.push_back(v);
  }
  hashes_.resize(n);
  entries_.resize(n);
  if (inserted_capacity_ < n) {
    inserted_ = std::make_unique<bool[]>(n);
    inserted_capacity_ = n;
  }

  VectorizedHashTable::HashKeys(key_vecs, *batch, hashes_.data());
  PHOTON_RETURN_NOT_OK(table_->LookupOrInsert(
      key_vecs, *batch, hashes_.data(), entries_.data(), inserted_.get()));

  for (int i = 0; i < n; i++) {
    if (inserted_[i]) {
      uint8_t* payload = table_->payload(entries_[i]);
      for (size_t j = 0; j < aggs_.size(); j++) {
        aggs_[j]->Init(payload + agg_state_offsets_[j]);
      }
    }
  }

  std::vector<uint8_t*> states(n);
  for (size_t j = 0; j < aggs_.size(); j++) {
    for (int i = 0; i < n; i++) {
      states[i] = entries_[i] == nullptr
                      ? nullptr
                      : table_->payload(entries_[i]) + agg_state_offsets_[j];
    }
    aggs_[j]->Update(arg_vecs[j], *batch, states.data());
  }

  // True memory usage may exceed the estimate (large strings): top up.
  return ReserveForDelta();
}

Status HashAggregateOperator::ConsumeInput() {
  while (true) {
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, child_->GetNext());
    if (batch == nullptr) break;
    if (mode_ == AggMode::kFinalMerge) {
      PHOTON_RETURN_NOT_OK(MergeBlobBatch(batch));
    } else {
      PHOTON_RETURN_NOT_OK(ProcessBatch(batch));
    }
  }
  input_consumed_ = true;

  if (scalar_mode_) return Status::OK();
  if (spill_seq_ > 0 && table_->num_entries() > 0) {
    // Some groups already went to disk: the in-memory remainder must be
    // spilled too so each partition can be merged exactly once.
    Spill(INT64_MAX);
    PHOTON_RETURN_NOT_OK(spill_status_);
  }
  if (spill_seq_ > 0) {
    if (mode_ == AggMode::kPartial) {
      for (int p = 0; p < kSpillPartitions; p++) {
        for (const std::string& key : spill_keys_[p]) {
          partial_spill_stream_.emplace_back(p, key);
        }
      }
    }
    return Status::OK();
  }
  emit_entries_.clear();
  table_->ForEachEntry(
      [&](uint8_t* entry) { emit_entries_.push_back(entry); });
  emit_pos_ = 0;
  if (mode_ == AggMode::kPartial) {
    // Group by final-merge partition, so blobs (and output batches) never
    // mix partitions.
    std::stable_sort(emit_entries_.begin(), emit_entries_.end(),
                     [](const uint8_t* a, const uint8_t* b) {
                       return MergePartitionOf(a) < MergePartitionOf(b);
                     });
  }
  return Status::OK();
}

void HashAggregateOperator::SerializeEntry(const uint8_t* entry,
                                           BinaryWriter* out) const {
  for (size_t k = 0; k < keys_.size(); k++) {
    WriteKeySlot(keys_[k]->type(), *table_, entry, static_cast<int>(k), out);
  }
  const uint8_t* payload = table_->payload(entry);
  for (size_t j = 0; j < aggs_.size(); j++) {
    aggs_[j]->Serialize(payload + agg_state_offsets_[j], out);
  }
}

int HashAggregateOperator::SpillPartitionOf(uint64_t hash) const {
  // kPartial spills by final-merge partition, so its spilled blocks stream
  // out already routed; a kFinalMerge task holds one merge partition, so it
  // splits on the next hash bits down.
  if (mode_ == AggMode::kFinalMerge) hash <<= kPartitionBits;
  return VectorizedHashTable::PartitionOf(hash, kPartitionBits);
}

int64_t HashAggregateOperator::Spill(int64_t /*requested*/) {
  if (scalar_mode_ || table_ == nullptr || table_->num_entries() == 0 ||
      !spill_status_.ok()) {
    return 0;
  }
  std::vector<BinaryWriter> writers(kSpillPartitions);
  table_->ForEachEntry([&](uint8_t* entry) {
    SerializeEntry(entry,
                   &writers[SpillPartitionOf(
                       VectorizedHashTable::entry_hash(entry))]);
  });
  int64_t written = 0;
  for (int p = 0; p < kSpillPartitions; p++) {
    if (writers[p].size() == 0) continue;
    std::string key = exec_ctx_.spill_prefix + "/agg-p" + std::to_string(p) +
                      "-" + std::to_string(spill_seq_);
    written += static_cast<int64_t>(writers[p].size());
    Status st = ObjectStore::Default().Put(key, writers[p].ToString());
    if (!st.ok()) {
      // Nothing is freed; blocks already written are deleted with the
      // operator's other spill files.
      spill_status_ = st;
      return 0;
    }
    spill_keys_[p].push_back(key);
  }
  spill_seq_++;
  stats_.Add(obs::Metric::kSpillCount, 1);
  stats_.Add(obs::Metric::kSpillBytes, written);

  table_->Clear();
  arena_->Reset();
  int64_t freed = reserved_for_data_;
  if (exec_ctx_.memory_manager != nullptr && freed > 0) {
    exec_ctx_.memory_manager->Release(this, freed);
  }
  reserved_for_data_ = 0;
  return freed;
}

Status HashAggregateOperator::MergeBlobBatch(ColumnBatch* batch) {
  int n = batch->num_active();
  if (n == 0) return Status::OK();
  PHOTON_CHECK(batch->num_columns() == 2 &&
               batch->column(1)->type().id() == TypeId::kString);
  const ColumnVector& blob_col = *batch->column(1);
  const StringRef* blobs = blob_col.data<StringRef>();
  for (int i = 0; i < n; i++) {
    int row = batch->ActiveRow(i);
    if (blob_col.IsNull(row)) continue;
    StringRef blob = blobs[row];
    std::string_view bytes(blob.data, static_cast<size_t>(blob.len));
    if (scalar_mode_) {
      // Scalar blobs carry the agg states back-to-back (no keys).
      BinaryReader reader(bytes);
      std::vector<uint8_t> temp_state;
      for (size_t j = 0; j < aggs_.size(); j++) {
        temp_state.assign(aggs_[j]->state_bytes(), 0);
        aggs_[j]->Init(temp_state.data());
        PHOTON_RETURN_NOT_OK(
            aggs_[j]->Deserialize(&reader, temp_state.data()));
        aggs_[j]->Merge(scalar_state_.data() + agg_state_offsets_[j],
                        temp_state.data());
      }
    } else {
      PHOTON_RETURN_NOT_OK(MergeSpillBlock(bytes, /*reserve=*/true));
    }
  }
  return Status::OK();
}

Status HashAggregateOperator::MergeSpillBlock(std::string_view bytes,
                                              bool reserve) {
  const int capacity = std::min(exec_ctx_.batch_size, kMergeBatchEntries);
  if (merge_keys_ == nullptr) {
    Schema key_schema;
    for (size_t k = 0; k < keys_.size(); k++) {
      key_schema.AddField(Field("k" + std::to_string(k), keys_[k]->type()));
    }
    merge_keys_ = std::make_unique<ColumnBatch>(key_schema, capacity);
    // 16-aligned stride: states may embed __int128.
    merge_state_stride_ = (payload_bytes_ + 15) & ~15;
    merge_states_.resize(static_cast<size_t>(capacity) * merge_state_stride_);
    merge_arena_ = std::make_unique<VarLenPool>();
  }
  if (inserted_capacity_ < capacity) {
    inserted_ = std::make_unique<bool[]>(capacity);
    inserted_capacity_ = capacity;
  }
  std::vector<const ColumnVector*> key_vecs;
  for (int k = 0; k < merge_keys_->num_columns(); k++) {
    key_vecs.push_back(merge_keys_->column(k));
  }
  reserve = reserve && exec_ctx_.memory_manager != nullptr;

  BinaryReader reader(bytes);
  while (reader.remaining() > 0) {
    // Decode up to a batch of entries. Variable-length state decodes into
    // a scratch arena, so a spill during the reservation below cannot free
    // it.
    merge_keys_->Reset();
    merge_arena_->Reset();
    for (auto& agg : aggs_) agg->set_arena(merge_arena_.get());
    Result<int> decoded = DecodeMergeBatch(&reader);
    for (auto& agg : aggs_) agg->set_arena(arena_.get());
    PHOTON_ASSIGN_OR_RETURN(int n, decoded);
    merge_keys_->set_num_rows(n);
    merge_keys_->SetAllActive();

    // Reservation phase (§5.3) for the batch's worst-case growth, then one
    // hash, one probe/insert and one merge loop per aggregate.
    if (reserve) {
      PHOTON_RETURN_NOT_OK(
          Reserve(static_cast<int64_t>(n) * (payload_bytes_ + 96)));
    }
    hashes_.resize(n);
    entries_.resize(n);
    VectorizedHashTable::HashKeys(key_vecs, *merge_keys_, hashes_.data());
    PHOTON_RETURN_NOT_OK(table_->LookupOrInsert(
        key_vecs, *merge_keys_, hashes_.data(), entries_.data(),
        inserted_.get()));
    for (int i = 0; i < n; i++) {
      if (!inserted_[i]) continue;
      uint8_t* payload = table_->payload(entries_[i]);
      for (size_t j = 0; j < aggs_.size(); j++) {
        aggs_[j]->Init(payload + agg_state_offsets_[j]);
      }
    }
    for (size_t j = 0; j < aggs_.size(); j++) {
      const int offset = agg_state_offsets_[j];
      for (int i = 0; i < n; i++) {
        aggs_[j]->Merge(table_->payload(entries_[i]) + offset,
                        merge_states_.data() +
                            static_cast<size_t>(i) * merge_state_stride_ +
                            offset);
      }
    }
    if (reserve) PHOTON_RETURN_NOT_OK(SettleReservation());
  }
  return Status::OK();
}

Result<int> HashAggregateOperator::DecodeMergeBatch(BinaryReader* reader) {
  int n = 0;
  while (n < merge_keys_->capacity() && reader->remaining() > 0) {
    for (size_t k = 0; k < keys_.size(); k++) {
      PHOTON_RETURN_NOT_OK(ReadKeyIntoVector(
          keys_[k]->type(), reader, merge_keys_->column(static_cast<int>(k)),
          n));
    }
    uint8_t* state =
        merge_states_.data() + static_cast<size_t>(n) * merge_state_stride_;
    for (size_t j = 0; j < aggs_.size(); j++) {
      aggs_[j]->Init(state + agg_state_offsets_[j]);
      PHOTON_RETURN_NOT_OK(
          aggs_[j]->Deserialize(reader, state + agg_state_offsets_[j]));
    }
    n++;
  }
  return n;
}

Status HashAggregateOperator::SettleReservation() {
  int64_t actual = CurrentMemoryBytes();
  if (actual >= reserved_for_data_) return ReserveForDelta();
  exec_ctx_.memory_manager->Release(this, reserved_for_data_ - actual);
  reserved_for_data_ = actual;
  return Status::OK();
}

void HashAggregateOperator::SortEmitEntries() {
  auto compare_keys = [&](const uint8_t* a, const uint8_t* b) {
    for (int k = 0; k < table_->num_keys(); k++) {
      bool a_null = table_->KeyIsNull(a, k);
      bool b_null = table_->KeyIsNull(b, k);
      if (a_null || b_null) {
        if (a_null != b_null) return a_null ? -1 : 1;
        continue;
      }
      int c = table_->GetKeyValue(a, k).Compare(table_->GetKeyValue(b, k));
      if (c != 0) return c;
    }
    return 0;
  };
  std::sort(emit_entries_.begin(), emit_entries_.end(),
            [&](const uint8_t* a, const uint8_t* b) {
              uint64_t ha = VectorizedHashTable::entry_hash(a);
              uint64_t hb = VectorizedHashTable::entry_hash(b);
              if (ha != hb) return ha < hb;
              return compare_keys(a, b) < 0;
            });
}

Result<bool> HashAggregateOperator::LoadNextSpillPartition() {
  while (++current_spill_partition_ < kSpillPartitions) {
    if (spill_keys_[current_spill_partition_].empty()) continue;
    table_->Clear();
    arena_->Reset();
    for (const std::string& key :
         spill_keys_[current_spill_partition_]) {
      PHOTON_ASSIGN_OR_RETURN(std::string bytes,
                              ObjectStore::Default().Get(key));
      PHOTON_RETURN_NOT_OK(MergeSpillBlock(bytes, /*reserve=*/false));
    }
    emit_entries_.clear();
    table_->ForEachEntry(
        [&](uint8_t* entry) { emit_entries_.push_back(entry); });
    SortEmitEntries();
    emit_pos_ = 0;
    if (!emit_entries_.empty()) return true;
  }
  return false;
}

ColumnBatch* HashAggregateOperator::EmitFromTable() {
  if (emit_pos_ >= emit_entries_.size()) return nullptr;
  int count = static_cast<int>(
      std::min<size_t>(exec_ctx_.batch_size, emit_entries_.size() - emit_pos_));
  if (out_ == nullptr) {
    out_ = std::make_unique<ColumnBatch>(output_schema_,
                                         exec_ctx_.batch_size);
  }
  out_->Reset();
  for (size_t k = 0; k < keys_.size(); k++) {
    EmitKeyColumn(*table_, emit_entries_, emit_pos_, count,
                  static_cast<int>(k), out_->column(static_cast<int>(k)));
  }
  for (size_t j = 0; j < aggs_.size(); j++) {
    ColumnVector* out_col =
        out_->column(static_cast<int>(keys_.size() + j));
    for (int i = 0; i < count; i++) {
      const uint8_t* payload = table_->payload(emit_entries_[emit_pos_ + i]);
      aggs_[j]->Finalize(payload + agg_state_offsets_[j], out_col, i);
    }
  }
  emit_pos_ += count;
  out_->set_num_rows(count);
  out_->SetAllActive();
  return out_.get();
}

Result<ColumnBatch*> HashAggregateOperator::EmitPartial() {
  // Each output row is one blob of serialized (key, state) entries of one
  // partition — the same wire format as the spill files, so spilled partial
  // state is streamed out raw without being re-merged in memory. A batch
  // ends where the partition changes.
  constexpr int kEntriesPerBlob = 512;
  if (out_ == nullptr) {
    out_ = std::make_unique<ColumnBatch>(output_schema_,
                                         exec_ctx_.batch_size);
  }
  out_->Reset();
  ColumnVector* partition_col = out_->column(0);
  ColumnVector* blob_col = out_->column(1);
  int out_row = 0;
  int partition = -1;
  auto append = [&](int p, const std::string& blob) {
    partition_col->SetNotNull(out_row);
    partition_col->data<int32_t>()[out_row] = p;
    blob_col->SetNotNull(out_row);
    blob_col->SetString(out_row, blob);
    partition = p;
    out_row++;
  };
  if (scalar_mode_) {
    if (!scalar_emitted_) {
      scalar_emitted_ = true;
      BinaryWriter writer;
      for (size_t j = 0; j < aggs_.size(); j++) {
        aggs_[j]->Serialize(scalar_state_.data() + agg_state_offsets_[j],
                            &writer);
      }
      append(0, writer.ToString());
    }
  } else if (spill_seq_ > 0) {
    while (out_row < out_->capacity() &&
           partial_spill_pos_ < partial_spill_stream_.size()) {
      const auto& [p, key] = partial_spill_stream_[partial_spill_pos_];
      if (out_row > 0 && p != partition) break;
      PHOTON_ASSIGN_OR_RETURN(std::string bytes,
                              ObjectStore::Default().Get(key));
      partial_spill_pos_++;
      append(p, bytes);
    }
  } else {
    while (out_row < out_->capacity() && emit_pos_ < emit_entries_.size()) {
      const int p = MergePartitionOf(emit_entries_[emit_pos_]);
      if (out_row > 0 && p != partition) break;
      BinaryWriter writer;
      for (int count = 0; count < kEntriesPerBlob &&
                          emit_pos_ < emit_entries_.size() &&
                          MergePartitionOf(emit_entries_[emit_pos_]) == p;
           count++) {
        SerializeEntry(emit_entries_[emit_pos_++], &writer);
      }
      append(p, writer.ToString());
    }
  }
  if (out_row == 0) return nullptr;
  out_->set_num_rows(out_row);
  out_->SetAllActive();
  return out_.get();
}

Result<ColumnBatch*> HashAggregateOperator::GetNextImpl() {
  if (!input_consumed_) {
    PHOTON_RETURN_NOT_OK(ConsumeInput());
  }

  if (mode_ == AggMode::kPartial) {
    return EmitPartial();
  }

  if (scalar_mode_) {
    if (scalar_emitted_) return nullptr;
    scalar_emitted_ = true;
    if (out_ == nullptr) {
      out_ = std::make_unique<ColumnBatch>(output_schema_, 1);
    }
    out_->Reset();
    for (size_t j = 0; j < aggs_.size(); j++) {
      aggs_[j]->Finalize(scalar_state_.data() + agg_state_offsets_[j],
                         out_->column(static_cast<int>(j)), 0);
    }
    out_->set_num_rows(1);
    out_->SetAllActive();
    return out_.get();
  }

  while (true) {
    ColumnBatch* batch = EmitFromTable();
    if (batch != nullptr) return batch;
    if (spill_seq_ == 0) return nullptr;
    PHOTON_ASSIGN_OR_RETURN(bool more, LoadNextSpillPartition());
    if (!more) return nullptr;
  }
}

void HashAggregateOperator::DeleteSpillFiles() {
  for (auto& keys : spill_keys_) {
    for (const std::string& key : keys) {
      (void)ObjectStore::Default().Delete(key);
    }
    keys.clear();
  }
}

void HashAggregateOperator::Close() {
  child_->Close();
  DeleteSpillFiles();
  if (exec_ctx_.memory_manager != nullptr && reserved_bytes() > 0) {
    exec_ctx_.memory_manager->Release(this, reserved_bytes());
    reserved_for_data_ = 0;
  }
}

void HashAggregateOperator::PublishMetricsImpl() {
  stats_.SetMax(obs::Metric::kPeakReservedBytes, peak_reserved_bytes());
  stats_.Add(obs::Metric::kReserveWaitNs, reserve_wait_ns());
  stats_.Add(obs::Metric::kReserveWaits, reserve_waits());
}

}  // namespace photon
