#include "ops/hash_join.h"

#include <cstring>

#include "expr/eval_context.h"
#include "vector/table.h"

namespace photon {
namespace {

constexpr double kCompactionSparsityThreshold = 0.5;

/// Rows ahead whose bucket a partition insert prefetches.
constexpr size_t kPrefetchDistance = 16;

/// Payload layout: per build column, an 8-aligned slot of 1 null byte
/// followed by the value (packed after the null byte).
int ComputePayloadLayout(const Schema& build_schema,
                         std::vector<int>* offsets) {
  int offset = 0;
  for (const Field& f : build_schema.fields()) {
    offset = (offset + 7) & ~7;
    offsets->push_back(offset);
    offset += 1 + f.type.byte_width();
  }
  return offset;
}

/// Packs build row `row` of `batch` into `entry`'s payload; string bytes go
/// to `table`'s arena (the partition holding the entry).
void WriteBuildPayload(const JoinBuildState& state, VectorizedHashTable* table,
                       const ColumnBatch& batch, int row, uint8_t* entry) {
  uint8_t* payload = table->payload(entry);
  for (int c = 0; c < state.build_schema.num_fields(); c++) {
    uint8_t* slot = payload + state.payload_offsets[c];
    const ColumnVector& col = *batch.column(c);
    if (col.IsNull(row)) {
      *slot = 1;
      continue;
    }
    *slot = 0;
    uint8_t* value = slot + 1;
    switch (col.type().id()) {
      case TypeId::kBoolean:
        *value = col.data<uint8_t>()[row];
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        std::memcpy(value, &col.data<int32_t>()[row], 4);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        std::memcpy(value, &col.data<int64_t>()[row], 8);
        break;
      case TypeId::kFloat64:
        std::memcpy(value, &col.data<double>()[row], 8);
        break;
      case TypeId::kDecimal128:
        std::memcpy(value, &col.data<int128_t>()[row], 16);
        break;
      case TypeId::kString: {
        StringRef s = col.data<StringRef>()[row];
        StringRef owned = table->string_arena()->AddString(s);
        std::memcpy(value, &owned, sizeof(owned));
        break;
      }
    }
  }
}

/// Drains `build_child` (already open) into `state`'s single-partition
/// table, reserving memory on `state` as it grows.
Status BuildInto(JoinBuildState* state, Operator* build_child,
                 const std::vector<ExprPtr>& build_keys,
                 const ExecContext& exec_ctx) {
  VectorizedHashTable* table = state->table->partition(0);
  std::vector<uint64_t> hashes;
  std::vector<uint8_t*> entries;
  std::unique_ptr<bool[]> inserted;
  int inserted_capacity = 0;
  EvalContext ctx;

  while (true) {
    ctx.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, build_child->GetNext());
    if (batch == nullptr) break;
    int n = batch->num_active();
    if (n == 0) continue;

    // Reservation phase before growing the table (§5.3).
    if (exec_ctx.memory_manager != nullptr) {
      int64_t estimate =
          static_cast<int64_t>(n) * (state->payload_bytes + 96);
      PHOTON_RETURN_NOT_OK(exec_ctx.memory_manager->Reserve(state, estimate));
      state->reserved_for_data += estimate;
    }

    std::vector<const ColumnVector*> key_vecs;
    for (const ExprPtr& k : build_keys) {
      PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &ctx));
      key_vecs.push_back(v);
    }
    hashes.resize(n);
    entries.resize(n);
    if (inserted_capacity < n) {
      inserted = std::make_unique<bool[]>(n);
      inserted_capacity = n;
    }
    VectorizedHashTable::HashKeys(key_vecs, *batch, hashes.data());
    PHOTON_RETURN_NOT_OK(table->LookupOrInsert(
        key_vecs, *batch, hashes.data(), entries.data(), inserted.get()));
    for (int i = 0; i < n; i++) {
      if (entries[i] == nullptr) continue;  // NULL join key: never matches
      int row = batch->ActiveRow(i);
      uint8_t* target =
          inserted[i] ? entries[i] : table->InsertChained(entries[i]);
      WriteBuildPayload(*state, table, *batch, row, target);
      state->build_rows++;
    }
  }
  return Status::OK();
}

std::vector<DataType> KeyTypes(const std::vector<ExprPtr>& keys) {
  std::vector<DataType> types;
  for (const ExprPtr& k : keys) types.push_back(k->type());
  return types;
}

/// A fresh build state for `build_schema`, registered with the context's
/// memory manager (if any).
JoinBuildPtr MakeBuildState(const Schema& build_schema,
                            const std::vector<ExprPtr>& keys,
                            int partition_bits, const ExecContext& exec_ctx) {
  auto state = std::make_shared<JoinBuildState>();
  state->build_schema = build_schema;
  state->payload_bytes =
      ComputePayloadLayout(state->build_schema, &state->payload_offsets);
  state->table = std::make_unique<PartitionedHashTable>(
      partition_bits, KeyTypes(keys), state->payload_bytes,
      /*match_null_keys=*/false);
  if (exec_ctx.memory_manager != nullptr) {
    state->memory_manager = exec_ctx.memory_manager;
    BindConsumerToContext(state.get(), exec_ctx);
    exec_ctx.memory_manager->RegisterConsumer(state.get());
    state->registered = true;
  }
  return state;
}

}  // namespace

JoinBuildState::~JoinBuildState() {
  if (memory_manager != nullptr) {
    memory_manager->Release(this, reserved_bytes());
    if (registered) memory_manager->UnregisterConsumer(this);
  }
}

// ---------------------------------------------------------------------------
// PartitionedJoinBuild
// ---------------------------------------------------------------------------

struct PartitionedJoinBuild::MorselRefs {
  /// Owns the morsel's computed key vectors until the build finishes.
  EvalContext ctx;
  std::vector<std::vector<RowRef>> parts;  // per partition, in row order
};

Result<std::unique_ptr<PartitionedJoinBuild>> PartitionedJoinBuild::Make(
    Table* build, std::vector<ExprPtr> keys, int batches_per_morsel,
    const ExecContext& exec_ctx) {
  std::unique_ptr<PartitionedJoinBuild> b(new PartitionedJoinBuild());
  b->build_ = build;
  b->keys_ = std::move(keys);
  b->batches_per_morsel_ = batches_per_morsel;
  b->state_ =
      MakeBuildState(build->schema(), b->keys_, kPartitionBits, exec_ctx);
  const int num_batches = build->num_batches();
  const int num_morsels =
      std::max(1, (num_batches + batches_per_morsel - 1) / batches_per_morsel);
  for (int m = 0; m < num_morsels; m++) {
    b->morsels_.push_back(std::make_unique<MorselRefs>());
    b->morsels_.back()->parts.resize(b->num_partitions());
  }
  b->batch_keys_.resize(num_batches);
  b->partition_rows_.assign(b->num_partitions(), 0);
  if (exec_ctx.memory_manager != nullptr) {
    // Reservation before allocation (§5.3): the row count is known, so the
    // whole table plus the transient row references is reserved at once.
    const int64_t rows = build->num_rows();
    const int64_t table_bytes = rows * (b->state_->payload_bytes + 96);
    b->reserved_for_refs_ = rows * static_cast<int64_t>(sizeof(RowRef));
    PHOTON_RETURN_NOT_OK(exec_ctx.memory_manager->Reserve(
        b->state_.get(), table_bytes + b->reserved_for_refs_));
    b->state_->reserved_for_data = table_bytes;
  }
  return b;
}

PartitionedJoinBuild::~PartitionedJoinBuild() = default;

Status PartitionedJoinBuild::HashMorsel(int m) {
  MorselRefs& refs = *morsels_[m];
  std::vector<uint64_t> hashes;
  const int begin = m * batches_per_morsel_;
  const int end = std::min(build_->num_batches(), begin + batches_per_morsel_);
  for (int b = begin; b < end; b++) {
    ColumnBatch* batch = build_->mutable_batch(b);
    const int n = batch->num_active();
    if (n == 0) continue;
    std::vector<const ColumnVector*>& key_vecs = batch_keys_[b];
    for (const ExprPtr& k : keys_) {
      PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &refs.ctx));
      key_vecs.push_back(v);
    }
    hashes.resize(n);
    VectorizedHashTable::HashKeys(key_vecs, *batch, hashes.data());
    for (int i = 0; i < n; i++) {
      const int row = batch->ActiveRow(i);
      bool any_null = false;
      for (const ColumnVector* col : key_vecs) any_null |= col->IsNull(row);
      if (any_null) continue;  // NULL join key: never matches
      refs.parts[VectorizedHashTable::PartitionOf(hashes[i], kPartitionBits)]
          .push_back(RowRef{b, row, hashes[i]});
    }
  }
  return Status::OK();
}

int64_t PartitionedJoinBuild::InsertPartition(int p) {
  VectorizedHashTable* table = state_->table->partition(p);
  int64_t rows = 0;
  for (const auto& refs : morsels_) rows += refs->parts[p].size();
  table->Presize(rows);
  for (const auto& morsel : morsels_) {
    const std::vector<RowRef>& refs = morsel->parts[p];
    for (size_t i = 0; i < refs.size(); i++) {
      if (i + kPrefetchDistance < refs.size()) {
        table->PrefetchBucket(refs[i + kPrefetchDistance].hash);
      }
      const RowRef& ref = refs[i];
      bool inserted = false;
      uint8_t* entry = table->FindOrInsert(batch_keys_[ref.batch], ref.row,
                                           ref.hash, &inserted);
      WriteBuildPayload(*state_, table, build_->batch(ref.batch), ref.row,
                        inserted ? entry : table->InsertChained(entry));
    }
  }
  partition_rows_[p] = rows;
  return rows;
}

JoinBuildPtr PartitionedJoinBuild::Finish() {
  morsels_.clear();
  batch_keys_.clear();
  if (state_->memory_manager != nullptr && reserved_for_refs_ > 0) {
    state_->memory_manager->Release(state_.get(), reserved_for_refs_);
    reserved_for_refs_ = 0;
  }
  for (int64_t rows : partition_rows_) state_->build_rows += rows;
  return std::move(state_);
}

Schema HashJoinOperator::MakeOutputSchema(const Schema& build,
                                          const Schema& probe,
                                          JoinType join_type) {
  if (join_type == JoinType::kLeftSemi || join_type == JoinType::kLeftAnti) {
    return probe;
  }
  Schema schema = probe;
  for (const Field& f : build.fields()) {
    Field field = f;
    if (join_type == JoinType::kLeftOuter) field.nullable = true;
    schema.AddField(field);
  }
  return schema;
}

HashJoinOperator::HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                                   std::vector<ExprPtr> build_keys,
                                   std::vector<ExprPtr> probe_keys,
                                   JoinType join_type, ExecContext exec_ctx,
                                   ExprPtr residual,
                                   bool adaptive_compaction)
    : Operator(MakeOutputSchema(build->output_schema(), probe->output_schema(),
                                join_type)),
      build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      join_type_(join_type),
      exec_ctx_(exec_ctx),
      residual_(std::move(residual)),
      adaptive_compaction_(adaptive_compaction) {
  PHOTON_CHECK(build_keys_.size() == probe_keys_.size());
}

HashJoinOperator::HashJoinOperator(JoinBuildPtr build, OperatorPtr probe,
                                   std::vector<ExprPtr> probe_keys,
                                   JoinType join_type, ExecContext exec_ctx,
                                   ExprPtr residual, bool adaptive_compaction)
    : Operator(MakeOutputSchema(build->build_schema, probe->output_schema(),
                                join_type)),
      probe_(std::move(probe)),
      probe_keys_(std::move(probe_keys)),
      join_type_(join_type),
      exec_ctx_(exec_ctx),
      residual_(std::move(residual)),
      adaptive_compaction_(adaptive_compaction),
      state_(std::move(build)),
      built_(true) {
  PHOTON_CHECK(state_ != nullptr && state_->table != nullptr);
  PHOTON_CHECK(static_cast<int>(probe_keys_.size()) ==
               state_->table->num_keys());
}

HashJoinOperator::~HashJoinOperator() = default;

Status HashJoinOperator::Open() {
  if (build_ != nullptr) {
    PHOTON_RETURN_NOT_OK(build_->Open());
    state_ = MakeBuildState(build_->output_schema(), build_keys_,
                            /*partition_bits=*/0, exec_ctx_);
    built_ = false;
  }
  PHOTON_RETURN_NOT_OK(probe_->Open());
  probe_batch_ = nullptr;
  probe_idx_ = 0;
  chain_entry_ = nullptr;
  chain_open_ = false;
  chain_matched_ = false;
  accum_.reset();
  accum_rows_ = 0;
  accum_in_flight_ = false;
  pending_dense_ = nullptr;
  accum_source_ = nullptr;
  accum_source_pos_ = 0;
  return Status::OK();
}

Status HashJoinOperator::BuildPhase() {
  PHOTON_RETURN_NOT_OK(BuildInto(state_.get(), build_.get(), build_keys_,
                                 exec_ctx_));
  built_ = true;
  stats_.SetMax(obs::Metric::kPeakReservedBytes,
                state_->table->memory_bytes());
  return Status::OK();
}

void HashJoinOperator::EmitProbeColumns(const ColumnBatch& batch, int row,
                                        int out_row) {
  for (int c = 0; c < batch.num_columns(); c++) {
    const ColumnVector& in = *batch.column(c);
    ColumnVector* out = out_->column(c);
    if (in.IsNull(row)) {
      out->SetNull(out_row);
      continue;
    }
    out->SetNotNull(out_row);
    switch (in.type().id()) {
      case TypeId::kBoolean:
        out->data<uint8_t>()[out_row] = in.data<uint8_t>()[row];
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        out->data<int32_t>()[out_row] = in.data<int32_t>()[row];
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        out->data<int64_t>()[out_row] = in.data<int64_t>()[row];
        break;
      case TypeId::kFloat64:
        out->data<double>()[out_row] = in.data<double>()[row];
        break;
      case TypeId::kDecimal128:
        out->data<int128_t>()[out_row] = in.data<int128_t>()[row];
        break;
      case TypeId::kString: {
        StringRef s = in.data<StringRef>()[row];
        out->SetString(out_row, s.data, s.len);
        break;
      }
    }
  }
}

void HashJoinOperator::EmitBuildColumns(const uint8_t* entry, int out_row) {
  int base = probe_->output_schema().num_fields();
  for (int c = 0; c < state_->build_schema.num_fields(); c++) {
    ColumnVector* out = out_->column(base + c);
    if (entry == nullptr) {
      out->SetNull(out_row);
      continue;
    }
    const uint8_t* slot =
        state_->table->payload(entry) + state_->payload_offsets[c];
    if (*slot) {
      out->SetNull(out_row);
      continue;
    }
    out->SetNotNull(out_row);
    const uint8_t* value = slot + 1;
    switch (state_->build_schema.field(c).type.id()) {
      case TypeId::kBoolean:
        out->data<uint8_t>()[out_row] = *value;
        break;
      case TypeId::kInt32:
      case TypeId::kDate32:
        std::memcpy(&out->data<int32_t>()[out_row], value, 4);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        std::memcpy(&out->data<int64_t>()[out_row], value, 8);
        break;
      case TypeId::kFloat64:
        std::memcpy(&out->data<double>()[out_row], value, 8);
        break;
      case TypeId::kDecimal128:
        std::memcpy(&out->data<int128_t>()[out_row], value, 16);
        break;
      case TypeId::kString: {
        StringRef s;
        std::memcpy(&s, value, sizeof(s));
        out->SetString(out_row, s.data, s.len);
        break;
      }
    }
  }
}

Result<bool> HashJoinOperator::ResidualMatches(const ColumnBatch& batch,
                                               int probe_row,
                                               const uint8_t* entry) {
  if (residual_ == nullptr) return true;
  // Boxed combined row: probe columns then build columns.
  std::vector<Value> row;
  row.reserve(batch.num_columns() + state_->build_schema.num_fields());
  for (int c = 0; c < batch.num_columns(); c++) {
    row.push_back(batch.column(c)->GetValue(probe_row));
  }
  for (int c = 0; c < state_->build_schema.num_fields(); c++) {
    const uint8_t* slot =
        state_->table->payload(entry) + state_->payload_offsets[c];
    if (*slot) {
      row.push_back(Value::Null());
      continue;
    }
    const uint8_t* value = slot + 1;
    switch (state_->build_schema.field(c).type.id()) {
      case TypeId::kBoolean:
        row.push_back(Value::Boolean(*value != 0));
        break;
      case TypeId::kInt32: {
        int32_t v;
        std::memcpy(&v, value, 4);
        row.push_back(Value::Int32(v));
        break;
      }
      case TypeId::kDate32: {
        int32_t v;
        std::memcpy(&v, value, 4);
        row.push_back(Value::Date32(v));
        break;
      }
      case TypeId::kInt64: {
        int64_t v;
        std::memcpy(&v, value, 8);
        row.push_back(Value::Int64(v));
        break;
      }
      case TypeId::kTimestamp: {
        int64_t v;
        std::memcpy(&v, value, 8);
        row.push_back(Value::Timestamp(v));
        break;
      }
      case TypeId::kFloat64: {
        double v;
        std::memcpy(&v, value, 8);
        row.push_back(Value::Float64(v));
        break;
      }
      case TypeId::kDecimal128: {
        int128_t v;
        std::memcpy(&v, value, 16);
        row.push_back(Value::Decimal(Decimal128(v)));
        break;
      }
      case TypeId::kString: {
        StringRef s;
        std::memcpy(&s, value, sizeof(s));
        row.push_back(Value::String(std::string(s.data, s.len)));
        break;
      }
    }
  }
  PHOTON_ASSIGN_OR_RETURN(Value v, residual_->EvaluateRow(row));
  return !v.is_null() && v.boolean();
}

Status HashJoinOperator::ProbeBatch(ColumnBatch* batch) {
  int n = batch->num_active();
  std::vector<const ColumnVector*> key_vecs;
  for (const ExprPtr& k : probe_keys_) {
    PHOTON_ASSIGN_OR_RETURN(ColumnVector * v, k->Evaluate(batch, &ctx_));
    key_vecs.push_back(v);
  }
  hashes_.resize(n);
  match_heads_.resize(n);
  VectorizedHashTable::HashKeys(key_vecs, *batch, hashes_.data());
  // Const probe with caller-owned scratch: the table may be shared with
  // other tasks probing concurrently.
  const PartitionedHashTable& table = *state_->table;
  table.Lookup(key_vecs, *batch, hashes_.data(), match_heads_.data(),
               &probe_scratch_);
  probe_batch_ = batch;
  probe_idx_ = 0;
  chain_entry_ = nullptr;
  return Status::OK();
}

/// Copies active rows of `accum_source_` (from `accum_source_pos_`) into
/// the compaction buffer until it fills or the source is drained.
void HashJoinOperator::DrainSparseSource() {
  int n = accum_source_->num_active();
  while (accum_source_pos_ < n && accum_rows_ < accum_->capacity()) {
    CopyRow(*accum_source_, accum_source_->ActiveRow(accum_source_pos_),
            accum_.get(), accum_rows_);
    accum_source_pos_++;
    accum_rows_++;
  }
  if (accum_source_pos_ >= n) accum_source_ = nullptr;
}

Result<ColumnBatch*> HashJoinOperator::ProbeNextBatch() {
  // Adaptive compaction (§4.6, Figure 9): sparse probe batches (most rows
  // deactivated by upstream filters) are coalesced into one dense batch
  // before probing. Dense batches keep the hash-table loads saturating the
  // memory system and amortize per-batch interpretation overhead in the
  // operators downstream of the join — sparse batches incur high memory
  // latency without saturating bandwidth, and can even lose to the
  // row-at-a-time engine.
  if (accum_ == nullptr && adaptive_compaction_) {
    accum_ = std::make_unique<ColumnBatch>(probe_->output_schema(),
                                           exec_ctx_.batch_size);
  }
  if (accum_in_flight_) {
    // The previously probed compaction buffer is fully emitted: recycle it.
    accum_->Reset();
    accum_rows_ = 0;
    accum_in_flight_ = false;
  }

  auto probe_accum = [&]() -> Result<ColumnBatch*> {
    accum_->set_num_rows(accum_rows_);
    accum_->SetAllActive();
    accum_in_flight_ = true;
    compacted_batches_++;
    PHOTON_RETURN_NOT_OK(ProbeBatch(accum_.get()));
    return accum_.get();
  };

  while (true) {
    if (pending_dense_ != nullptr && accum_rows_ == 0) {
      ColumnBatch* batch = pending_dense_;
      pending_dense_ = nullptr;
      ctx_.ResetPerBatch();
      PHOTON_RETURN_NOT_OK(ProbeBatch(batch));
      return batch;
    }
    if (accum_source_ != nullptr) {
      DrainSparseSource();
      if (accum_rows_ == accum_->capacity()) return probe_accum();
    }

    ctx_.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, probe_->GetNext());
    if (batch == nullptr) {
      if (accum_rows_ > 0) return probe_accum();
      return nullptr;
    }
    if (batch->num_active() == 0) continue;

    bool sparse = adaptive_compaction_ && !batch->all_active() &&
                  batch->Sparsity() < kCompactionSparsityThreshold;
    if (!sparse) {
      if (accum_rows_ > 0) {
        // Flush the accumulated rows first; probe this batch afterwards.
        pending_dense_ = batch;
        return probe_accum();
      }
      PHOTON_RETURN_NOT_OK(ProbeBatch(batch));
      return batch;
    }
    accum_source_ = batch;
    accum_source_pos_ = 0;
    DrainSparseSource();
    if (accum_rows_ == accum_->capacity()) return probe_accum();
  }
}

Result<ColumnBatch*> HashJoinOperator::EmitMatches() {
  // Semi/anti: narrow the probe batch's position list in place.
  if (join_type_ == JoinType::kLeftSemi || join_type_ == JoinType::kLeftAnti) {
    ColumnBatch* batch = probe_batch_;
    int n = batch->num_active();
    int32_t* pos = batch->mutable_pos_list();
    int out = 0;
    for (int i = 0; i < n; i++) {
      int row = batch->ActiveRow(i);
      bool matched = false;
      for (const uint8_t* e = match_heads_[i]; e != nullptr;
           e = VectorizedHashTable::next(e)) {
        PHOTON_ASSIGN_OR_RETURN(bool ok, ResidualMatches(*batch, row, e));
        if (ok) {
          matched = true;
          break;
        }
      }
      bool keep = join_type_ == JoinType::kLeftSemi ? matched : !matched;
      if (keep) pos[out++] = row;
    }
    batch->SetActiveRows(out);
    probe_batch_ = nullptr;  // fully consumed
    return out > 0 ? batch : nullptr;
  }

  // Inner / left outer: gather matching pairs into the output batch.
  if (out_ == nullptr) {
    out_ = std::make_unique<ColumnBatch>(output_schema_,
                                         exec_ctx_.batch_size);
  }
  out_->Reset();
  int out_row = 0;
  int n = probe_batch_->num_active();
  while (probe_idx_ < n && out_row < out_->capacity()) {
    int row = probe_batch_->ActiveRow(probe_idx_);
    if (!chain_open_) {
      // Starting this probe row.
      chain_entry_ = match_heads_[probe_idx_];
      chain_open_ = true;
      chain_matched_ = false;
    }
    while (chain_entry_ != nullptr && out_row < out_->capacity()) {
      // Left outer evaluates the residual per candidate pair (like
      // semi/anti): only passing pairs are matches, and a probe row whose
      // candidates all fail is NULL-padded below. Inner instead defers to
      // the vectorized FilterBatch over the emitted batch.
      if (residual_ != nullptr && join_type_ == JoinType::kLeftOuter) {
        PHOTON_ASSIGN_OR_RETURN(
            bool ok, ResidualMatches(*probe_batch_, row, chain_entry_));
        if (!ok) {
          chain_entry_ = VectorizedHashTable::next(chain_entry_);
          continue;
        }
      }
      EmitProbeColumns(*probe_batch_, row, out_row);
      EmitBuildColumns(chain_entry_, out_row);
      out_row++;
      chain_matched_ = true;
      chain_entry_ = VectorizedHashTable::next(chain_entry_);
    }
    if (chain_entry_ != nullptr) break;  // output batch full mid-chain
    if (join_type_ == JoinType::kLeftOuter && !chain_matched_) {
      if (out_row >= out_->capacity()) break;  // NULL-pad in the next batch
      EmitProbeColumns(*probe_batch_, row, out_row);
      EmitBuildColumns(nullptr, out_row);
      out_row++;
    }
    chain_open_ = false;
    probe_idx_++;
  }
  if (probe_idx_ >= n) probe_batch_ = nullptr;  // batch exhausted
  if (out_row == 0) return nullptr;
  out_->set_num_rows(out_row);
  out_->SetAllActive();
  if (residual_ != nullptr && join_type_ == JoinType::kInner) {
    ctx_.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(int active,
                            FilterBatch(*residual_, out_.get(), &ctx_));
    if (active == 0) return nullptr;
  }
  return out_.get();
}

Result<ColumnBatch*> HashJoinOperator::GetNextImpl() {
  if (!built_) {
    PHOTON_RETURN_NOT_OK(BuildPhase());
  }
  while (true) {
    if (probe_batch_ == nullptr) {
      PHOTON_ASSIGN_OR_RETURN(ColumnBatch * batch, ProbeNextBatch());
      if (batch == nullptr) return nullptr;
    }
    PHOTON_ASSIGN_OR_RETURN(ColumnBatch * out, EmitMatches());
    if (out != nullptr) return out;
  }
}

void HashJoinOperator::Close() {
  if (build_ != nullptr) build_->Close();
  probe_->Close();
  if (build_ != nullptr && state_ != nullptr &&
      state_->memory_manager != nullptr &&
      state_->reserved_bytes() > 0) {
    // Private build: release eagerly; a shared build's reservation is
    // released when the last prober drops its reference.
    state_->memory_manager->Release(state_.get(), state_->reserved_bytes());
    state_->reserved_for_data = 0;
  }
}

void HashJoinOperator::PublishMetricsImpl() {
  if (state_ == nullptr) return;
  int64_t peak = state_->peak_reserved_bytes();
  if (state_->table != nullptr && state_->table->memory_bytes() > peak) {
    peak = state_->table->memory_bytes();
  }
  stats_.SetMax(obs::Metric::kPeakReservedBytes, peak);
  if (build_ != nullptr) {
    // Private build: this operator did the reserving. (A shared build's
    // waits would be double-counted if every prober published them.)
    stats_.Add(obs::Metric::kReserveWaitNs, state_->reserve_wait_ns());
    stats_.Add(obs::Metric::kReserveWaits, state_->reserve_waits());
  }
}

}  // namespace photon
