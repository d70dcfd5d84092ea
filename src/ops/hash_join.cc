#include "ops/hash_join.h"

#include <algorithm>
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
/// to `table`'s arena (the partition holding the entry). A NULL value's
/// bytes are zeroed, so a gathered NULL string is an empty ref.
void WriteBuildPayload(const JoinBuildState& state, VectorizedHashTable* table,
                       const ColumnBatch& batch, int row, uint8_t* entry) {
  uint8_t* payload = table->payload(entry);
  for (int c = 0; c < state.build_schema.num_fields(); c++) {
    uint8_t* slot = payload + state.payload_offsets[c];
    const ColumnVector& col = *batch.column(c);
    const int width = col.type().byte_width();
    *slot = col.IsNull(row) ? 1 : 0;
    if (*slot) {
      std::memset(slot + 1, 0, width);
    } else if (col.type().is_var_len()) {
      StringRef owned =
          table->string_arena()->AddString(col.data<StringRef>()[row]);
      std::memcpy(slot + 1, &owned, sizeof(owned));
    } else {
      std::memcpy(slot + 1,
                  col.data<uint8_t>() + static_cast<size_t>(row) * width,
                  width);
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

/// A payload slot standing for a NULL-padded (left outer) build row.
constexpr uint8_t kNullSlot[1 + 16] = {1};

/// Copies one W-byte build column out of the payload slots of `entries`
/// into rows [0, n) of `out`; a null entry NULL-pads. Strings come out as
/// refs into the build table's arena.
template <int W>
void GatherPayloadColumn(const PartitionedHashTable& table,
                         const uint8_t* const* entries, int n, int offset,
                         ColumnVector* out) {
  uint8_t* PHOTON_RESTRICT values = out->data<uint8_t>();
  uint8_t* PHOTON_RESTRICT nulls = out->nulls();
  uint8_t any_null = 0;
  for (int i = 0; i < n; i++) {
    const uint8_t* slot = entries[i] == nullptr
                              ? kNullSlot
                              : table.payload(entries[i]) + offset;
    nulls[i] = slot[0];
    any_null |= slot[0];
    std::memcpy(values + static_cast<size_t>(i) * W, slot + 1, W);
  }
  out->set_has_nulls(any_null ? TriState::kYes : TriState::kNo);
  out->set_all_ascii(TriState::kUnknown);
}

/// Fills the build columns of `dst` (starting at column `first_col`) from
/// `entries`, with one dispatch (on byte width) per column.
void GatherBuildColumns(const JoinBuildState& state,
                        const uint8_t* const* entries, int n, ColumnBatch* dst,
                        int first_col) {
  const PartitionedHashTable& table = *state.table;
  for (int c = 0; c < state.build_schema.num_fields(); c++) {
    ColumnVector* out = dst->column(first_col + c);
    const int offset = state.payload_offsets[c];
    switch (out->type().byte_width()) {
      case 1:
        GatherPayloadColumn<1>(table, entries, n, offset, out);
        break;
      case 4:
        GatherPayloadColumn<4>(table, entries, n, offset, out);
        break;
      case 8:
        GatherPayloadColumn<8>(table, entries, n, offset, out);
        break;
      default:
        GatherPayloadColumn<16>(table, entries, n, offset, out);
        break;
    }
  }
}

/// Whether the residual passed at `row`: true and not NULL, as in
/// ApplyBooleanFilter.
bool Passed(const ColumnVector& bools, int row) {
  return bools.data<uint8_t>()[row] != 0 && !bools.IsNull(row);
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

/// Gathers active rows of `accum_source_` (from `accum_source_pos_`) into
/// the compaction buffer until it fills or the source is drained. Strings
/// are deep-copied: the source batch is gone by the time the buffer is
/// probed.
void HashJoinOperator::DrainSparseSource() {
  PHOTON_DCHECK(!accum_source_->all_active());
  const int n = accum_source_->num_active();
  const int take = std::min(n - accum_source_pos_,
                            accum_->capacity() - accum_rows_);
  GatherRows(*accum_source_, accum_source_->pos_list() + accum_source_pos_,
             take, accum_.get(), accum_rows_, StringGather::kCopy);
  accum_source_pos_ += take;
  accum_rows_ += take;
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

void HashJoinOperator::GatherPairs(const ColumnBatch& probe, int n,
                                   ColumnBatch* dst) {
  GatherRows(probe, pair_rows_.data(), n, dst, 0, StringGather::kRef);
  GatherBuildColumns(*state_, pair_entries_.data(), n, dst,
                     probe.num_columns());
  dst->set_num_rows(n);
  dst->SetAllActive();
}

Status HashJoinOperator::MatchResidualByRound(const ColumnBatch& batch) {
  const int n = batch.num_active();
  if (candidates_ == nullptr || candidates_->capacity() < n) {
    candidates_ = std::make_unique<ColumnBatch>(
        MakeOutputSchema(state_->build_schema, probe_->output_schema(),
                         JoinType::kInner),
        std::max(n, exec_ctx_.batch_size));
  }
  const int cap = candidates_->capacity();
  pair_rows_.resize(cap);
  pair_entries_.resize(cap);
  // match_heads_[i] serves as row i's cursor: the next untested candidate.
  undecided_.clear();
  for (int i = 0; i < n; i++) {
    if (match_heads_[i] != nullptr) undecided_.push_back(i);
  }
  while (!undecided_.empty()) {
    // One round, one candidate batch: the next `per_row` candidates of
    // every undecided row. For a full probe batch it starts at one
    // (Q21-shaped joins mostly decide on the first candidate) and widens
    // as rows are decided, so long chains take few rounds.
    const int per_row = cap / static_cast<int>(undecided_.size());
    int count = 0;
    round_ends_.clear();
    for (const int i : undecided_) {
      const int row = batch.ActiveRow(i);
      uint8_t*& cursor = match_heads_[i];
      for (int k = 0; k < per_row && cursor != nullptr; k++) {
        pair_rows_[count] = row;
        pair_entries_[count] = cursor;
        count++;
        cursor = VectorizedHashTable::next(cursor);
      }
      round_ends_.push_back(count);
    }
    candidates_->Reset();
    GatherPairs(batch, count, candidates_.get());
    ctx_.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(ColumnVector * bools,
                            residual_->Evaluate(candidates_.get(), &ctx_));
    size_t kept = 0;
    int slot = 0;
    for (size_t r = 0; r < undecided_.size(); r++) {
      const int i = undecided_[r];
      bool hit = false;
      for (; slot < round_ends_[r]; slot++) hit |= Passed(*bools, slot);
      if (hit) {
        matched_[i] = 1;
      } else if (match_heads_[i] != nullptr) {
        undecided_[kept++] = i;
      }
    }
    undecided_.resize(kept);
  }
  return Status::OK();
}

Result<ColumnBatch*> HashJoinOperator::EmitSemiAnti() {
  // Narrow the probe batch's position list in place.
  ColumnBatch* batch = probe_batch_;
  probe_batch_ = nullptr;  // fully consumed
  const int n = batch->num_active();
  matched_.assign(n, 0);
  if (residual_ == nullptr) {
    for (int i = 0; i < n; i++) matched_[i] = match_heads_[i] != nullptr;
  } else {
    PHOTON_RETURN_NOT_OK(MatchResidualByRound(*batch));
  }
  const uint8_t keep = join_type_ == JoinType::kLeftSemi ? 1 : 0;
  int32_t* pos = batch->mutable_pos_list();
  int out = 0;
  for (int i = 0; i < n; i++) {
    const int row = batch->ActiveRow(i);
    if (matched_[i] == keep) pos[out++] = row;
  }
  batch->SetActiveRows(out);
  return out > 0 ? batch : nullptr;
}

void HashJoinOperator::ReduceOuterPasses(const ColumnVector& bools, int n,
                                         bool carried) {
  // A probe row's slots are consecutive; a null entry is a row without
  // candidates, already NULL-padded.
  int32_t* pos = out_->mutable_pos_list();
  int kept = 0;
  int begin = 0;       // first slot of the current probe row
  bool any = carried;  // the current row has a passing candidate
  for (int s = 0; s < n; s++) {
    if (s > 0 && pair_rows_[s] != pair_rows_[s - 1]) {
      begin = s;
      any = false;
    }
    if (pair_entries_[s] == nullptr || Passed(bools, s)) {
      pos[kept++] = s;
      any = true;
    }
    const bool row_done =
        s + 1 < n ? pair_rows_[s + 1] != pair_rows_[s] : !chain_open_;
    if (row_done && !any) {
      // Every candidate failed: the row's first slot becomes its
      // NULL-padded output.
      for (int c = probe_->output_schema().num_fields();
           c < out_->num_columns(); c++) {
        out_->column(c)->SetNull(begin);
      }
      pos[kept++] = begin;
    }
  }
  if (chain_open_) chain_matched_ = any;  // continues in the next batch
  out_->SetActiveRows(kept);
}

Result<ColumnBatch*> HashJoinOperator::EmitMatches() {
  if (join_type_ == JoinType::kLeftSemi || join_type_ == JoinType::kLeftAnti) {
    return EmitSemiAnti();
  }

  // Inner / left outer: record the match vectors of one output batch, in
  // probe order and chain order, then gather them column by column.
  if (out_ == nullptr) {
    out_ = std::make_unique<ColumnBatch>(output_schema_,
                                         exec_ctx_.batch_size);
  }
  out_->Reset();
  const bool outer = join_type_ == JoinType::kLeftOuter;
  const int cap = out_->capacity();
  pair_rows_.resize(cap);
  pair_entries_.resize(cap);
  // A chain cut by the previous output batch continues here.
  const bool carried = chain_open_ && chain_matched_;

  ColumnBatch* probe = probe_batch_;
  const int n = probe->num_active();
  int count = 0;
  while (probe_idx_ < n && count < cap) {
    const int row = probe->ActiveRow(probe_idx_);
    if (!chain_open_) {
      chain_entry_ = match_heads_[probe_idx_];
      if (chain_entry_ == nullptr) {
        if (outer) {  // unmatched left-outer row: one NULL-padded slot
          pair_rows_[count] = row;
          pair_entries_[count] = nullptr;
          count++;
        }
        probe_idx_++;
        continue;
      }
      chain_open_ = true;
    }
    while (chain_entry_ != nullptr && count < cap) {
      pair_rows_[count] = row;
      pair_entries_[count] = chain_entry_;
      count++;
      chain_entry_ = VectorizedHashTable::next(chain_entry_);
    }
    if (chain_entry_ != nullptr) break;  // output batch full mid-chain
    chain_open_ = false;
    probe_idx_++;
  }
  if (probe_idx_ >= n) probe_batch_ = nullptr;  // batch exhausted
  if (count == 0) return nullptr;

  GatherPairs(*probe, count, out_.get());
  if (residual_ != nullptr) {
    ctx_.ResetPerBatch();
    PHOTON_ASSIGN_OR_RETURN(ColumnVector * bools,
                            residual_->Evaluate(out_.get(), &ctx_));
    if (outer) {
      ReduceOuterPasses(*bools, count, carried);
    } else {
      ApplyBooleanFilter(*bools, out_.get());
    }
    if (out_->num_active() == 0) return nullptr;
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
