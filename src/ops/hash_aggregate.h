#ifndef PHOTON_OPS_HASH_AGGREGATE_H_
#define PHOTON_OPS_HASH_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/agg_function.h"
#include "expr/expr.h"
#include "ht/vectorized_hash_table.h"
#include "ops/operator.h"
#include "storage/object_store.h"

namespace photon {

/// One aggregate in a grouping aggregation: kind + argument expression
/// (arg may be null for count(*)) + output column name.
struct AggregateSpec {
  AggKind kind;
  ExprPtr arg;
  std::string name;
};

/// Execution mode for a grouping aggregation under parallel execution
/// (paper §4: per-task hash tables + a reduce that merges their states).
///   kComplete   — classic single-pass aggregate: raw input in, final
///                 values out.
///   kPartial    — per-task half: raw input in, serialized (key, state)
///                 blobs out (same wire format as the spill files), exact
///                 for every aggregate kind. Each blob holds the entries of
///                 one final-merge partition and each output batch the
///                 blobs of one partition, so an exchange can route whole
///                 batches (§2.2).
///   kFinalMerge — merge half: blob rows in (from any number of partial
///                 tasks), final values out.
enum class AggMode : uint8_t { kComplete, kPartial, kFinalMerge };

/// Vectorized grouping aggregation over the vectorized hash table (§4.4,
/// Figure 5). Group keys and aggregate arguments are arbitrary
/// expressions; aggregate state lives in the hash table entry payload, with
/// variable-size state in a shared arena.
///
/// Memory is acquired in two phases per input batch (§5.3): a reservation
/// phase that may trigger spilling (of this operator or any other memory
/// consumer), then an allocation phase that cannot fail. When asked to
/// spill, the operator hash-partitions its current entries to the object
/// store and continues with an empty table; spilled partitions are merged
/// one at a time during output.
class HashAggregateOperator : public Operator, public MemoryConsumer {
 public:
  HashAggregateOperator(OperatorPtr child, std::vector<ExprPtr> keys,
                        std::vector<std::string> key_names,
                        std::vector<AggregateSpec> aggs,
                        ExecContext exec_ctx = {},
                        AggMode mode = AggMode::kComplete);
  ~HashAggregateOperator() override;

  /// Final-merge partitions of a grouped aggregate: a constant, so the
  /// merge's decomposition never depends on the thread count.
  static constexpr int kPartitionBits = 4;
  static constexpr int kNumPartitions = 1 << kPartitionBits;

  /// Output schema of a kPartial aggregate: the final-merge partition
  /// (Int32; 0 for a scalar aggregate) and the blob (String).
  static Schema PartialOutputSchema();

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonHashAggregate"; }
  std::vector<Operator*> children() override { return {child_.get()}; }

  /// MemoryConsumer: partitions and serializes all current entries to the
  /// object store, clears the table, returns the bytes released.
  int64_t Spill(int64_t requested) override;

  int64_t num_groups() const {
    return table_ == nullptr ? 0 : table_->num_entries();
  }

 protected:
  void PublishMetricsImpl() override;

 private:
  static constexpr int kSpillPartitions = kNumPartitions;
  /// Serialized entries decoded and merged per batch: enough to amortize
  /// the hash and probe calls, few enough that the batch's reservation
  /// fits a small memory budget.
  static constexpr int kMergeBatchEntries = 256;

  static Schema MakeOutputSchema(const std::vector<ExprPtr>& keys,
                                 const std::vector<std::string>& key_names,
                                 const std::vector<AggregateSpec>& aggs);

  Status ConsumeInput();
  Status ProcessBatch(ColumnBatch* batch);
  /// kFinalMerge input path: merges every blob row of `batch`.
  Status MergeBlobBatch(ColumnBatch* batch);
  /// Emits up to batch_size groups from the in-memory table.
  ColumnBatch* EmitFromTable();
  /// kPartial output path: serializes groups (or streams spill blocks)
  /// into blob rows.
  Result<ColumnBatch*> EmitPartial();
  /// Loads the next spilled partition into a fresh table (merging).
  Result<bool> LoadNextSpillPartition();
  void SerializeEntry(const uint8_t* entry, BinaryWriter* out) const;
  /// Merges serialized entries into the table a batch at a time. With
  /// `reserve`, each batch's worst-case growth is reserved before it is
  /// decoded (spill re-merges run unreserved: they must not spill again).
  Status MergeSpillBlock(std::string_view bytes, bool reserve);
  /// Decodes up to a merge batch of serialized entries into merge_keys_ and
  /// merge_states_; returns how many.
  Result<int> DecodeMergeBatch(BinaryReader* reader);
  int SpillPartitionOf(uint64_t hash) const;
  /// Orders `emit_entries_` by (hash, key): a reproducible order for a
  /// re-merged spill partition, whose table insertion order depends on
  /// when memory pressure struck.
  void SortEmitEntries();
  int64_t CurrentMemoryBytes() const;
  Status ReserveForDelta();
  /// Tops up or returns reservation so it matches CurrentMemoryBytes().
  Status SettleReservation();
  /// Reserve(), surfacing a failed spill's error over the reservation's.
  Status Reserve(int64_t bytes);
  void DeleteSpillFiles();

  OperatorPtr child_;
  std::vector<ExprPtr> keys_;
  std::vector<AggregateSpec> specs_;
  std::vector<std::unique_ptr<AggregateFunction>> aggs_;
  std::vector<int> agg_state_offsets_;
  int payload_bytes_ = 0;
  ExecContext exec_ctx_;
  AggMode mode_ = AggMode::kComplete;

  std::unique_ptr<VectorizedHashTable> table_;
  std::unique_ptr<VarLenPool> arena_;
  // Scalar (no GROUP BY) state.
  std::vector<uint8_t> scalar_state_;
  bool scalar_mode_ = false;

  // Phase tracking.
  bool input_consumed_ = false;
  bool scalar_emitted_ = false;
  std::vector<uint8_t*> emit_entries_;
  size_t emit_pos_ = 0;
  std::unique_ptr<ColumnBatch> out_;

  // Spill bookkeeping.
  std::vector<std::vector<std::string>> spill_keys_;  // per partition
  int spill_seq_ = 0;
  int current_spill_partition_ = -1;
  int64_t reserved_for_data_ = 0;
  /// First spill write failure (sticky): Spill() cannot return a Status,
  /// so the error surfaces at the operator's next reservation.
  Status spill_status_;

  // kPartial emission state: spilled blocks are streamed out raw (they
  // already hold serialized entries in the blob wire format), as
  // (partition, spill key) in partition order.
  std::vector<std::pair<int, std::string>> partial_spill_stream_;
  size_t partial_spill_pos_ = 0;

  // Batched merge scratch: decoded keys and states of up to a batch of
  // serialized entries.
  std::unique_ptr<ColumnBatch> merge_keys_;
  std::vector<uint8_t> merge_states_;
  int merge_state_stride_ = 0;
  std::unique_ptr<VarLenPool> merge_arena_;

  // Scratch.
  EvalContext ctx_;
  std::vector<uint64_t> hashes_;
  std::vector<uint8_t*> entries_;
  std::unique_ptr<bool[]> inserted_;
  int inserted_capacity_ = 0;
};

}  // namespace photon

#endif  // PHOTON_OPS_HASH_AGGREGATE_H_
