#ifndef PHOTON_OPS_HASH_JOIN_H_
#define PHOTON_OPS_HASH_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "ht/vectorized_hash_table.h"
#include "ops/operator.h"

namespace photon {

enum class JoinType : uint8_t {
  kInner,
  kLeftOuter,  // probe side is the left/outer side
  kLeftSemi,
  kLeftAnti,
};

/// The materialized build side of a hash join: the (partitioned) vectorized
/// hash table plus the payload layout used to pack build columns into
/// entries. Built once (PartitionedJoinBuild / the join's own build phase)
/// and then immutable, so any number of probe tasks can share it
/// concurrently — the paper's broadcast-build, partition-parallel-probe
/// shape (§2.2).
///
/// It is the MemoryConsumer for the build memory; joins cannot release
/// memory mid-build, so Spill() is a no-op and other consumers spill on
/// the join's behalf (§5.3).
struct JoinBuildState : public MemoryConsumer {
  JoinBuildState() : MemoryConsumer("PhotonJoinBuild") {}
  ~JoinBuildState() override;

  int64_t Spill(int64_t) override { return 0; }

  std::unique_ptr<PartitionedHashTable> table;
  std::vector<int> payload_offsets;
  int payload_bytes = 0;
  Schema build_schema;
  int64_t build_rows = 0;
  int64_t reserved_for_data = 0;
  /// Manager the state is registered with (null = none); the destructor
  /// releases the build reservation and unregisters.
  MemoryManager* memory_manager = nullptr;
  bool registered = false;
};

using JoinBuildPtr = std::shared_ptr<JoinBuildState>;

/// Partition-parallel build of a shared JoinBuildState over a materialized
/// build table, in two phases whose units are independent tasks:
///   1. HashMorsel(m): for one morsel of build batches, evaluate the keys,
///      hash them and append (batch, row, hash) references to per-partition
///      lists. The build rows themselves are not copied.
///   2. InsertPartition(p): insert partition p's rows, in morsel order,
///      into partition p's table, sized up front from its row count so it
///      never grows.
/// A key's rows all land in one partition, in input order, so duplicate-key
/// chains come out exactly as a serial build chains them. Distinct morsels
/// (phase 1) and distinct partitions (phase 2) may run concurrently; the
/// phases must not overlap.
class PartitionedJoinBuild {
 public:
  /// A constant: the table layout never depends on the thread count.
  static constexpr int kPartitionBits = 4;

  /// Creates the build state and reserves its memory up front (§5.3)
  /// under `exec_ctx`'s memory manager and task group. `build` must stay
  /// alive and unchanged until Finish().
  static Result<std::unique_ptr<PartitionedJoinBuild>> Make(
      Table* build, std::vector<ExprPtr> keys, int batches_per_morsel,
      const ExecContext& exec_ctx);
  ~PartitionedJoinBuild();

  int num_morsels() const { return static_cast<int>(morsels_.size()); }
  int num_partitions() const { return 1 << kPartitionBits; }

  /// Phase 1 for morsel `m`.
  Status HashMorsel(int m);
  /// Phase 2 for partition `p`; returns the rows it inserted.
  int64_t InsertPartition(int p);
  /// Drops the row references and hands over the finished state.
  JoinBuildPtr Finish();

 private:
  struct RowRef {
    int32_t batch;
    int32_t row;
    uint64_t hash;
  };
  struct MorselRefs;

  PartitionedJoinBuild() = default;

  Table* build_ = nullptr;
  std::vector<ExprPtr> keys_;
  int batches_per_morsel_ = 1;
  JoinBuildPtr state_;
  int64_t reserved_for_refs_ = 0;
  std::vector<std::unique_ptr<MorselRefs>> morsels_;
  /// Evaluated key vectors per build batch (column refs point into the
  /// build table; computed keys live in their morsel's EvalContext).
  std::vector<std::vector<const ColumnVector*>> batch_keys_;
  std::vector<int64_t> partition_rows_;
};

/// Vectorized hash join (§4.4, Figure 4). The build side is materialized
/// into the vectorized hash table (entries are rows: keys + packed build
/// columns); the probe side streams through the three-step batched lookup.
///
/// Adaptive probe-side batch compaction (§4.6, Figure 9): when a probe
/// batch arrives sparse (most rows filtered out upstream), Photon compacts
/// it into a dense batch before probing so the bucket loads saturate memory
/// parallelism instead of paying per-miss latency on a mostly-idle batch.
///
/// Output is produced column at a time: walking the match chains records
/// *match vectors* — (probe row, build entry) pairs in output order, a null
/// entry for a NULL-padded left-outer row — and then each output column is
/// filled in one loop. Probe strings are emitted as refs (the probe batch
/// outlives the output batch, and every consumer that keeps a batch
/// deep-copies it); build columns are copied fixed-width out of the payload
/// slots, strings as refs into the build table's arena.
///
/// Semi/anti joins return the probe batch itself with its position list
/// narrowed to (non-)matching rows — no output copying at all. An optional
/// `residual` predicate supports non-equi conditions, evaluated vectorized
/// over batches of candidate pairs:
///   - inner: over the emitted output batch;
///   - left outer: over the emitted candidate pairs; passing pairs are
///     emitted in chain order, and a probe row whose candidates all fail is
///     emitted once NULL-padded (it is unmatched under the full condition);
///   - semi/anti: in rounds by chain position — each round tests the next
///     candidates of the probe rows still undecided, and a row is decided by
///     its first passing candidate or by running out of candidates.
class HashJoinOperator : public Operator {
 public:
  /// Self-building join: drains `build` into a private hash table on the
  /// first GetNext(), then probes.
  HashJoinOperator(OperatorPtr build, OperatorPtr probe,
                   std::vector<ExprPtr> build_keys,
                   std::vector<ExprPtr> probe_keys, JoinType join_type,
                   ExecContext exec_ctx = {}, ExprPtr residual = nullptr,
                   bool adaptive_compaction = true);

  /// Probe-only join over a pre-built shared table (parallel driver: many
  /// morsel tasks probing one build). The shared state must outlive all
  /// probers and is treated as read-only.
  HashJoinOperator(JoinBuildPtr build, OperatorPtr probe,
                   std::vector<ExprPtr> probe_keys, JoinType join_type,
                   ExecContext exec_ctx = {}, ExprPtr residual = nullptr,
                   bool adaptive_compaction = true);
  ~HashJoinOperator() override;

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonHashJoin"; }
  std::vector<Operator*> children() override {
    if (build_ == nullptr) return {probe_.get()};
    return {probe_.get(), build_.get()};
  }

  int64_t build_rows() const { return state_->build_rows; }
  int64_t compacted_batches() const { return compacted_batches_; }

  static Schema MakeOutputSchema(const Schema& build, const Schema& probe,
                                 JoinType join_type);

 protected:
  void PublishMetricsImpl() override;

 private:
  Status BuildPhase();
  Status ProbeBatch(ColumnBatch* batch);
  void DrainSparseSource();
  Result<ColumnBatch*> ProbeNextBatch();
  Result<ColumnBatch*> EmitMatches();
  Result<ColumnBatch*> EmitSemiAnti();
  /// Sets matched_[i] for every active probe row i that has a candidate
  /// passing the residual (semi/anti).
  Status MatchResidualByRound(const ColumnBatch& batch);
  /// Fills rows [0, n) of `dst` (probe columns, then build columns) from
  /// the first n match-vector pairs.
  void GatherPairs(const ColumnBatch& probe, int n, ColumnBatch* dst);
  /// Left outer with a residual: keeps the candidates among out_'s n pairs
  /// that pass (`bools`) and NULL-pads each finished probe row that had
  /// none. `carried`: the chain continued from the previous output batch
  /// already had a passing candidate.
  void ReduceOuterPasses(const ColumnVector& bools, int n, bool carried);

  OperatorPtr build_;  // null when probing a shared build
  OperatorPtr probe_;
  std::vector<ExprPtr> build_keys_;
  std::vector<ExprPtr> probe_keys_;
  JoinType join_type_;
  ExecContext exec_ctx_;
  ExprPtr residual_;
  bool adaptive_compaction_;

  JoinBuildPtr state_;  // private when build_ != null, else shared
  bool built_ = false;
  int64_t compacted_batches_ = 0;

  // Probe iteration state.
  ColumnBatch* probe_batch_ = nullptr;  // current (possibly compacted)
  // Compaction buffer: sparse batches coalesce here until dense.
  std::unique_ptr<ColumnBatch> accum_;
  int accum_rows_ = 0;
  bool accum_in_flight_ = false;
  ColumnBatch* pending_dense_ = nullptr;   // dense batch waiting behind accum
  ColumnBatch* accum_source_ = nullptr;    // sparse batch partially consumed
  int accum_source_pos_ = 0;
  std::vector<uint64_t> hashes_;
  std::vector<uint8_t*> match_heads_;
  VectorizedHashTable::ProbeScratch probe_scratch_;
  int probe_idx_ = 0;              // index into probe batch's active set
  const uint8_t* chain_entry_ = nullptr;
  bool chain_open_ = false;     // chain for current probe row initialized
  bool chain_matched_ = false;  // left outer: a cut chain's earlier part
                                // had a passing candidate

  // Match vectors of the batch being emitted: probe row and build entry
  // (nullptr = NULL-pad) per output slot.
  std::vector<int32_t> pair_rows_;
  std::vector<const uint8_t*> pair_entries_;
  std::vector<uint8_t> matched_;    // semi/anti: per active probe row
  std::vector<int> undecided_;      // semi/anti: active rows still open
  std::vector<int> round_ends_;     // semi/anti: slot end per round row

  std::unique_ptr<ColumnBatch> out_;
  std::unique_ptr<ColumnBatch> candidates_;  // semi/anti residual scratch
  EvalContext ctx_;
};

}  // namespace photon

#endif  // PHOTON_OPS_HASH_JOIN_H_
