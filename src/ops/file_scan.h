#ifndef PHOTON_OPS_FILE_SCAN_H_
#define PHOTON_OPS_FILE_SCAN_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "expr/fusion.h"
#include "io/caching_store.h"
#include "io/prefetcher.h"
#include "ops/operator.h"
#include "storage/delta.h"
#include "storage/format.h"

namespace photon {

/// Scans columnar files from the object store, one row group per batch,
/// with column projection and min/max predicate skipping at both file and
/// row-group granularity. An optional residual predicate is applied to
/// surviving batches (scan-level filtering): through `predicate_unit`, the
/// predicate compiled once per plan into a FusedUnit and run by this
/// scan's own FusedUnitState on the tier `policy` picks, or — when no unit
/// is given (the tree tier, the baseline's and the converter's scans) —
/// one vectorized kernel per expression node through FilterBatch.
///
/// IO path (src/io): file bytes are fetched through a CachingStore, so a
/// shared BlockCache turns repeated (warm) scans into memory reads, and —
/// when an executor thread pool is supplied — an async Prefetcher keeps
/// the next files in flight while the current one is decoded, overlapping
/// simulated object-store latency with compute (the paper's NVMe cache +
/// async IO scan path, §2).
class FileScanOperator : public Operator {
 public:
  /// `columns` selects fields by index into the file schema (empty = all).
  FileScanOperator(ObjectStore* store, std::vector<std::string> file_keys,
                   Schema file_schema, std::vector<int> columns = {},
                   ExprPtr predicate = nullptr, io::IoOptions io = {},
                   std::shared_ptr<const FusedUnit> predicate_unit = nullptr,
                   ExprPolicy policy = ExprPolicy::kCompiledOnly);

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonFileScan"; }

  static Schema Project(const Schema& schema, const std::vector<int>& cols);

 protected:
  /// Folds cache/prefetch and predicate-tier state into the metric set
  /// (kCacheHits, kPrefetchWaitNs, kExpr*Batches, kScratchPool*);
  /// bytes/files/row-group counters are recorded
  /// directly in GetNextImpl. All scan IO stats live in op_metrics() —
  /// there are no special-cased accessors.
  void PublishMetricsImpl() override;

 private:
  std::vector<std::string> file_keys_;
  Schema file_schema_;
  std::vector<int> columns_;
  ExprPtr predicate_;
  std::unique_ptr<FusedUnitState> predicate_state_;  // null = tree tier
  std::unique_ptr<io::CachingStore> io_;
  std::unique_ptr<io::Prefetcher> prefetcher_;

  size_t next_file_ = 0;
  std::unique_ptr<FileReader> reader_;
  int next_row_group_ = 0;
  std::unique_ptr<ColumnBatch> current_;
  EvalContext ctx_;
};

/// Stats-based file pruning for a Delta snapshot (data skipping, §2.1):
/// returns the object-store keys of files whose min/max stats may match
/// `predicate` (over the projected schema). Used by DeltaScanOperator and
/// by the parallel driver's morsel planner, which splits the surviving
/// file list across tasks.
std::vector<std::string> PruneDeltaFiles(const DeltaSnapshot& snapshot,
                                         const std::vector<int>& columns,
                                         const ExprPtr& predicate,
                                         const Schema& projected_schema,
                                         int64_t* files_pruned);

/// Scans a Delta table snapshot: prunes files by stats, then chains
/// FileScan over the survivors. This is the "Lakehouse read path":
/// Delta log -> file pruning -> columnar scan -> Photon batches.
class DeltaScanOperator : public Operator {
 public:
  DeltaScanOperator(ObjectStore* store, DeltaSnapshot snapshot,
                    std::vector<int> columns = {},
                    ExprPtr predicate = nullptr, io::IoOptions io = {});

  Status Open() override;
  Result<ColumnBatch*> GetNextImpl() override;
  void Close() override;
  std::string name() const override { return "PhotonDeltaScan"; }
  std::vector<Operator*> children() override { return {inner_.get()}; }

  int64_t files_pruned() const { return files_pruned_; }

 private:
  std::unique_ptr<FileScanOperator> inner_;
  int64_t files_pruned_ = 0;
};

}  // namespace photon

#endif  // PHOTON_OPS_FILE_SCAN_H_
