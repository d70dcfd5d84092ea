#include "exec/dml.h"

#include <algorithm>
#include <utility>

#include "expr/builder.h"

namespace photon {
namespace dml {
namespace {

/// Single-file view of a snapshot: the per-file copy-on-write unit. Every
/// DML scan pins the snapshot's version, so concurrent commits never leak
/// into an in-flight rewrite.
plan::PlanPtr FileScan(DeltaTable* table, const DeltaSnapshot& snapshot,
                       const DeltaFileEntry& file, const io::IoOptions& io,
                       ExprPtr scan_predicate = nullptr) {
  DeltaSnapshot one;
  one.version = snapshot.version;
  one.schema = snapshot.schema;
  one.files.push_back(file);
  return plan::DeltaScan(table->store(), std::move(one), {},
                         std::move(scan_predicate), io);
}

void ReleaseAll(DeltaTable* table, const std::vector<DeltaFileEntry>& staged) {
  for (const DeltaFileEntry& e : staged) table->ReleaseDataFile(e.key);
}

Status CheckCancelled(const ExecContext& ctx) {
  return ctx.control != nullptr ? ctx.control->Check() : Status::OK();
}

/// Rows a DELETE keeps: predicate false OR NULL (three-valued logic — a
/// NULL predicate does not delete the row).
ExprPtr SurvivorPredicate(const ExprPtr& pred) {
  return eb::Or(eb::Not(pred), eb::IsNull(pred));
}

ExprPtr ColRef(const Schema& schema, int index) {
  const Field& f = schema.field(index);
  return eb::Col(index, f.type, f.name);
}

/// Casts `e` to the column type iff it differs (the SQL analyzer coerces
/// ahead of time; plan-level callers get the same safety net).
ExprPtr CastTo(ExprPtr e, const DataType& type) {
  if (e->type() == type) return e;
  return eb::Cast(std::move(e), type);
}

std::vector<std::string> FieldNames(const Schema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) names.push_back(f.name);
  return names;
}

Status RetriesExhausted(const DeltaTable& table, const char* op,
                        int retries) {
  return Status::CommitConflict(std::string(op) + " on '" + table.path() +
                                "' still conflicting after " +
                                std::to_string(retries) + " retries");
}

}  // namespace

Result<DmlResult> ExecuteDelete(DeltaTable* table, const ExprPtr& predicate,
                                exec::Driver* driver, const ExecContext& ctx,
                                const DmlOptions& options) {
  PHOTON_CHECK(predicate != nullptr);
  DmlResult result;
  int64_t conflicts = 0;
  for (int attempt = 0; attempt <= options.max_retries; attempt++) {
    PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, table->Snapshot());
    std::vector<DeltaFileEntry> candidates =
        DeltaTable::PruneFiles(snapshot, predicate);
    result = DmlResult{};
    result.conflicts_retried = conflicts;
    result.files_pruned =
        static_cast<int64_t>(snapshot.files.size() - candidates.size());

    DeltaTransaction tx;
    tx.read_version = snapshot.version;
    tx.schema = snapshot.schema;
    tx.read_predicate = predicate;
    std::vector<DeltaFileEntry> staged;
    Status failed = Status::OK();
    for (const DeltaFileEntry& file : candidates) {
      failed = CheckCancelled(ctx);
      if (!failed.ok()) break;
      Result<Table> survivors = driver->Run(
          plan::Filter(FileScan(table, snapshot, file, options.io),
                       SurvivorPredicate(predicate)),
          ctx);
      if (!survivors.ok()) {
        failed = survivors.status();
        break;
      }
      const int64_t matched = file.num_rows - survivors->num_rows();
      if (matched == 0) continue;  // stats matched but no row did
      result.rows_affected += matched;
      tx.read_files.push_back(file.key);
      tx.remove_keys.push_back(file.key);
      if (survivors->num_rows() > 0) {
        Result<DeltaFileEntry> entry =
            table->WriteDataFile(*survivors, options.write);
        if (!entry.ok()) {
          failed = entry.status();
          break;
        }
        staged.push_back(*std::move(entry));
      }
    }
    if (!failed.ok()) {
      ReleaseAll(table, staged);
      return failed;
    }
    if (tx.remove_keys.empty()) {
      result.version = snapshot.version;  // matched nothing: no commit
      return result;
    }
    result.files_rewritten = static_cast<int64_t>(tx.remove_keys.size());
    tx.add_files = std::move(staged);
    Result<int64_t> version = table->Commit(tx);
    if (version.ok()) {
      result.version = *version;
      return result;
    }
    ReleaseAll(table, tx.add_files);
    if (!version.status().IsCommitConflict()) return version.status();
    conflicts++;
  }
  return RetriesExhausted(*table, "delete", options.max_retries);
}

Result<DmlResult> ExecuteUpdate(DeltaTable* table,
                                const std::vector<UpdateAssignment>& set,
                                const ExprPtr& predicate,
                                exec::Driver* driver, const ExecContext& ctx,
                                const DmlOptions& options) {
  PHOTON_CHECK(!set.empty());
  for (const UpdateAssignment& a : set) {
    PHOTON_CHECK(a.column >= 0 && a.value != nullptr);
  }
  DmlResult result;
  int64_t conflicts = 0;
  for (int attempt = 0; attempt <= options.max_retries; attempt++) {
    PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, table->Snapshot());
    const Schema& schema = snapshot.schema;
    std::vector<DeltaFileEntry> candidates =
        DeltaTable::PruneFiles(snapshot, predicate);
    result = DmlResult{};
    result.conflicts_retried = conflicts;
    result.files_pruned =
        static_cast<int64_t>(snapshot.files.size() - candidates.size());

    // The rewrite projection: assigned columns take If(pred, value, old),
    // the rest pass through. With no predicate every row is assigned.
    std::vector<ExprPtr> exprs;
    for (int i = 0; i < schema.num_fields(); i++) {
      exprs.push_back(ColRef(schema, i));
    }
    for (const UpdateAssignment& a : set) {
      PHOTON_CHECK(a.column < schema.num_fields());
      const DataType& type = schema.field(a.column).type;
      ExprPtr value = CastTo(a.value, type);
      exprs[a.column] =
          predicate != nullptr
              ? eb::If(predicate, std::move(value), ColRef(schema, a.column))
              : std::move(value);
    }

    DeltaTransaction tx;
    tx.read_version = snapshot.version;
    tx.schema = schema;
    if (predicate != nullptr) {
      tx.read_predicate = predicate;  // phantom protection
    } else {
      tx.reads_all_files = true;  // unqualified UPDATE touches every row
    }
    std::vector<DeltaFileEntry> staged;
    Status failed = Status::OK();
    for (const DeltaFileEntry& file : candidates) {
      failed = CheckCancelled(ctx);
      if (!failed.ok()) break;
      int64_t matched = file.num_rows;
      if (predicate != nullptr) {
        // Count matching rows first (with stats pushdown — only matches
        // are needed) so untouched files are never rewritten.
        Result<Table> matches = driver->Run(
            plan::Filter(FileScan(table, snapshot, file, options.io,
                                  predicate),
                         predicate),
            ctx);
        if (!matches.ok()) {
          failed = matches.status();
          break;
        }
        matched = matches->num_rows();
      }
      if (matched == 0) continue;
      Result<Table> rewritten = driver->Run(
          plan::Project(FileScan(table, snapshot, file, options.io), exprs,
                        FieldNames(schema)),
          ctx);
      if (!rewritten.ok()) {
        failed = rewritten.status();
        break;
      }
      Result<DeltaFileEntry> entry =
          table->WriteDataFile(*rewritten, options.write);
      if (!entry.ok()) {
        failed = entry.status();
        break;
      }
      result.rows_affected += matched;
      tx.read_files.push_back(file.key);
      tx.remove_keys.push_back(file.key);
      staged.push_back(*std::move(entry));
    }
    if (!failed.ok()) {
      ReleaseAll(table, staged);
      return failed;
    }
    if (tx.remove_keys.empty()) {
      result.version = snapshot.version;
      return result;
    }
    result.files_rewritten = static_cast<int64_t>(tx.remove_keys.size());
    tx.add_files = std::move(staged);
    Result<int64_t> version = table->Commit(tx);
    if (version.ok()) {
      result.version = *version;
      return result;
    }
    ReleaseAll(table, tx.add_files);
    if (!version.status().IsCommitConflict()) return version.status();
    conflicts++;
  }
  return RetriesExhausted(*table, "update", options.max_retries);
}

Result<DmlResult> ExecuteMerge(DeltaTable* table, const MergeSpec& spec,
                               exec::Driver* driver, const ExecContext& ctx,
                               const DmlOptions& options) {
  PHOTON_CHECK(spec.source != nullptr);
  PHOTON_CHECK(!spec.target_keys.empty() &&
               spec.target_keys.size() == spec.source_keys.size());
  DmlResult result;
  int64_t conflicts = 0;
  for (int attempt = 0; attempt <= options.max_retries; attempt++) {
    PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, table->Snapshot());
    const Schema& schema = snapshot.schema;
    const int target_width = schema.num_fields();
    if (!spec.matched_exprs.empty()) {
      PHOTON_CHECK(static_cast<int>(spec.matched_exprs.size()) ==
                   target_width);
    }
    if (!spec.insert_exprs.empty()) {
      PHOTON_CHECK(static_cast<int>(spec.insert_exprs.size()) ==
                   target_width);
    }
    result = DmlResult{};
    result.conflicts_retried = conflicts;

    // Materialize the source once per attempt; both the per-file outer
    // joins and the not-matched anti join read this one table.
    PHOTON_ASSIGN_OR_RETURN(Table source, driver->Run(spec.source, ctx));
    const Schema& src_schema = source.schema();

    // Equi-join keys, cast to a common type when the sides differ.
    const size_t num_keys = spec.target_keys.size();
    std::vector<ExprPtr> target_key_exprs;
    std::vector<ExprPtr> source_key_exprs;
    for (size_t k = 0; k < num_keys; k++) {
      PHOTON_CHECK(spec.target_keys[k] >= 0 &&
                   spec.target_keys[k] < target_width);
      PHOTON_CHECK(spec.source_keys[k] >= 0 &&
                   spec.source_keys[k] < src_schema.num_fields());
      ExprPtr t = ColRef(schema, spec.target_keys[k]);
      ExprPtr s = ColRef(src_schema, spec.source_keys[k]);
      DataType common = eb::CommonType(t->type(), s->type());
      target_key_exprs.push_back(CastTo(std::move(t), common));
      source_key_exprs.push_back(CastTo(std::move(s), common));
    }

    DeltaTransaction tx;
    tx.read_version = snapshot.version;
    tx.schema = schema;
    // The matched/not-matched split reads the entire table: any concurrent
    // add or remove invalidates it.
    tx.reads_all_files = true;
    std::vector<DeltaFileEntry> staged;
    Status failed = Status::OK();

    // WHEN MATCHED: per-file left-outer join target ⋈ source; rows whose
    // source side joined are rewritten through matched_exprs.
    if (!spec.matched_exprs.empty()) {
      // In the joined row [target cols..., source cols...] a non-null
      // source key marks a match (null keys never join).
      const int probe_key_col =
          target_width + spec.source_keys[0];
      for (const DeltaFileEntry& file : snapshot.files) {
        failed = CheckCancelled(ctx);
        if (!failed.ok()) break;
        plan::PlanPtr joined_plan = plan::Join(
            FileScan(table, snapshot, file, options.io),
            plan::Scan(&source), JoinType::kLeftOuter, target_key_exprs,
            source_key_exprs);
        const Schema joined_schema = joined_plan->output_schema;
        ExprPtr is_matched = eb::IsNotNull(ColRef(joined_schema,
                                                  probe_key_col));
        Result<Table> joined = driver->Run(joined_plan, ctx);
        if (!joined.ok()) {
          failed = joined.status();
          break;
        }
        Result<Table> matches = driver->Run(
            plan::Filter(plan::Scan(&*joined), is_matched), ctx);
        if (!matches.ok()) {
          failed = matches.status();
          break;
        }
        const int64_t matched = matches->num_rows();
        if (matched == 0) continue;
        std::vector<ExprPtr> exprs;
        for (int i = 0; i < target_width; i++) {
          const DataType& type = schema.field(i).type;
          exprs.push_back(eb::If(is_matched,
                                 CastTo(spec.matched_exprs[i], type),
                                 ColRef(joined_schema, i)));
        }
        Result<Table> rewritten = driver->Run(
            plan::Project(plan::Scan(&*joined), exprs, FieldNames(schema)),
            ctx);
        if (!rewritten.ok()) {
          failed = rewritten.status();
          break;
        }
        Result<DeltaFileEntry> entry =
            table->WriteDataFile(*rewritten, options.write);
        if (!entry.ok()) {
          failed = entry.status();
          break;
        }
        result.rows_affected += matched;
        tx.read_files.push_back(file.key);
        tx.remove_keys.push_back(file.key);
        staged.push_back(*std::move(entry));
      }
    }

    // WHEN NOT MATCHED: anti-join the source against the target keys that
    // match it; survivors become one inserted file. The whole target's key
    // columns stream through a semi join against the source, so both hash
    // builds hold at most the source's rows.
    if (failed.ok() && !spec.insert_exprs.empty()) {
      failed = CheckCancelled(ctx);
      if (failed.ok()) {
        std::vector<int> key_cols(spec.target_keys.begin(),
                                  spec.target_keys.end());
        plan::PlanPtr target_keys =
            plan::DeltaScan(table->store(), snapshot, key_cols, nullptr,
                            options.io);
        std::vector<ExprPtr> key_exprs;  // over target_keys' columns
        for (size_t k = 0; k < num_keys; k++) {
          ExprPtr t = ColRef(target_keys->output_schema, static_cast<int>(k));
          key_exprs.push_back(
              CastTo(std::move(t), source_key_exprs[k]->type()));
        }
        Result<Table> matched_keys = driver->Run(
            plan::Join(target_keys, plan::Scan(&source), JoinType::kLeftSemi,
                       key_exprs, source_key_exprs),
            ctx);
        Result<Table> unmatched =
            matched_keys.ok()
                ? driver->Run(plan::Join(plan::Scan(&source),
                                         plan::Scan(&*matched_keys),
                                         JoinType::kLeftAnti,
                                         source_key_exprs, key_exprs),
                              ctx)
                : matched_keys.status();
        if (!unmatched.ok()) {
          failed = unmatched.status();
        } else if (unmatched->num_rows() > 0) {
          std::vector<ExprPtr> exprs;
          for (int i = 0; i < target_width; i++) {
            exprs.push_back(
                CastTo(spec.insert_exprs[i], schema.field(i).type));
          }
          Result<Table> inserts = driver->Run(
              plan::Project(plan::Scan(&*unmatched), exprs,
                            FieldNames(schema)),
              ctx);
          if (!inserts.ok()) {
            failed = inserts.status();
          } else {
            Result<DeltaFileEntry> entry =
                table->WriteDataFile(*inserts, options.write);
            if (!entry.ok()) {
              failed = entry.status();
            } else {
              result.rows_inserted = inserts->num_rows();
              staged.push_back(*std::move(entry));
            }
          }
        }
      }
    }

    if (!failed.ok()) {
      ReleaseAll(table, staged);
      return failed;
    }
    if (staged.empty() && tx.remove_keys.empty()) {
      result.version = snapshot.version;  // nothing matched, nothing to add
      return result;
    }
    result.files_rewritten = static_cast<int64_t>(tx.remove_keys.size());
    tx.add_files = std::move(staged);
    Result<int64_t> version = table->Commit(tx);
    if (version.ok()) {
      result.version = *version;
      return result;
    }
    ReleaseAll(table, tx.add_files);
    if (!version.status().IsCommitConflict()) return version.status();
    conflicts++;
  }
  return RetriesExhausted(*table, "merge", options.max_retries);
}

}  // namespace dml
}  // namespace photon
