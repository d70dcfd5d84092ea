#include "testing/differ.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "baseline/row_operator.h"
#include "common/rng.h"
#include "exec/compactor.h"
#include "exec/dml.h"
#include "expr/builder.h"
#include "memory/memory_manager.h"
#include "service/query_service.h"
#include "sql/analyzer.h"
#include "sql/catalog.h"
#include "sql/printer.h"
#include "storage/delta.h"
#include "testing/sql_mutator.h"

namespace photon {
namespace testing {

// Doubles render at full %.17g precision: both engines compute per-row
// IEEE ops in the same order, so agreement is textual equality, and
// NaN/-0.0 (which Value::Equals rejects) compare fine as text.
CanonicalResult Canonicalize(const Table& table) {
  const Schema& schema = table.schema();
  std::vector<std::vector<Value>> rows = table.ToRows();
  CanonicalResult out;
  out.reserve(rows.size());
  for (const std::vector<Value>& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (size_t c = 0; c < row.size(); c++) {
      const Value& v = row[c];
      if (v.is_null()) {
        cells.push_back("∅");
      } else if (schema.field(static_cast<int>(c)).type.id() ==
                 TypeId::kFloat64) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v.f64());
        cells.push_back(buf);
      } else {
        cells.push_back(v.ToString());
      }
    }
    out.push_back(std::move(cells));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string DiffCanonical(const CanonicalResult& a, const CanonicalResult& b,
                          const std::string& label_a,
                          const std::string& label_b) {
  std::ostringstream msg;
  if (a.size() != b.size()) {
    msg << label_a << " returned " << a.size() << " rows, " << label_b
        << " returned " << b.size() << " rows";
    return msg.str();
  }
  for (size_t r = 0; r < a.size(); r++) {
    if (a[r] == b[r]) continue;
    size_t c = 0;
    while (c < a[r].size() && c < b[r].size() && a[r][c] == b[r][c]) c++;
    msg << "first diff at sorted row " << r << " col " << c << ": " << label_a
        << "=[";
    for (size_t i = 0; i < a[r].size(); i++) {
      msg << (i ? ", " : "") << a[r][i];
    }
    msg << "] " << label_b << "=[";
    for (size_t i = 0; i < b[r].size(); i++) {
      msg << (i ? ", " : "") << b[r][i];
    }
    msg << "]";
    return msg.str();
  }
  return "";
}

namespace {

struct ModeResult {
  std::string label;
  Status status = Status::OK();
  CanonicalResult rows;
  bool skipped = false;
};

ModeResult RunBaseline(const plan::PlanPtr& p, plan::BaselineJoinImpl impl,
                       const std::string& label) {
  ModeResult mode;
  mode.label = label;
  Result<baseline::RowOperatorPtr> op = plan::CompileBaseline(p, impl);
  if (!op.ok()) {
    mode.status = op.status();
    return mode;
  }
  Result<Table> t = baseline::CollectAllRows(op->get());
  if (!t.ok()) {
    mode.status = t.status();
    return mode;
  }
  mode.rows = Canonicalize(*t);
  return mode;
}

/// True when a plan's canonicalized result is engine-deterministic, so two
/// runs may be diffed cell-by-cell. Generated plans satisfy this by
/// construction (plangen), but mode 9's mutated SQL can legally express
/// order-sensitive shapes: collect_list downstream of a join, float
/// sum/avg (non-associative accumulation), or LIMIT without a total sort
/// underneath. Those mutants still run (crash-freedom is the property) but
/// skip the comparison.
bool ResultIsDeterministic(const plan::PlanPtr& p) {
  if (p->kind == plan::PlanKind::kAggregate) {
    for (const AggregateSpec& agg : p->aggregates) {
      if (agg.kind == AggKind::kCollectList) return false;
      if ((agg.kind == AggKind::kSum || agg.kind == AggKind::kAvg) &&
          agg.arg != nullptr && agg.arg->type().id() == TypeId::kFloat64) {
        return false;
      }
    }
  }
  if (p->kind == plan::PlanKind::kLimit) {
    const plan::PlanPtr& child = p->children[0];
    if (child->kind != plan::PlanKind::kSort) return false;
    // Total sort: plain column keys covering every output column.
    std::vector<bool> covered(child->output_schema.num_fields(), false);
    for (const SortKey& k : child->sort_keys) {
      const auto* col = dynamic_cast<const ColumnRefExpr*>(k.expr.get());
      if (col == nullptr) continue;
      if (col->index() >= 0 &&
          col->index() < static_cast<int>(covered.size())) {
        covered[col->index()] = true;
      }
    }
    for (bool c : covered) {
      if (!c) return false;
    }
  }
  for (const plan::PlanPtr& child : p->children) {
    if (!ResultIsDeterministic(child)) return false;
  }
  return true;
}

}  // namespace

std::string RunDifferential(const plan::PlanPtr& p, exec::Driver* driver,
                            const DifferentialOptions& opts) {
  // Mode 1: baseline row engine — the oracle (both join implementations).
  ModeResult oracle =
      RunBaseline(p, plan::BaselineJoinImpl::kSortMerge, "baseline/sort-merge");
  if (!oracle.status.ok()) {
    return "baseline failed: " + oracle.status.ToString() + "\nplan:\n" +
           p->ToString();
  }

  std::vector<ModeResult> modes;
  modes.push_back(RunBaseline(p, plan::BaselineJoinImpl::kShuffledHash,
                              "baseline/shuffled-hash"));

  {  // Mode 2: Photon, one task, one thread.
    ModeResult mode;
    mode.label = "photon/single-task";
    Result<Table> t = driver->RunSingleTask(p);
    if (!t.ok()) {
      mode.status = t.status();
    } else {
      mode.rows = Canonicalize(*t);
    }
    modes.push_back(std::move(mode));
  }

  {  // Mode 3: Photon, morsel-parallel.
    ModeResult mode;
    mode.label = "photon/parallel";
    Result<Table> t = driver->Run(p);
    if (!t.ok()) {
      mode.status = t.status();
    } else {
      mode.rows = Canonicalize(*t);
    }
    modes.push_back(std::move(mode));
  }

  {  // Mode 4: Photon under memory pressure + injected scan faults.
    ModeResult mode;
    mode.label = "photon/spill+fault";
    int64_t budget = opts.spill_budget_bytes;
    for (int attempt = 0; attempt < 4; attempt++) {
      MemoryManager mm(budget);
      ExecContext ctx;
      ctx.memory_manager = &mm;
      ctx.spill_prefix = opts.spill_prefix;
      // Tiny budgets hit genuine OOM by design; don't let each doomed
      // reservation block the full production backpressure window. Set
      // through the per-query ExecContext override (not the manager
      // default) so the fuzz corpus exercises that path.
      ctx.reserve_timeout_ms = 50;
      if (opts.fault_store != nullptr) {
        opts.fault_store->FailNextGets(opts.fault_gets);
      }
      Result<Table> t = driver->Run(p, ctx);
      ObjectStore::Default().DeletePrefix(opts.spill_prefix);
      if (t.ok()) {
        mode.rows = Canonicalize(*t);
        mode.status = Status::OK();
        break;
      }
      mode.status = t.status();
      if (!t.status().IsOutOfMemory()) break;
      // Unspillable state (hash-join build) legitimately exceeds tiny
      // budgets; give it geometric headroom before declaring the plan
      // unrunnable in this mode.
      budget *= 2;
    }
    if (mode.status.IsOutOfMemory()) mode.skipped = true;
    modes.push_back(std::move(mode));
  }

  // Mode 6: forced expression tiers. The runs above use the default policy,
  // which never exercises the fused interpreter where a unit has kernels
  // nor the tree tier at all; pinning the policy makes every tier answer
  // for itself.
  struct TierMode {
    ExprPolicy policy;
    const char* label;
  };
  constexpr TierMode kTiers[] = {
      {ExprPolicy::kTreeOnly, "photon/expr-tree"},
      {ExprPolicy::kFusedOnly, "photon/expr-fused"},
      {ExprPolicy::kCompiledOnly, "photon/expr-compiled"},
  };
  for (const TierMode& tier : kTiers) {
    ModeResult mode;
    mode.label = tier.label;
    ExecContext ctx;
    ctx.expr_policy = tier.policy;
    Result<Table> t = driver->RunSingleTask(p, ctx);
    if (!t.ok()) {
      mode.status = t.status();
    } else {
      mode.rows = Canonicalize(*t);
    }
    modes.push_back(std::move(mode));
  }

  // Leaf catalog shared by the SQL-based modes (7 and 9): register every
  // distinct leaf node so printed SQL can name it and re-analyzed plans
  // reuse the identical Table* / snapshot.
  sql::Catalog catalog;
  {
    int next_source = 0;
    const std::function<void(const plan::PlanPtr&)> collect =
        [&](const plan::PlanPtr& node) {
          if (node->kind == plan::PlanKind::kScan ||
              node->kind == plan::PlanKind::kDeltaScan) {
            if (catalog.NameOf(node.get()).empty()) {
              catalog.Register("src" + std::to_string(next_source++), node);
            }
            return;
          }
          for (const plan::PlanPtr& child : node->children) collect(child);
        };
    collect(p);
  }
  Result<std::string> sql_text = sql::PlanToSql(p, catalog);

  {  // Mode 7: SQL round trip — pretty-print the plan, re-parse and
    // re-analyze it, require a structurally identical plan (by
    // fingerprint), then execute the round-tripped plan.
    ModeResult mode;
    mode.label = "sql/round-trip";
    if (!sql_text.ok()) {
      mode.status = sql_text.status();
    } else {
      Result<plan::PlanPtr> round = sql::CompileSql(*sql_text, catalog);
      if (!round.ok()) {
        mode.status = Status::InvalidArgument(
            "printed SQL failed to re-compile: " +
            round.status().ToString() + "\nsql: " + *sql_text);
      } else if (sql::PlanFingerprint(p) != sql::PlanFingerprint(*round)) {
        mode.status = Status::InvalidArgument(
            "round-tripped plan differs structurally\nsql: " + *sql_text +
            "\noriginal:   " + sql::PlanFingerprint(p) +
            "\nround-trip: " + sql::PlanFingerprint(*round));
      } else {
        Result<Table> t = driver->RunSingleTask(*round);
        if (!t.ok()) {
          mode.status = Status::InvalidArgument(
              "round-tripped plan failed to execute: " +
              t.status().ToString() + "\nsql: " + *sql_text);
        } else {
          mode.rows = Canonicalize(*t);
        }
      }
    }
    modes.push_back(std::move(mode));
  }

  // Mode 8: cost-based optimizer on. The optimizer rewrites the plan
  // (pushdown, semi-join sinking, join reordering, scan pruning) before
  // execution; the rewritten plan must still produce the oracle's rows,
  // single-task and morsel-parallel.
  {
    struct OptMode {
      bool parallel;
      const char* label;
    };
    constexpr OptMode kOptModes[] = {
        {false, "photon/opt-1task"},
        {true, "photon/opt-parallel"},
    };
    for (const OptMode& om : kOptModes) {
      ModeResult mode;
      mode.label = om.label;
      ExecContext ctx;
      ctx.optimizer = OptimizerPolicy::kOn;
      Result<Table> t = om.parallel ? driver->Run(p, ctx)
                                    : driver->RunSingleTask(p, ctx);
      if (!t.ok()) {
        mode.status = t.status();
      } else {
        mode.rows = Canonicalize(*t);
      }
      modes.push_back(std::move(mode));
    }
  }

  for (const ModeResult& mode : modes) {
    if (mode.skipped) continue;
    if (!mode.status.ok()) {
      return mode.label + " failed where baseline succeeded: " +
             mode.status.ToString() + "\nplan:\n" + p->ToString();
    }
    std::string diff = DiffCanonical(oracle.rows, mode.rows, oracle.label,
                                     mode.label);
    if (!diff.empty()) {
      return mode.label + " diverges from baseline: " + diff + "\nplan:\n" +
             p->ToString();
    }
  }

  // Mode 9: generative SQL fuzzing. Mutants of the printed SQL define new
  // (usually invalid) queries; the invariant is parse-error-or-agree:
  // every mutant must either fail to compile with a clean error, or — if
  // it compiles — execute identically on the baseline, Photon, and Photon
  // with the optimizer on. No mode may crash regardless.
  if (opts.sql_mutants > 0 && sql_text.ok()) {
    for (int m = 0; m < opts.sql_mutants; m++) {
      uint64_t seed = opts.mutant_seed * 1000003ULL +
                      static_cast<uint64_t>(m) * 2654435761ULL;
      int edits = 1 + static_cast<int>(seed % 3);
      std::string mutated = MutateSql(*sql_text, seed, edits);
      Result<plan::PlanPtr> compiled = sql::CompileSql(mutated, catalog);
      if (!compiled.ok()) continue;  // clean parse/analyze error = pass
      const plan::PlanPtr& mp = *compiled;

      ModeResult mutant_oracle = RunBaseline(
          mp, plan::BaselineJoinImpl::kSortMerge, "mutant/baseline");
      Result<Table> photon_off = driver->RunSingleTask(mp);
      ExecContext opt_ctx;
      opt_ctx.optimizer = OptimizerPolicy::kOn;
      Result<Table> photon_on = driver->RunSingleTask(mp, opt_ctx);

      // A mutant may legitimately fail at runtime (overflow, bad cast);
      // only a baseline success obligates the Photon runs to agree.
      if (!mutant_oracle.status.ok()) continue;
      std::string prefix = "sql-mutant " + std::to_string(m) + " (seed " +
                           std::to_string(seed) + ")";
      std::string context =
          "\noriginal sql: " + *sql_text + "\nmutated sql:  " + mutated;
      if (!photon_off.ok()) {
        return prefix + ": photon failed where baseline succeeded: " +
               photon_off.status().ToString() + context;
      }
      if (!photon_on.ok()) {
        return prefix + ": photon/opt failed where baseline succeeded: " +
               photon_on.status().ToString() + context;
      }
      if (!ResultIsDeterministic(mp)) continue;  // ran crash-free; no diff
      std::string diff =
          DiffCanonical(mutant_oracle.rows, Canonicalize(*photon_off),
                        "mutant/baseline", "mutant/photon");
      if (diff.empty()) {
        diff = DiffCanonical(mutant_oracle.rows, Canonicalize(*photon_on),
                             "mutant/baseline", "mutant/photon-opt");
      }
      if (!diff.empty()) {
        return prefix + " diverges: " + diff + context + "\nmutant plan:\n" +
               mp->ToString();
      }
    }
  }
  return "";
}

std::string RunConcurrentDifferential(
    const std::vector<plan::PlanPtr>& plans,
    const ConcurrentDifferentialOptions& opts) {
  // Serial references first: single task, unlimited memory — pure
  // sequential execution with nothing shared.
  std::vector<CanonicalResult> expected;
  expected.reserve(plans.size());
  exec::Driver reference(1);
  for (size_t i = 0; i < plans.size(); i++) {
    Result<Table> t = reference.RunSingleTask(plans[i]);
    if (!t.ok()) {
      return "serial reference failed for plan " + std::to_string(i) + ": " +
             t.status().ToString() + "\nplan:\n" + plans[i]->ToString();
    }
    expected.push_back(Canonicalize(*t));
  }

  service::ServiceOptions service_options;
  service_options.worker_threads = opts.worker_threads;
  service_options.memory_limit_bytes = opts.memory_limit_bytes;
  service_options.max_concurrent_queries = opts.max_concurrent_queries;
  service::QueryService svc(service_options);
  service::SessionOptions session_options;
  // Declared memory sized so a full running set stays within budget:
  // submissions beyond the cap queue instead of overcommitting.
  session_options.memory_bytes =
      opts.memory_limit_bytes / opts.max_concurrent_queries;
  std::vector<std::shared_ptr<service::QuerySession>> sessions;
  sessions.reserve(plans.size());
  for (const plan::PlanPtr& p : plans) {
    sessions.push_back(svc.Submit(p, session_options));
  }
  for (size_t i = 0; i < sessions.size(); i++) {
    Status st = sessions[i]->Wait();
    if (!st.ok()) {
      return "concurrent run failed for plan " + std::to_string(i) +
             " where serial succeeded: " + st.ToString() + "\nplan:\n" +
             plans[i]->ToString();
    }
    std::string diff =
        DiffCanonical(expected[i], Canonicalize(sessions[i]->table()),
                      "serial", "concurrent");
    if (!diff.empty()) {
      return "concurrent run diverges from serial for plan " +
             std::to_string(i) + ": " + diff + "\nplan:\n" +
             plans[i]->ToString();
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Mode 10: mixed lakehouse workload, serial-equivalence over the Delta log
// ---------------------------------------------------------------------------

namespace {

Schema LakeSchema() {
  return Schema({Field("id", DataType::Int64()),
                 Field("val", DataType::Int64())});
}

Table LakeRows(int64_t begin, int64_t end, int64_t bias) {
  TableBuilder b(LakeSchema());
  for (int64_t i = begin; i < end; i++) {
    b.AppendRow({Value::Int64(i), Value::Int64(i + bias)});
  }
  return b.Finish();
}

/// One logical transaction of the workload, recorded against the version
/// it committed as and replayed verbatim by the serial check. Compaction
/// is content-preserving, so its replay is a no-op.
struct LakeOp {
  enum Kind { kAppend, kDelete, kUpdate, kMerge, kCompact };
  Kind kind = Kind::kCompact;
  int64_t lo = 0;    // predicate id range [lo, hi)
  int64_t hi = 0;
  int64_t bias = 0;  // append/merge value bias; update delta
  /// Pinned append rows / merge source, so replay sees byte-identical
  /// input regardless of what the live table looked like.
  std::shared_ptr<Table> rows;
};

ExprPtr LakeIdCol() { return eb::Col(0, DataType::Int64(), "id"); }
ExprPtr LakeValCol() { return eb::Col(1, DataType::Int64(), "val"); }

ExprPtr LakeRangePredicate(int64_t lo, int64_t hi) {
  return eb::And(eb::Ge(LakeIdCol(), eb::Lit(lo)),
                 eb::Lt(LakeIdCol(), eb::Lit(hi)));
}

dml::MergeSpec LakeMergeSpec(const LakeOp& op) {
  dml::MergeSpec spec;
  spec.source = plan::Scan(op.rows.get());
  spec.target_keys = {0};
  spec.source_keys = {0};
  // Matched rows take the source's val; inserts copy the source row.
  // Combined row layout is [target id, target val, source id, source val].
  spec.matched_exprs = {LakeIdCol(),
                        eb::Col(3, DataType::Int64(), "val")};
  spec.insert_exprs = {LakeIdCol(), LakeValCol()};
  return spec;
}

/// Applies one recorded op to `table`. An op that matches nothing on the
/// replay table commits nothing, which is exactly the content-preserving
/// behavior the equivalence check wants.
Status ReplayLakeOp(const LakeOp& op, DeltaTable* table,
                    exec::Driver* driver) {
  ExecContext ctx;
  switch (op.kind) {
    case LakeOp::Kind::kAppend:
      return table->Append(*op.rows).status();
    case LakeOp::Kind::kDelete:
      return dml::ExecuteDelete(table, LakeRangePredicate(op.lo, op.hi),
                                driver, ctx)
          .status();
    case LakeOp::Kind::kUpdate: {
      std::vector<dml::UpdateAssignment> set;
      set.push_back({1, eb::Add(LakeValCol(), eb::Lit(op.bias))});
      return dml::ExecuteUpdate(table, set,
                                LakeRangePredicate(op.lo, op.hi), driver,
                                ctx)
          .status();
    }
    case LakeOp::Kind::kMerge:
      return dml::ExecuteMerge(table, LakeMergeSpec(op), driver, ctx)
          .status();
    case LakeOp::Kind::kCompact:
      return Status::OK();
  }
  return Status::OK();
}

Result<Table> ScanLakeVersion(DeltaTable* table, int64_t version,
                              exec::Driver* driver) {
  PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, table->Snapshot(version));
  return driver->RunSingleTask(
      plan::DeltaScan(table->store(), std::move(snapshot)), ExecContext{});
}

}  // namespace

std::string RunLakehouseDifferential(
    uint64_t seed, const LakehouseDifferentialOptions& opts) {
  constexpr int64_t kIdDomain = 240;
  const std::string path = "lake/mix";
  ObjectStore store;

  auto created = DeltaTable::Create(&store, path, LakeSchema());
  if (!created.ok()) {
    return "Create failed: " + created.status().ToString();
  }
  DeltaTable* table = created->get();

  // Recorded transaction log: version → the op that committed it. A
  // version recorded twice means two writers claimed the same commit slot
  // — the lost-commit race mode 10 exists to catch.
  std::mutex mu;
  std::map<int64_t, LakeOp> log;
  std::string failure;
  auto record = [&](int64_t version, LakeOp op) {
    std::lock_guard<std::mutex> lock(mu);
    if (log.count(version)) {
      if (failure.empty()) {
        failure = "version " + std::to_string(version) +
                  " committed by two transactions (lost commit)";
      }
      return;
    }
    log.emplace(version, std::move(op));
  };
  auto fail = [&](const std::string& msg) {
    std::lock_guard<std::mutex> lock(mu);
    if (failure.empty()) failure = msg;
  };

  // Seed data: two files so DML and compaction race from the start.
  for (int i = 0; i < 2; i++) {
    LakeOp op;
    op.kind = LakeOp::Kind::kAppend;
    op.rows = std::make_shared<Table>(
        LakeRows(i * 60, (i + 1) * 60, /*bias=*/0));
    auto version = table->Append(*op.rows);
    if (!version.ok()) {
      return "seed append failed: " + version.status().ToString();
    }
    record(*version, std::move(op));
  }

  exec::Compactor::Options compactor_options;
  compactor_options.small_file_rows = 200;
  compactor_options.target_file_rows = 150;
  compactor_options.interval_ms = 1;
  exec::Compactor compactor(table, compactor_options);
  compactor.set_commit_listener([&](int64_t version) {
    LakeOp op;
    op.kind = LakeOp::Kind::kCompact;
    record(version, std::move(op));
  });
  if (opts.compact) compactor.Start();

  std::atomic<bool> writers_done{false};

  // Analytics readers race the writers: latest-snapshot scans must always
  // succeed, and a pinned version must rescan to identical content.
  std::vector<std::thread> readers;
  for (int r = 0; r < opts.reader_threads; r++) {
    readers.emplace_back([&, r] {
      exec::Driver driver(1, 1);
      auto handle = DeltaTable::Open(&store, path);
      if (!handle.ok()) {
        fail("reader open failed: " + handle.status().ToString());
        return;
      }
      int64_t pinned = -1;
      CanonicalResult pinned_content;
      while (!writers_done.load(std::memory_order_acquire)) {
        auto latest = (*handle)->LatestVersion();
        if (!latest.ok()) {
          fail("reader LatestVersion failed: " + latest.status().ToString());
          return;
        }
        Result<Table> scan = ScanLakeVersion(handle->get(), *latest, &driver);
        if (!scan.ok()) {
          fail("reader scan of version " + std::to_string(*latest) +
               " failed: " + scan.status().ToString());
          return;
        }
        if (pinned < 0 && *latest >= 2 && r % 2 == 0) {
          pinned = *latest;
          pinned_content = Canonicalize(*scan);
        } else if (pinned >= 0) {
          Result<Table> again =
              ScanLakeVersion(handle->get(), pinned, &driver);
          if (!again.ok()) {
            fail("pinned version " + std::to_string(pinned) +
                 " became unreadable: " + again.status().ToString());
            return;
          }
          std::string diff =
              DiffCanonical(pinned_content, Canonicalize(*again),
                            "first read", "re-read");
          if (!diff.empty()) {
            fail("pinned version " + std::to_string(pinned) +
                 " changed under a reader: " + diff);
            return;
          }
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < opts.writer_threads; w++) {
    writers.emplace_back([&, w] {
      Rng rng(seed * 0x9E37 + static_cast<uint64_t>(w) * 7919 + 17);
      exec::Driver driver(2, 1);
      auto handle = DeltaTable::Open(&store, path);
      if (!handle.ok()) {
        fail("writer open failed: " + handle.status().ToString());
        return;
      }
      dml::DmlOptions dml_options;
      dml_options.max_retries = 64;
      ExecContext ctx;
      for (int i = 0; i < opts.ops_per_writer; i++) {
        LakeOp op;
        int64_t lo = rng.Uniform(0, kIdDomain - 40);
        op.lo = lo;
        op.hi = lo + rng.Uniform(10, 40);
        op.bias = rng.Uniform(1, 1000);
        int kind = static_cast<int>(rng.Uniform(0, 99));
        Result<dml::DmlResult> result = dml::DmlResult{};
        if (kind < 30) {
          op.kind = LakeOp::Kind::kDelete;
          result = dml::ExecuteDelete(handle->get(),
                                      LakeRangePredicate(op.lo, op.hi),
                                      &driver, ctx, dml_options);
        } else if (kind < 60) {
          op.kind = LakeOp::Kind::kUpdate;
          std::vector<dml::UpdateAssignment> set;
          set.push_back({1, eb::Add(LakeValCol(), eb::Lit(op.bias))});
          result = dml::ExecuteUpdate(handle->get(), set,
                                      LakeRangePredicate(op.lo, op.hi),
                                      &driver, ctx, dml_options);
        } else if (kind < 85) {
          op.kind = LakeOp::Kind::kMerge;
          op.rows =
              std::make_shared<Table>(LakeRows(op.lo, op.hi, op.bias));
          result = dml::ExecuteMerge(handle->get(), LakeMergeSpec(op),
                                     &driver, ctx, dml_options);
        } else {
          op.kind = LakeOp::Kind::kAppend;
          op.rows =
              std::make_shared<Table>(LakeRows(op.lo, op.hi, op.bias));
          auto version = (*handle)->Append(*op.rows);
          if (!version.ok()) {
            fail("append failed: " + version.status().ToString());
            return;
          }
          record(*version, std::move(op));
          continue;
        }
        if (!result.ok()) {
          fail("writer " + std::to_string(w) + " op " + std::to_string(i) +
               " failed: " + result.status().ToString());
          return;
        }
        // A statement that matched nothing committed nothing — there is
        // no version to record.
        if (result->rows_affected > 0 || result->rows_inserted > 0) {
          record(result->version, std::move(op));
        }
      }
    });
  }

  for (auto& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  if (opts.compact) {
    Status s = compactor.RunOncePass();
    if (!s.ok()) fail("final compaction pass failed: " + s.ToString());
    compactor.Stop();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!failure.empty()) return failure;
  }

  // Serial re-execution: apply the recorded ops in committed order to a
  // fresh table; after each version the concurrent table's scan at that
  // version must equal the serial table's content.
  auto latest = table->LatestVersion();
  if (!latest.ok()) {
    return "LatestVersion failed: " + latest.status().ToString();
  }
  ObjectStore replay_store;
  auto replay_created =
      DeltaTable::Create(&replay_store, path, LakeSchema());
  if (!replay_created.ok()) {
    return "replay Create failed: " + replay_created.status().ToString();
  }
  DeltaTable* replay = replay_created->get();
  exec::Driver driver(2, 1);
  for (int64_t v = 1; v <= *latest; v++) {
    auto it = log.find(v);
    if (it == log.end()) {
      return "version " + std::to_string(v) +
             " exists in the log but no transaction recorded committing "
             "it";
    }
    Status s = ReplayLakeOp(it->second, replay, &driver);
    if (!s.ok()) {
      return "replay of version " + std::to_string(v) +
             " failed: " + s.ToString();
    }
    Result<Table> concurrent = ScanLakeVersion(table, v, &driver);
    if (!concurrent.ok()) {
      return "scan of committed version " + std::to_string(v) +
             " failed: " + concurrent.status().ToString();
    }
    auto replay_latest = replay->LatestVersion();
    if (!replay_latest.ok()) {
      return "replay LatestVersion failed: " +
             replay_latest.status().ToString();
    }
    Result<Table> serial = ScanLakeVersion(replay, *replay_latest, &driver);
    if (!serial.ok()) {
      return "replay scan failed: " + serial.status().ToString();
    }
    std::string diff = DiffCanonical(Canonicalize(*serial),
                                     Canonicalize(*concurrent), "serial",
                                     "concurrent");
    if (!diff.empty()) {
      return "committed version " + std::to_string(v) +
             " diverges from serial re-execution (" +
             (it->second.kind == LakeOp::Kind::kCompact
                  ? std::string("compaction")
                  : "dml") +
             "): " + diff;
    }
  }

  // No staged file from any aborted transaction may survive in the store.
  std::set<std::string> committed;
  for (int64_t v = 0; v <= *latest; v++) {
    auto snapshot = table->Snapshot(v);
    if (!snapshot.ok()) {
      return "snapshot " + std::to_string(v) +
             " failed: " + snapshot.status().ToString();
    }
    for (const DeltaFileEntry& f : snapshot->files) committed.insert(f.key);
  }
  for (const std::string& key : store.List(path + "/data/")) {
    if (!committed.count(key)) {
      return "aborted transaction leaked staged file: " + key;
    }
  }
  return "";
}

}  // namespace testing
}  // namespace photon
