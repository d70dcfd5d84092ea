#ifndef PHOTON_OPS_OPERATOR_H_
#define PHOTON_OPS_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "expr/eval_context.h"
#include "memory/memory_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "vector/column_batch.h"

namespace photon {

class Table;

/// Whether the driver runs the cost-based optimizer (src/opt) over logical
/// plans before stage planning. Off by default so hand-built plans keep
/// their join order and filter placement (the driver still prunes unused
/// columns from every plan); the differ runs both settings as differential
/// modes.
enum class OptimizerPolicy : uint8_t { kOff, kOn };

/// Shared per-task execution state.
struct ExecContext {
  /// Unified memory manager (may be shared with other tasks and with the
  /// baseline engine, mirroring §5.3). Null = unlimited, no spilling.
  MemoryManager* memory_manager = nullptr;
  /// Directory-like prefix for spill artifacts (object-store keys).
  std::string spill_prefix = "spill";
  int batch_size = kDefaultBatchSize;
  /// Memory task group for consumers created under this context (see
  /// MemoryConsumer::task_group). The parallel driver assigns each task a
  /// distinct group so cross-thread spills cannot race.
  int64_t task_group = 0;
  /// Owning query's cancellation/deadline token (null = uncancellable).
  /// Polled by the driver at morsel claims, batch pulls, and stage
  /// barriers, and by blocked memory reservations.
  QueryControl* control = nullptr;
  /// Per-query MemoryManager::Reserve timeout; negative = the manager's
  /// process-wide default. Threaded onto every consumer this context's
  /// operators register (see MemoryConsumer::reserve_timeout_ms).
  int64_t reserve_timeout_ms = -1;
  /// Expression-execution tier for filter→project chains (see
  /// ExprPolicy). Other values are used by the differ and benches;
  /// kTreeOnly also disables the fusion planner passes entirely.
  ExprPolicy expr_policy = ExprPolicy::kCompiledOnly;
  /// Cost-based plan optimization (filter pushdown, semi-join sinking,
  /// join reordering, build-side selection). Applied by Driver::Run, so
  /// it covers hand-built plans, SQL, the query service, and benches.
  OptimizerPolicy optimizer = OptimizerPolicy::kOff;
};

/// Copies the context's per-query memory policy (task group, reserve
/// timeout, cancellation token) onto a consumer. Operators call this
/// before registering any consumer they create under an ExecContext.
inline void BindConsumerToContext(MemoryConsumer* consumer,
                                  const ExecContext& ctx) {
  consumer->set_task_group(ctx.task_group);
  consumer->set_reserve_timeout_ms(ctx.reserve_timeout_ms);
  consumer->set_control(ctx.control);
}

/// Photon physical operator. Pull model: parents call GetNext() to receive
/// column batches; nullptr signals end-of-stream (the paper's
/// HasNext()/GetNext() pair collapsed into one call). A returned batch is
/// owned by the operator and valid until its next GetNext() call.
///
/// Every operator owns an obs::MetricSet shard. Under the morsel-parallel
/// driver each task instantiates its own operator chain, so the shard is
/// task-local by construction — updates are relaxed atomic adds with no
/// cross-thread contention, merged into the query profile at stage
/// barriers (the §5.2 metrics-integration model).
class Operator {
 public:
  explicit Operator(Schema output_schema)
      : output_schema_(std::move(output_schema)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  const Schema& output_schema() const { return output_schema_; }

  virtual Status Open() = 0;

  /// Pulls the next batch; nullptr at end-of-stream. Wraps the virtual
  /// implementation with metric accounting (and a span when tracing).
  Result<ColumnBatch*> GetNext() {
    int64_t start = obs::WallNowNs();
    Result<ColumnBatch*> result = GetNextImpl();
    int64_t dur = obs::WallNowNs() - start;
    stats_.Add(obs::Metric::kWallNs, dur);
    if (result.ok() && *result != nullptr) {
      stats_.Add(obs::Metric::kBatches, 1);
      stats_.Add(obs::Metric::kRowsOut, (*result)->num_active());
      stats_.Add(obs::Metric::kBatchRows, (*result)->num_rows());
    }
    if (obs::Tracer::enabled()) {
      if (trace_name_ == nullptr) {
        trace_name_ = obs::Tracer::InternName(name());
      }
      obs::Tracer::Record(trace_name_, -1, start, dur);
    }
    return result;
  }

  virtual void Close() {}
  virtual std::string name() const = 0;

  /// Child operators, for plan-wide metric collection.
  virtual std::vector<Operator*> children() { return {}; }

  /// Flushes metrics held in operator-private state (IO stats, memory
  /// peaks) into the metric set. Idempotent; called by the driver before
  /// harvesting and by CollectAll after Close.
  void PublishMetrics() {
    if (published_) return;
    published_ = true;
    PublishMetricsImpl();
  }

  /// This operator's metric shard (the full obs vocabulary).
  const obs::MetricSet& op_metrics() const { return stats_; }

 protected:
  virtual Result<ColumnBatch*> GetNextImpl() = 0;
  virtual void PublishMetricsImpl() {}

  Schema output_schema_;
  obs::MetricSet stats_;

 private:
  const char* trace_name_ = nullptr;
  bool published_ = false;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains an operator tree into an in-memory table (test/bench helper).
/// With a non-null `control` the drain loop is a cancellation point: it
/// checks the token before every batch pull, so a cancelled or
/// deadline-expired query stops between batches (mid-scan, mid-probe)
/// without waiting for the operator to finish its input.
Result<Table> CollectAll(Operator* root, QueryControl* control = nullptr);

/// Calls PublishMetrics on every operator in the tree.
void PublishTreeMetrics(Operator* root);

}  // namespace photon

#endif  // PHOTON_OPS_OPERATOR_H_
