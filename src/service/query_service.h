#ifndef PHOTON_SERVICE_QUERY_SERVICE_H_
#define PHOTON_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "exec/task_scheduler.h"
#include "exec/thread_pool.h"
#include "memory/memory_manager.h"
#include "obs/profile.h"
#include "plan/logical_plan.h"
#include "service/admission.h"
#include "vector/table.h"

namespace photon {
namespace exec {
class Driver;
}  // namespace exec

namespace service {

/// Sizing and limits for one QueryService instance. Both pool sizes are
/// explicit (no hardware-concurrency guessing): `worker_threads` is the
/// shared morsel-execution pool every query draws from, `io_threads` the
/// shared scan read-ahead pool (`< 0` = max(2, worker_threads), enough to
/// double-buffer every worker — override when scans dominate).
struct ServiceOptions {
  int worker_threads = 4;
  int io_threads = -1;
  /// Unified MemoryManager pool shared by all sessions (§5.3).
  int64_t memory_limit_bytes = 256LL << 20;
  /// Admission: cap on concurrently *running* queries.
  int max_concurrent_queries = 4;
  /// Admission: cap on summed declared memory of running queries.
  /// `< 0` = memory_limit_bytes. Declared totals at or below the real
  /// memory limit are what make admission OOM-free: the running set can
  /// always spill-or-wait its way to its declared bytes.
  int64_t admission_budget_bytes = -1;
  /// Default per-query MemoryManager reserve timeout (ExecContext
  /// override); `< 0` = the manager's process-wide default.
  int64_t default_reserve_timeout_ms = -1;
};

/// Per-submission knobs.
struct SessionOptions {
  /// Label for the query profile; empty = "q<session id>".
  std::string name;
  /// Admission priority: higher admits first (FIFO within a band).
  int priority = 0;
  /// Declared memory for admission control. Not a hard per-query cap —
  /// enforcement stays with the MemoryManager — but the unit the service
  /// packs running queries by.
  int64_t memory_bytes = 64LL << 20;
  /// Wall-clock deadline measured from Submit(), so time spent queued in
  /// admission counts against it; `< 0` = none.
  int64_t deadline_ms = -1;
  /// Per-query reserve timeout; `< 0` = the service default.
  int64_t reserve_timeout_ms = -1;
  /// Run the cost-based optimizer (src/opt) over the submitted plan before
  /// stage planning.
  OptimizerPolicy optimizer = OptimizerPolicy::kOff;
};

/// Body of a write-transaction session (SubmitWrite): runs on the
/// session's control thread with a service-mode driver (morsel tasks on
/// the shared scheduler) and the session's ExecContext — so DML inherits
/// admission, the shared memory pool, and cancellation exactly like a
/// read query. The body owns its transactional cleanup: on error or
/// cancellation it must release any data files it staged before
/// returning (the dml executors do). Returns a result table (e.g. a DML
/// summary row) published as the session's table().
using WriteFn =
    std::function<Result<Table>(exec::Driver* driver, const ExecContext&)>;

/// Lifecycle of one submitted query.
enum class SessionState {
  kQueued,     // waiting in admission
  kRunning,    // executing on the shared scheduler
  kSucceeded,  // result table available
  kFailed,     // execution error or admission rejection
  kCancelled,  // Cancel() or deadline, before or during execution
};

/// One submitted query: handle to its state, cancellation token, result
/// and profile. Created only by QueryService::Submit(); thread-safe.
class QuerySession {
 public:
  ~QuerySession();

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// Service-unique (process-wide) id; also names the spill prefix.
  int64_t id() const { return id_; }

  SessionState state() const;

  /// Requests cooperative cancellation: the query stops at its next
  /// cancellation point (morsel claim, batch pull, stage barrier, blocked
  /// memory reservation, admission wait) and releases its resources.
  /// Returns immediately; Wait() observes the terminal state.
  void Cancel() { control_.Cancel(); }

  /// Blocks until the session is terminal. Returns the final status: OK
  /// (kSucceeded), Cancelled/DeadlineExceeded (kCancelled), or the
  /// execution/admission error (kFailed).
  Status Wait();

  /// Result table; valid only in kSucceeded.
  const Table& table() const;

  /// Query profile (root = plan root); populated for sessions that began
  /// executing, empty otherwise.
  const obs::QueryProfile& profile() const { return profile_; }

  QueryControl* control() { return &control_; }

 private:
  friend class QueryService;
  QuerySession(int64_t id, plan::PlanPtr plan, WriteFn write_fn,
               SessionOptions options);

  void Finish(SessionState state, Status status, Table table);
  /// Joins the session thread (idempotent). Called by the service's
  /// Drain()/destructor and by ~QuerySession.
  void JoinThread();

  const int64_t id_;
  /// Exactly one of plan_ / write_fn_ is set.
  const plan::PlanPtr plan_;
  const WriteFn write_fn_;
  const SessionOptions options_;
  const std::string spill_prefix_;
  QueryControl control_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  SessionState state_ = SessionState::kQueued;
  Status status_;
  Table table_{Schema()};
  obs::QueryProfile profile_;

  std::mutex join_mu_;
  std::thread thread_;
  /// Set by the session thread after RunSession returns: the thread only
  /// has to exit, so the service may join it and release the session.
  std::atomic<bool> exited_{false};
};

/// Multi-tenant query service: N concurrent sessions over one worker
/// pool, one IO pool, one memory manager and one object store.
///
///   Submit(plan) ──► session control thread:
///     admission (FIFO-with-priority, memory-declared)   [kQueued]
///     ──► Driver on the shared TaskScheduler            [kRunning]
///         (one task per morsel, round-robin across sessions)
///     ──► result / profile, spill prefix deleted,
///         admission slot released        [kSucceeded|kFailed|kCancelled]
///
/// Stage barriers block only the session's control thread; scheduler
/// workers run pure morsel tasks, so a saturated service cannot deadlock
/// on barriers, and cancellation unwinds through the driver's normal
/// error path (operator destructors release memory, shuffle guards delete
/// blocks) before the terminal state is published.
class QueryService {
 public:
  explicit QueryService(ServiceOptions options = {});
  /// Joins every session thread (queries in flight run to completion —
  /// call Cancel() on sessions first for fast shutdown).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits a query; never blocks on admission (that happens on the
  /// session's own control thread). The service retains the session until
  /// its thread has exited: each Launch (Submit/SubmitWrite) joins and
  /// releases the sessions whose RunSession has returned, and Drain and
  /// the destructor join and release the rest. A finished session's
  /// result and profile then live only as long as the caller's handle.
  std::shared_ptr<QuerySession> Submit(plan::PlanPtr plan,
                                       SessionOptions options = {});

  /// Submits a write transaction (DML, compaction): `fn` runs on the
  /// session's control thread after admission, with a service-mode driver
  /// and the session's ExecContext (memory, cancellation, optimizer
  /// policy). Writers queue, cancel, and share workers exactly like
  /// queries; a cancelled writer's staged files are released by the DML
  /// executors' own unwind before the terminal state is published.
  std::shared_ptr<QuerySession> SubmitWrite(WriteFn fn,
                                            SessionOptions options = {});

  /// Blocks until every session submitted so far is terminal, then
  /// releases the service's references to them.
  void Drain();

  /// Sessions the service still holds: running ones, plus finished ones
  /// the next Launch or Drain has not yet joined.
  size_t retained_sessions() const;

  /// Service-level counters (terminal-state totals are post-Drain exact).
  struct Stats {
    int64_t submitted = 0;
    int64_t succeeded = 0;
    int64_t failed = 0;
    int64_t cancelled = 0;
    int64_t tasks_executed = 0;  // scheduler-level morsel tasks
  };
  Stats stats() const;

  MemoryManager* memory_manager() { return &memory_manager_; }
  AdmissionController& admission() { return admission_; }
  exec::TaskScheduler& scheduler() { return scheduler_; }
  const ServiceOptions& options() const { return options_; }

 private:
  std::shared_ptr<QuerySession> Launch(plan::PlanPtr plan, WriteFn write_fn,
                                       SessionOptions options);
  void RunSession(QuerySession* session);

  const ServiceOptions options_;
  exec::TaskScheduler scheduler_;
  ThreadPool io_pool_;
  MemoryManager memory_manager_;
  AdmissionController admission_;

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<QuerySession>> sessions_;
  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> succeeded_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int64_t> cancelled_{0};
};

}  // namespace service
}  // namespace photon

#endif  // PHOTON_SERVICE_QUERY_SERVICE_H_
