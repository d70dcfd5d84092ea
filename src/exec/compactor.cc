#include "exec/compactor.h"

#include <chrono>
#include <utility>

#include "plan/logical_plan.h"

namespace photon {
namespace exec {

Compactor::Compactor(DeltaTable* table, Options options,
                     TaskScheduler* scheduler)
    : table_(table), options_(options), scheduler_(scheduler) {}

Compactor::~Compactor() { Stop(); }

Status Compactor::RunOncePass() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.passes++;
  }
  PHOTON_ASSIGN_OR_RETURN(DeltaSnapshot snapshot, table_->Snapshot());

  // Greedy grouping in log order: accumulate small files until the row
  // budget closes the group.
  std::vector<std::vector<DeltaFileEntry>> groups;
  std::vector<DeltaFileEntry> current;
  int64_t current_rows = 0;
  for (const DeltaFileEntry& file : snapshot.files) {
    if (file.num_rows >= options_.small_file_rows) continue;
    current.push_back(file);
    current_rows += file.num_rows;
    if (current_rows >= options_.target_file_rows) {
      groups.push_back(std::move(current));
      current.clear();
      current_rows = 0;
    }
  }
  if (static_cast<int>(current.size()) >= options_.min_group_files) {
    groups.push_back(std::move(current));
  }

  for (std::vector<DeltaFileEntry>& group : groups) {
    if (static_cast<int>(group.size()) < options_.min_group_files) continue;
    DeltaSnapshot view;
    view.version = snapshot.version;
    view.schema = snapshot.schema;
    view.files = group;
    PHOTON_ASSIGN_OR_RETURN(
        Table coalesced,
        driver_.Run(plan::DeltaScan(table_->store(), std::move(view), {},
                                    nullptr, options_.io)));
    std::vector<std::string> keys;
    keys.reserve(group.size());
    for (const DeltaFileEntry& file : group) keys.push_back(file.key);
    Result<int64_t> version =
        table_->Rewrite(keys, coalesced, options_.write);
    std::lock_guard<std::mutex> lock(mu_);
    if (version.ok()) {
      stats_.commits++;
      stats_.files_compacted += static_cast<int64_t>(group.size());
      if (commit_listener_) commit_listener_(*version);
    } else if (version.status().IsCommitConflict()) {
      // A writer rewrote one of the group's files first. Its version of
      // the data supersedes ours; drop the group and move on.
      stats_.conflicts++;
    } else {
      return version.status();
    }
  }
  return Status::OK();
}

void Compactor::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  if (scheduler_ != nullptr) query_slot_ = scheduler_->RegisterQuery();
  thread_ = std::thread([this] { Loop(); });
}

void Compactor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  if (scheduler_ != nullptr && query_slot_ >= 0) {
    scheduler_->UnregisterQuery(query_slot_);
    query_slot_ = -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void Compactor::Loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_; });
      if (stop_) return;
    }
    Status status = Status::OK();
    if (scheduler_ != nullptr) {
      // Pass bodies are leaf work: they scan (may block on IO) and commit,
      // but never wait on another worker's future.
      std::future<Status> pass =
          scheduler_->Submit(query_slot_, [this] { return RunOncePass(); });
      status = pass.get();
    } else {
      status = RunOncePass();
    }
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.failed_passes++;
    }
  }
}

Compactor::Stats Compactor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace exec
}  // namespace photon
