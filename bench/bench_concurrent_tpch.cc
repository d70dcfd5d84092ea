// Concurrent TPC-H through the multi-tenant query service (src/service/):
// closed-loop clients — each submits a query, waits for its result, and
// immediately submits the next — over the 22-query mix, at 1, 8 and 64
// clients sharing one QueryService (one worker pool, one memory pool,
// one admission queue). Reported per client count: throughput (QPS) and
// end-to-end latency percentiles (p50/p99, submit → terminal state, so
// admission queue time counts).
//
// Every result is verified against a serial 1-worker reference by row
// count and order-insensitive checksum; any mismatch or failed query makes
// the bench exit nonzero — this doubles as the service's highest-pressure
// correctness run (see EXPERIMENTS.md).
//
// Usage: bench_concurrent_tpch [--sf F] [--threads N] [--max-concurrent N]
//                              [--clients "1,8,64"] [--per-client K]
//                              [--json PATH]
//   --threads N         shared scheduler worker threads (default 8)
//   --max-concurrent N  admission running-query cap (default 8)
//   --per-client K      queries each client runs (default 22: the full mix)
//   --json PATH         also write results as JSON (shared JsonWriter)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/query_service.h"
#include "tpch/tpch_gen.h"
#include "tpch/tpch_queries.h"

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PercentileMs(std::vector<int64_t> sorted_ns, double p) {
  if (sorted_ns.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (sorted_ns.size() - 1) + 0.5);
  return photon::bench::Ms(sorted_ns[std::min(idx, sorted_ns.size() - 1)]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace photon;
  double sf = 0.01;
  if (const char* v = bench::FlagValue(argc, argv, "--sf")) sf = std::atof(v);
  int threads = 8;
  if (const char* v = bench::FlagValue(argc, argv, "--threads")) {
    threads = std::atoi(v);
  }
  int max_concurrent = 8;
  if (const char* v = bench::FlagValue(argc, argv, "--max-concurrent")) {
    max_concurrent = std::atoi(v);
  }
  int per_client = 22;
  if (const char* v = bench::FlagValue(argc, argv, "--per-client")) {
    per_client = std::atoi(v);
  }
  std::vector<int> client_counts = {1, 8, 64};
  if (const char* v = bench::FlagValue(argc, argv, "--clients")) {
    client_counts.clear();
    for (const char* p = v; *p != '\0';) {
      client_counts.push_back(std::atoi(p));
      while (*p != '\0' && *p != ',') p++;
      if (*p == ',') p++;
    }
  }
  const char* json_path = bench::FlagValue(argc, argv, "--json");

  std::printf(
      "Concurrent TPC-H: SF=%.3f, %d workers, %d running-query cap, "
      "%d queries/client\n",
      sf, threads, max_concurrent, per_client);
  tpch::TpchData data = tpch::GenerateTpch(sf);

  // The query mix and its serial references (one worker, unlimited
  // memory): the ground truth every concurrent result must reproduce.
  std::vector<plan::PlanPtr> plans;
  std::vector<int64_t> ref_rows;
  std::vector<uint64_t> ref_checksums;
  {
    exec::Driver reference(1);
    for (int q = 1; q <= 22; q++) {
      Result<plan::PlanPtr> p = tpch::TpchQuery(q, data, sf);
      PHOTON_CHECK(p.ok());
      Result<Table> t = reference.Run(*p);
      PHOTON_CHECK(t.ok());
      plans.push_back(*p);
      ref_rows.push_back(t->num_rows());
      ref_checksums.push_back(bench::TableChecksum(*t));
    }
  }

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("concurrent_tpch"));
  json.Field("sf", sf);
  json.Field("threads", threads);
  json.Field("max_concurrent", max_concurrent);
  json.Field("per_client", per_client);
  json.BeginArray("runs");

  std::printf("  %8s %8s %10s %10s %10s %9s\n", "clients", "queries", "QPS",
              "p50 (ms)", "p99 (ms)", "wall (s)");
  int total_mismatches = 0;
  for (int clients : client_counts) {
    service::ServiceOptions options;
    options.worker_threads = threads;
    options.max_concurrent_queries = max_concurrent;
    options.memory_limit_bytes = 512LL << 20;
    service::QueryService svc(options);
    service::SessionOptions session_options;
    session_options.memory_bytes =
        options.memory_limit_bytes / max_concurrent;

    std::vector<std::vector<int64_t>> latencies(clients);
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    int64_t t0 = SteadyNowNs();
    std::vector<std::thread> client_threads;
    for (int c = 0; c < clients; c++) {
      client_threads.emplace_back([&, c] {
        latencies[c].reserve(per_client);
        for (int i = 0; i < per_client; i++) {
          // Stagger start offsets so concurrent clients run a mixed load
          // rather than 64 copies of Q1 in lockstep.
          int q = (c + i) % static_cast<int>(plans.size());
          int64_t start = SteadyNowNs();
          auto session = svc.Submit(plans[q], session_options);
          Status st = session->Wait();
          latencies[c].push_back(SteadyNowNs() - start);
          if (!st.ok()) {
            std::fprintf(stderr, "  Q%d FAILED (%d clients): %s\n", q + 1,
                         clients, st.ToString().c_str());
            failures.fetch_add(1);
            continue;
          }
          const Table& out = session->table();
          if (out.num_rows() != ref_rows[q] ||
              bench::TableChecksum(out) != ref_checksums[q]) {
            std::fprintf(stderr, "  Q%d MISMATCH (%d clients)\n", q + 1,
                         clients);
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : client_threads) t.join();
    int64_t wall_ns = SteadyNowNs() - t0;
    svc.Drain();

    std::vector<int64_t> all;
    for (const auto& per : latencies) {
      all.insert(all.end(), per.begin(), per.end());
    }
    std::sort(all.begin(), all.end());
    int64_t queries = static_cast<int64_t>(all.size());
    double qps = queries / (static_cast<double>(wall_ns) / 1e9);
    double p50 = PercentileMs(all, 0.50);
    double p99 = PercentileMs(all, 0.99);
    std::printf("  %8d %8lld %10.1f %10.2f %10.2f %9.2f\n", clients,
                static_cast<long long>(queries), qps, p50, p99,
                static_cast<double>(wall_ns) / 1e9);
    total_mismatches += mismatches.load() + failures.load();

    json.BeginObject();
    json.Field("clients", clients);
    json.Field("queries", queries);
    json.Field("qps", qps);
    json.Field("p50_ms", p50);
    json.Field("p99_ms", p99);
    json.Field("wall_s", static_cast<double>(wall_ns) / 1e9);
    json.Field("mismatches", mismatches.load());
    json.Field("failures", failures.load());
    json.EndObject();
  }
  json.EndArray();
  json.Field("total_mismatches", total_mismatches);
  json.EndObject();
  if (json_path != nullptr) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path);
      return 1;
    }
    std::printf("  wrote %s\n", json_path);
  }

  if (total_mismatches > 0) {
    std::printf("RESULT: %d mismatched/failed queries\n", total_mismatches);
    return 1;
  }
  std::printf("RESULT: all results checksum-verified against serial\n");
  return 0;
}
