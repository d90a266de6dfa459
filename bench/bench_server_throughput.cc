// Serving-layer throughput: a closed-loop load generator against an
// in-process GenAlgServer, sweeping client count (1/4/16/64) x query mix
// (point lookup / similar_to alignment / full scan). Each client runs one
// query at a time back-to-back for a fixed window; the cell reports QPS,
// p50/p99 latency, and the overload-rejection rate (admission control is
// deliberately provoked at high client counts by a modest queue depth —
// rejections must be immediate errors, not queue growth).
//
// Writes BENCH_server_throughput.json to the repo root. Pass --smoke (or
// set GENALG_BENCH_SMOKE=1) for a CI-sized run; smoke numbers exercise
// the harness but are too short to quote.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "bql/bql.h"
#include "etl/pipeline.h"
#include "net/client.h"
#include "server/server.h"

namespace genalg::bench {
namespace {

struct Config {
  size_t corpus = 60;
  size_t sequence_length = 500;
  double window_seconds = 1.5;
  std::vector<int> client_counts = {1, 4, 16, 64};
  bool smoke = false;
};

struct Mix {
  const char* name;
  std::vector<std::string> queries;  // Cycled per client.
};

struct Cell {
  std::string mix;
  int clients = 0;
  uint64_t ops = 0;
  uint64_t rejected = 0;
  double wall_seconds = 0;
  double qps = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;

  double reject_rate() const {
    uint64_t attempts = ops + rejected;
    return attempts == 0 ? 0.0
                         : static_cast<double>(rejected) /
                               static_cast<double>(attempts);
  }
};

uint64_t Percentile(std::vector<uint64_t>* sorted_us, double q) {
  if (sorted_us->empty()) return 0;
  size_t index = static_cast<size_t>(q * static_cast<double>(
                                             sorted_us->size() - 1));
  return (*sorted_us)[index];
}

Cell RunCell(uint16_t port, const Mix& mix, int clients, double seconds) {
  Cell cell;
  cell.mix = mix.name;
  cell.clients = clients;
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::vector<uint64_t>> latencies(clients);
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      auto client = net::GenAlgClient::Connect("127.0.0.1", port);
      if (!client.ok()) return;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::duration<double>(seconds);
      size_t next = static_cast<size_t>(c);
      while (std::chrono::steady_clock::now() < deadline) {
        const std::string& bql = mix.queries[next++ % mix.queries.size()];
        auto start = std::chrono::steady_clock::now();
        auto result = (*client)->QueryAll(bql);
        auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        if (result.ok()) {
          ops.fetch_add(1, std::memory_order_relaxed);
          latencies[c].push_back(static_cast<uint64_t>(elapsed));
        } else if (result.status().IsResourceExhausted()) {
          // Admission control said overloaded: an immediate, cheap
          // failure by design. Retry on the next loop iteration.
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else {
          return;  // Anything else is a harness bug; stop this client.
        }
      }
    });
  }
  auto wall_start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& worker : workers) worker.join();
  cell.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  cell.ops = ops.load();
  cell.rejected = rejected.load();
  cell.qps = cell.wall_seconds > 0
                 ? static_cast<double>(cell.ops) / cell.wall_seconds
                 : 0;
  std::vector<uint64_t> merged;
  for (auto& local : latencies) {
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end());
  cell.p50_us = Percentile(&merged, 0.50);
  cell.p99_us = Percentile(&merged, 0.99);
  return cell;
}

}  // namespace
}  // namespace genalg::bench

int main(int argc, char** argv) {
#ifndef GENALG_REPO_ROOT
#define GENALG_REPO_ROOT "."
#endif
  using namespace genalg;
  using bench::Cell;
  using bench::Config;
  using bench::Mix;

  std::string out_path =
      std::string(GENALG_REPO_ROOT) + "/BENCH_server_throughput.json";
  Config config;
  const char* smoke_env = std::getenv("GENALG_BENCH_SMOKE");
  if (smoke_env != nullptr && std::strcmp(smoke_env, "0") != 0) {
    config.smoke = true;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
    else out_path = argv[i];
  }
  if (config.smoke) {
    config.corpus = 20;
    config.sequence_length = 200;
    config.window_seconds = 0.25;
    config.client_counts = {1, 4};
  }

  auto stack = bench::Stack::Make();
  auto sources = bench::MakeSources(1, config.corpus,
                                    config.sequence_length);
  etl::EtlPipeline pipeline(stack->warehouse.get());
  if (!pipeline.AddSource(sources[0].get()).ok()) return 1;
  if (!pipeline.InitialLoad().ok()) return 1;

  // Accessions for the point-lookup mix.
  auto accessions = stack->db->Execute(
      "SELECT accession FROM sequences ORDER BY accession");
  if (!accessions.ok() || accessions->rows.empty()) return 1;

  Mix point{"point_lookup", {}};
  for (size_t i = 0; i < accessions->rows.size() && i < 16; ++i) {
    point.queries.push_back(
        "find features of " + *accessions->rows[i][0].AsString());
  }
  Mix similar{"similar_to",
              {"count sequences resembling "
               "ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCA"}};
  Mix scan{"full_scan", {"show gc of sequences"}};

  // A deliberately modest admission queue so the 64-client cells provoke
  // overload rejections instead of unbounded queueing.
  server::ServerOptions options;
  options.admission_queue_depth = 16;
  options.max_sessions = 256;
  server::GenAlgServer server(stack->db.get(), options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server failed to start\n");
    return 1;
  }

  std::vector<Cell> cells;
  for (const Mix* mix : {&point, &similar, &scan}) {
    for (int clients : config.client_counts) {
      Cell cell = bench::RunCell(server.port(), *mix, clients,
                                 config.window_seconds);
      std::printf(
          "%-12s clients %2d  qps %8.1f  p50 %7llu us  p99 %7llu us  "
          "rejected %llu (%.1f%%)\n",
          cell.mix.c_str(), cell.clients, cell.qps,
          static_cast<unsigned long long>(cell.p50_us),
          static_cast<unsigned long long>(cell.p99_us),
          static_cast<unsigned long long>(cell.rejected),
          100.0 * cell.reject_rate());
      cells.push_back(std::move(cell));
    }
  }
  server.Shutdown();

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
#ifndef GENALG_BUILD_TYPE
#define GENALG_BUILD_TYPE "unknown"
#endif
  const char* commit = std::getenv("GENALG_COMMIT");
  std::fprintf(out, "{\n  \"benchmark\": \"server_throughput\",\n");
  std::fprintf(out,
               "  \"host\": {\"hardware_concurrency\": %u, "
               "\"build_type\": \"%s\", \"commit\": \"%s\"},\n",
               std::thread::hardware_concurrency(), GENALG_BUILD_TYPE,
               commit != nullptr ? commit : "unknown");
  std::fprintf(out,
               "  \"setup\": {\"corpus\": %zu, \"sequence_length\": %zu, "
               "\"window_seconds\": %.2f, \"worker_threads\": %zu, "
               "\"admission_queue_depth\": %zu, \"smoke\": %s, "
               "\"loop\": \"closed (1 outstanding query per client)\"},\n",
               config.corpus, config.sequence_length, config.window_seconds,
               ThreadPool::DefaultThreadCount(),
               options.admission_queue_depth,
               config.smoke ? "true" : "false");
  std::fprintf(out, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::fprintf(out,
                 "    {\"mix\": \"%s\", \"clients\": %d, \"ops\": %llu, "
                 "\"qps\": %.1f, \"p50_us\": %llu, \"p99_us\": %llu, "
                 "\"rejected\": %llu, \"reject_rate\": %.4f}%s\n",
                 cell.mix.c_str(), cell.clients,
                 static_cast<unsigned long long>(cell.ops), cell.qps,
                 static_cast<unsigned long long>(cell.p50_us),
                 static_cast<unsigned long long>(cell.p99_us),
                 static_cast<unsigned long long>(cell.rejected),
                 cell.reject_rate(), i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
