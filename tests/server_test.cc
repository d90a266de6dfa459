// GenAlgServer integration tests: remote results bit-identical to
// in-process execution (single and 16-way concurrent), paging, errors,
// cancel, deadline, admission control (overload -> immediate rejection),
// session limits, graceful drain, and concurrent reads racing an ETL
// refresh under the database reader-writer gate.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebra/signature.h"
#include "bql/bql.h"
#include "etl/pipeline.h"
#include "etl/source.h"
#include "etl/warehouse.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "udb/adapter.h"
#include "udb/database.h"

namespace genalg {
namespace {

std::string RowsToText(const udb::QueryResult& result) {
  std::string text;
  for (const auto& column : result.columns) text += column + "|";
  text += "\n";
  for (const auto& row : result.rows) {
    for (const auto& datum : row) text += datum.ToString() + "|";
    text += "\n";
  }
  return text;
}

// A query whose execution is dominated by O(n*m) alignment across every
// row — tens of milliseconds on this corpus (30 x 400 bp against 800 bp,
// 9.6 M cells), enough to make deadline, overload, and drain behavior
// deterministic.
std::string SlowQuery() {
  std::string pattern;
  for (int i = 0; i < 100; ++i) pattern += "ACGTTGCA";  // 800 bp.
  return "count sequences resembling " + pattern;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : source_("SRV", etl::SourceRepresentation::kFlatFile,
                         etl::SourceCapability::kLogged, 7) {}

  void SetUp() override {
    ASSERT_TRUE(algebra::RegisterStandardAlgebra(&registry_).ok());
    adapter_ = std::make_unique<udb::Adapter>(&registry_);
    ASSERT_TRUE(udb::RegisterStandardUdts(adapter_.get()).ok());
    db_ = std::make_unique<udb::Database>(adapter_.get());
    warehouse_ = std::make_unique<etl::Warehouse>(db_.get());
    ASSERT_TRUE(warehouse_->InitSchema().ok());
    ASSERT_TRUE(source_.Populate(30, 400).ok());
    pipeline_ = std::make_unique<etl::EtlPipeline>(warehouse_.get());
    ASSERT_TRUE(pipeline_->AddSource(&source_).ok());
    ASSERT_TRUE(pipeline_->InitialLoad().ok());
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
  }

  void StartServer(server::ServerOptions options = {}) {
    server_ = std::make_unique<server::GenAlgServer>(db_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  Result<std::unique_ptr<net::GenAlgClient>> Connect() {
    return net::GenAlgClient::Connect("127.0.0.1", server_->port());
  }

  algebra::SignatureRegistry registry_;
  std::unique_ptr<udb::Adapter> adapter_;
  std::unique_ptr<udb::Database> db_;
  std::unique_ptr<etl::Warehouse> warehouse_;
  etl::SyntheticSource source_;
  std::unique_ptr<etl::EtlPipeline> pipeline_;
  std::unique_ptr<server::GenAlgServer> server_;
};

TEST_F(ServerTest, StartsOnEphemeralPortAndShutsDownIdempotently) {
  StartServer();
  EXPECT_TRUE(server_->running());
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
  server_->Shutdown();  // Second drain is a no-op.
}

TEST_F(ServerTest, SecondStartFails) {
  StartServer();
  EXPECT_TRUE(server_->Start().IsFailedPrecondition());
}

TEST_F(ServerTest, RemoteResultsAreBitIdenticalToInProcess) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const char* queries[] = {
      "count sequences",
      "count sequences with gc above 0.5",
      "show gc of sequences first 7",
      "show organism of sequences first 5",
      "find sequences with length above 300 first 5",
  };
  for (const char* bql : queries) {
    auto local = bql::RunBql(db_.get(), bql);
    ASSERT_TRUE(local.ok()) << bql;
    auto remote = (*client)->QueryAll(bql);
    ASSERT_TRUE(remote.ok()) << bql << ": " << remote.status().ToString();
    EXPECT_EQ(remote->columns, local->columns) << bql;
    EXPECT_EQ(RowsToText(*remote), RowsToText(*local)) << bql;
  }
}

TEST_F(ServerTest, SixteenConcurrentSessionsGetBitIdenticalResults) {
  StartServer();
  const char* queries[] = {
      "count sequences",
      "show gc of sequences first 10",
      "find sequences with gc above 0.45 first 8",
  };
  // In-process baselines first; served reads must match them bit for bit.
  std::vector<std::string> baselines;
  for (const char* bql : queries) {
    auto local = bql::RunBql(db_.get(), bql);
    ASSERT_TRUE(local.ok());
    baselines.push_back(RowsToText(*local));
  }
  constexpr int kSessions = 16;
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      auto client = net::GenAlgClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int round = 0; round < 3; ++round) {
        int q = (s + round) % 3;
        auto remote = (*client)->QueryAll(queries[q]);
        if (!remote.ok()) {
          ++failures;
          return;
        }
        if (RowsToText(*remote) != baselines[q]) ++mismatches;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ServerTest, SmallPagesDeliverTheFullResult) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto whole = bql::RunBql(db_.get(), "show gc of sequences first 9");
  ASSERT_TRUE(whole.ok());
  auto cursor = (*client)->Query("show gc of sequences first 9",
                                 /*page_rows=*/2);
  ASSERT_TRUE(cursor.ok());
  std::vector<udb::Row> all;
  std::vector<udb::Row> batch;
  size_t pages = 0;
  for (;;) {
    auto more = cursor->Next(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ++pages;
    EXPECT_LE(batch.size(), 2u);
    for (auto& row : batch) all.push_back(std::move(row));
  }
  EXPECT_EQ(all.size(), whole->rows.size());
  EXPECT_GE(pages, 5u);  // ceil(9 / 2).
  EXPECT_EQ(cursor->columns(), whole->columns);
}

TEST_F(ServerTest, ZeroRowResultStillShipsColumns) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto remote =
      (*client)->QueryAll("find sequences with length above 999999");
  ASSERT_TRUE(remote.ok());
  EXPECT_TRUE(remote->rows.empty());
  EXPECT_FALSE(remote->columns.empty());
}

TEST_F(ServerTest, BadBqlSurfacesAsInvalidArgument) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto remote = (*client)->QueryAll("summon sequences");
  EXPECT_TRUE(remote.status().IsInvalidArgument())
      << remote.status().ToString();
  // The session survives a failed query.
  auto next = (*client)->QueryAll("count sequences");
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

TEST_F(ServerTest, TightDeadlineTimesOut) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  // An alignment scan is orders of magnitude over a 1 ms budget, so the
  // deadline check between execution and streaming always trips.
  auto remote =
      (*client)->QueryAll(SlowQuery(), /*page_rows=*/16, /*deadline_ms=*/1);
  EXPECT_TRUE(remote.status().IsFailedPrecondition())
      << remote.status().ToString();
  // And the session remains usable afterwards.
  auto next = (*client)->QueryAll("count sequences");
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

TEST_F(ServerTest, CancelStopsTheStreamAndFreesTheSession) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  auto cursor = (*client)->Query("show gc of sequences first 20",
                                 /*page_rows=*/1);
  ASSERT_TRUE(cursor.ok());
  std::vector<udb::Row> batch;
  auto first = cursor->Next(&batch);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(cursor->Cancel().ok());
  EXPECT_TRUE(cursor->done());
  // The wire is clean: the next query runs normally.
  auto next = (*client)->QueryAll("count sequences");
  EXPECT_TRUE(next.ok()) << next.status().ToString();
}

TEST_F(ServerTest, OverloadRejectsInsteadOfQueueing) {
  server::ServerOptions options;
  options.worker_threads = 1;
  options.admission_queue_depth = 1;
  StartServer(options);
  auto before = obs::Registry::Global().Snapshot();
  // Alignment scans take long enough that with 1 worker + 1 queue slot,
  // 8 simultaneous submissions must see rejections.
  constexpr int kClients = 8;
  const std::string slow_query = SlowQuery();
  std::atomic<int> ok_count{0};
  std::atomic<int> overloaded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < kClients; ++i) {
    workers.emplace_back([&] {
      auto client = net::GenAlgClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++other;
        return;
      }
      auto result = (*client)->QueryAll(slow_query);
      if (result.ok()) {
        ++ok_count;
      } else if (result.status().IsResourceExhausted()) {
        ++overloaded;
      } else {
        ++other;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(overloaded.load(), 1)
      << "expected admission control to reject some of " << kClients
      << " concurrent queries (ok=" << ok_count.load() << ")";
  auto delta = obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.counter("server.queries_rejected"),
            static_cast<uint64_t>(overloaded.load()));
}

TEST_F(ServerTest, SessionLimitRefusesExtraConnections) {
  server::ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  auto first = Connect();
  ASSERT_TRUE(first.ok());
  auto second = Connect();
  EXPECT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();
  // Closing the first session frees the slot (reaped on next accept).
  (*first)->Close();
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto retry = Connect();
    if (retry.ok()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "session slot never freed";
}

TEST_F(ServerTest, PingRoundTripsAndEnsureAliveReconnects) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  EXPECT_TRUE((*client)->EnsureAlive().ok());
  // Break the connection underneath the client; EnsureAlive heals it.
  ASSERT_TRUE((*client)->Reconnect().ok());
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(ServerTest, ShutdownDrainsInFlightQueries) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  std::atomic<bool> query_ok{false};
  std::atomic<bool> query_done{false};
  std::thread querier([&] {
    auto result = (*client)->QueryAll(SlowQuery());
    query_ok.store(result.ok());
    query_done.store(true);
  });
  // Drain once the query is admitted (bounded: it must be admitted, and
  // still in flight, well within 10 s).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->inflight_queries() == 0 && !query_done.load() &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const bool admitted = server_->inflight_queries() > 0;
  server_->Shutdown();
  querier.join();
  ASSERT_TRUE(admitted) << "the query was never seen in flight";
  EXPECT_TRUE(query_ok.load()) << "in-flight query was not drained";
  // After shutdown the listener is gone.
  EXPECT_FALSE(Connect().ok());
}

// -------------------- Concurrent reads vs ETL refresh (the write side).

TEST_F(ServerTest, ConcurrentReadsSeeConsistentSnapshotsDuringRefresh) {
  StartServer();
  auto pre = bql::RunBql(db_.get(), "count sequences");
  ASSERT_TRUE(pre.ok());
  std::string pre_count = pre->rows[0][0].ToString();
  auto before = obs::Registry::Global().Snapshot();

  std::atomic<bool> writer_done{false};
  std::atomic<int> reader_failures{0};
  std::atomic<uint64_t> reads_done{0};
  std::vector<std::string> observed[4];
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      auto client = net::GenAlgClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        ++reader_failures;
        return;
      }
      while (!writer_done.load(std::memory_order_acquire)) {
        auto result = (*client)->QueryAll("count sequences");
        if (!result.ok()) {
          ++reader_failures;
          return;
        }
        observed[r].push_back(result->rows[0][0].ToString());
        ++reads_done;
      }
    });
  }

  // One maintenance round: churn the source, refresh the warehouse. The
  // delta application runs in a single transaction holding the write side
  // of the gate, so every served count must equal the pre- or the
  // post-refresh value — never a torn in-between.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(source_.EvolveStep(0.4, 0.3).ok());
  auto round = pipeline_->RunOnce();
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  writer_done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  auto post = bql::RunBql(db_.get(), "count sequences");
  ASSERT_TRUE(post.ok());
  std::string post_count = post->rows[0][0].ToString();

  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(reads_done.load(), 0u);
  for (int r = 0; r < 4; ++r) {
    for (const std::string& count : observed[r]) {
      EXPECT_TRUE(count == pre_count || count == post_count)
          << "torn read: saw " << count << ", expected " << pre_count
          << " (pre) or " << post_count << " (post)";
    }
  }

  // Pin the gate traffic: each served query took the read side, the
  // refresh took the write side exactly once.
  auto delta = obs::Registry::Global().Snapshot().Since(before);
  EXPECT_GE(delta.counter("udb.gate.read_acquires"), reads_done.load());
  EXPECT_GE(delta.counter("udb.gate.write_acquires"), 1u);
  EXPECT_GE(delta.counter("server.queries"), reads_done.load());
}

}  // namespace
}  // namespace genalg
