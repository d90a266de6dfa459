#ifndef GENALG_PERFBENCH_HARNESS_H_
#define GENALG_PERFBENCH_HARNESS_H_

// Shared plumbing of the served-GenAlg benchmark: the assembled system
// under test (sources → ETL → Unifying Database → server → clients),
// latency bookkeeping, the correctness ledger and the one-line JSON
// report the benchmark ends with.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algebra/signature.h"
#include "base/thread_pool.h"
#include "etl/pipeline.h"
#include "etl/source.h"
#include "etl/warehouse.h"
#include "net/client.h"
#include "server/server.h"
#include "udb/adapter.h"
#include "udb/database.h"

namespace genalg::perfbench {

using Clock = std::chrono::steady_clock;

/// When this process started (static initialisation time).
Clock::time_point ProcessStart();

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Quantile q in [0, 1] of `samples` by linear interpolation between
/// order statistics; 0 for an empty set.
double Quantile(std::vector<double> samples, double q);

/// Aborts the run with a message on stderr: a harness error, not a
/// finding about the program (no result line is printed).
[[noreturn]] void Die(const std::string& what);

/// Unwraps a Result or dies with its status.
template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(*result);
}
void Must(const Status& status, const char* what);

/// The correctness ledger: any failed check clears `correct`, except the
/// one known program fault the refresh workload counts as failed
/// operations. The first few reasons go to stderr.
class Ledger {
 public:
  void Fail(const std::string& why);
  bool correct() const;

 private:
  mutable std::mutex mutex_;
  bool correct_ = true;
  size_t reported_ = 0;
};

/// Workload sizes: `records` per source, sequence lengths uniform in
/// [length/2, 3*length/2) as SyntheticSource::Populate draws them.
struct CorpusShape {
  size_t sources = 4;
  size_t records = 100;
  size_t length = 500;
};

/// Sources cycling over the three representations and four capability
/// classes (B0 flat/logged, B1 hierarchical/queryable, B2 relational/
/// non-queryable, B3 flat/active, ...), seeded from `seed`.
std::vector<std::unique_ptr<etl::SyntheticSource>> MakeSources(
    const CorpusShape& shape, uint64_t seed);

/// The system under test, assembled in the order of the paper's Figure 3.
struct Fixture {
  std::vector<std::unique_ptr<etl::SyntheticSource>> sources;
  algebra::SignatureRegistry algebra;
  std::unique_ptr<udb::Adapter> adapter;
  std::unique_ptr<udb::Database> db;
  std::unique_ptr<etl::Warehouse> warehouse;
  std::unique_ptr<ThreadPool> extract_pool;  ///< Null: the global pool.
  std::unique_ptr<etl::EtlPipeline> pipeline;
  std::unique_ptr<server::GenAlgServer> server;
  std::vector<std::unique_ptr<net::GenAlgClient>> clients;
  double initial_load_s = 0;

  /// Every source record by accession (the generator's truth).
  std::map<std::string, formats::SequenceRecord> Records() const;
};

struct FixtureOptions {
  size_t pool_pages = 1024;
  /// Directory for a file-backed database with a write-ahead log; empty
  /// keeps the database in memory without a log.
  std::string wal_dir;
  size_t clients = 4;
  /// Threads of the pipeline's own extract pool; 0 uses the global pool
  /// (one thread per core).
  size_t extract_threads = 0;
};

/// Builds the database and warehouse, attaches `sources`, runs the
/// initial load, starts a server with one pool worker per client (so no
/// request meets admission control) and connects the clients.
std::unique_ptr<Fixture> MakeFixture(
    std::vector<std::unique_ptr<etl::SyntheticSource>> sources,
    const FixtureOptions& options);

/// Ends the clients and the server before the database they use.
void Teardown(Fixture* fixture);

/// One named metric of the closing report.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints the report line: {"correct", "attempted", "failed", "metrics"}.
void PrintReport(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace genalg::perfbench

#endif  // GENALG_PERFBENCH_HARNESS_H_
