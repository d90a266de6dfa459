#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "udb/storage.h"
#include "udb/wal.h"

namespace genalg::perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return kProcessStart; }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

void Ledger::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mutex_);
  correct_ = false;
  if (reported_++ < 10) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
}

bool Ledger::correct() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return correct_;
}

std::vector<std::unique_ptr<etl::SyntheticSource>> MakeSources(
    const CorpusShape& shape, uint64_t seed) {
  using etl::SourceCapability;
  using etl::SourceRepresentation;
  static constexpr SourceCapability kCaps[] = {
      SourceCapability::kLogged, SourceCapability::kQueryable,
      SourceCapability::kNonQueryable, SourceCapability::kActive};
  static constexpr SourceRepresentation kReprs[] = {
      SourceRepresentation::kFlatFile, SourceRepresentation::kHierarchical,
      SourceRepresentation::kRelational};
  std::vector<std::unique_ptr<etl::SyntheticSource>> sources;
  for (size_t i = 0; i < shape.sources; ++i) {
    auto source = std::make_unique<etl::SyntheticSource>(
        std::string("B") + std::to_string(i), kReprs[i % 3], kCaps[i % 4],
        seed * 1000003 + 7919 * (i + 1));
    Must(source->Populate(shape.records, shape.length), "populate source");
    sources.push_back(std::move(source));
  }
  return sources;
}

std::map<std::string, formats::SequenceRecord> Fixture::Records() const {
  std::map<std::string, formats::SequenceRecord> out;
  for (const auto& source : sources) {
    for (auto& record : source->AllRecords()) {
      std::string accession = record.accession;
      out.emplace(std::move(accession), std::move(record));
    }
  }
  return out;
}

std::unique_ptr<Fixture> MakeFixture(
    std::vector<std::unique_ptr<etl::SyntheticSource>> sources,
    const FixtureOptions& options) {
  auto f = std::make_unique<Fixture>();
  f->sources = std::move(sources);
  Must(algebra::RegisterStandardAlgebra(&f->algebra), "register algebra");
  f->adapter = std::make_unique<udb::Adapter>(&f->algebra);
  Must(udb::RegisterStandardUdts(f->adapter.get()), "register UDTs");
  if (options.wal_dir.empty()) {
    f->db = std::make_unique<udb::Database>(f->adapter.get(), nullptr,
                                            options.pool_pages);
  } else {
    auto disk = Must(udb::FileDiskManager::Open(options.wal_dir + "/udb.db"),
                     "open database file");
    f->db = std::make_unique<udb::Database>(f->adapter.get(),
                                            std::move(disk),
                                            options.pool_pages);
    Must(f->db->EnableWal(Must(
             udb::FileWalFile::Open(options.wal_dir + "/udb.wal"),
             "open log")),
         "enable log");
  }
  f->warehouse = std::make_unique<etl::Warehouse>(f->db.get());
  Must(f->warehouse->InitSchema(), "warehouse schema");
  if (options.extract_threads > 0) {
    f->extract_pool = std::make_unique<ThreadPool>(options.extract_threads);
  }
  f->pipeline = std::make_unique<etl::EtlPipeline>(f->warehouse.get(),
                                                   f->extract_pool.get());
  for (auto& source : f->sources) {
    Must(f->pipeline->AddSource(source.get()), "attach source");
  }
  const auto load_start = Clock::now();
  Must(f->pipeline->InitialLoad(), "initial load");
  f->initial_load_s = SecondsSince(load_start);

  server::ServerOptions server_options;
  server_options.worker_threads = options.clients;
  f->server = std::make_unique<server::GenAlgServer>(f->db.get(),
                                                     server_options);
  Must(f->server->Start(), "start server");
  for (size_t c = 0; c < options.clients; ++c) {
    const std::string name = std::string("perfbench-") + std::to_string(c);
    f->clients.push_back(
        Must(net::GenAlgClient::Connect("127.0.0.1", f->server->port(), name),
             "connect client"));
  }
  return f;
}

void Teardown(Fixture* fixture) {
  for (auto& client : fixture->clients) client->Close();
  fixture->clients.clear();
  if (fixture->server != nullptr) fixture->server->Shutdown();
  fixture->server.reset();
}

void PrintReport(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}\n";
  std::fflush(stderr);
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace genalg::perfbench
