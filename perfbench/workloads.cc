#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <thread>

#include "base/rng.h"
#include "bql/bql.h"
#include "checks.h"
#include "mediator/mediator.h"

namespace genalg::perfbench {

namespace {

uint64_t NanosSinceEpoch(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                           ProcessStart())
          .count());
}

/// Times one served query. An error status is a failed operation; the
/// caller checks the rows of a successful one.
std::optional<udb::QueryResult> Served(net::GenAlgClient* client,
                                       const std::string& bql,
                                       const char* span, uint32_t thread,
                                       bool traced,
                                       std::vector<double>* samples,
                                       Window* window) {
  ++window->attempted;
  const auto start = Clock::now();
  auto result = client->QueryAll(bql);
  const auto stop = Clock::now();
  if (!result.ok()) {
    ++window->failed;
    std::fprintf(stderr, "perfbench: '%s' failed: %s\n", bql.c_str(),
                 result.status().ToString().c_str());
    return std::nullopt;
  }
  ++window->served_reads;
  if (samples != nullptr) {
    samples->push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  if (traced) {
    window->spans.push_back({span, thread, NanosSinceEpoch(start),
                             NanosSinceEpoch(stop) - NanosSinceEpoch(start)});
  }
  return std::move(*result);
}

/// Runs `step(client_index, window)` once on one thread per client, all
/// at once, and merges the windows; the step's served reads per second of
/// wall time become one `step_qps` entry.
template <typename Step>
Window RunStep(size_t clients, Step step) {
  std::vector<Window> windows(clients);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      step(c, &windows[c]);
    });
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  const double seconds = SecondsSince(start);
  Window merged;
  for (auto& window : windows) merged.Merge(std::move(window));
  merged.step_qps.push_back(merged.served_reads / seconds);
  return merged;
}

// ------------------------------------------------------------- lookup.

// Point lookups and full GC scans over a corpus larger than the buffer
// pool: the serving path, BQL, SQL and storage do the work; alignment
// does none.
class LookupWorkload : public Workload {
 public:
  static constexpr CorpusShape kShape{4, 200, 500};
  static constexpr size_t kPoolPages = 24;
  static constexpr size_t kClients = 2;
  // A scan costs about 60 point lookups, so at this ratio point lookups
  // take about three quarters of each connection's time and `read_qps`
  // follows them, while a run still holds thousands of scans.
  static constexpr size_t kPointsPerScan = 180;
  static constexpr size_t kRoundsPerStep = 3;  // About 50 ms.

  LookupWorkload(Ledger* ledger, uint64_t seed) : Workload(ledger, seed) {
    FixtureOptions options;
    options.pool_pages = kPoolPages;
    options.clients = kClients;
    fixture_ = MakeFixture(MakeSources(kShape, seed), options);
    const auto records = fixture_->Records();
    for (const auto& [accession, record] : records) {
      accessions_.push_back(accession);
      features_[accession] = ExpectedFeatures(record);
      gc_.push_back({accession, ReferenceGc(record.sequence.ToString())});
    }
    patterns_ = MakePatterns(records, 8, seed + 17);  // Layer probes only.
    for (size_t c = 0; c < kClients; ++c) rngs_.emplace_back(seed * 7 + c);
  }

  void Warmup() override {
    for (size_t c = 0; c < kClients; ++c) {
      Window scratch;
      Round(c, &scratch, false);
    }
  }

  Window Run(double seconds, bool traced) override {
    Window total;
    const auto start = Clock::now();
    do {
      total.Merge(RunStep(kClients, [&](size_t c, Window* w) {
        for (size_t r = 0; r < kRoundsPerStep; ++r) Round(c, w, traced);
      }));
    } while (SecondsSince(start) < seconds);
    return total;
  }

 private:
  // kPointsPerScan point lookups of seeded accessions and one scan at a
  // seeded position.
  void Round(size_t c, Window* w, bool traced) {
    Rng& rng = rngs_[c];
    net::GenAlgClient* client = fixture_->clients[c].get();
    const size_t scan_at = rng.Uniform(kPointsPerScan + 1);
    for (size_t k = 0; k <= kPointsPerScan; ++k) {
      if (k == scan_at) {
        auto rows = Served(client, "show gc of sequences", "scan", c, traced,
                           &w->secondary_us, w);
        if (rows) Check(CheckGcRows(gc_, *rows));
        continue;
      }
      const std::string& accession =
          accessions_[rng.Uniform(accessions_.size())];
      auto rows = Served(client, "find features of " + accession, "point", c,
                         traced, &w->primary_us, w);
      if (rows) Check(CheckFeatureRows(features_.at(accession), *rows));
    }
  }

  void Check(const std::string& why) {
    if (!why.empty()) ledger_->Fail(why);
  }

  std::map<std::string, std::vector<ExpectedFeature>> features_;
  std::vector<ExpectedGc> gc_;
  std::vector<Rng> rngs_;
};

// --------------------------------------------------------- similarity.

// Served `resembling` queries over a corpus that fits the buffer pool,
// then the same patterns through the Figure 1 mediator: alignment does
// nearly all the work.
class SimilarityWorkload : public Workload {
 public:
  static constexpr CorpusShape kShape{4, 40, 500};
  static constexpr size_t kClients = 2;
  static constexpr size_t kPatterns = 16;
  static constexpr size_t kReferencePairsPerPattern = 4;

  SimilarityWorkload(Ledger* ledger, uint64_t seed)
      : Workload(ledger, seed) {
    FixtureOptions options;
    options.clients = kClients;
    fixture_ = MakeFixture(MakeSources(kShape, seed), options);
    const auto records = fixture_->Records();
    for (const auto& [accession, record] : records) {
      accessions_.push_back(accession);
    }
    patterns_ = MakePatterns(records, kPatterns, seed + 17);
    first_find_.resize(patterns_.size());
    for (auto& source : fixture_->sources) mediator_.AddSource(source.get());
    for (const Pattern& p : patterns_) {
      queries_.push_back(
          Must(seq::NucleotideSequence::Dna(p.dna), "parse pattern"));
    }
    for (size_t c = 0; c < kClients; ++c) {
      next_pattern_.push_back(c * patterns_.size() / kClients);
    }
  }

  void Warmup() override {
    Window scratch;
    for (size_t c = 0; c < kClients; ++c) ServedRound(c, &scratch, false);
    MediatorRound(&scratch, false);
  }

  // Rounds alternate a served step (one pattern per connection, all
  // connections at once) with one mediator query, so that both see the
  // same stretch of host speed.
  Window Run(double seconds, bool traced) override {
    Window total;
    const auto start = Clock::now();
    do {
      total.Merge(RunStep(kClients, [&](size_t c, Window* w) {
        ServedRound(c, w, traced);
      }));
      MediatorRound(&total, traced);
    } while (SecondsSince(start) < seconds);
    return total;
  }

  void Verify() override {
    RwGate::ReadLease lease = fixture_->db->gate().Read();
    const auto records = fixture_->Records();
    Rng rng(seed_ + 29);
    for (size_t i = 0; i < patterns_.size(); ++i) {
      const Pattern& p = patterns_[i];
      std::lock_guard<std::mutex> lock(first_mutex_);
      if (!first_find_[i]) continue;  // Never served in this run.
      const udb::QueryResult& served = *first_find_[i];
      auto in_process =
          bql::RunBql(fixture_->db.get(), FindQuery(p));
      if (!in_process.ok()) {
        ledger_->Fail("in-process find failed: " +
                      in_process.status().ToString());
        continue;
      }
      Check(CheckSameRows(served, *in_process));
      // Reference verdicts for the planted record and a seeded sample.
      std::vector<std::string> sample;
      if (!p.planted.empty()) sample.push_back(p.planted);
      while (sample.size() < kReferencePairsPerPattern) {
        sample.push_back(accessions_[rng.Uniform(accessions_.size())]);
      }
      for (const std::string& accession : sample) {
        auto record = records.find(accession);
        if (record == records.end()) {
          ledger_->Fail("sampled record " + accession + " is gone");
          continue;
        }
        const std::string stored = record->second.sequence.ToString();
        const Verdict verdict =
            ReferenceVerdict(ReferenceLocalAlign(stored, p.dna));
        Check(CheckVerdict(verdict,
                           CheckHasAccession(served, accession).empty(),
                           accession));
      }
    }
  }

 private:
  static std::string FindQuery(const Pattern& p) {
    return "find sequences resembling " + p.dna;
  }

  // One pattern: count, then find, on this connection's seeded cycle.
  void ServedRound(size_t c, Window* w, bool traced) {
    const size_t i = next_pattern_[c]++ % patterns_.size();
    const Pattern& p = patterns_[i];
    net::GenAlgClient* client = fixture_->clients[c].get();
    auto count = Served(client, "count sequences resembling " + p.dna,
                        "similar", c, traced, &w->primary_us, w);
    auto find = Served(client, FindQuery(p), "similar", c, traced,
                       &w->primary_us, w);
    if (!count || !find) return;
    Check(CheckCountMatchesFind(*count, *find));
    if (!p.planted.empty()) Check(CheckHasAccession(*find, p.planted));
    std::lock_guard<std::mutex> lock(first_mutex_);
    if (!first_find_[i]) {
      first_find_[i] = std::move(*find);
    } else {
      Check(CheckSameRows(*find, *first_find_[i]));
    }
  }

  // The mediator answers from one caller thread; its verification fans
  // out over the global pool by itself.
  void MediatorRound(Window* w, bool traced) {
    const size_t i = next_mediated_++ % patterns_.size();
    ++w->attempted;
    const auto start = Clock::now();
    auto hits = mediator_.SimilarTo(queries_[i]);
    const auto stop = Clock::now();
    if (!hits.ok()) {
      ++w->failed;
      return;
    }
    w->secondary_us.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
    if (traced) {
      w->spans.push_back({"mediator", 0, NanosSinceEpoch(start),
                          NanosSinceEpoch(stop) - NanosSinceEpoch(start)});
    }
    const std::string& planted = patterns_[i].planted;
    if (planted.empty()) return;
    bool found = false;
    for (const auto& hit : *hits) found |= hit.record.accession == planted;
    if (!found) ledger_->Fail("mediator missed planted source " + planted);
  }

  void Check(const std::string& why) {
    if (!why.empty()) ledger_->Fail(why);
  }

  mediator::Mediator mediator_;
  std::vector<seq::NucleotideSequence> queries_;
  std::vector<size_t> next_pattern_;
  size_t next_mediated_ = 0;
  std::mutex first_mutex_;
  std::vector<std::optional<udb::QueryResult>> first_find_;
};

// ------------------------------------------------------------ refresh.

// ETL refresh rounds committing through the write-ahead log while other
// connections send short served reads. Refreshes of source B2
// (relational, non-queryable) drop the features of every record they
// update (a known fault). Lost features never come back, and B2 loses
// some before the first measured round closes (no update among its ~100
// records in 8 steps at 0.02 has odds of about 1e-7), so its closing
// check fails once in every measured round, whatever the seed.
class RefreshWorkload : public Workload {
 public:
  static constexpr CorpusShape kShape{4, 100, 500};
  static constexpr int kFaultySource = 2;
  static constexpr size_t kReaders = 1;
  static constexpr size_t kRefreshesPerRound = 4;
  static constexpr size_t kReadsPerRound = 64;  // Per reader.
  static constexpr size_t kPointsPerCount = 3;
  static constexpr double kUpdateRate = 0.02;
  static constexpr double kChurnRate = 0.25;
  // The writer's extracts run beside the reader's client, session and
  // worker threads on 4 cores; with one extract thread per core the
  // reads' p50 spread to 0.18 of its median over 5 seeds, with 2 threads
  // to 0.04.
  static constexpr size_t kExtractThreads = 2;

  RefreshWorkload(Ledger* ledger, uint64_t seed,
                  const std::string& scratch_dir)
      : Workload(ledger, seed) {
    FixtureOptions options;
    options.clients = kReaders;
    options.wal_dir = scratch_dir;
    options.extract_threads = kExtractThreads;
    fixture_ = MakeFixture(MakeSources(kShape, seed), options);
    const auto records = fixture_->Records();
    for (const auto& [accession, record] : records) {
      accessions_.push_back(accession);
      features_[accession] = ExpectedFeatures(record);
    }
    patterns_ = MakePatterns(records, 8, seed + 17);  // Layer probes only.
    for (size_t c = 0; c < kReaders; ++c) rngs_.emplace_back(seed * 7 + c);
  }

  void Warmup() override {
    Window scratch;
    Round(&scratch, false);
  }

  Window Run(double seconds, bool traced) override {
    Window total;
    const auto start = Clock::now();
    do {
      Window round;
      Round(&round, traced);
      total.Merge(std::move(round));
    } while (SecondsSince(start) < seconds);
    return total;
  }

 private:
  struct Read {
    std::string accession;  // Empty for `count sequences`.
    udb::QueryResult result;
  };

  int64_t SourceTotal() const {
    int64_t total = 0;
    for (const auto& source : fixture_->sources) {
      total += static_cast<int64_t>(source->record_count());
    }
    return total;
  }

  // kRefreshesPerRound refreshes beside kReadsPerRound reads per reader,
  // then the closing checks.
  void Round(Window* w, bool traced) {
    std::set<int64_t> valid_counts = {SourceTotal()};
    std::vector<std::vector<Read>> reads(kReaders);
    Window writer;
    std::thread refresher([&] {
      for (size_t k = 0; k < kRefreshesPerRound; ++k) {
        for (auto& source : fixture_->sources) {
          Must(source->EvolveStep(kUpdateRate, kChurnRate), "evolve");
        }
        ++writer.attempted;
        const auto start = Clock::now();
        auto stats = fixture_->pipeline->RunOnce();
        const auto stop = Clock::now();
        if (!stats.ok()) {
          ++writer.failed;
          std::fprintf(stderr, "perfbench: refresh failed: %s\n",
                       stats.status().ToString().c_str());
        }
        writer.secondary_us.push_back(
            std::chrono::duration<double, std::micro>(stop - start)
                .count());
        if (traced) {
          writer.spans.push_back(
              {"refresh", kReaders, NanosSinceEpoch(start),
               NanosSinceEpoch(stop) - NanosSinceEpoch(start)});
        }
        valid_counts.insert(SourceTotal());
      }
    });
    const auto start = Clock::now();
    std::vector<Window> windows(kReaders);
    std::vector<std::thread> readers;
    for (size_t c = 0; c < kReaders; ++c) {
      readers.emplace_back([&, c] {
        net::GenAlgClient* client = fixture_->clients[c].get();
        for (size_t q = 0; q < kReadsPerRound; ++q) {
          Read read;
          std::optional<udb::QueryResult> rows;
          if (q % (kPointsPerCount + 1) == kPointsPerCount) {
            rows = Served(client, "count sequences", "count", c, traced,
                          nullptr, &windows[c]);
          } else {
            read.accession =
                accessions_[rngs_[c].Uniform(accessions_.size())];
            rows = Served(client, "find features of " + read.accession,
                          "point", c, traced, &windows[c].primary_us,
                          &windows[c]);
          }
          if (rows) {
            read.result = std::move(*rows);
            reads[c].push_back(std::move(read));
          }
        }
      });
    }
    for (auto& reader : readers) reader.join();
    const double reads_seconds = SecondsSince(start);
    refresher.join();
    for (auto& window : windows) w->Merge(std::move(window));
    w->step_qps.push_back(w->served_reads / reads_seconds);
    w->Merge(std::move(writer));

    const auto records = fixture_->Records();
    for (const auto& per_reader : reads) {
      for (const Read& read : per_reader) {
        CheckRead(read, valid_counts, records);
      }
    }
    CloseRound(w);
  }

  // A served read taken beside the refreshes: a count must match a round
  // boundary; features must be the generator's, or absent when the record
  // is deleted by now or belongs to the source with the known fault.
  void CheckRead(const Read& read, const std::set<int64_t>& valid_counts,
                 const std::map<std::string, formats::SequenceRecord>&
                     records) {
    if (read.accession.empty()) {
      const std::string why = CheckCount(read.result, valid_counts);
      if (!why.empty()) ledger_->Fail(why);
      return;
    }
    std::string why;
    switch (ClassifyFeatureRows(features_.at(read.accession), read.result,
                                &why)) {
      case FeatureOutcome::kMatch: return;
      case FeatureOutcome::kDropped:
        if (records.count(read.accession) == 0 ||
            read.accession.rfind(faulty_name_, 0) == 0) {
          return;
        }
        break;
      case FeatureOutcome::kWrong: break;
    }
    ledger_->Fail(why);
  }

  // Closing checks of a round: the warehouse's entries equal the sources',
  // and a served feature lookup of every accession, grouped per source
  // into one operation that fails when the source lost features.
  void CloseRound(Window* w) {
    std::vector<EntryState> stored;
    {
      RwGate::ReadLease lease = fixture_->db->gate().Read();
      auto rows = fixture_->db->Execute(
          "SELECT accession, version, seq FROM sequences ORDER BY accession");
      if (!rows.ok()) {
        ledger_->Fail("warehouse scan failed: " + rows.status().ToString());
        return;
      }
      for (const udb::Row& row : rows->rows) {
        auto value = fixture_->adapter->ToValue(row[2]);
        auto dna = value.ok() ? value->AsNucSeq()
                              : Result<seq::NucleotideSequence>(
                                    value.status());
        if (!dna.ok()) {
          ledger_->Fail("warehouse sequence unreadable");
          return;
        }
        stored.push_back({*row[0].AsString(), *row[1].AsInt(),
                          dna->ToString()});
      }
    }
    std::vector<EntryState> expected;
    for (const auto& [accession, record] : fixture_->Records()) {
      expected.push_back(
          {accession, record.version, record.sequence.ToString()});
    }
    const std::string entries = CheckEntries(stored, expected);
    if (!entries.empty()) ledger_->Fail(entries);

    net::GenAlgClient* client = fixture_->clients[0].get();
    for (size_t s = 0; s < fixture_->sources.size(); ++s) {
      const auto& source = fixture_->sources[s];
      ++w->attempted;
      size_t dropped = 0;
      for (const auto& record : source->AllRecords()) {
        auto rows = client->QueryAll("find features of " + record.accession);
        if (!rows.ok()) {
          ledger_->Fail("closing lookup failed: " + rows.status().ToString());
          continue;
        }
        std::string why;
        switch (ClassifyFeatureRows(ExpectedFeatures(record), *rows, &why)) {
          case FeatureOutcome::kMatch: break;
          case FeatureOutcome::kDropped: ++dropped; break;
          case FeatureOutcome::kWrong: ledger_->Fail(why); break;
        }
      }
      if (dropped == 0) continue;
      const bool named_fault =
          source->representation() == etl::SourceRepresentation::kRelational &&
          source->capability() == etl::SourceCapability::kNonQueryable;
      if (!named_fault) {
        ledger_->Fail(source->name() + " lost features of " +
                      std::to_string(dropped) + " records");
      }
      ++w->failed;
      dropped_ = dropped;
    }
  }

  void Verify() override {
    std::fprintf(stderr,
                 "perfbench: %s kept no features for %zu updated records "
                 "after the last round\n",
                 faulty_name_.c_str(), dropped_);
  }

  const std::string faulty_name_ =
      std::string("B") + std::to_string(kFaultySource);
  std::map<std::string, std::vector<ExpectedFeature>> features_;
  std::vector<Rng> rngs_;
  size_t dropped_ = 0;
};

}  // namespace

void Window::Merge(Window other) {
  primary_us.insert(primary_us.end(), other.primary_us.begin(),
                    other.primary_us.end());
  secondary_us.insert(secondary_us.end(), other.secondary_us.begin(),
                      other.secondary_us.end());
  attempted += other.attempted;
  failed += other.failed;
  served_reads += other.served_reads;
  step_qps.insert(step_qps.end(), other.step_qps.begin(),
                  other.step_qps.end());
  spans.insert(spans.end(), other.spans.begin(), other.spans.end());
}

std::vector<Pattern> MakePatterns(
    const std::map<std::string, formats::SequenceRecord>& records, size_t n,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<const formats::SequenceRecord*> pool;
  for (const auto& [accession, record] : records) pool.push_back(&record);
  std::vector<Pattern> out;
  while (out.size() < n) {
    // Every seed gets the same spread of lengths over 40..60 bp, so that
    // the alignment work per round does not vary with the seed.
    const size_t length = 40 + (out.size() * 7) % 21;
    if (out.size() % 2 == 1) {
      out.push_back({rng.RandomDna(length), ""});
      continue;
    }
    const formats::SequenceRecord& record = *pool[rng.Uniform(pool.size())];
    const std::string dna = record.sequence.ToString();
    if (dna.size() < length) continue;
    std::string cut = dna.substr(rng.Uniform(dna.size() - length + 1), length);
    if (cut.find_first_not_of("ACGT") != std::string::npos) continue;
    const size_t substitutions = 2 + rng.Uniform(2);
    for (size_t s = 0; s < substitutions; ++s) {
      char& base = cut[rng.Uniform(length)];
      const size_t at = std::string_view("ACGT").find(base);
      base = "ACGT"[(at + 1 + rng.Uniform(3)) % 4];
    }
    out.push_back({cut, record.accession});
  }
  return out;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, Ledger* ledger,
                                       const std::string& scratch_dir) {
  if (name == "lookup") return std::make_unique<LookupWorkload>(ledger, seed);
  if (name == "similarity") {
    return std::make_unique<SimilarityWorkload>(ledger, seed);
  }
  if (name == "refresh") {
    return std::make_unique<RefreshWorkload>(ledger, seed, scratch_dir);
  }
  return nullptr;
}

}  // namespace genalg::perfbench
