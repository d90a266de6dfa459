// Instrumentation tax: the two hot workloads — warehouse load and batch
// alignment — timed with the metrics registry enabled (the default) and
// disabled, tracing off in both. The budget is a <= 3% slowdown with
// metrics on: counters on these paths are one relaxed load plus a relaxed
// fetch_add, so anything above that points at an instrumentation
// regression (a lock or per-item registry lookup on a hot path).
//
// Also validates PROFILE accounting: the per-operator times in a profiled
// query's span tree must sum to within 10% of the statement's end-to-end
// latency (the root "execute" span), i.e. the operator spans cover the
// execution rather than leaving untraced gaps.
//
// Writes BENCH_obs_overhead.json to the repo root. Pass --smoke (or set
// GENALG_BENCH_SMOKE=1) for a fast CI-sized run; smoke numbers exercise
// the harness but are too noisy to hold against the budgets.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/signature.h"
#include "align/aligner.h"
#include "base/rng.h"
#include "etl/warehouse.h"
#include "formats/record.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/nucleotide_sequence.h"
#include "udb/adapter.h"
#include "udb/database.h"

namespace genalg::bench {
namespace {

struct Config {
  size_t batches = 48;
  size_t records_per_batch = 4;
  size_t sequence_length = 200;
  size_t align_pairs = 64;
  size_t align_length = 300;
  int repeats = 11;
  int profile_repeats = 9;
  bool smoke = false;
};

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Overhead comparisons use min-of-N: both sides run the identical
// deterministic workload, so the fastest observed run is the one least
// disturbed by the scheduler, and the on/off ratio converges where the
// median would still carry pool-timing noise.
double MinMs(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

std::vector<std::vector<formats::SequenceRecord>> MakeBatches(
    const Config& config) {
  Rng rng(20260807);
  std::vector<std::vector<formats::SequenceRecord>> batches(config.batches);
  int serial = 0;
  for (auto& batch : batches) {
    batch.reserve(config.records_per_batch);
    for (size_t r = 0; r < config.records_per_batch; ++r) {
      formats::SequenceRecord rec;
      char accession[16];
      std::snprintf(accession, sizeof(accession), "OBS%05d", serial++);
      rec.accession = accession;
      rec.source_db = "BENCH";
      rec.organism = "Synthetica exempli";
      rec.sequence =
          seq::NucleotideSequence::Dna(rng.RandomDna(config.sequence_length))
              .value();
      batch.push_back(std::move(rec));
    }
  }
  return batches;
}

// Half the pairs are ~90% identical (hit the banded screen), half are
// unrelated (hit the score-only reject) — both kernel counting paths run.
std::vector<std::pair<seq::NucleotideSequence, seq::NucleotideSequence>>
MakeAlignPairs(const Config& config) {
  Rng rng(733);
  std::vector<std::pair<seq::NucleotideSequence, seq::NucleotideSequence>>
      pairs;
  pairs.reserve(config.align_pairs);
  const char* kBases = "ACGT";
  for (size_t i = 0; i < config.align_pairs; ++i) {
    std::string a = rng.RandomDna(config.align_length);
    std::string b;
    if (i % 2 == 0) {
      b = a;
      for (size_t p = 0; p < b.size(); p += 10) {
        b[p] = kBases[rng.Uniform(4)];
      }
    } else {
      b = rng.RandomDna(config.align_length);
    }
    pairs.emplace_back(seq::NucleotideSequence::Dna(a).value(),
                       seq::NucleotideSequence::Dna(b).value());
  }
  return pairs;
}

// One timed warehouse-load pass into a fresh in-memory database. Memory
// backing keeps fsync out of the measurement, which maximizes the
// relative weight of the instrumentation under test.
double TimeWarehouseLoad(
    const udb::Adapter* adapter,
    const std::vector<std::vector<formats::SequenceRecord>>& batches) {
  udb::Database db(adapter);
  etl::Warehouse warehouse(&db);
  if (!warehouse.InitSchema().ok()) std::abort();
  auto start = std::chrono::steady_clock::now();
  for (const auto& batch : batches) {
    if (!warehouse.LoadBatch(batch).ok()) std::abort();
  }
  auto stop = std::chrono::steady_clock::now();
  auto count = db.Execute("SELECT count(*) FROM sequences");
  size_t expected = batches.size() * batches[0].size();
  if (!count.ok() ||
      count->rows[0][0].AsInt().value() != static_cast<int64_t>(expected)) {
    std::abort();
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

double TimeBatchAlignment(
    const std::vector<std::pair<seq::NucleotideSequence,
                                seq::NucleotideSequence>>& pairs) {
  std::vector<std::pair<const seq::NucleotideSequence*,
                        const seq::NucleotideSequence*>>
      refs;
  refs.reserve(pairs.size());
  for (const auto& [a, b] : pairs) refs.emplace_back(&a, &b);
  auto start = std::chrono::steady_clock::now();
  auto verdicts = align::BatchResembles(refs, 0.8, 32);
  auto stop = std::chrono::steady_clock::now();
  if (!verdicts.ok() || verdicts->size() != pairs.size()) std::abort();
  // The even pairs were built similar; a changed verdict means the
  // workload (not just its speed) changed.
  if (!(*verdicts)[0].hit) std::abort();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

struct OverheadResult {
  double off_ms = 0;
  double on_ms = 0;
  double overhead() const { return on_ms / off_ms; }
};

// Interleaves metrics-off and metrics-on samples so drift (thermal,
// cache, scheduler) lands on both sides equally.
template <typename WorkloadFn>
OverheadResult MeasureOverhead(int repeats, const WorkloadFn& run) {
  std::vector<double> off_samples, on_samples;
  off_samples.reserve(repeats);
  on_samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    obs::SetMetricsEnabled(false);
    off_samples.push_back(run());
    obs::SetMetricsEnabled(true);
    on_samples.push_back(run());
  }
  obs::SetMetricsEnabled(true);
  OverheadResult out;
  out.off_ms = MinMs(off_samples);
  out.on_ms = MinMs(on_samples);
  return out;
}

struct ProfileCoverage {
  double execute_us = 0;  // Root "execute" span: the statement's e2e time.
  double operator_sum_us = 0;  // Its direct children.
  double coverage() const { return operator_sum_us / execute_us; }
};

// Profiles one SELECT and reads the span tree back out of the PROFILE
// result rows (depth = indentation / 2). Coverage near 1.0 means the
// operator spans account for the whole statement.
ProfileCoverage MeasureProfileCoverage(udb::Database* db,
                                       const std::string& sql,
                                       int repeats) {
  std::vector<double> execute_samples, sum_samples;
  for (int r = 0; r < repeats; ++r) {
    auto profile = db->Profile(sql);
    if (!profile.ok()) std::abort();
    double execute_us = 0, sum_us = 0;
    for (const auto& row : profile->rows) {
      std::string op = row[0].AsString().value();
      size_t indent = op.find_first_not_of(' ');
      double time_us = row[1].AsReal().value();
      if (indent == 0) execute_us = time_us;
      if (indent == 2) sum_us += time_us;
    }
    execute_samples.push_back(execute_us);
    sum_samples.push_back(sum_us);
  }
  ProfileCoverage out;
  out.execute_us = MedianMs(std::move(execute_samples));
  out.operator_sum_us = MedianMs(std::move(sum_samples));
  return out;
}

}  // namespace
}  // namespace genalg::bench

int main(int argc, char** argv) {
  using namespace genalg::bench;

#ifndef GENALG_REPO_ROOT
#define GENALG_REPO_ROOT "."
#endif
  std::string out_path = std::string(GENALG_REPO_ROOT) +
                         "/BENCH_obs_overhead.json";
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
    config.batches = 12;
    config.align_pairs = 16;
    config.repeats = 2;
    config.profile_repeats = 3;
  }

  // Tracing stays off throughout: the budget is for the always-on
  // counters; spans cost only when a sink is installed.
  genalg::obs::Tracer::Global().Disable();

  genalg::algebra::SignatureRegistry registry;
  if (!genalg::algebra::RegisterStandardAlgebra(&registry).ok()) return 1;
  genalg::udb::Adapter adapter(&registry);
  if (!genalg::udb::RegisterStandardUdts(&adapter).ok()) return 1;

  const auto batches = MakeBatches(config);
  const auto pairs = MakeAlignPairs(config);

  // Untimed warmup of both workloads (allocator, pool threads, statics).
  TimeWarehouseLoad(&adapter, batches);
  TimeBatchAlignment(pairs);

  OverheadResult load = MeasureOverhead(config.repeats, [&] {
    return TimeWarehouseLoad(&adapter, batches);
  });
  OverheadResult align = MeasureOverhead(config.repeats, [&] {
    return TimeBatchAlignment(pairs);
  });
  std::printf("warehouse_load    off %7.2f ms  on %7.2f ms  overhead %.4f\n",
              load.off_ms, load.on_ms, load.overhead());
  std::printf("batch_alignment   off %7.2f ms  on %7.2f ms  overhead %.4f\n",
              align.off_ms, align.on_ms, align.overhead());

  // PROFILE coverage against a loaded warehouse: a query whose plan runs
  // the full operator chain over every row.
  genalg::udb::Database db(&adapter);
  genalg::etl::Warehouse warehouse(&db);
  if (!warehouse.InitSchema().ok()) return 1;
  for (const auto& batch : batches) {
    if (!warehouse.LoadBatch(batch).ok()) return 1;
  }
  ProfileCoverage coverage = MeasureProfileCoverage(
      &db,
      "SELECT accession, gc_content(seq) FROM sequences "
      "WHERE length(seq) > 10 ORDER BY accession",
      config.profile_repeats);
  std::printf("profile coverage  execute %.1f us  operators %.1f us  "
              "ratio %.3f\n",
              coverage.execute_us, coverage.operator_sum_us,
              coverage.coverage());

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"obs_overhead\",\n");
  std::fprintf(out,
               "  \"setup\": {\"batches\": %zu, \"records_per_batch\": %zu, "
               "\"sequence_length\": %zu, \"align_pairs\": %zu, "
               "\"align_length\": %zu, \"repeats\": %d, \"smoke\": %s, "
               "\"store\": \"in-memory\", \"tracing\": \"off\"},\n",
               config.batches, config.records_per_batch,
               config.sequence_length, config.align_pairs,
               config.align_length, config.repeats,
               config.smoke ? "true" : "false");
  std::fprintf(out, "  \"workloads\": [\n");
  std::fprintf(out,
               "    {\"workload\": \"warehouse_load\", \"metrics_off_ms\": "
               "%.3f, \"metrics_on_ms\": %.3f, \"overhead\": %.4f},\n",
               load.off_ms, load.on_ms, load.overhead());
  std::fprintf(out,
               "    {\"workload\": \"batch_alignment\", \"metrics_off_ms\": "
               "%.3f, \"metrics_on_ms\": %.3f, \"overhead\": %.4f}\n",
               align.off_ms, align.on_ms, align.overhead());
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"profile\": {\"execute_us\": %.1f, \"operator_sum_us\": "
               "%.1f, \"coverage\": %.3f}\n",
               coverage.execute_us, coverage.operator_sum_us,
               coverage.coverage());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
