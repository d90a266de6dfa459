#ifndef GENALG_PERFBENCH_WORKLOADS_H_
#define GENALG_PERFBENCH_WORKLOADS_H_

// The three closed-loop workloads. Each drives the in-process server
// through its own client connections, one query outstanding per
// connection, in whole rounds of a fixed operation mix, and checks every
// answer with checks.h.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace genalg::perfbench {

/// A seeded 40–60 bp search pattern. `planted` names the record it was
/// cut from (with a few substitutions); empty for a random pattern.
struct Pattern {
  std::string dna;
  std::string planted;
};

/// Half planted, half random patterns, alternating, drawn from `records`.
std::vector<Pattern> MakePatterns(
    const std::map<std::string, formats::SequenceRecord>& records, size_t n,
    uint64_t seed);

/// Benchmark-side span: one client call, kept in memory during a traced
/// window and written out when the run ends.
struct ClientSpan {
  const char* name;
  uint32_t thread;
  uint64_t start_ns;  ///< Since process start.
  uint64_t duration_ns;
};

/// What one measured window produced.
struct Window {
  std::vector<double> primary_us;    ///< The workload's main served read.
  std::vector<double> secondary_us;  ///< Scan / mediator query / refresh.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t served_reads = 0;       ///< Served queries completed.
  /// Served queries completed per second, one entry per step: a median
  /// over steps is not swayed by the few steps a host stall lands in.
  std::vector<double> step_qps;
  std::vector<ClientSpan> spans;  ///< Traced windows only.

  void Merge(Window other);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Untimed rounds of every operation, so that lazy set-up, caches and
  /// connections are warm before anything is timed.
  virtual void Warmup() = 0;

  /// Whole rounds until `seconds` have passed. `traced` keeps a
  /// benchmark-side span per client call.
  virtual Window Run(double seconds, bool traced) = 0;

  /// Checks that need the whole run's answers.
  virtual void Verify() {}

  Fixture& fixture() { return *fixture_; }
  const std::vector<std::string>& accessions() const { return accessions_; }
  const std::vector<Pattern>& patterns() const { return patterns_; }

 protected:
  Workload(Ledger* ledger, uint64_t seed) : ledger_(ledger), seed_(seed) {}

  Ledger* ledger_;
  uint64_t seed_;
  std::unique_ptr<Fixture> fixture_;
  std::vector<std::string> accessions_;  ///< Every loaded accession.
  std::vector<Pattern> patterns_;
};

/// Builds the named workload's inputs and system (the cold set-up).
/// `scratch_dir` holds the refresh workload's database and log files.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, Ledger* ledger,
                                       const std::string& scratch_dir);

}  // namespace genalg::perfbench

#endif  // GENALG_PERFBENCH_WORKLOADS_H_
