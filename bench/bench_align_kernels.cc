// Alignment-kernel ablation: times the full-traceback Smith–Waterman DP
// against the linear-memory statistics kernel (score, length and identity
// matches without a traceback; the dispatched instance and each instance
// this host runs: the scalar reference and the AVX2 and AVX-512
// anti-diagonal kernels) over a length sweep, then the `resembles`
// predicate end to end, and writes BENCH_align_kernels.json to the repo
// root, stamped with the host's core count, the build type and
// $GENALG_COMMIT. Alongside wall-clock it records the peak DP working set
// of each route (three int64 matrices for the full DP against one row or
// three anti-diagonals for the statistics kernel), which is the
// O(n*m) → O(m) claim in numbers.
//
// Every timed kernel call is checked against the full DP first, so a run
// that produced a wrong result aborts instead of reporting it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "align/aligner.h"
#include "align/kernels.h"
#include "base/rng.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::bench {
namespace {

constexpr size_t kLengths[] = {250, 500, 1000, 2000};
constexpr size_t kNumLengths = sizeof(kLengths) / sizeof(kLengths[0]);

double MedianMs(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

template <typename Fn>
double TimeMs(int repeats, Fn&& body) {
  std::vector<double> samples;
  samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    auto start = std::chrono::steady_clock::now();
    body();
    auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(stop - start).count());
  }
  return MedianMs(std::move(samples));
}

// A homologous pair: `b` is `a` with ~8% point mutations and a small
// prefix shift — the regime the `resembles` hot path lives in.
struct Pair {
  std::string a;
  std::string b;
};

Pair MakeRelatedPair(Rng* rng, size_t length) {
  Pair p;
  p.a = rng->RandomDna(length);
  p.b = p.a;
  for (char& c : p.b) {
    if (rng->Bernoulli(0.08)) c = rng->Pick("ACGT");
  }
  const size_t shift = 1 + rng->Uniform(16);
  p.b = rng->RandomDna(shift) + p.b;
  p.b.resize(length);
  return p;
}

// The statistics-kernel instances, in detail::StatsKernel order.
constexpr align::detail::StatsKernel kStatsKernels[] = {
    align::detail::StatsKernel::kScalar, align::detail::StatsKernel::kAvx2,
    align::detail::StatsKernel::kAvx512};
constexpr const char* kStatsKernelNames[] = {"scalar", "avx2", "avx512"};
constexpr size_t kNumStatsKernels = 3;

struct LengthResult {
  size_t length = 0;
  double full_dp_ms = 0;
  double stats_ms = 0;  // LocalAlignStats, as dispatched.
  double stats_instance_ms[kNumStatsKernels] = {};  // < 0: not on host.
  size_t full_dp_bytes = 0;
  size_t stats_scalar_bytes = 0;
  size_t stats_vector_bytes = 0;
};

bool SameStats(const align::LocalStats& stats, const align::Alignment& full) {
  return stats.score == full.score && stats.columns == full.Length() &&
         stats.Identity() == full.Identity();
}

LengthResult RunLength(size_t length) {
  Rng rng(4242 + length);
  const Pair related = MakeRelatedPair(&rng, length);
  const auto& scoring = align::SubstitutionMatrix::Nucleotide();
  const align::GapPenalties gaps;

  const align::Alignment full =
      align::LocalAlign(related.a, related.b, scoring, gaps).value();
  const int64_t truth = full.score;
  align::AlignScratch scratch;
  if (!SameStats(align::LocalAlignStats(related.a, related.b, scoring, gaps,
                                        &scratch)
                     .value(),
                 full)) {
    std::abort();
  }

  LengthResult out;
  out.length = length;
  const int repeats = length >= 2000 ? 5 : 9;
  out.full_dp_ms = TimeMs(repeats, [&] {
    if (align::LocalAlign(related.a, related.b, scoring, gaps)->score !=
        truth) {
      std::abort();
    }
  });
  out.stats_ms = TimeMs(repeats, [&] {
    if (align::LocalAlignStats(related.a, related.b, scoring, gaps,
                               &scratch)
            .value()
            .score != truth) {
      std::abort();
    }
  });
  const align::ScoringProfile profile(scoring);
  for (size_t k = 0; k < kNumStatsKernels; ++k) {
    out.stats_instance_ms[k] = -1;
    if (!align::detail::StatsKernelAvailable(kStatsKernels[k])) continue;
    align::AlignScratch fresh;
    if (!SameStats(align::detail::LocalStatsFill(kStatsKernels[k], profile,
                                                 related.a, related.b, gaps,
                                                 &fresh),
                   full)) {
      std::abort();
    }
    if (k > 0) {
      out.stats_vector_bytes =
          fresh.stats_diagonals.size() * sizeof(int32_t) +
          fresh.codes_a.size() + fresh.codes_b.size();
    }
    out.stats_instance_ms[k] = TimeMs(repeats, [&] {
      if (align::detail::LocalStatsFill(kStatsKernels[k], profile,
                                        related.a, related.b, gaps,
                                        &scratch)
              .score != truth) {
        std::abort();
      }
    });
  }
  // Peak DP working set, from the layouts. Full DP: three int64 layers
  // of (n+1)*(m+1) cells. Scalar statistics: one row of |b|+1
  // StatsColumn entries (cells, path statistics and residue) plus the
  // two uint8 code strings. Vector statistics: the int32 arena a fill
  // leaves in AlignScratch::stats_diagonals (measured above).
  const size_t cells = (length + 1) * (length + 1);
  const size_t code_bytes = 2 * length * sizeof(uint8_t);
  out.full_dp_bytes = 3 * cells * sizeof(int64_t);
  out.stats_scalar_bytes =
      (length + 1) * sizeof(align::AlignScratch::StatsColumn) + code_bytes;
  return out;
}

// The end-to-end predicate: `resembles` over a batch of pairs, old route
// (full traceback DP for every pair) against BatchResembles on one
// thread, where every pair past the trivial rejects takes one statistics
// fill. Three regimes: the permissive default (80% over >= 16 bases) on
// 600 bp pairs; the same default on the shape BQL `resembling` runs, a
// 50 bp pattern against stored sequences of 250-750 bp; and a stringent
// entity-matching config (90% over >= 200 bases) on the 600 bp pairs,
// where most pairs are unrelated and the verdict is a miss.
struct PredicateResult {
  const char* name = "";
  double min_identity = 0;
  size_t min_overlap = 0;
  size_t pairs = 0;
  double full_dp_ms = 0;
  double batch_ms = 0;
};

using SeqPairs = std::vector<std::pair<const seq::NucleotideSequence*,
                                       const seq::NucleotideSequence*>>;

// 40 sequences of 600 bp, every fourth a 10%-mutated copy of the one
// before; pairs are neighbours.
SeqPairs NeighbourPairs(std::vector<seq::NucleotideSequence>* store) {
  Rng rng(99);
  for (int i = 0; i < 40; ++i) {
    if (i % 4 == 0 && !store->empty()) {
      std::string s = store->back().ToString();
      for (char& c : s) {
        if (rng.Bernoulli(0.1)) c = rng.Pick("ACGT");
      }
      store->push_back(seq::NucleotideSequence::Dna(s).value());
    } else {
      store->push_back(
          seq::NucleotideSequence::Dna(rng.RandomDna(600)).value());
    }
  }
  SeqPairs pairs;
  for (size_t i = 0; i + 1 < store->size(); ++i) {
    pairs.emplace_back(&(*store)[i], &(*store)[i + 1]);
  }
  return pairs;
}

// 40 stored sequences of 250-750 bp against one 50 bp pattern copied,
// with 10% point mutations, out of every fourth of them; the stored
// sequence comes first, as in BQL's resembles(stored, pattern).
SeqPairs PatternPairs(std::vector<seq::NucleotideSequence>* store) {
  Rng rng(101);
  const std::string pattern = rng.RandomDna(50);
  store->reserve(41);
  store->push_back(seq::NucleotideSequence::Dna(pattern).value());
  for (int i = 0; i < 40; ++i) {
    std::string s = rng.RandomDna(250 + rng.Uniform(501));
    if (i % 4 == 0) {
      std::string copy = pattern;
      for (char& c : copy) {
        if (rng.Bernoulli(0.1)) c = rng.Pick("ACGT");
      }
      s.replace(rng.Uniform(s.size() - copy.size()), copy.size(), copy);
    }
    store->push_back(seq::NucleotideSequence::Dna(s).value());
  }
  SeqPairs pairs;
  for (size_t i = 1; i < store->size(); ++i) {
    pairs.emplace_back(&(*store)[i], &(*store)[0]);
  }
  return pairs;
}

PredicateResult RunPredicate(const char* name, double min_identity,
                             size_t min_overlap, const SeqPairs& pairs) {
  PredicateResult out;
  out.name = name;
  out.min_identity = min_identity;
  out.min_overlap = min_overlap;
  out.pairs = pairs.size();
  // Baseline: verdicts from the full alignment, pair by pair.
  std::vector<bool> want;
  for (const auto& [a, b] : pairs) {
    auto best = align::LocalAlign(*a, *b).value();
    want.push_back(best.Length() >= min_overlap &&
                   best.Identity() >= min_identity);
  }
  out.full_dp_ms = TimeMs(9, [&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      auto best = align::LocalAlign(*pairs[i].first, *pairs[i].second)
                      .value();
      if ((best.Length() >= min_overlap &&
           best.Identity() >= min_identity) != want[i]) {
        std::abort();
      }
    }
  });
  ThreadPool serial(1);
  out.batch_ms = TimeMs(9, [&] {
    auto got =
        align::BatchResembles(pairs, min_identity, min_overlap, &serial)
            .value();
    for (size_t i = 0; i < pairs.size(); ++i) {
      if (got[i].hit != want[i]) std::abort();
    }
  });
  return out;
}

}  // namespace
}  // namespace genalg::bench

int main(int argc, char** argv) {
  using namespace genalg::bench;

#ifndef GENALG_REPO_ROOT
#define GENALG_REPO_ROOT "."
#endif
  std::string out_path = argc > 1
                             ? argv[1]
                             : std::string(GENALG_REPO_ROOT) +
                                   "/BENCH_align_kernels.json";

  // Untimed warmup at the largest size.
  RunLength(kLengths[kNumLengths - 1]);

  LengthResult results[kNumLengths];
  for (size_t i = 0; i < kNumLengths; ++i) {
    results[i] = RunLength(kLengths[i]);
    std::printf(
        "len=%-5zu full=%.2fms stats=%.2fms "
        "(%.1fx; scalar=%.2fms avx2=%.2fms avx512=%.2fms)\n",
        results[i].length, results[i].full_dp_ms, results[i].stats_ms,
        results[i].full_dp_ms / results[i].stats_ms,
        results[i].stats_instance_ms[0], results[i].stats_instance_ms[1],
        results[i].stats_instance_ms[2]);
  }
  std::vector<genalg::seq::NucleotideSequence> neighbours;
  std::vector<genalg::seq::NucleotideSequence> patterned;
  const SeqPairs neighbour_pairs = NeighbourPairs(&neighbours);
  const SeqPairs pattern_pairs = PatternPairs(&patterned);
  PredicateResult predicates[] = {
      RunPredicate("permissive", 0.8, 16, neighbour_pairs),
      RunPredicate("permissive_pattern", 0.8, 16, pattern_pairs),
      RunPredicate("stringent", 0.9, 200, neighbour_pairs),
  };
  constexpr size_t kNumPredicates =
      sizeof(predicates) / sizeof(predicates[0]);
  for (const PredicateResult& p : predicates) {
    std::printf(
        "resembles[%s id>=%.2f len>=%zu] x%zu pairs: full=%.2fms "
        "batch=%.2fms (%.1fx)\n",
        p.name, p.min_identity, p.min_overlap, p.pairs, p.full_dp_ms,
        p.batch_ms, p.full_dp_ms / p.batch_ms);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
#ifndef GENALG_BUILD_TYPE
#define GENALG_BUILD_TYPE "unknown"
#endif
  const char* commit = std::getenv("GENALG_COMMIT");
  const char* dispatched = "scalar";
  for (size_t k = 1; k < kNumStatsKernels; ++k) {
    if (genalg::align::detail::StatsKernelAvailable(kStatsKernels[k])) {
      dispatched = kStatsKernelNames[k];
    }
  }
  std::fprintf(out, "{\n  \"benchmark\": \"align_kernels\",\n");
  std::fprintf(out,
               "  \"host\": {\"hardware_concurrency\": %u, "
               "\"build_type\": \"%s\", \"commit\": \"%s\", "
               "\"stats_kernel\": \"%s\"},\n",
               std::thread::hardware_concurrency(), GENALG_BUILD_TYPE,
               commit != nullptr ? commit : "unknown", dispatched);
  std::fprintf(out,
               "  \"setup\": {\"pair\": \"8%% mutated copy, shifted\", "
               "\"gap_open\": -5, \"gap_extend\": -1, "
               "\"threads\": 1},\n");
  std::fprintf(out, "  \"lengths\": [\n");
  for (size_t i = 0; i < kNumLengths; ++i) {
    const LengthResult& r = results[i];
    std::string instances;
    for (size_t k = 0; k < kNumStatsKernels; ++k) {
      char field[64];
      if (r.stats_instance_ms[k] < 0) {
        std::snprintf(field, sizeof(field), "\"stats_%s_ms\": null, ",
                      kStatsKernelNames[k]);
      } else {
        std::snprintf(field, sizeof(field), "\"stats_%s_ms\": %.3f, ",
                      kStatsKernelNames[k], r.stats_instance_ms[k]);
      }
      instances += field;
    }
    std::fprintf(
        out,
        "    {\"length\": %zu, \"full_dp_ms\": %.3f, "
        "\"stats_ms\": %.3f, \"stats_speedup\": %.2f, %s"
        "\"full_dp_peak_bytes\": %zu, "
        "\"stats_scalar_peak_bytes\": %zu, "
        "\"stats_vector_peak_bytes\": %zu}%s\n",
        r.length, r.full_dp_ms, r.stats_ms, r.full_dp_ms / r.stats_ms,
        instances.c_str(), r.full_dp_bytes, r.stats_scalar_bytes,
        r.stats_vector_bytes, i + 1 < kNumLengths ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"resembles_predicate\": [\n");
  for (size_t p = 0; p < kNumPredicates; ++p) {
    const PredicateResult& r = predicates[p];
    std::fprintf(out,
                 "    {\"config\": \"%s\", \"min_identity\": %.2f, "
                 "\"min_overlap\": %zu, \"pairs\": %zu, "
                 "\"full_dp_ms\": %.3f, \"batch_ms\": %.3f, "
                 "\"speedup\": %.2f}%s\n",
                 r.name, r.min_identity, r.min_overlap, r.pairs,
                 r.full_dp_ms, r.batch_ms, r.full_dp_ms / r.batch_ms,
                 p + 1 < kNumPredicates ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
