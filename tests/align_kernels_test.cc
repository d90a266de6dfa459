#include "align/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/scoring.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "obs/metrics.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::align {

void PrintTo(const ResemblesVerdict& v, std::ostream* os) {
  *os << "{hit=" << v.hit << " identity=" << v.identity
      << " score=" << v.score << "}";
}

namespace {

using seq::NucleotideSequence;

// Alphabets the sweep draws from: plain DNA, IUPAC-ambiguous DNA (with
// gap and invalid characters mixed in), and the BLOSUM symbol set.
constexpr std::string_view kDna = "ACGT";
constexpr std::string_view kIupac = "ACGTRYSWKMBDHVNacgtn-?";
constexpr std::string_view kProtein = "ARNDCQEGHILKMFPSTWYVBZX*jq";

const GapPenalties kGapGrid[] = {
    {-5, -1}, {-2, -2}, {-10, -1}, {0, 0}, {-1, 0}, {-7, -3}};

// ------------------------------------------------- Score-only == full DP.

TEST(KernelTest, LocalScoreMatchesFullDpPropertySweep) {
  Rng rng(2024);
  AlignScratch scratch;
  struct Case {
    std::string_view alphabet;
    const SubstitutionMatrix& scoring;
  };
  const Case cases[] = {
      {kDna, SubstitutionMatrix::Nucleotide()},
      {kDna, SubstitutionMatrix::Nucleotide(3, -2)},
      {kIupac, SubstitutionMatrix::Nucleotide()},
      {kProtein, SubstitutionMatrix::Blosum62()},
  };
  for (const Case& c : cases) {
    for (const GapPenalties& gaps : kGapGrid) {
      for (int trial = 0; trial < 12; ++trial) {
        const std::string a =
            rng.RandomString(rng.Uniform(64), c.alphabet);
        const std::string b =
            rng.RandomString(rng.Uniform(64), c.alphabet);
        auto full = LocalAlign(a, b, c.scoring, gaps);
        ASSERT_TRUE(full.ok());
        auto fast = LocalAlignScore(a, b, c.scoring, gaps, &scratch);
        ASSERT_TRUE(fast.ok());
        EXPECT_EQ(*fast, full->score)
            << "local a=" << a << " b=" << b << " open=" << gaps.open
            << " extend=" << gaps.extend;
      }
    }
  }
}

void ExpectStatsMatchFullDp(std::string_view a, std::string_view b,
                            const SubstitutionMatrix& scoring,
                            const GapPenalties& gaps, AlignScratch* scratch) {
  auto full = LocalAlign(a, b, scoring, gaps);
  ASSERT_TRUE(full.ok());
  auto stats = LocalAlignStats(a, b, scoring, gaps, scratch);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->score, full->score)
      << "a=" << a << " b=" << b << " open=" << gaps.open
      << " extend=" << gaps.extend;
  EXPECT_EQ(stats->columns, full->Length())
      << "a=" << a << " b=" << b << " open=" << gaps.open
      << " extend=" << gaps.extend;
  EXPECT_EQ(stats->matches, full->Matches())
      << "a=" << a << " b=" << b << " open=" << gaps.open
      << " extend=" << gaps.extend;
  EXPECT_EQ(stats->Identity(), full->Identity());
}

TEST(KernelTest, LocalStatsMatchFullDpPropertySweep) {
  Rng rng(77);
  AlignScratch scratch;
  struct Case {
    std::string_view alphabet;
    const SubstitutionMatrix& scoring;
  };
  // Two-letter alphabets and a 1/-3 scheme make equal-scoring paths
  // common, so the traceback's tie rules decide length and identity.
  const Case cases[] = {
      {kDna, SubstitutionMatrix::Nucleotide()},
      {"AT", SubstitutionMatrix::Nucleotide()},
      {"GN", SubstitutionMatrix::Nucleotide()},
      {kIupac, SubstitutionMatrix::Nucleotide(1, -3)},
      {kProtein, SubstitutionMatrix::Blosum62()},
  };
  for (const Case& c : cases) {
    for (const GapPenalties& gaps : kGapGrid) {
      for (int trial = 0; trial < 12; ++trial) {
        const std::string a =
            rng.RandomString(rng.Uniform(64), c.alphabet);
        const std::string b =
            rng.RandomString(rng.Uniform(64), c.alphabet);
        ExpectStatsMatchFullDp(a, b, c.scoring, gaps, &scratch);
        ExpectStatsMatchFullDp(b, a, c.scoring, gaps, &scratch);
      }
    }
  }
}

TEST(KernelTest, LocalStatsMatchFullDpOnShiftedMutatedCopy) {
  // A mutated copy shifted by a known offset, with indels: the best path
  // crosses gap runs in both layers.
  Rng rng(17);
  AlignScratch scratch;
  const std::string core = rng.RandomDna(200);
  std::string b = rng.RandomDna(37);
  for (size_t i = 0; i < core.size(); ++i) {
    if (rng.Bernoulli(0.03)) b += rng.RandomDna(1 + rng.Uniform(4));
    if (rng.Bernoulli(0.03)) continue;
    b.push_back(rng.Bernoulli(0.05) ? rng.Pick(kDna) : core[i]);
  }
  for (const GapPenalties& gaps : kGapGrid) {
    ExpectStatsMatchFullDp(core, b, SubstitutionMatrix::Nucleotide(), gaps,
                           &scratch);
    ExpectStatsMatchFullDp(b, core, SubstitutionMatrix::Nucleotide(), gaps,
                           &scratch);
  }
}

TEST(KernelTest, EmptyAndDegenerateInputs) {
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  EXPECT_EQ(LocalAlignScore("", "", nuc).value(), 0);
  EXPECT_EQ(LocalAlignScore("ACGT", "", nuc).value(), 0);
  EXPECT_EQ(LocalAlignScore("", "ACGT", nuc).value(), 0);
  for (auto [a, b] : {std::pair<std::string_view, std::string_view>{"", ""},
                      {"ACG", ""},
                      {"", "ACG"},
                      {"AAAA", "CCCC"}}) {
    auto stats = LocalAlignStats(a, b, nuc);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->score, 0);
    EXPECT_EQ(stats->columns, 0u);
    EXPECT_EQ(stats->Identity(), 0.0);
  }
  // Invalid gap penalties are rejected like the full aligners reject them.
  EXPECT_FALSE(LocalAlignScore("A", "A", nuc, GapPenalties{1, 0}).ok());
  EXPECT_FALSE(LocalAlignStats("A", "A", nuc, GapPenalties{0, 2}).ok());
}

TEST(KernelTest, Int32OverflowGuardFallsBackToFullDp) {
  // Scores near 10^7 per cell overflow the int32 rolling rows for even
  // modest lengths; the kernel must detect that and agree with the
  // int64 full DP anyway.
  const auto big = SubstitutionMatrix::Nucleotide(10'000'000, -9'000'000);
  Rng rng(5);
  const std::string a = rng.RandomDna(300);
  const std::string b = rng.RandomDna(300);
  GapPenalties gaps{-8'000'000, -1'000'000};
  auto full = LocalAlign(a, b, big, gaps);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(LocalAlignScore(a, b, big, gaps).value(), full->score);
  AlignScratch scratch;
  ExpectStatsMatchFullDp(a, b, big, gaps, &scratch);
}

// ----------------------------------------------------- Early termination.

TEST(KernelTest, ReachesAgreesWithExactScoreAcrossThresholds) {
  Rng rng(23);
  AlignScratch scratch;
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  for (const GapPenalties& gaps : kGapGrid) {
    for (int trial = 0; trial < 12; ++trial) {
      const std::string a = rng.RandomString(rng.Uniform(50), kIupac);
      const std::string b = rng.RandomString(rng.Uniform(50), kIupac);
      const int64_t exact = LocalAlignScore(a, b, nuc, gaps).value();
      const int64_t probes[] = {-3, 0, 1,         exact - 2, exact - 1,
                                exact, exact + 1, exact + 2, exact + 100};
      for (int64_t threshold : probes) {
        auto reached =
            LocalScoreReaches(a, b, nuc, gaps, threshold, &scratch);
        ASSERT_TRUE(reached.ok());
        EXPECT_EQ(*reached, exact >= threshold)
            << "a=" << a << " b=" << b << " threshold=" << threshold;
      }
    }
  }
}

// ------------------------------------------- Resembles screen soundness.

// The identity x overlap grid every `resembles` sweep runs over.
const double kIdentities[] = {0.0, 0.5, 0.8, 0.95, 1.0};
const size_t kOverlaps[] = {0, 4, 16, 64, 500};

// Reference verdict: the full traceback alignment, measured directly.
ResemblesVerdict ReferenceVerdict(const Alignment& best, double min_identity,
                                  size_t min_overlap) {
  ResemblesVerdict out;
  if (best.Length() < min_overlap || best.Identity() < min_identity) {
    return out;
  }
  out.hit = true;
  out.identity = best.Identity();
  out.score = best.score;
  return out;
}

// Random, mutated-copy (substitutions and indels) and tie-heavy pairs
// (two-letter alphabets, N runs) of 1-200 bases, each in both argument
// orders.
std::vector<std::pair<NucleotideSequence, NucleotideSequence>> SweepPairs(
    uint64_t seed, int per_kind) {
  Rng rng(seed);
  std::vector<std::pair<NucleotideSequence, NucleotideSequence>> out;
  auto add = [&](const std::string& a, const std::string& b) {
    auto sa = NucleotideSequence::Dna(a).value();
    auto sb = NucleotideSequence::Dna(b).value();
    out.emplace_back(sa, sb);
    out.emplace_back(sb, sa);
  };
  auto mutate = [&](const std::string& s, std::string_view alphabet) {
    std::string m;
    for (char ch : s) {
      if (rng.Bernoulli(0.03)) m += rng.RandomString(1 + rng.Uniform(3),
                                                     alphabet);
      if (rng.Bernoulli(0.03)) continue;
      m.push_back(rng.Bernoulli(0.1) ? rng.Pick(alphabet) : ch);
    }
    return m.empty() ? std::string(1, rng.Pick(alphabet)) : m;
  };
  for (int trial = 0; trial < per_kind; ++trial) {
    add(rng.RandomDna(1 + rng.Uniform(200)),
        rng.RandomDna(1 + rng.Uniform(200)));
    const std::string base = rng.RandomDna(1 + rng.Uniform(200));
    add(base, mutate(base, kDna));
    const std::string_view pair_alphabet = trial % 2 == 0 ? "AT" : "GC";
    std::string tied = rng.RandomString(1 + rng.Uniform(200), pair_alphabet);
    for (size_t n = rng.Uniform(3); n > 0; --n) {
      const size_t at = rng.Uniform(tied.size());
      tied.replace(at, std::min<size_t>(1 + rng.Uniform(8), tied.size() - at),
                   std::string(1 + rng.Uniform(8), 'N'));
    }
    add(tied, mutate(tied, trial % 3 == 0 ? "ATN" : pair_alphabet));
  }
  return out;
}

TEST(KernelTest, ResemblesMatchesFullEvaluationPropertySweep) {
  const auto sweep = SweepPairs(31, 30);
  std::vector<std::pair<const NucleotideSequence*, const NucleotideSequence*>>
      pairs;
  std::vector<Alignment> oracle;
  for (const auto& [a, b] : sweep) {
    pairs.emplace_back(&a, &b);
    oracle.push_back(LocalAlign(a, b).value());
  }
  ThreadPool pool(2);
  for (double min_identity : kIdentities) {
    for (size_t min_overlap : kOverlaps) {
      auto batch = BatchResembles(pairs, min_identity, min_overlap, &pool);
      ASSERT_TRUE(batch.ok());
      for (size_t p = 0; p < pairs.size(); ++p) {
        const ResemblesVerdict want =
            ReferenceVerdict(oracle[p], min_identity, min_overlap);
        EXPECT_EQ((*batch)[p], want)
            << "pair " << p << " identity=" << min_identity
            << " overlap=" << min_overlap;
        EXPECT_EQ(Resembles(*pairs[p].first, *pairs[p].second,
                            min_identity, min_overlap)
                      .value(),
                  want.hit)
            << "pair " << p << " identity=" << min_identity
            << " overlap=" << min_overlap;
      }
    }
  }
}

TEST(KernelTest, ResemblesEdgeVerdicts) {
  auto empty = NucleotideSequence::Dna("").value();
  auto acgt = NucleotideSequence::Dna("ACGT").value();
  EXPECT_FALSE(Resembles(empty, acgt, 0.8, 16).value());
  EXPECT_FALSE(Resembles(empty, empty, 0.0, 1).value());
  EXPECT_TRUE(Resembles(empty, empty, 0.0, 0).value());
  EXPECT_FALSE(Resembles(acgt, acgt, 1.5, 0).ok());  // Out of range.
  EXPECT_FALSE(Resembles(acgt, acgt, -0.1, 0).ok());
  EXPECT_TRUE(Resembles(acgt, acgt, 1.0, 4).value());
  const std::vector<std::pair<const NucleotideSequence*,
                              const NucleotideSequence*>>
      pairs = {{&acgt, &acgt}};
  EXPECT_FALSE(BatchResembles(pairs, 1.5, 0).ok());
}

TEST(KernelTest, ResemblesDecidesWithoutTraceback) {
  // Every pair that clears the score floor takes one statistics fill and
  // no traceback DP; the fill's cells land in align.kernel.cells.
  Rng rng(37);
  auto a = NucleotideSequence::Dna(rng.RandomDna(300)).value();
  auto b = NucleotideSequence::Dna(rng.RandomDna(50)).value();
  const auto before = obs::Registry::Global().Snapshot();
  ASSERT_TRUE(Resembles(a, b).ok());
  const auto delta = obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.counter("align.resembles.stat_fills"), 1u);
  EXPECT_EQ(delta.counter("align.resembles.confirm_dps"), 0u);
  EXPECT_EQ(delta.counter("align.kernel.full_dp_fallbacks"), 0u);
  EXPECT_GE(delta.counter("align.kernel.cells"), 300u * 50u);
}

// ---------------------------------------------------- Batch entry point.

TEST(KernelTest, BatchResemblesIdenticalAcrossPoolSizes) {
  const auto sweep = SweepPairs(41, 12);
  std::vector<std::pair<const NucleotideSequence*, const NucleotideSequence*>>
      pairs;
  for (const auto& [a, b] : sweep) pairs.emplace_back(&a, &b);
  ThreadPool serial(1);
  auto baseline = BatchResembles(pairs, 0.8, 16, &serial);
  ASSERT_TRUE(baseline.ok());
  // The serial batch equals the one-call-at-a-time loop...
  for (size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ((*baseline)[p].hit,
              Resembles(*pairs[p].first, *pairs[p].second, 0.8, 16).value());
  }
  // ...and every pool size reproduces it, with per-worker scratch reuse.
  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    for (int repeat = 0; repeat < 3; ++repeat) {
      auto verdicts = BatchResembles(pairs, 0.8, 16, &pool);
      ASSERT_TRUE(verdicts.ok());
      EXPECT_EQ(*verdicts, *baseline) << "threads=" << threads;
    }
  }
}

TEST(KernelTest, BatchResemblesReportsIdentityAndScoreOfHits) {
  Rng rng(43);
  auto query = NucleotideSequence::Dna(rng.RandomDna(150)).value();
  std::vector<NucleotideSequence> store;
  for (int i = 0; i < 16; ++i) {
    std::string s;
    if (i % 2 == 0) {
      s = query.ToString().substr(i, 100 - i);
      for (char& ch : s) {
        if (rng.Bernoulli(0.08)) ch = rng.Pick(kDna);
      }
      s = rng.RandomDna(10) + s;
    } else {
      s = rng.RandomDna(120);
    }
    store.push_back(NucleotideSequence::Dna(s).value());
  }
  std::vector<std::pair<const NucleotideSequence*, const NucleotideSequence*>>
      pairs;
  for (const auto& s : store) pairs.emplace_back(&s, &query);
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    auto verdicts = BatchResembles(pairs, 0.8, 16, &pool);
    ASSERT_TRUE(verdicts.ok());
    ASSERT_EQ(verdicts->size(), pairs.size());
    size_t hits = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      Alignment full = LocalAlign(store[i], query).value();
      EXPECT_EQ((*verdicts)[i], ReferenceVerdict(full, 0.8, 16))
          << "target " << i;
      hits += (*verdicts)[i].hit ? 1 : 0;
    }
    EXPECT_GE(hits, 8u);
  }
}

TEST(KernelTest, ScratchReuseDoesNotLeakStateAcrossCalls) {
  Rng rng(47);
  AlignScratch scratch;
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  // Alternate shapes and kernels against one scratch; every answer must
  // match a fresh-scratch evaluation.
  for (int trial = 0; trial < 60; ++trial) {
    const std::string a = rng.RandomString(rng.Uniform(70), kIupac);
    const std::string b = rng.RandomString(rng.Uniform(70), kIupac);
    switch (trial % 3) {
      case 0:
        EXPECT_EQ(LocalAlignScore(a, b, nuc, GapPenalties(), &scratch)
                      .value(),
                  LocalAlignScore(a, b, nuc).value());
        break;
      case 1: {
        const LocalStats reused =
            LocalAlignStats(a, b, nuc, GapPenalties(), &scratch).value();
        const LocalStats fresh = LocalAlignStats(a, b, nuc).value();
        EXPECT_EQ(reused.score, fresh.score);
        EXPECT_EQ(reused.columns, fresh.columns);
        EXPECT_EQ(reused.matches, fresh.matches);
        break;
      }
      default:
        EXPECT_EQ(LocalScoreReaches(a, b, nuc, GapPenalties(), 9, &scratch)
                      .value(),
                  LocalScoreReaches(a, b, nuc, GapPenalties(), 9).value());
    }
  }
}

}  // namespace
}  // namespace genalg::align
