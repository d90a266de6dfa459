#include "align/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
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

// A copy of `s` with point substitutions and short indels drawn from
// `alphabet`.
std::string Mutate(Rng* rng, const std::string& s,
                   std::string_view alphabet) {
  std::string out;
  for (char ch : s) {
    if (rng->Bernoulli(0.03)) {
      out += rng->RandomString(1 + rng->Uniform(3), alphabet);
    }
    if (rng->Bernoulli(0.03)) continue;
    out.push_back(rng->Bernoulli(0.1) ? rng->Pick(alphabet) : ch);
  }
  return out.empty() ? std::string(1, rng->Pick(alphabet)) : out;
}

// ------------------------------------------------------ Score == full DP.

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
        auto swapped = LocalAlignScore(b, a, c.scoring, gaps, &scratch);
        ASSERT_TRUE(swapped.ok());
        EXPECT_EQ(*swapped, full->score)
            << "swapped a=" << a << " b=" << b << " open=" << gaps.open
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

// ------------------------------------------ Resembles == full evaluation.

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
  for (int trial = 0; trial < per_kind; ++trial) {
    add(rng.RandomDna(1 + rng.Uniform(200)),
        rng.RandomDna(1 + rng.Uniform(200)));
    const std::string base = rng.RandomDna(1 + rng.Uniform(200));
    add(base, Mutate(&rng, base, kDna));
    const std::string_view pair_alphabet = trial % 2 == 0 ? "AT" : "GC";
    std::string tied = rng.RandomString(1 + rng.Uniform(200), pair_alphabet);
    for (size_t n = rng.Uniform(3); n > 0; --n) {
      const size_t at = rng.Uniform(tied.size());
      tied.replace(at, std::min<size_t>(1 + rng.Uniform(8), tied.size() - at),
                   std::string(1 + rng.Uniform(8), 'N'));
    }
    add(tied, Mutate(&rng, tied, trial % 3 == 0 ? "ATN" : pair_alphabet));
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
  // Every pair past the trivial rejects takes one statistics fill and no
  // traceback DP; the fill's cells land in align.kernel.cells.
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

// ------------------------------- Every statistics-kernel instance == DP.

// Runs each instance of the statistics fill that LocalAlignStats
// dispatches between; an instance this host cannot run is skipped.
class StatsKernelTest : public ::testing::TestWithParam<detail::StatsKernel> {
 protected:
  void SetUp() override {
    if (!detail::StatsKernelAvailable(GetParam())) {
      GTEST_SKIP() << "instance not available on this host";
    }
  }

  // One fill on the instance under test, against the traced alignment.
  void ExpectFillMatchesFullDp(std::string_view a, std::string_view b,
                               const SubstitutionMatrix& scoring,
                               const GapPenalties& gaps) {
    auto full = LocalAlign(a, b, scoring, gaps);
    ASSERT_TRUE(full.ok());
    const ScoringProfile profile(scoring);
    const LocalStats stats =
        detail::LocalStatsFill(GetParam(), profile, a, b, gaps, &scratch_);
    const std::string where =
        (a.size() + b.size() <= 140
             ? "a=" + std::string(a) + " b=" + std::string(b)
             : "|a|=" + std::to_string(a.size()) +
                   " |b|=" + std::to_string(b.size())) +
        " open=" + std::to_string(gaps.open) +
        " extend=" + std::to_string(gaps.extend);
    EXPECT_EQ(stats.score, full->score) << where;
    EXPECT_EQ(stats.columns, full->Length()) << where;
    EXPECT_EQ(stats.matches, full->Matches()) << where;
  }

  AlignScratch scratch_;
};

TEST_P(StatsKernelTest, MatchesFullDpPropertySweep) {
  Rng rng(77);
  struct Case {
    std::string_view alphabet;
    const SubstitutionMatrix& scoring;
  };
  // Two-letter alphabets and a 1/-3 scheme make equal-scoring paths
  // common, so the traceback's tie rules decide length and identity;
  // kIupac brings N runs and '-' residues.
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
            rng.RandomString(1 + rng.Uniform(200), c.alphabet);
        const std::string b = trial % 2 == 0
                                  ? Mutate(&rng, a, c.alphabet)
                                  : rng.RandomString(1 + rng.Uniform(200),
                                                     c.alphabet);
        ExpectFillMatchesFullDp(a, b, c.scoring, gaps);
        ExpectFillMatchesFullDp(b, a, c.scoring, gaps);
      }
    }
  }
}

TEST_P(StatsKernelTest, EveryWidthAcrossBlockEdges) {
  // Every |b| from 1 to 70 covers the 16- and 32-lane block edges; |a|
  // runs from far shorter to far longer than |b|, so the diagonal band
  // starts, slides through and leaves the lanes in every phase.
  Rng rng(19);
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  for (size_t width = 1; width <= 70; ++width) {
    const GapPenalties& gaps = kGapGrid[width % std::size(kGapGrid)];
    const std::string b = rng.RandomString(width, width % 3 ? kDna : "AT");
    for (size_t rows : {size_t{1}, size_t{2}, width / 3 + 1, width,
                        width + 17, 4 * width + 9}) {
      std::string a = rng.RandomString(rows, kIupac);
      if (rows >= width) {
        // Plant a mutated copy of `b` so the best path is long.
        const std::string copy = Mutate(&rng, b, kDna);
        a.replace(rng.Uniform(rows - std::min(rows, copy.size()) + 1),
                  std::min(rows, copy.size()), copy.substr(0, rows));
      }
      ExpectFillMatchesFullDp(a, b, nuc, gaps);
      ExpectFillMatchesFullDp(b, a, nuc, gaps);
    }
  }
}

TEST_P(StatsKernelTest, MatchesFullDpOnResemblesSweepPairs) {
  for (const auto& [a, b] : SweepPairs(53, 20)) {
    ExpectFillMatchesFullDp(a.ToString(), b.ToString(),
                            SubstitutionMatrix::Nucleotide(), GapPenalties());
  }
}

// A pair with |a| + |b| = `total` whose best local path runs through
// nearly all of `a`: `b` (20 residues of C and G) split in two at the ends
// of `a`, with a run of A, which matches nothing in `b`, between them.
std::pair<std::string, std::string> LongPathPair(size_t total) {
  Rng rng(61);
  const std::string b = rng.RandomString(20, "CG");
  return {b.substr(0, 10) + std::string(total - 40, 'A') + b.substr(10), b};
}

TEST_P(StatsKernelTest, PathAsLongAsThePackingLimit) {
  // |a| + |b| = 65535, the most a vector lane packs, and a best path of
  // 65515 columns, beyond any 15-bit field.
  const auto [a, b] = LongPathPair(detail::kMaxVectorStatsLength);
  for (const GapPenalties& gaps : {GapPenalties{0, 0}, GapPenalties{-1, 0}}) {
    ASSERT_EQ(LocalAlign(a, b, SubstitutionMatrix::Nucleotide(), gaps)
                  ->Length(),
              a.size());
    ExpectFillMatchesFullDp(a, b, SubstitutionMatrix::Nucleotide(), gaps);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, StatsKernelTest,
    ::testing::Values(detail::StatsKernel::kScalar,
                      detail::StatsKernel::kAvx2,
                      detail::StatsKernel::kAvx512),
    [](const ::testing::TestParamInfo<detail::StatsKernel>& info) {
      switch (info.param) {
        case detail::StatsKernel::kAvx2:
          return std::string("Avx2");
        case detail::StatsKernel::kAvx512:
          return std::string("Avx512");
        default:
          return std::string("Scalar");
      }
    });

TEST(KernelTest, VectorFillsAreCountedAndCellsAreReal) {
  if (!detail::StatsKernelAvailable(detail::StatsKernel::kAvx2)) {
    GTEST_SKIP() << "no vector instance on this host";
  }
  Rng rng(67);
  const std::string a = rng.RandomDna(300);
  const std::string b = rng.RandomDna(50);
  auto before = obs::Registry::Global().Snapshot();
  ASSERT_TRUE(LocalAlignStats(a, b, SubstitutionMatrix::Nucleotide()).ok());
  auto delta = obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.counter("align.kernel.stats_vector_fills"), 1u);
  // Cells count |a| x |b|, not the padded lanes the sweep visits.
  EXPECT_EQ(delta.counter("align.kernel.cells"), 300u * 50u);
}

TEST(KernelTest, DispatchHonoursThePackingLimit) {
  // |a| + |b| = 65535 may take a vector instance; one more residue must
  // take the scalar kernel, and both answer as the traced alignment does,
  // through LocalAlignStats and through LocalAlignScore in either order.
  const auto& nuc = SubstitutionMatrix::Nucleotide();
  const GapPenalties gaps{-1, 0};
  for (size_t total : {detail::kMaxVectorStatsLength,
                       detail::kMaxVectorStatsLength + 1}) {
    const auto [a, b] = LongPathPair(total);
    auto full = LocalAlign(a, b, nuc, gaps);
    ASSERT_TRUE(full.ok());
    auto before = obs::Registry::Global().Snapshot();
    auto stats = LocalAlignStats(a, b, nuc, gaps);
    auto delta = obs::Registry::Global().Snapshot().Since(before);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->score, full->score) << "|a|+|b|=" << total;
    EXPECT_EQ(stats->columns, full->Length()) << "|a|+|b|=" << total;
    EXPECT_EQ(stats->matches, full->Matches()) << "|a|+|b|=" << total;
    const bool vector =
        total <= detail::kMaxVectorStatsLength &&
        detail::StatsKernelAvailable(detail::StatsKernel::kAvx2);
    EXPECT_EQ(delta.counter("align.kernel.stats_vector_fills"),
              vector ? 1u : 0u)
        << "|a|+|b|=" << total;
    for (bool swap : {false, true}) {
      before = obs::Registry::Global().Snapshot();
      auto score = swap ? LocalAlignScore(b, a, nuc, gaps)
                        : LocalAlignScore(a, b, nuc, gaps);
      delta = obs::Registry::Global().Snapshot().Since(before);
      ASSERT_TRUE(score.ok());
      EXPECT_EQ(*score, full->score) << "|a|+|b|=" << total;
      EXPECT_EQ(delta.counter("align.kernel.stats_vector_fills"),
                vector ? 1u : 0u)
          << "|a|+|b|=" << total << " swap=" << swap;
    }
  }
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
  // Alternate shapes and entry points against one scratch; every answer
  // must match a fresh-scratch evaluation.
  for (int trial = 0; trial < 60; ++trial) {
    const std::string a = rng.RandomString(rng.Uniform(70), kIupac);
    const std::string b = rng.RandomString(rng.Uniform(70), kIupac);
    if (trial % 2 == 0) {
      EXPECT_EQ(LocalAlignScore(a, b, nuc, GapPenalties(), &scratch).value(),
                LocalAlignScore(a, b, nuc).value());
    } else {
      const LocalStats reused =
          LocalAlignStats(a, b, nuc, GapPenalties(), &scratch).value();
      const LocalStats fresh = LocalAlignStats(a, b, nuc).value();
      EXPECT_EQ(reused.score, fresh.score);
      EXPECT_EQ(reused.columns, fresh.columns);
      EXPECT_EQ(reused.matches, fresh.matches);
    }
  }
}

}  // namespace
}  // namespace genalg::align
