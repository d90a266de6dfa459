#include "align/aligner.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace genalg::align {

namespace {

constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min() / 4;

// Which matrix a traceback step came from.
enum class Layer : uint8_t { kM = 0, kX = 1, kY = 2, kStop = 3 };

// The three full DP layers, either self-owned or carved out of a caller's
// AlignScratch arena so batch drivers can recycle one allocation across
// many pairs.
struct Dp {
  size_t cols;
  int64_t* m;
  int64_t* x;
  int64_t* y;
  std::vector<int64_t> own;

  Dp(size_t rows, size_t columns, AlignScratch* scratch) : cols(columns) {
    const size_t cells = rows * columns;
    std::vector<int64_t>& store =
        scratch != nullptr ? scratch->full_dp : own;
    store.assign(cells * 3, kNegInf);
    m = store.data();
    x = store.data() + cells;
    y = store.data() + 2 * cells;
  }

  size_t Idx(size_t i, size_t j) const { return i * cols + j; }
};

Status CheckGaps(const GapPenalties& gaps) {
  if (gaps.open > 0 || gaps.extend > 0) {
    return Status::InvalidArgument("gap penalties must be <= 0");
  }
  return Status::OK();
}

// Reconstructs the gapped strings walking traceback decisions recomputed
// from the DP values (cheaper than storing per-cell directions for three
// layers).
Alignment TraceBack(const Dp& dp, std::string_view a, std::string_view b,
                    const SubstitutionMatrix& scoring,
                    const GapPenalties& gaps, size_t i, size_t j,
                    Layer layer, bool local) {
  Alignment out;
  out.end_a = i;
  out.end_b = j;
  std::string ra, rb;
  // An alignment ending at (i, j) has at most i + j columns.
  ra.reserve(i + j);
  rb.reserve(i + j);
  while (i > 0 || j > 0) {
    size_t idx = dp.Idx(i, j);
    if (layer == Layer::kM) {
      if (local && dp.m[idx] == 0) break;
      if (i == 0 || j == 0) break;
      int s = scoring.Score(a[i - 1], b[j - 1]);
      int64_t prev = dp.m[idx] - s;
      size_t pidx = dp.Idx(i - 1, j - 1);
      ra.push_back(a[i - 1]);
      rb.push_back(b[j - 1]);
      --i;
      --j;
      // Prefer kM so a local traceback stops at the first zero cell.
      if (dp.m[pidx] == prev) {
        layer = Layer::kM;
      } else if (dp.x[pidx] == prev) {
        layer = Layer::kX;
      } else {
        layer = Layer::kY;
      }
    } else if (layer == Layer::kX) {
      // Gap in b: a[i-1] over '-'.
      ra.push_back(a[i - 1]);
      rb.push_back('-');
      size_t pidx = dp.Idx(i - 1, j);
      int64_t value = dp.x[idx];
      --i;
      if (dp.x[pidx] + gaps.extend == value) {
        layer = Layer::kX;
      } else {
        layer = Layer::kM;
      }
    } else {  // kY: gap in a.
      ra.push_back('-');
      rb.push_back(b[j - 1]);
      size_t pidx = dp.Idx(i, j - 1);
      int64_t value = dp.y[idx];
      --j;
      if (dp.y[pidx] + gaps.extend == value) {
        layer = Layer::kY;
      } else {
        layer = Layer::kM;
      }
    }
  }
  out.begin_a = i;
  out.begin_b = j;
  std::reverse(ra.begin(), ra.end());
  std::reverse(rb.begin(), rb.end());
  out.aligned_a = std::move(ra);
  out.aligned_b = std::move(rb);
  return out;
}

}  // namespace

size_t Alignment::Matches() const {
  size_t same = 0;
  for (size_t i = 0; i < aligned_a.size(); ++i) {
    if (aligned_a[i] == aligned_b[i] && aligned_a[i] != '-') ++same;
  }
  return same;
}

double Alignment::Identity() const {
  if (aligned_a.empty()) return 0.0;
  return static_cast<double>(Matches()) /
         static_cast<double>(aligned_a.size());
}

Result<Alignment> GlobalAlign(std::string_view a, std::string_view b,
                              const SubstitutionMatrix& scoring,
                              const GapPenalties& gaps,
                              AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGaps(gaps));
  const size_t n = a.size();
  const size_t m = b.size();
  Dp dp(n + 1, m + 1, scratch);
  dp.m[dp.Idx(0, 0)] = 0;
  for (size_t i = 1; i <= n; ++i) {
    dp.x[dp.Idx(i, 0)] =
        gaps.open + static_cast<int64_t>(i) * gaps.extend;
  }
  for (size_t j = 1; j <= m; ++j) {
    dp.y[dp.Idx(0, j)] =
        gaps.open + static_cast<int64_t>(j) * gaps.extend;
  }
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      size_t idx = dp.Idx(i, j);
      size_t diag = dp.Idx(i - 1, j - 1);
      size_t up = dp.Idx(i - 1, j);
      size_t left = dp.Idx(i, j - 1);
      int s = scoring.Score(a[i - 1], b[j - 1]);
      dp.m[idx] = std::max({dp.m[diag], dp.x[diag], dp.y[diag]}) + s;
      dp.x[idx] = std::max(dp.m[up] + gaps.open + gaps.extend,
                           dp.x[up] + gaps.extend);
      dp.y[idx] = std::max(dp.m[left] + gaps.open + gaps.extend,
                           dp.y[left] + gaps.extend);
    }
  }
  size_t end = dp.Idx(n, m);
  int64_t best = std::max({dp.m[end], dp.x[end], dp.y[end]});
  Layer layer = best == dp.m[end]   ? Layer::kM
                : best == dp.x[end] ? Layer::kX
                                    : Layer::kY;
  Alignment out =
      TraceBack(dp, a, b, scoring, gaps, n, m, layer, /*local=*/false);
  out.score = best;
  out.begin_a = 0;
  out.begin_b = 0;
  out.end_a = n;
  out.end_b = m;
  return out;
}

Result<Alignment> LocalAlign(std::string_view a, std::string_view b,
                             const SubstitutionMatrix& scoring,
                             const GapPenalties& gaps,
                             AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGaps(gaps));
  // Nothing can align against an empty input: skip the degenerate DP.
  if (a.empty() || b.empty()) return Alignment();
  const size_t n = a.size();
  const size_t m = b.size();
  Dp dp(n + 1, m + 1, scratch);
  for (size_t i = 0; i <= n; ++i) dp.m[dp.Idx(i, 0)] = 0;
  for (size_t j = 0; j <= m; ++j) dp.m[dp.Idx(0, j)] = 0;
  int64_t best = 0;
  size_t best_i = 0;
  size_t best_j = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      size_t idx = dp.Idx(i, j);
      size_t diag = dp.Idx(i - 1, j - 1);
      size_t up = dp.Idx(i - 1, j);
      size_t left = dp.Idx(i, j - 1);
      int s = scoring.Score(a[i - 1], b[j - 1]);
      int64_t match =
          std::max({dp.m[diag], dp.x[diag], dp.y[diag]}) + s;
      dp.m[idx] = std::max<int64_t>(0, match);
      dp.x[idx] = std::max(dp.m[up] + gaps.open + gaps.extend,
                           dp.x[up] + gaps.extend);
      dp.y[idx] = std::max(dp.m[left] + gaps.open + gaps.extend,
                           dp.y[left] + gaps.extend);
      if (dp.m[idx] > best) {
        best = dp.m[idx];
        best_i = i;
        best_j = j;
      }
    }
  }
  if (best == 0) {
    Alignment empty;
    return empty;
  }
  Alignment out = TraceBack(dp, a, b, scoring, gaps, best_i, best_j,
                            Layer::kM, /*local=*/true);
  out.score = best;
  out.end_a = best_i;
  out.end_b = best_j;
  return out;
}

Result<Alignment> BandedGlobalAlign(std::string_view a, std::string_view b,
                                    const SubstitutionMatrix& scoring,
                                    int gap, size_t band) {
  if (gap > 0) return Status::InvalidArgument("gap penalty must be <= 0");
  const size_t n = a.size();
  const size_t m = b.size();
  size_t diff = n > m ? n - m : m - n;
  if (band < diff) {
    return Status::InvalidArgument(
        "band " + std::to_string(band) +
        " cannot bridge length difference " + std::to_string(diff));
  }
  // score[i][j] stored only for |i - j| <= band, as a (2*band+1)-wide strip.
  const size_t width = 2 * band + 1;
  std::vector<int64_t> score((n + 1) * width, kNegInf);
  auto idx = [&](size_t i, size_t j) -> size_t {
    // Column offset within the strip of row i.
    return i * width + (j + band - i);
  };
  auto in_band = [&](size_t i, size_t j) {
    return j + band >= i && j <= i + band && j <= m;
  };
  score[idx(0, 0)] = 0;
  for (size_t j = 1; j <= std::min(m, band); ++j) {
    score[idx(0, j)] = static_cast<int64_t>(j) * gap;
  }
  for (size_t i = 1; i <= n; ++i) {
    size_t j_lo = i > band ? i - band : 0;
    size_t j_hi = std::min(m, i + band);
    for (size_t j = j_lo; j <= j_hi; ++j) {
      int64_t best = kNegInf;
      if (j == 0) {
        best = static_cast<int64_t>(i) * gap;
      } else {
        if (in_band(i - 1, j - 1) && score[idx(i - 1, j - 1)] != kNegInf) {
          best = std::max(best, score[idx(i - 1, j - 1)] +
                                    scoring.Score(a[i - 1], b[j - 1]));
        }
        if (in_band(i - 1, j) && score[idx(i - 1, j)] != kNegInf) {
          best = std::max(best, score[idx(i - 1, j)] + gap);
        }
        if (in_band(i, j - 1) && score[idx(i, j - 1)] != kNegInf) {
          best = std::max(best, score[idx(i, j - 1)] + gap);
        }
      }
      score[idx(i, j)] = best;
    }
  }
  // Traceback.
  Alignment out;
  out.score = score[idx(n, m)];
  out.end_a = n;
  out.end_b = m;
  std::string ra, rb;
  size_t i = n;
  size_t j = m;
  while (i > 0 || j > 0) {
    int64_t cur = score[idx(i, j)];
    if (i > 0 && j > 0 && in_band(i - 1, j - 1) &&
        score[idx(i - 1, j - 1)] != kNegInf &&
        score[idx(i - 1, j - 1)] + scoring.Score(a[i - 1], b[j - 1]) == cur) {
      ra.push_back(a[i - 1]);
      rb.push_back(b[j - 1]);
      --i;
      --j;
    } else if (i > 0 && in_band(i - 1, j) &&
               score[idx(i - 1, j)] != kNegInf &&
               score[idx(i - 1, j)] + gap == cur) {
      ra.push_back(a[i - 1]);
      rb.push_back('-');
      --i;
    } else {
      ra.push_back('-');
      rb.push_back(b[j - 1]);
      --j;
    }
  }
  std::reverse(ra.begin(), ra.end());
  std::reverse(rb.begin(), rb.end());
  out.aligned_a = std::move(ra);
  out.aligned_b = std::move(rb);
  return out;
}

Result<Alignment> GlobalAlign(const seq::NucleotideSequence& a,
                              const seq::NucleotideSequence& b,
                              const GapPenalties& gaps) {
  return GlobalAlign(a.ToString(), b.ToString(),
                     SubstitutionMatrix::Nucleotide(), gaps);
}

Result<Alignment> LocalAlign(const seq::NucleotideSequence& a,
                             const seq::NucleotideSequence& b,
                             const GapPenalties& gaps) {
  return LocalAlign(a.ToString(), b.ToString(),
                    SubstitutionMatrix::Nucleotide(), gaps);
}

Result<Alignment> GlobalAlign(const seq::ProteinSequence& a,
                              const seq::ProteinSequence& b,
                              const GapPenalties& gaps) {
  return GlobalAlign(a.ToString(), b.ToString(),
                     SubstitutionMatrix::Blosum62(), gaps);
}

Result<Alignment> LocalAlign(const seq::ProteinSequence& a,
                             const seq::ProteinSequence& b,
                             const GapPenalties& gaps) {
  return LocalAlign(a.ToString(), b.ToString(),
                    SubstitutionMatrix::Blosum62(), gaps);
}

namespace {

Status CheckIdentity(double min_identity) {
  if (min_identity < 0.0 || min_identity > 1.0) {
    return Status::InvalidArgument("min_identity must be in [0, 1]");
  }
  return Status::OK();
}

// Decides the `resembles` predicate for one pair: the one decision behind
// Resembles and BatchResembles. The outcome is bit-identical to running
// LocalAlign(a, b) and checking its length and identity:
//   1. trivial rejects (empty inputs; shorter input cannot hold the
//      identity matches the predicate demands);
//   2. a score floor every qualifying alignment must reach, refuted by
//      the early-terminating score kernel in O(min(n, m)) memory;
//   3. pairs whose score clears the floor get one LocalAlignStats fill,
//      which yields length and identity without a traceback.
Result<ResemblesVerdict> Decide(const seq::NucleotideSequence& sa,
                                const seq::NucleotideSequence& sb,
                                double min_identity, size_t min_overlap) {
  thread_local AlignScratch scratch;
  ResemblesVerdict out;
  const std::string a = sa.ToString();
  const std::string b = sb.ToString();
  // LocalAlign on an empty input yields the empty alignment (length 0,
  // identity 0); answer with its verdict directly.
  if (a.empty() || b.empty()) {
    out.hit = min_overlap == 0 && min_identity <= 0.0;
    return out;
  }
  // A qualifying alignment holds >= min_identity * min_overlap identity
  // columns, and matches cannot outnumber the shorter input.
  if (min_identity > 0.0 &&
      static_cast<double>(std::min(a.size(), b.size())) <
          min_identity * static_cast<double>(min_overlap) - 1e-6) {
    return out;
  }
  const GapPenalties gaps;
  const SubstitutionMatrix scoring = SubstitutionMatrix::Nucleotide();
  const ScoringProfile& profile = ScoringProfile::NucleotideDefault();
  profile.Encode(a, &scratch.codes_a);
  profile.Encode(b, &scratch.codes_b);
  const int64_t floor =
      ResemblesScoreFloor(profile, gaps, min_identity, min_overlap,
                          scratch.codes_a, scratch.codes_b);
  if (floor == std::numeric_limits<int64_t>::max()) return out;
  if (floor > 0) {
    GENALG_ASSIGN_OR_RETURN(
        bool reachable,
        LocalScoreReaches(a, b, scoring, gaps, floor, &scratch));
    if (!reachable) return out;  // Best score provably below the floor.
  }
  static obs::Counter* stat_fills =
      obs::Registry::Global().GetCounter("align.resembles.stat_fills");
  stat_fills->Increment();
  GENALG_ASSIGN_OR_RETURN(LocalStats best,
                          LocalAlignStats(a, b, scoring, gaps, &scratch));
  if (best.columns < min_overlap) return out;
  const double identity = best.Identity();
  if (identity < min_identity) return out;
  out.hit = true;
  out.identity = identity;
  out.score = best.score;
  return out;
}

}  // namespace

Result<bool> Resembles(const seq::NucleotideSequence& a,
                       const seq::NucleotideSequence& b,
                       double min_identity, size_t min_overlap) {
  GENALG_RETURN_IF_ERROR(CheckIdentity(min_identity));
  GENALG_ASSIGN_OR_RETURN(ResemblesVerdict out,
                          Decide(a, b, min_identity, min_overlap));
  return out.hit;
}

Result<std::vector<ResemblesVerdict>> BatchResembles(
    const std::vector<std::pair<const seq::NucleotideSequence*,
                                const seq::NucleotideSequence*>>& pairs,
    double min_identity, size_t min_overlap, ThreadPool* pool) {
  GENALG_RETURN_IF_ERROR(CheckIdentity(min_identity));
  if (pool == nullptr) pool = ThreadPool::Global();
  std::vector<ResemblesVerdict> verdicts(pairs.size());
  std::vector<Status> statuses(pairs.size(), Status::OK());
  pool->ParallelFor(0, pairs.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Result<ResemblesVerdict> out = Decide(
          *pairs[i].first, *pairs[i].second, min_identity, min_overlap);
      if (out.ok()) {
        verdicts[i] = *out;
      } else {
        statuses[i] = out.status();
      }
    }
  });
  // The first failing pair's status, as a serial loop would surface it.
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return verdicts;
}

}  // namespace genalg::align
