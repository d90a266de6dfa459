#include "align/kernels.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "align/aligner.h"
#include "obs/metrics.h"

namespace genalg::align {

namespace {

// Cell counts are accumulated per kernel invocation (rows completed x
// width), not per cell, so the inner loops stay untouched.
struct KernelMetrics {
  obs::Counter* cells;
  obs::Counter* early_exits;
  obs::Counter* full_dp_fallbacks;
};

const KernelMetrics& Metrics() {
  static const KernelMetrics m = {
      obs::Registry::Global().GetCounter("align.kernel.cells"),
      obs::Registry::Global().GetCounter("align.kernel.early_exits"),
      obs::Registry::Global().GetCounter("align.kernel.full_dp_fallbacks"),
  };
  return m;
}

// Small enough that sentinel arithmetic (adding scores or gap costs to an
// unreachable cell) can never wrap.
constexpr int32_t kNegInf32 = std::numeric_limits<int32_t>::min() / 4;

Status CheckGapPenalties(const GapPenalties& gaps) {
  if (gaps.open > 0 || gaps.extend > 0) {
    return Status::InvalidArgument("gap penalties must be <= 0");
  }
  return Status::OK();
}

// Largest absolute cell magnitude the inputs could produce. The rolling
// kernels run on int32 cells; inputs long enough to overflow them fall
// back to the int64 full DP (practically unreachable: the full DP would
// need > 10^15 cells first).
bool FitsInt32(size_t n, size_t m, const ScoringProfile& profile,
               const GapPenalties& gaps) {
  int64_t per_step = std::max<int64_t>(
      {std::abs(static_cast<int64_t>(profile.max_pair_score())),
       std::abs(static_cast<int64_t>(profile.min_pair_score())),
       -static_cast<int64_t>(gaps.open) - gaps.extend, int64_t{1}});
  int64_t steps = static_cast<int64_t>(n) + static_cast<int64_t>(m) + 2;
  return steps * per_step < std::numeric_limits<int32_t>::max() / 4;
}

// Rolling-row core of the score-only local kernels.
//
// Rows run over `ra` (outer), columns over `rb` (inner); callers order the
// operands so the inner sequence is the shorter one. Cell layout per
// column j of the previous row: row_m[j] = M, row_x[j] = X (gap in the
// inner sequence), row_best[j] = max(M, X, Y). Y (gap in the outer
// sequence) only ever feeds from the current row's left neighbour, so it
// lives in a scalar. This reproduces LocalAlign's recurrence exactly:
//   M[i][j] = max(0, max(M, X, Y)[i-1][j-1] + s)
//   X[i][j] = max(M[i-1][j] + open + extend, X[i-1][j] + extend)
//   Y[i][j] = max(M[i][j-1] + open + extend, Y[i][j-1] + extend)
// with the local best tracked over M cells only, as in the full DP.
//
// With `threshold` non-null the fill may stop early: once the running
// best reaches the threshold the answer is known true; once
// max(row cells) plus the largest score the remaining rows could add
// falls below it, the answer is known false. `*reached` receives the
// verdict; the returned score is then only a lower bound of the true
// best and callers must not use it.
int32_t LocalScoreCore(const ScoringProfile& profile,
                       const std::vector<uint8_t>& ra,
                       const std::vector<uint8_t>& rb,
                       const GapPenalties& gaps, AlignScratch* scratch,
                       const int64_t* threshold, bool* reached) {
  const size_t rows = ra.size();
  const size_t cols = rb.size();
  const int32_t oe = gaps.open + gaps.extend;
  const int32_t ext = gaps.extend;
  const int32_t pos_gain = std::max(profile.max_pair_score(), 0);
  std::vector<int32_t>& rm = scratch->row_m;
  std::vector<int32_t>& rx = scratch->row_x;
  std::vector<int32_t>& rbest = scratch->row_best;
  rm.assign(cols + 1, 0);
  rx.assign(cols + 1, kNegInf32);
  rbest.assign(cols + 1, 0);
  int32_t best = 0;
  for (size_t i = 1; i <= rows; ++i) {
    const int32_t* score_row = profile.Row(ra[i - 1]);
    int32_t m_left = 0;             // M[i][0] (local boundary).
    int32_t y_left = kNegInf32;     // Y[i][0].
    int32_t best_diag = rbest[0];   // max(M, X, Y)[i-1][j-1] carrier.
    int32_t row_best = 0;
    for (size_t j = 1; j <= cols; ++j) {
      int32_t mv = best_diag + score_row[rb[j - 1]];
      if (mv < 0) mv = 0;
      int32_t xv = std::max(rm[j] + oe, rx[j] + ext);
      int32_t yv = std::max(m_left + oe, y_left + ext);
      int32_t bv = std::max(mv, std::max(xv, yv));
      best_diag = rbest[j];
      rm[j] = mv;
      rx[j] = xv;
      rbest[j] = bv;
      m_left = mv;
      y_left = yv;
      if (mv > best) best = mv;
      if (bv > row_best) row_best = bv;
    }
    if (threshold != nullptr) {
      if (best >= *threshold) {
        *reached = true;
        Metrics().cells->Add(i * cols);
        if (i < rows) Metrics().early_exits->Increment();
        return best;
      }
      // Any alignment not already counted either crosses this row —
      // scoring at most row_best so far — or starts below it; either way
      // the remaining rows add at most one residue-consuming column each,
      // each worth at most pos_gain (gap columns only subtract).
      int64_t ceiling = static_cast<int64_t>(std::max(row_best, 0)) +
                        static_cast<int64_t>(rows - i) * pos_gain;
      if (ceiling < *threshold) {
        *reached = false;
        Metrics().cells->Add(i * cols);
        if (i < rows) Metrics().early_exits->Increment();
        return best;
      }
    }
  }
  Metrics().cells->Add(rows * cols);
  if (reached != nullptr) {
    *reached = threshold != nullptr && best >= *threshold;
  }
  return best;
}

// Path statistics packed as columns << 32 | identity matches, so one add
// extends a path by a column and one select picks a predecessor's path.
constexpr uint64_t kOneColumn = uint64_t{1} << 32;

// `if_true` when `take`, else `if_false`, selected through a mask: the
// choices below follow the data, so branches on them would mispredict.
inline uint64_t Pick(bool take, uint64_t if_true, uint64_t if_false) {
  const uint64_t mask = uint64_t{0} - static_cast<uint64_t>(take);
  return if_false ^ ((if_true ^ if_false) & mask);
}

// LocalScoreCore's recurrence, with `a` on the rows as in LocalAlign, and
// beside every M, X and Y cell the packed statistics of the path
// LocalAlign's TraceBack follows from that cell in that layer:
//   M > 0:  the diagonal predecessor in the first of M, X, Y that holds
//           max(M, X, Y)[i-1][j-1], plus this column;
//   M == 0: the path stops — no columns;
//   X, Y:   the extend predecessor when it reaches the cell's value, else
//           the opening M cell, plus one gap column.
// The end cell is the first strictly greater M in row-major order. `ca`
// and `cb` are the profile codes of `a` and `b`; identity compares the
// characters themselves, as Alignment::Identity does.
LocalStats LocalStatsCore(const ScoringProfile& profile, std::string_view a,
                          std::string_view b, const std::vector<uint8_t>& ca,
                          const std::vector<uint8_t>& cb,
                          const GapPenalties& gaps, AlignScratch* scratch) {
  const size_t rows = a.size();
  const size_t cols = b.size();
  const int32_t oe = gaps.open + gaps.extend;
  const int32_t ext = gaps.extend;
  std::vector<AlignScratch::StatsColumn>& row = scratch->stats_row;
  // Entry 0 is the local boundary column: M = max = 0, no path.
  row.assign(cols + 1, {0, kNegInf32, 0, 0, 0, 0, 0, 0});
  for (size_t j = 1; j <= cols; ++j) {
    row[j].code = cb[j - 1];
    row[j].residue = b[j - 1];
  }
  AlignScratch::StatsColumn* const col = row.data();
  int32_t best = 0;
  uint64_t best_stats = 0;
  for (size_t i = 1; i <= rows; ++i) {
    const int32_t* score_row = profile.Row(ca[i - 1]);
    const char residue = a[i - 1];
    // Alignment::Identity cannot tell a '-' residue from a gap.
    const uint64_t can_match = residue != '-';
    int32_t m_left = 0;           // M[i][0] (local boundary).
    int32_t y_left = kNegInf32;   // Y[i][0].
    uint64_t sm_left = 0;
    uint64_t sy_left = 0;
    int32_t best_diag = 0;        // max(M, X, Y)[i-1][0].
    uint64_t stat_diag = 0;
    for (size_t j = 1; j <= cols; ++j) {
      AlignScratch::StatsColumn& c = col[j];
      const uint64_t identity =
          static_cast<uint64_t>(c.residue == residue) & can_match;
      const int32_t mv = std::max(best_diag + score_row[c.code], 0);
      const uint64_t msv = (stat_diag + kOneColumn + identity) &
                           (uint64_t{0} - static_cast<uint64_t>(mv > 0));
      const int32_t x_open = c.m + oe;
      const int32_t x_ext = c.x + ext;
      const int32_t xv = std::max(x_open, x_ext);
      const uint64_t xsv =
          Pick(x_ext >= x_open, c.stat_x, c.stat_m) + kOneColumn;
      const int32_t y_open = m_left + oe;
      const int32_t y_ext = y_left + ext;
      const int32_t yv = std::max(y_open, y_ext);
      const uint64_t ysv =
          Pick(y_ext >= y_open, sy_left, sm_left) + kOneColumn;
      const int32_t bv = std::max(mv, std::max(xv, yv));
      const uint64_t bsv = Pick(mv == bv, msv, Pick(xv == bv, xsv, ysv));
      best_diag = c.best;
      stat_diag = c.stat_best;
      c.m = mv;
      c.x = xv;
      c.best = bv;
      c.stat_m = msv;
      c.stat_x = xsv;
      c.stat_best = bsv;
      m_left = mv;
      y_left = yv;
      sm_left = msv;
      sy_left = ysv;
      // Rarely taken once the row's scores settle, so a branch is cheap.
      if (mv > best) {
        best = mv;
        best_stats = msv;
      }
    }
  }
  Metrics().cells->Add(rows * cols);
  LocalStats out;
  out.score = best;
  out.columns = static_cast<size_t>(best_stats >> 32);
  out.matches = static_cast<size_t>(best_stats & 0xffffffffu);
  return out;
}

// The flat profile of `scoring`: the shared one for the default nucleotide
// matrix (the `resembles` hot path), else one built into `*built`.
const ScoringProfile& ProfileFor(const SubstitutionMatrix& scoring,
                                 std::optional<ScoringProfile>* built) {
  if (scoring == SubstitutionMatrix::Nucleotide()) {
    return ScoringProfile::NucleotideDefault();
  }
  return built->emplace(scoring);
}

}  // namespace

ScoringProfile::ScoringProfile(const SubstitutionMatrix& scoring) {
  width_ = scoring.NumClasses();
  table_.resize(static_cast<size_t>(width_) * width_);
  for (int ca = 0; ca < width_; ++ca) {
    for (int cb = 0; cb < width_; ++cb) {
      table_[static_cast<size_t>(ca) * width_ + cb] =
          scoring.PairScore(static_cast<uint8_t>(ca),
                            static_cast<uint8_t>(cb));
    }
  }
  max_pair_ = *std::max_element(table_.begin(), table_.end());
  min_pair_ = *std::min_element(table_.begin(), table_.end());
  for (int c = 0; c < 256; ++c) {
    code_of_[c] = scoring.ClassOf(static_cast<char>(c));
  }
}

const ScoringProfile& ScoringProfile::NucleotideDefault() {
  static const ScoringProfile* profile =
      new ScoringProfile(SubstitutionMatrix::Nucleotide());
  return *profile;
}

void ScoringProfile::Encode(std::string_view s,
                            std::vector<uint8_t>* out) const {
  out->resize(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    (*out)[i] = code_of_[static_cast<unsigned char>(s[i])];
  }
}

Result<int64_t> LocalAlignScore(std::string_view a, std::string_view b,
                                const SubstitutionMatrix& scoring,
                                const GapPenalties& gaps,
                                AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (a.empty() || b.empty()) return int64_t{0};
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  std::optional<ScoringProfile> built;
  const ScoringProfile& profile = ProfileFor(scoring, &built);
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full,
                            LocalAlign(a, b, scoring, gaps));
    return full.score;
  }
  // Put the shorter operand on the inner (row) axis: local alignment is
  // symmetric under swapping, and the rows are what we keep in memory.
  std::string_view outer = a.size() >= b.size() ? a : b;
  std::string_view inner = a.size() >= b.size() ? b : a;
  profile.Encode(outer, &scratch->codes_a);
  profile.Encode(inner, &scratch->codes_b);
  return static_cast<int64_t>(LocalScoreCore(profile, scratch->codes_a,
                                             scratch->codes_b, gaps,
                                             scratch, nullptr, nullptr));
}

Result<bool> LocalScoreReaches(std::string_view a, std::string_view b,
                               const SubstitutionMatrix& scoring,
                               const GapPenalties& gaps, int64_t threshold,
                               AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (threshold <= 0) return true;  // The empty alignment scores 0.
  if (a.empty() || b.empty()) return false;
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  std::optional<ScoringProfile> built;
  const ScoringProfile& profile = ProfileFor(scoring, &built);
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full,
                            LocalAlign(a, b, scoring, gaps));
    return full.score >= threshold;
  }
  std::string_view outer = a.size() >= b.size() ? a : b;
  std::string_view inner = a.size() >= b.size() ? b : a;
  profile.Encode(outer, &scratch->codes_a);
  profile.Encode(inner, &scratch->codes_b);
  bool reached = false;
  LocalScoreCore(profile, scratch->codes_a, scratch->codes_b, gaps, scratch,
                 &threshold, &reached);
  return reached;
}

double LocalStats::Identity() const {
  if (columns == 0) return 0.0;
  return static_cast<double>(matches) / static_cast<double>(columns);
}

Result<LocalStats> LocalAlignStats(std::string_view a, std::string_view b,
                                   const SubstitutionMatrix& scoring,
                                   const GapPenalties& gaps,
                                   AlignScratch* scratch) {
  GENALG_RETURN_IF_ERROR(CheckGapPenalties(gaps));
  if (a.empty() || b.empty()) return LocalStats();
  AlignScratch local;
  if (scratch == nullptr) scratch = &local;
  std::optional<ScoringProfile> built;
  const ScoringProfile& profile = ProfileFor(scoring, &built);
  if (!FitsInt32(a.size(), b.size(), profile, gaps)) {
    Metrics().full_dp_fallbacks->Increment();
    GENALG_ASSIGN_OR_RETURN(Alignment full, LocalAlign(a, b, scoring, gaps));
    return LocalStats{full.score, full.Length(), full.Matches()};
  }
  profile.Encode(a, &scratch->codes_a);
  profile.Encode(b, &scratch->codes_b);
  return LocalStatsCore(profile, a, b, scratch->codes_a, scratch->codes_b,
                        gaps, scratch);
}

int64_t ResemblesScoreFloor(const ScoringProfile& profile,
                            const GapPenalties& gaps, double min_identity,
                            size_t min_overlap,
                            const std::vector<uint8_t>& codes_a,
                            const std::vector<uint8_t>& codes_b) {
  if (min_identity <= 0.0 || min_overlap == 0) return 0;
  const double theta = std::min(min_identity, 1.0);
  // Which residue classes occur in each input. An identity-match column
  // holds the same character on both sides, hence a class present in
  // both.
  uint32_t present_a = 0, present_b = 0;
  for (uint8_t c : codes_a) present_a |= 1u << c;
  for (uint8_t c : codes_b) present_b |= 1u << c;
  // Only the nucleotide alphabet (17 classes) fits a 32-bit presence set;
  // wider matrices skip the class analysis and use the global diagonal
  // minimum, which is weaker but still sound.
  int32_t min_self;
  if (profile.width() <= 32) {
    uint32_t shared = present_a & present_b;
    if (shared == 0) return std::numeric_limits<int64_t>::max();
    min_self = std::numeric_limits<int32_t>::max();
    for (int c = 0; c < profile.width(); ++c) {
      if (shared & (1u << c)) {
        min_self = std::min(min_self, profile.SelfScore(c));
      }
    }
  } else {
    min_self = std::numeric_limits<int32_t>::max();
    for (int c = 0; c < profile.width(); ++c) {
      min_self = std::min(min_self, profile.SelfScore(c));
    }
  }
  // A qualifying alignment of L >= min_overlap columns has at least
  // theta*L identity matches, each scoring >= min_self; every other
  // column costs at most `worst` (a substitution, or a gap column charged
  // its extension plus a full open). Hence score >= factor * L.
  const double worst = std::max(
      {0.0, -static_cast<double>(profile.min_pair_score()),
       -static_cast<double>(gaps.open) - static_cast<double>(gaps.extend)});
  const double factor = theta * min_self - (1.0 - theta) * worst;
  if (factor <= 0.0) return 0;
  // The small slack keeps floating-point rounding from ever pushing the
  // floor above what a genuinely qualifying alignment must score.
  return static_cast<int64_t>(
      std::ceil(factor * static_cast<double>(min_overlap) - 1e-6));
}

}  // namespace genalg::align
