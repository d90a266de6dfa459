#include "align/kernels.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "align/aligner.h"
#include "obs/metrics.h"

// The vector statistics kernel is compiled per instruction set through
// `#pragma GCC target` regions, which x86-64 GCC supports; other builds
// run the scalar kernel only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define GENALG_VECTOR_STATS 1
#include <immintrin.h>
#else
#define GENALG_VECTOR_STATS 0
#endif

namespace genalg::align {

namespace {

// Cell counts are accumulated per fill (|a| x |b|), not per cell, so the
// inner loops stay untouched.
struct KernelMetrics {
  obs::Counter* cells;
  obs::Counter* full_dp_fallbacks;
  obs::Counter* stats_vector_fills;
};

const KernelMetrics& Metrics() {
  static const KernelMetrics m = {
      obs::Registry::Global().GetCounter("align.kernel.cells"),
      obs::Registry::Global().GetCounter("align.kernel.full_dp_fallbacks"),
      obs::Registry::Global().GetCounter("align.kernel.stats_vector_fills"),
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

// Largest absolute cell magnitude the inputs could produce. The
// statistics kernels run on int32 cells; inputs long enough to overflow them fall
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

// Path statistics packed as columns << 32 | identity matches, so one add
// extends a path by a column and one select picks a predecessor's path.
constexpr uint64_t kOneColumn = uint64_t{1} << 32;

// `if_true` when `take`, else `if_false`, selected through a mask: the
// choices below follow the data, so branches on them would mispredict.
inline uint64_t Pick(bool take, uint64_t if_true, uint64_t if_false) {
  const uint64_t mask = uint64_t{0} - static_cast<uint64_t>(take);
  return if_false ^ ((if_true ^ if_false) & mask);
}

// Rolling-row Smith–Waterman with affine gaps, `a` on the rows as in
// LocalAlign. Per column j of the previous row the kernel keeps M, X (gap
// in `b`) and max(M, X, Y); Y (gap in `a`) only ever feeds from the
// current row's left neighbour, so it lives in a scalar. This is
// LocalAlign's recurrence exactly:
//   M[i][j] = max(0, max(M, X, Y)[i-1][j-1] + s)
//   X[i][j] = max(M[i-1][j] + open + extend, X[i-1][j] + extend)
//   Y[i][j] = max(M[i][j-1] + open + extend, Y[i][j-1] + extend)
// with the local best tracked over M cells only. Beside every M, X and Y
// cell it carries the packed statistics of the path LocalAlign's
// TraceBack follows from that cell in that layer:
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

// ---------------------------------------------------------------------
// The anti-diagonal statistics kernel.
//
// LocalStatsCore's recurrence, swept one anti-diagonal d = i + j at a
// time with one lane per column j of `b`. Every cell of a diagonal reads
// only the two diagonals before it — the cell above (i-1, j) and the one
// to the left (i, j-1) lie on d-1 at columns j and j-1, the diagonal
// cell (i-1, j-1) on d-2 at column j-1 — so each lane runs exactly the
// scalar recurrence and its tie rules, with plain unaligned loads and no
// lane shuffles. The path statistics are packed as columns << 16 |
// matches in 32-bit lanes, which holds while |a| + |b| <= 65535.
//
// The end cell is exact without a row-major scan: each column keeps its
// largest M with the smallest row (a strict > over ascending rows), and
// FinishDiagonals reduces the columns by (score desc, row asc, column
// asc), which is the first strictly greater M in row-major order.

#if GENALG_VECTOR_STATS

// Lanes per block; both instances sweep 16-lane blocks (one AVX-512
// register, or two AVX2 registers).
constexpr int32_t kBlock = 16;
constexpr int32_t kStatsColumnShift = 16;

// One diagonal's cells, indexed by column j; entry 0 is column 0, the
// local boundary (M = max = 0, X = Y = -inf, no path), never written.
struct Diagonal {
  int32_t* m;
  int32_t* x;
  int32_t* y;
  int32_t* best;   // max(M, X, Y).
  int32_t* stat_m;
  int32_t* stat_x;
  int32_t* stat_y;
  int32_t* stat_best;
};

// The sweep's inputs and working set, carved out of
// AlignScratch::stats_diagonals by PrepareDiagonals. Lane j reads row
// d - j of `a` at index kBlock + rows - d + j of the reversed, padded
// copies, so one diagonal's rows are one contiguous load.
struct DiagonalSweep {
  int32_t rows = 0;  // |a|.
  int32_t cols = 0;  // |b|.
  int32_t oe = 0;    // open + extend.
  int32_t ext = 0;
  const int32_t* table = nullptr;  // The profile's classes x classes table.
  Diagonal diagonal[3];            // Diagonal d lives in diagonal[d % 3].
  const int32_t* a_class = nullptr;  // Class * width: a row of `table`.
  const int32_t* a_char = nullptr;   // Residue; -1 for '-', an unmatchable.
  const int32_t* b_class = nullptr;  // Lane j: class of b[j-1].
  const int32_t* b_char = nullptr;   // Lane j: b[j-1]; -2 past the end.
  int32_t* best_m = nullptr;     // Lane j: the largest M of column j,
  int32_t* best_diag = nullptr;  // the diagonal of its smallest-row cell,
  int32_t* best_stat = nullptr;  // and that cell's path statistics.
};

DiagonalSweep PrepareDiagonals(const ScoringProfile& profile,
                               std::string_view a, std::string_view b,
                               const GapPenalties& gaps,
                               AlignScratch* scratch) {
  DiagonalSweep s;
  s.rows = static_cast<int32_t>(a.size());
  s.cols = static_cast<int32_t>(b.size());
  s.oe = gaps.open + gaps.extend;
  s.ext = gaps.extend;
  s.table = profile.Row(0);
  const size_t lanes = (b.size() + kBlock - 1) / kBlock * kBlock;
  const size_t stride = lanes + 1;
  const size_t padded_a = a.size() + 2 * kBlock;
  // Eight arrays per diagonal, three column bests, two `b` lane inputs.
  constexpr size_t kLaneArrays = 3 * 8 + 3 + 2;
  std::vector<int32_t>& store = scratch->stats_diagonals;
  store.resize(kLaneArrays * stride + 2 * padded_a);
  int32_t* next = store.data();
  auto carve = [&](size_t size, int32_t fill) {
    int32_t* out = next;
    std::fill(out, out + size, fill);
    next += size;
    return out;
  };
  for (Diagonal& d : s.diagonal) {
    d = {carve(stride, 0),         carve(stride, kNegInf32),
         carve(stride, kNegInf32), carve(stride, 0),
         carve(stride, 0),         carve(stride, 0),
         carve(stride, 0),         carve(stride, 0)};
  }
  s.best_m = carve(stride, 0);
  s.best_diag = carve(stride, 0);
  s.best_stat = carve(stride, 0);
  int32_t* b_class = carve(stride, 0);
  int32_t* b_char = carve(stride, -2);
  for (size_t j = 1; j <= b.size(); ++j) {
    b_class[j] = profile.Code(b[j - 1]);
    b_char[j] = static_cast<unsigned char>(b[j - 1]);
  }
  int32_t* a_class = carve(padded_a, 0);
  int32_t* a_char = carve(padded_a, -1);
  // Alignment::Identity cannot tell a '-' residue from a gap, so a '-'
  // in `a` matches nothing.
  for (size_t p = 0; p < a.size(); ++p) {
    const char residue = a[a.size() - 1 - p];
    a_class[kBlock + p] = profile.Code(residue) * profile.width();
    a_char[kBlock + p] =
        residue == '-' ? -1 : static_cast<unsigned char>(residue);
  }
  s.a_class = a_class;
  s.a_char = a_char;
  s.b_class = b_class;
  s.b_char = b_char;
  return s;
}

LocalStats FinishDiagonals(const DiagonalSweep& s) {
  int32_t best = 0;
  int32_t best_row = 0;
  uint32_t best_stat = 0;
  for (int32_t j = 1; j <= s.cols; ++j) {
    const int32_t score = s.best_m[j];
    const int32_t row = s.best_diag[j] - j;
    if (score > best || (score == best && score > 0 && row < best_row)) {
      best = score;
      best_row = row;
      best_stat = static_cast<uint32_t>(s.best_stat[j]);
    }
  }
  LocalStats out;
  out.score = best;
  out.columns = best_stat >> kStatsColumnShift;
  out.matches = best_stat & ((uint32_t{1} << kStatsColumnShift) - 1);
  return out;
}

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

// A 16-lane block as two 8-lane registers; a mask is all-ones lanes.
struct V {
  __m256i lo, hi;
};
using Mask = V;

inline V Load(const int32_t* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8))};
}
inline void Store(int32_t* p, V v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v.lo);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + 8), v.hi);
}
inline V Set1(int32_t x) {
  return {_mm256_set1_epi32(x), _mm256_set1_epi32(x)};
}
inline V Iota() {
  return {_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
          _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15)};
}
inline V Add(V a, V b) {
  return {_mm256_add_epi32(a.lo, b.lo), _mm256_add_epi32(a.hi, b.hi)};
}
inline V Max(V a, V b) {
  return {_mm256_max_epi32(a.lo, b.lo), _mm256_max_epi32(a.hi, b.hi)};
}
inline Mask Gt(V a, V b) {
  return {_mm256_cmpgt_epi32(a.lo, b.lo), _mm256_cmpgt_epi32(a.hi, b.hi)};
}
inline Mask Eq(V a, V b) {
  return {_mm256_cmpeq_epi32(a.lo, b.lo), _mm256_cmpeq_epi32(a.hi, b.hi)};
}
inline Mask And(Mask a, Mask b) {
  return {_mm256_and_si256(a.lo, b.lo), _mm256_and_si256(a.hi, b.hi)};
}
inline V Select(Mask take, V if_true, V if_false) {
  return {_mm256_blendv_epi8(if_false.lo, if_true.lo, take.lo),
          _mm256_blendv_epi8(if_false.hi, if_true.hi, take.hi)};
}
inline V Gather(const int32_t* base, V index) {
  const __m256i none = _mm256_setzero_si256();
  const __m256i all = _mm256_set1_epi32(-1);
  return {_mm256_mask_i32gather_epi32(none, base, index.lo, all, 4),
          _mm256_mask_i32gather_epi32(none, base, index.hi, all, 4)};
}

#include "align/stats_diagonal_sweep.inc"

}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512bw,avx512vl")
namespace avx512 {

using V = __m512i;
using Mask = __mmask16;

inline V Load(const int32_t* p) { return _mm512_loadu_si512(p); }
inline void Store(int32_t* p, V v) { _mm512_storeu_si512(p, v); }
inline V Set1(int32_t x) { return _mm512_set1_epi32(x); }
inline V Iota() {
  return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                           14, 15);
}
inline V Add(V a, V b) { return _mm512_add_epi32(a, b); }
// The masked form: GCC 12's _mm512_max_epi32 trips -Wmaybe-uninitialized.
inline V Max(V a, V b) { return _mm512_maskz_max_epi32(0xffff, a, b); }
inline Mask Gt(V a, V b) { return _mm512_cmpgt_epi32_mask(a, b); }
inline Mask Eq(V a, V b) { return _mm512_cmpeq_epi32_mask(a, b); }
inline Mask And(Mask a, Mask b) { return _kand_mask16(a, b); }
inline V Select(Mask take, V if_true, V if_false) {
  return _mm512_mask_blend_epi32(take, if_false, if_true);
}
inline V Gather(const int32_t* base, V index) {
  return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), 0xffff, index,
                                     base, 4);
}

#include "align/stats_diagonal_sweep.inc"

}  // namespace avx512
#pragma GCC pop_options

#endif  // GENALG_VECTOR_STATS

// The fastest statistics kernel this host runs, picked once.
detail::StatsKernel FastestStatsKernel() {
  static const detail::StatsKernel kernel = [] {
    if (detail::StatsKernelAvailable(detail::StatsKernel::kAvx512)) {
      return detail::StatsKernel::kAvx512;
    }
    if (detail::StatsKernelAvailable(detail::StatsKernel::kAvx2)) {
      return detail::StatsKernel::kAvx2;
    }
    return detail::StatsKernel::kScalar;
  }();
  return kernel;
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
  const detail::StatsKernel kernel =
      a.size() + b.size() <= detail::kMaxVectorStatsLength
          ? FastestStatsKernel()
          : detail::StatsKernel::kScalar;
  return detail::LocalStatsFill(kernel, profile, a, b, gaps, scratch);
}

Result<int64_t> LocalAlignScore(std::string_view a, std::string_view b,
                                const SubstitutionMatrix& scoring,
                                const GapPenalties& gaps,
                                AlignScratch* scratch) {
  // The best local score is symmetric under swapping the operands; the
  // fill is fastest with the shorter one on `b` (see LocalAlignStats).
  const bool a_longer = a.size() >= b.size();
  GENALG_ASSIGN_OR_RETURN(
      LocalStats best, LocalAlignStats(a_longer ? a : b, a_longer ? b : a,
                                       scoring, gaps, scratch));
  return best.score;
}

namespace detail {

bool StatsKernelAvailable(StatsKernel kernel) {
  switch (kernel) {
    case StatsKernel::kScalar:
      return true;
#if GENALG_VECTOR_STATS
    case StatsKernel::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case StatsKernel::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
#endif
    default:
      return false;
  }
}

LocalStats LocalStatsFill(StatsKernel kernel, const ScoringProfile& profile,
                          std::string_view a, std::string_view b,
                          const GapPenalties& gaps, AlignScratch* scratch) {
#if GENALG_VECTOR_STATS
  if (kernel != StatsKernel::kScalar) {
    const DiagonalSweep sweep = PrepareDiagonals(profile, a, b, gaps, scratch);
    if (kernel == StatsKernel::kAvx512) {
      avx512::Sweep(sweep);
    } else {
      avx2::Sweep(sweep);
    }
    Metrics().cells->Add(a.size() * b.size());
    Metrics().stats_vector_fills->Increment();
    return FinishDiagonals(sweep);
  }
#endif
  profile.Encode(a, &scratch->codes_a);
  profile.Encode(b, &scratch->codes_b);
  return LocalStatsCore(profile, a, b, scratch->codes_a, scratch->codes_b,
                        gaps, scratch);
}

}  // namespace detail

}  // namespace genalg::align
