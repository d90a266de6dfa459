#ifndef GENALG_ALIGN_KERNELS_H_
#define GENALG_ALIGN_KERNELS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "align/scoring.h"
#include "base/result.h"

namespace genalg::align {

/// The linear-memory local alignment kernel: Gotoh's affine-gap
/// recurrence filled without traceback matrices. Where the traceback
/// aligners in aligner.h spend O(n*m) memory on three int64 matrices, the
/// statistics fill keeps one row (or three anti-diagonals) of int32 cells
/// and the path statistics beside them, and returns the *same* score,
/// length and identity, bit for bit (verified by the property sweeps in
/// align_kernels_test). It backs every consumer that needs a score or the
/// length and identity of the best alignment — the `resembles` predicate
/// behind BQL, the mediator and the warehouse integrator, and
/// `align_score` in SQL.

/// Reusable per-worker DP scratch. The statistics fill (and the full-DP
/// aligners, via their scratch overloads) carve their working memory out
/// of one of these instead of allocating per call; batch drivers keep one
/// per pool thread so steady-state alignment does no heap allocation at
/// all.
struct AlignScratch {
  // The scalar statistics kernel's rolling row, one entry per column of
  // `b`: M, X (gap in `b`) and max(M, X, Y) of the previous row, the
  // packed statistics of the paths through them, and the column's
  // residue. One array keeps the kernel's inner loop on a single base
  // pointer.
  struct StatsColumn {
    int32_t m, x, best;
    uint8_t code;
    char residue;
    uint64_t stat_m, stat_x, stat_best;
  };
  std::vector<StatsColumn> stats_row;
  // The anti-diagonal statistics kernel's working set, one lane per
  // column of `b`: three rotating diagonals of M, X, Y, max(M, X, Y) and
  // the packed statistics of their paths, each column's running best M,
  // and the lane-ordered inputs (`a` reversed and padded, `b` in lanes).
  std::vector<int32_t> stats_diagonals;
  // Class-coded copies of the two inputs (the scoring profile operands).
  std::vector<uint8_t> codes_a, codes_b;
  // Full-DP int64 arena borrowed by the traceback aligners.
  std::vector<int64_t> full_dp;
};

/// A flattened scoring profile: each input character is encoded once into
/// its residue class, and scores come from a dense classes x classes
/// table. The kernel inner loop is then one indexed load per cell — no
/// toupper, no IUPAC decoding, no symbol search (the raw
/// SubstitutionMatrix::Score does all three for BLOSUM).
class ScoringProfile {
 public:
  explicit ScoringProfile(const SubstitutionMatrix& scoring);

  /// The shared profile of SubstitutionMatrix::Nucleotide() with default
  /// parameters — the `resembles` hot path. Built once per process.
  static const ScoringProfile& NucleotideDefault();

  int width() const { return width_; }
  int32_t max_pair_score() const { return max_pair_; }
  int32_t min_pair_score() const { return min_pair_; }

  /// Row of the flat table for one residue class.
  const int32_t* Row(uint8_t cls) const {
    return table_.data() + static_cast<size_t>(cls) * width_;
  }

  /// Class code of a character.
  uint8_t Code(char c) const {
    return code_of_[static_cast<unsigned char>(c)];
  }

  /// Encodes a string into class codes (resizes `out`).
  void Encode(std::string_view s, std::vector<uint8_t>* out) const;

 private:
  int width_ = 0;
  int32_t max_pair_ = 0;
  int32_t min_pair_ = 0;
  std::array<uint8_t, 256> code_of_{};
  std::vector<int32_t> table_;  // width_ * width_.
};

/// Score, length and identity matches of the alignment LocalAlign(a, b)
/// returns, decided without a traceback.
struct LocalStats {
  int64_t score = 0;
  size_t columns = 0;  ///< Alignment::Length(), gap columns included.
  size_t matches = 0;  ///< Alignment::Matches().

  /// matches / columns, computed as Alignment::Identity() computes it.
  double Identity() const;
};

/// Statistics of LocalAlign(a, b)'s alignment in O(|b|) memory and
/// O(|a|*|b|) time. Besides the M/X/Y cells, each rolling row carries the
/// (columns, identity matches) of the path LocalAlign's traceback would
/// follow from that cell, so the result equals the traced alignment's
/// Length() and Identity() exactly. That needs LocalAlign's tie rules:
/// `a` on the rows; on the diagonal the predecessor layer is the first of
/// M, X, Y holding the maximum; a gap run extends rather than opens on a
/// tie; a path stops at an M cell of 0; and the end cell is the first
/// strictly greater M in row-major order. Identity compares characters,
/// not scores (N against A scores as a match but is no identity).
/// The fill runs on the widest instance the host supports (see
/// detail::StatsKernel): the anti-diagonal vector kernel where AVX2 or
/// AVX-512 is present and |a| + |b| <= detail::kMaxVectorStatsLength,
/// else the scalar kernel. The vector kernel puts `b` in its lanes and
/// runs fastest with the shorter input there, and the scalar kernel keeps
/// a row of |b| cells, so callers put the stored (longer) sequence on `a`.
/// `scratch` may be nullptr (a call-local scratch is used).
Result<LocalStats> LocalAlignStats(std::string_view a, std::string_view b,
                                   const SubstitutionMatrix& scoring,
                                   const GapPenalties& gaps = GapPenalties(),
                                   AlignScratch* scratch = nullptr);

/// Best Smith–Waterman local score, identical to LocalAlign(a, b).score:
/// one LocalAlignStats fill with the longer input on `a`, which the score
/// (unlike the length and identity) does not depend on, so callers may
/// pass the operands in either order. `scratch` may be nullptr.
Result<int64_t> LocalAlignScore(std::string_view a, std::string_view b,
                                const SubstitutionMatrix& scoring,
                                const GapPenalties& gaps = GapPenalties(),
                                AlignScratch* scratch = nullptr);

namespace detail {

/// The instances of the statistics fill behind LocalAlignStats: the
/// scalar rolling-row kernel (the reference), and one anti-diagonal
/// vector kernel compiled for AVX2 and for AVX-512 (x86-64 GCC builds
/// only). All return the same LocalStats, bit for bit.
enum class StatsKernel { kScalar, kAvx2, kAvx512 };

/// Whether this build and host can run `kernel` (kScalar always).
bool StatsKernelAvailable(StatsKernel kernel);

/// Longest |a| + |b| the vector instances take: their path statistics
/// are packed as columns << 16 | matches in 32-bit lanes, and no path
/// has more columns than |a| + |b|.
inline constexpr size_t kMaxVectorStatsLength = 65535;

/// One statistics fill of LocalAlignStats(a, b) on `kernel`, which
/// LocalAlignStats calls after its argument checks and its int32 overflow
/// guard. Requires non-empty inputs whose cells fit int32 under
/// `profile` and `gaps`; a vector `kernel` must be available and take
/// |a| + |b| <= kMaxVectorStatsLength.
LocalStats LocalStatsFill(StatsKernel kernel, const ScoringProfile& profile,
                          std::string_view a, std::string_view b,
                          const GapPenalties& gaps, AlignScratch* scratch);

}  // namespace detail

}  // namespace genalg::align

#endif  // GENALG_ALIGN_KERNELS_H_
