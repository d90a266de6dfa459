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

/// Linear-memory alignment kernels: Gotoh's affine-gap recurrence with
/// rolling rows instead of full DP matrices. Where the traceback aligners
/// in aligner.h spend O(n*m) memory on three int64 matrices, these kernels
/// keep one row of int32 cells (plus, for LocalAlignStats, one row of
/// path statistics) and return the *same* results, bit for bit (verified
/// by the property sweep in align_kernels_test). They back every consumer
/// that needs a score, a thresholded verdict or the length and identity
/// of the best alignment — the `resembles` predicate behind BQL, the
/// mediator and the warehouse integrator, and `align_score` in SQL.

/// Reusable per-worker DP scratch. All kernels (and the full-DP aligners,
/// via their scratch overloads) carve their working memory out of one of
/// these instead of allocating per call; batch drivers keep one per pool
/// thread so steady-state alignment does no heap allocation at all.
struct AlignScratch {
  // Rolling rows of the score-only kernels: M, X (gap in the inner
  // sequence) and max(M, X, Y) of the previous row.
  std::vector<int32_t> row_m, row_x, row_best;
  // LocalAlignStats' rolling row, one entry per column of `b`: the same
  // three cells of the previous row, the packed statistics of the paths
  // through them, and the column's residue. One array keeps the kernel's
  // inner loop on a single base pointer.
  struct StatsColumn {
    int32_t m, x, best;
    uint8_t code;
    char residue;
    uint64_t stat_m, stat_x, stat_best;
  };
  std::vector<StatsColumn> stats_row;
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

  /// Self-score of a class (the diagonal of the table).
  int32_t SelfScore(uint8_t cls) const {
    return table_[static_cast<size_t>(cls) * width_ + cls];
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

/// Best Smith–Waterman local score — identical to LocalAlign(...).score —
/// in O(min(|a|,|b|)) memory and O(|a|*|b|) time over int32 cells.
/// `scratch` may be nullptr (a call-local scratch is used).
Result<int64_t> LocalAlignScore(std::string_view a, std::string_view b,
                                const SubstitutionMatrix& scoring,
                                const GapPenalties& gaps = GapPenalties(),
                                AlignScratch* scratch = nullptr);

/// Thresholded local score with early termination: returns true iff
/// LocalAlignScore(a, b) >= threshold, but stops filling rows as soon as
/// the running maximum reaches the threshold, or as soon as the largest
/// score any remaining row could still contribute can no longer reach it.
Result<bool> LocalScoreReaches(std::string_view a, std::string_view b,
                               const SubstitutionMatrix& scoring,
                               const GapPenalties& gaps, int64_t threshold,
                               AlignScratch* scratch = nullptr);

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
/// `scratch` may be nullptr (a call-local scratch is used).
Result<LocalStats> LocalAlignStats(std::string_view a, std::string_view b,
                                   const SubstitutionMatrix& scoring,
                                   const GapPenalties& gaps = GapPenalties(),
                                   AlignScratch* scratch = nullptr);

/// Smallest local-alignment score any alignment satisfying the
/// `resembles` predicate (identity >= min_identity over >= min_overlap
/// columns) can have, given the characters actually present in the two
/// inputs; 0 when no useful bound exists. A best-local score strictly
/// below this floor therefore proves the predicate false without any
/// traceback. Returns INT64_MAX when the predicate is unsatisfiable
/// outright (min_identity > 0 but the inputs share no residue class, so
/// no alignment column can ever count as an identity match).
int64_t ResemblesScoreFloor(const ScoringProfile& profile,
                            const GapPenalties& gaps, double min_identity,
                            size_t min_overlap,
                            const std::vector<uint8_t>& codes_a,
                            const std::vector<uint8_t>& codes_b);

}  // namespace genalg::align

#endif  // GENALG_ALIGN_KERNELS_H_
