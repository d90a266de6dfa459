#ifndef GENALG_ALIGN_ALIGNER_H_
#define GENALG_ALIGN_ALIGNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "align/kernels.h"
#include "align/scoring.h"
#include "base/result.h"
#include "base/thread_pool.h"
#include "seq/nucleotide_sequence.h"
#include "seq/protein_sequence.h"

namespace genalg::align {

/// The result of a pairwise alignment. `aligned_a` and `aligned_b` are
/// equal-length gapped renderings ('-' marks a gap); for local alignments
/// the [begin, end) spans give the aligned window of each input.
struct Alignment {
  int64_t score = 0;
  std::string aligned_a;
  std::string aligned_b;
  size_t begin_a = 0;
  size_t end_a = 0;
  size_t begin_b = 0;
  size_t end_b = 0;

  /// Number of alignment columns (including gap columns).
  size_t Length() const { return aligned_a.size(); }

  /// Columns whose residues match exactly (never a gap column).
  size_t Matches() const;

  /// Matches() / Length(): gap columns count against identity; 0 for an
  /// empty alignment.
  double Identity() const;
};

/// Needleman–Wunsch global alignment with affine gaps (Gotoh).
/// Complexity O(|a|*|b|) time and memory. `scratch` (optional) recycles
/// the DP arena across calls.
Result<Alignment> GlobalAlign(std::string_view a, std::string_view b,
                              const SubstitutionMatrix& scoring,
                              const GapPenalties& gaps = GapPenalties(),
                              AlignScratch* scratch = nullptr);

/// Smith–Waterman local alignment with affine gaps. Returns the single
/// best-scoring local alignment (empty alignment with score 0 when nothing
/// scores positively). Callers that only need the score, or the length
/// and identity, should use LocalAlignScore or LocalAlignStats
/// (kernels.h): identical results without the O(n*m) traceback matrices.
/// `scratch` (optional) recycles the DP arena across calls.
Result<Alignment> LocalAlign(std::string_view a, std::string_view b,
                             const SubstitutionMatrix& scoring,
                             const GapPenalties& gaps = GapPenalties(),
                             AlignScratch* scratch = nullptr);

/// Banded Needleman–Wunsch with linear gap cost `gap` (per gapped column,
/// negative): only cells with |i - j| <= band are filled, giving
/// O(band * max(|a|,|b|)) time. InvalidArgument if the band cannot bridge
/// the length difference of the inputs.
Result<Alignment> BandedGlobalAlign(std::string_view a, std::string_view b,
                                    const SubstitutionMatrix& scoring,
                                    int gap, size_t band);

/// Convenience overloads on the GDT sequence types.
Result<Alignment> GlobalAlign(const seq::NucleotideSequence& a,
                              const seq::NucleotideSequence& b,
                              const GapPenalties& gaps = GapPenalties());
Result<Alignment> LocalAlign(const seq::NucleotideSequence& a,
                             const seq::NucleotideSequence& b,
                             const GapPenalties& gaps = GapPenalties());
Result<Alignment> GlobalAlign(const seq::ProteinSequence& a,
                              const seq::ProteinSequence& b,
                              const GapPenalties& gaps = GapPenalties());
Result<Alignment> LocalAlign(const seq::ProteinSequence& a,
                             const seq::ProteinSequence& b,
                             const GapPenalties& gaps = GapPenalties());

/// The paper's `resembles` operator (Sec. 6.3): true iff the best local
/// alignment of the two sequences covers at least `min_overlap` bases and
/// reaches at least `min_identity` (fraction in [0, 1]) over the aligned
/// window. This is the user-defined predicate the Unifying Database
/// registers for use inside SQL.
///
/// The verdict is that of LocalAlign(a, b), so argument order decides ties:
/// where several best local alignments score equally, `a` on the rows
/// picks which one is measured, and (a, b) and (b, a) can disagree near
/// the thresholds. BQL evaluates resembles(stored, pattern), and the
/// mediator passes (stored, query) likewise.
///
/// Past the trivial rejects (an empty input, or a shorter input too short
/// to hold the identity matches demanded), each pair is decided by one
/// LocalAlignStats fill, bit-identical to evaluating the full alignment
/// directly. Pass the stored (longer) sequence as `a`: the fill runs
/// fastest with the shorter input on `b`.
Result<bool> Resembles(const seq::NucleotideSequence& a,
                       const seq::NucleotideSequence& b,
                       double min_identity = 0.8, size_t min_overlap = 16);

/// One pair's `resembles` outcome: the verdict, and for a hit the
/// identity and score of the best local alignment (zero for a miss).
struct ResemblesVerdict {
  bool hit = false;
  double identity = 0.0;
  int64_t score = 0;

  bool operator==(const ResemblesVerdict& other) const = default;
};

/// Batched `resembles`: decides Resembles(a, b) for every (a, b) pair over
/// `pool` (nullptr ⇒ ThreadPool::Global()), returning outcomes in pair
/// order, identical across pool sizes. Each pool worker keeps a
/// thread-local AlignScratch, so steady-state evaluation allocates no DP
/// memory. Used by the warehouse integrator's content matching and the
/// mediator's similarity queries.
Result<std::vector<ResemblesVerdict>> BatchResembles(
    const std::vector<std::pair<const seq::NucleotideSequence*,
                                const seq::NucleotideSequence*>>& pairs,
    double min_identity = 0.8, size_t min_overlap = 16,
    ThreadPool* pool = nullptr);

}  // namespace genalg::align

#endif  // GENALG_ALIGN_ALIGNER_H_
