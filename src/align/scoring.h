#ifndef GENALG_ALIGN_SCORING_H_
#define GENALG_ALIGN_SCORING_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace genalg::align {

/// A symbol-pair scoring function over ASCII residue characters.
///
/// Two built-in families cover the paper's needs: a simple match/mismatch
/// scheme for nucleotides (IUPAC-ambiguity-aware: intersecting base sets
/// score as a match) and the BLOSUM62 matrix for proteins. The class is a
/// small value type so alignment calls stay cheap to configure.
class SubstitutionMatrix {
 public:
  /// Nucleotide scoring: `match` for compatible base sets (intersecting
  /// IUPAC sets), `mismatch` otherwise. Characters outside the IUPAC set
  /// always score `mismatch`.
  static SubstitutionMatrix Nucleotide(int match = 2, int mismatch = -1);

  /// The standard BLOSUM62 amino-acid matrix (symbols ARNDCQEGHILKMFPSTWYV
  /// BZX*); characters outside the set score like 'X'.
  static const SubstitutionMatrix& Blosum62();

  /// Scores one residue pair (case-insensitive).
  int Score(char a, char b) const;

  /// Number of residue classes the matrix distinguishes: two characters in
  /// the same class score identically against everything. Nucleotide: the
  /// 16 IUPAC base sets plus one invalid class; BLOSUM: the 24 symbols
  /// (unknowns collapse onto 'X'). The score-only kernels use the classes
  /// to precompute a flat lookup profile.
  int NumClasses() const;

  /// Class code of a residue character, in [0, NumClasses()).
  uint8_t ClassOf(char c) const;

  /// Score of a class pair: Score(a, b) == PairScore(ClassOf(a), ClassOf(b))
  /// for every character pair.
  int PairScore(uint8_t ca, uint8_t cb) const;

  bool operator==(const SubstitutionMatrix& other) const = default;

 private:
  enum class Kind { kNucleotide, kMatrix };

  SubstitutionMatrix() = default;

  Kind kind_ = Kind::kNucleotide;
  int match_ = 2;
  int mismatch_ = -1;
  const int8_t* matrix_ = nullptr;  // 24x24, BLOSUM index order.
};

/// Gap model for the affine-gap aligners: opening a run of gaps costs
/// `open + extend`, each further gap `extend`. Both are penalties and must
/// be negative (or zero).
struct GapPenalties {
  int open = -5;
  int extend = -1;
};

}  // namespace genalg::align

#endif  // GENALG_ALIGN_SCORING_H_
