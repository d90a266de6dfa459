#ifndef GENALG_PERFBENCH_CHECKS_H_
#define GENALG_PERFBENCH_CHECKS_H_

// Output checks of the served-GenAlg benchmark. Every expected value is
// computed here from the generated source records alone — never through
// the warehouse, the SQL engine or the alignment library under test — so
// a fault anywhere on the served path shows as a failed check.
//
// Each check returns an empty string when the answer is right and a
// one-line reason otherwise.

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "formats/record.h"
#include "udb/database.h"

namespace genalg::perfbench {

// ------------------------------------------------------------- lookup.

/// One row of `find features of <accession>`, as the generator made it.
struct ExpectedFeature {
  std::string accession;
  std::string fid;
  std::string kind;
  int64_t begin = 0;
  int64_t fin = 0;
  std::string strand;
  double confidence = 0;
};

/// The feature rows a record should be served with, ordered by feature id.
std::vector<ExpectedFeature> ExpectedFeatures(
    const formats::SequenceRecord& record);

/// Rows of `find features of X` (columns accession, fid, kind, begin, fin,
/// strand, confidence) must be exactly `expected`, in any row order.
std::string CheckFeatureRows(const std::vector<ExpectedFeature>& expected,
                             const udb::QueryResult& result);

/// G+C fraction over the unambiguous bases (A, C, G, T) of `dna`; 0 when
/// there are none.
double ReferenceGc(std::string_view dna);

struct ExpectedGc {
  std::string accession;
  double gc = 0;
};

/// Rows of `show gc of sequences` must be one (accession, gc) row per
/// entry of `expected`, which is sorted by accession, in that order.
std::string CheckGcRows(const std::vector<ExpectedGc>& expected,
                        const udb::QueryResult& result);

// --------------------------------------------------------- similarity.

/// Best local alignment found by a plain full-matrix Smith–Waterman with
/// affine gaps (match +2 on intersecting IUPAC base sets, mismatch -1,
/// gap open -5, gap extend -1), traced back from its best cell.
struct ReferenceAlignment {
  int64_t score = 0;
  size_t length = 0;      ///< Alignment columns, gaps included.
  double identity = 0;    ///< Exactly equal residues / columns.
  bool unique_best = true;  ///< Only one cell reaches `score`.
};
ReferenceAlignment ReferenceLocalAlign(std::string_view a,
                                       std::string_view b);

enum class Verdict { kHit, kMiss, kUnclear };

/// The `resembles` verdict (identity >= 0.8 over >= 16 columns) when the
/// reference alignment lies clear of both thresholds and its best cell is
/// unique; kUnclear otherwise, since tied or near-threshold alignments may
/// legitimately resolve either way.
Verdict ReferenceVerdict(const ReferenceAlignment& alignment);

/// `count ...` must report exactly as many sequences as `find ...` rows.
std::string CheckCountMatchesFind(const udb::QueryResult& count,
                                  const udb::QueryResult& find);

/// The first column of some row of `find` must be `accession`.
std::string CheckHasAccession(const udb::QueryResult& find,
                              const std::string& accession);

/// Served rows must equal the in-process rows, column for column.
std::string CheckSameRows(const udb::QueryResult& served,
                          const udb::QueryResult& in_process);

/// A clear reference verdict must agree with whether the served `find`
/// listed the record.
std::string CheckVerdict(Verdict reference, bool served_hit,
                         const std::string& accession);

// ------------------------------------------------------------ refresh.

/// A served `count sequences` must equal the warehouse size at some round
/// boundary: `valid` holds the source record totals before the first and
/// after every refresh round.
std::string CheckCount(const udb::QueryResult& count,
                       const std::set<int64_t>& valid);

struct EntryState {
  std::string accession;
  int64_t version = 0;
  std::string dna;

  bool operator==(const EntryState& other) const {
    return accession == other.accession && version == other.version &&
           dna == other.dna;
  }
};

/// The warehouse's (accession, version, sequence) rows must equal the
/// sources'; both lists sorted by accession.
std::string CheckEntries(const std::vector<EntryState>& warehouse,
                         const std::vector<EntryState>& sources);

/// Classifies served feature rows against the generator's: kDropped when
/// the record has features and none were served (the relational-refresh
/// loss), kWrong for any other mismatch.
enum class FeatureOutcome { kMatch, kDropped, kWrong };
FeatureOutcome ClassifyFeatureRows(const std::vector<ExpectedFeature>& expected,
                                   const udb::QueryResult& result,
                                   std::string* why);

}  // namespace genalg::perfbench

#endif  // GENALG_PERFBENCH_CHECKS_H_
