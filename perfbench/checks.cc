#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gdt/feature.h"

namespace genalg::perfbench {

namespace {

std::string KindName(gdt::FeatureKind kind) {
  switch (kind) {
    case gdt::FeatureKind::kGene: return "gene";
    case gdt::FeatureKind::kCds: return "cds";
    case gdt::FeatureKind::kExon: return "exon";
    case gdt::FeatureKind::kIntron: return "intron";
    case gdt::FeatureKind::kMRna: return "mrna";
    case gdt::FeatureKind::kPromoter: return "promoter";
    case gdt::FeatureKind::kTerminator: return "terminator";
    case gdt::FeatureKind::kRepeat: return "repeat";
    case gdt::FeatureKind::kVariant: return "variant";
    case gdt::FeatureKind::kSource: return "source";
    case gdt::FeatureKind::kOther: return "other";
  }
  return "?";
}

std::string Str(const udb::Datum& d) {
  auto s = d.AsString();
  return s.ok() ? *s : std::string("<not a string: ") + d.ToString() + ">";
}

// Reads one served feature row; false when a column has the wrong kind.
bool ReadFeature(const udb::Row& row, ExpectedFeature* out) {
  if (row.size() != 7) return false;
  auto accession = row[0].AsString();
  auto fid = row[1].AsString();
  auto kind = row[2].AsString();
  auto begin = row[3].AsInt();
  auto fin = row[4].AsInt();
  auto strand = row[5].AsString();
  auto confidence = row[6].AsReal();
  if (!accession.ok() || !fid.ok() || !kind.ok() || !begin.ok() ||
      !fin.ok() || !strand.ok() || !confidence.ok()) {
    return false;
  }
  *out = {*accession, *fid, *kind, *begin, *fin, *strand, *confidence};
  return true;
}

bool SameFeature(const ExpectedFeature& a, const ExpectedFeature& b) {
  return a.accession == b.accession && a.fid == b.fid && a.kind == b.kind &&
         a.begin == b.begin && a.fin == b.fin && a.strand == b.strand &&
         a.confidence == b.confidence;
}

// IUPAC base set of a residue as a bitmask over A, C, G, T; 0 for
// characters outside the code, which match nothing.
uint8_t BaseSet(char c) {
  switch (c | 0x20) {
    case 'a': return 1;
    case 'c': return 2;
    case 'g': return 4;
    case 't': case 'u': return 8;
    case 'r': return 1 | 4;
    case 'y': return 2 | 8;
    case 's': return 2 | 4;
    case 'w': return 1 | 8;
    case 'k': return 4 | 8;
    case 'm': return 1 | 2;
    case 'b': return 2 | 4 | 8;
    case 'd': return 1 | 4 | 8;
    case 'h': return 1 | 2 | 8;
    case 'v': return 1 | 2 | 4;
    case 'n': return 15;
    default: return 0;
  }
}

constexpr int64_t kMatch = 2;
constexpr int64_t kMismatch = -1;
constexpr int64_t kGapOpen = -5;
constexpr int64_t kGapExtend = -1;
constexpr double kMinIdentity = 0.8;
constexpr size_t kMinOverlap = 16;
// The least score any alignment of >= 16 columns at >= 0.8 identity can
// have. At least 0.8 of its columns are matches (+2 each); every other
// column costs at most a gap column's open + extend (6, more than a
// mismatch's 1). So the score is at least 16 * (0.8 * 2 - 0.2 * 6) = 6.4,
// and being whole, at least 7: the bound the program's own screen uses.
// A best score below it is a miss whichever of several tied alignments
// the program picks.
constexpr int64_t kLeastQualifyingScore = 7;
// Margins that keep tie-breaking differences out of the verdict check.
constexpr double kIdentityMargin = 0.05;
constexpr size_t kOverlapMargin = 4;

}  // namespace

std::vector<ExpectedFeature> ExpectedFeatures(
    const formats::SequenceRecord& record) {
  std::vector<ExpectedFeature> out;
  for (const gdt::Feature& f : record.features) {
    out.push_back({record.accession, f.id, KindName(f.kind),
                   static_cast<int64_t>(f.span.begin),
                   static_cast<int64_t>(f.span.end),
                   f.strand == gdt::Strand::kReverse   ? "-"
                   : f.strand == gdt::Strand::kUnknown ? "?"
                                                       : "+",
                   f.confidence});
  }
  std::sort(out.begin(), out.end(),
            [](const ExpectedFeature& a, const ExpectedFeature& b) {
              return a.fid < b.fid;
            });
  return out;
}

std::string CheckFeatureRows(const std::vector<ExpectedFeature>& expected,
                             const udb::QueryResult& result) {
  std::string why;
  return ClassifyFeatureRows(expected, result, &why) ==
                 FeatureOutcome::kMatch
             ? std::string()
             : why;
}

FeatureOutcome ClassifyFeatureRows(
    const std::vector<ExpectedFeature>& expected,
    const udb::QueryResult& result, std::string* why) {
  const std::string accession =
      expected.empty() ? std::string() : expected[0].accession;
  if (result.rows.empty() && !expected.empty()) {
    *why = accession + ": served no features, generator made " +
           std::to_string(expected.size());
    return FeatureOutcome::kDropped;
  }
  if (result.rows.size() != expected.size()) {
    *why = accession + ": served " + std::to_string(result.rows.size()) +
           " features, expected " + std::to_string(expected.size());
    return FeatureOutcome::kWrong;
  }
  std::vector<ExpectedFeature> served(result.rows.size());
  for (size_t i = 0; i < result.rows.size(); ++i) {
    if (!ReadFeature(result.rows[i], &served[i])) {
      *why = accession + ": malformed feature row";
      return FeatureOutcome::kWrong;
    }
  }
  std::sort(served.begin(), served.end(),
            [](const ExpectedFeature& a, const ExpectedFeature& b) {
              return a.fid < b.fid;
            });
  for (size_t i = 0; i < served.size(); ++i) {
    if (!SameFeature(served[i], expected[i])) {
      *why = expected[i].accession + ": feature " + expected[i].fid +
             " served as " + served[i].accession + "/" + served[i].fid +
             " [" + std::to_string(served[i].begin) + "," +
             std::to_string(served[i].fin) + ")";
      return FeatureOutcome::kWrong;
    }
  }
  return FeatureOutcome::kMatch;
}

double ReferenceGc(std::string_view dna) {
  size_t gc = 0;
  size_t total = 0;
  for (char c : dna) {
    switch (c | 0x20) {
      case 'g': case 'c': ++gc; ++total; break;
      case 'a': case 't': ++total; break;
      default: break;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(gc) / static_cast<double>(total);
}

std::string CheckGcRows(const std::vector<ExpectedGc>& expected,
                        const udb::QueryResult& result) {
  if (result.rows.size() != expected.size()) {
    return "gc scan served " + std::to_string(result.rows.size()) +
           " rows, expected " + std::to_string(expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const udb::Row& row = result.rows[i];
    if (row.size() != 2) return "gc scan: malformed row";
    auto accession = row[0].AsString();
    auto gc = row[1].AsReal();
    if (!accession.ok() || !gc.ok()) return "gc scan: malformed row";
    if (*accession != expected[i].accession) {
      return "gc scan row " + std::to_string(i) + " is " + *accession +
             ", expected " + expected[i].accession;
    }
    if (std::fabs(*gc - expected[i].gc) > 1e-12) {
      return "gc of " + *accession + " served " + std::to_string(*gc) +
             ", reference " + std::to_string(expected[i].gc);
    }
  }
  return "";
}

ReferenceAlignment ReferenceLocalAlign(std::string_view a,
                                       std::string_view b) {
  ReferenceAlignment out;
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return out;
  constexpr int64_t kNegInf = std::numeric_limits<int64_t>::min() / 4;
  const size_t w = m + 1;
  std::vector<int64_t> M((n + 1) * w, 0);
  std::vector<int64_t> X((n + 1) * w, kNegInf);  // Gap in b (consumes a).
  std::vector<int64_t> Y((n + 1) * w, kNegInf);  // Gap in a (consumes b).
  std::vector<uint8_t> sa(n), sb(m);
  for (size_t i = 0; i < n; ++i) sa[i] = BaseSet(a[i]);
  for (size_t j = 0; j < m; ++j) sb[j] = BaseSet(b[j]);
  auto score = [&](size_t i, size_t j) {  // 1-based cell.
    return (sa[i - 1] & sb[j - 1]) != 0 ? kMatch : kMismatch;
  };
  int64_t best = 0;
  size_t best_i = 0, best_j = 0, best_cells = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const size_t d = (i - 1) * w + (j - 1);
      const size_t here = i * w + j;
      const size_t up = (i - 1) * w + j;
      const size_t left = i * w + (j - 1);
      M[here] = std::max<int64_t>(
          0, std::max({M[d], X[d], Y[d]}) + score(i, j));
      X[here] = std::max(M[up] + kGapOpen + kGapExtend, X[up] + kGapExtend);
      Y[here] =
          std::max(M[left] + kGapOpen + kGapExtend, Y[left] + kGapExtend);
      if (M[here] > best) {
        best = M[here];
        best_i = i;
        best_j = j;
        best_cells = 1;
      } else if (M[here] == best && best > 0) {
        ++best_cells;
      }
    }
  }
  out.score = best;
  out.unique_best = best_cells <= 1;
  if (best == 0) return out;
  enum Layer { kM, kX, kY } layer = kM;
  size_t i = best_i, j = best_j, columns = 0, same = 0;
  while (i > 0 && j > 0) {
    const size_t here = i * w + j;
    if (layer == kM) {
      ++columns;
      if (a[i - 1] == b[j - 1]) ++same;
      const int64_t prev = M[here] - score(i, j);
      const size_t d = (i - 1) * w + (j - 1);
      --i;
      --j;
      if (M[d] == prev) {
        if (prev == 0) break;  // The local alignment starts here.
        layer = kM;
      } else if (X[d] == prev) {
        layer = kX;
      } else {
        layer = kY;
      }
    } else if (layer == kX) {
      ++columns;
      const size_t up = (i - 1) * w + j;
      layer = M[up] + kGapOpen + kGapExtend == X[here] ? kM : kX;
      --i;
    } else {
      ++columns;
      const size_t left = i * w + (j - 1);
      layer = M[left] + kGapOpen + kGapExtend == Y[here] ? kM : kY;
      --j;
    }
  }
  out.length = columns;
  out.identity =
      static_cast<double>(same) / static_cast<double>(columns);
  return out;
}

Verdict ReferenceVerdict(const ReferenceAlignment& alignment) {
  if (alignment.score < kLeastQualifyingScore) return Verdict::kMiss;
  if (!alignment.unique_best) return Verdict::kUnclear;
  if (alignment.identity >= kMinIdentity + kIdentityMargin &&
      alignment.length >= kMinOverlap + kOverlapMargin) {
    return Verdict::kHit;
  }
  if (alignment.identity < kMinIdentity - kIdentityMargin ||
      alignment.length + kOverlapMargin < kMinOverlap) {
    return Verdict::kMiss;
  }
  return Verdict::kUnclear;
}

std::string CheckCountMatchesFind(const udb::QueryResult& count,
                                  const udb::QueryResult& find) {
  if (count.rows.size() != 1 || count.rows[0].size() != 1) {
    return "count: expected one cell";
  }
  auto n = count.rows[0][0].AsInt();
  if (!n.ok()) return "count: cell is not an integer";
  if (*n != static_cast<int64_t>(find.rows.size())) {
    return "count says " + std::to_string(*n) + ", find listed " +
           std::to_string(find.rows.size());
  }
  return "";
}

std::string CheckHasAccession(const udb::QueryResult& find,
                              const std::string& accession) {
  for (const udb::Row& row : find.rows) {
    if (!row.empty() && Str(row[0]) == accession) return "";
  }
  return "planted source " + accession + " missing from " +
         std::to_string(find.rows.size()) + " hits";
}

std::string CheckSameRows(const udb::QueryResult& served,
                          const udb::QueryResult& in_process) {
  if (served.columns != in_process.columns) return "column headers differ";
  if (served.rows.size() != in_process.rows.size()) {
    return "served " + std::to_string(served.rows.size()) +
           " rows, in-process " + std::to_string(in_process.rows.size());
  }
  for (size_t i = 0; i < served.rows.size(); ++i) {
    if (served.rows[i] != in_process.rows[i]) {
      return "row " + std::to_string(i) + " differs from in-process";
    }
  }
  return "";
}

std::string CheckVerdict(Verdict reference, bool served_hit,
                         const std::string& accession) {
  if (reference == Verdict::kUnclear) return "";
  const bool reference_hit = reference == Verdict::kHit;
  if (reference_hit == served_hit) return "";
  return accession + ": reference Smith-Waterman says " +
         (reference_hit ? "hit" : "miss") + ", served " +
         (served_hit ? "hit" : "miss");
}

std::string CheckCount(const udb::QueryResult& count,
                       const std::set<int64_t>& valid) {
  if (count.rows.size() != 1 || count.rows[0].size() != 1) {
    return "count: expected one cell";
  }
  auto n = count.rows[0][0].AsInt();
  if (!n.ok()) return "count: cell is not an integer";
  if (valid.count(*n) == 0) {
    return "count " + std::to_string(*n) +
           " matches no round boundary";
  }
  return "";
}

std::string CheckEntries(const std::vector<EntryState>& warehouse,
                         const std::vector<EntryState>& sources) {
  if (warehouse.size() != sources.size()) {
    return "warehouse holds " + std::to_string(warehouse.size()) +
           " entries, sources " + std::to_string(sources.size());
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!(warehouse[i] == sources[i])) {
      return "entry " + sources[i].accession + " v" +
             std::to_string(sources[i].version) + " stored as " +
             warehouse[i].accession + " v" +
             std::to_string(warehouse[i].version) +
             (warehouse[i].dna == sources[i].dna ? "" : " (sequence differs)");
    }
  }
  return "";
}

}  // namespace genalg::perfbench
