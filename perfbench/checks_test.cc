// Tests of the benchmark's own output checks: each check accepts the
// right answer and rejects a deliberately wrong one (a GC value off by
// one base, a dropped feature, a flipped verdict, ...). A check that
// accepted a wrong answer would let a broken program pass the benchmark.
//
// Build and run:
//   cmake --build <build-dir> --target perfbench_checks_test
//   <build-dir>/perfbench_checks_test      # exit 0 = every case passed

#include <cstdio>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "checks.h"
#include "gdt/feature.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAILED: %s\n", what);
}

#define EXPECT_PASS(check) Expect((check).empty(), #check " should pass")
#define EXPECT_FAIL(check) Expect(!(check).empty(), #check " should fail")

using udb::Datum;
using udb::QueryResult;

formats::SequenceRecord Record(const std::string& accession,
                               const std::string& dna) {
  formats::SequenceRecord record;
  record.accession = accession;
  record.sequence = seq::NucleotideSequence::Dna(dna).value();
  gdt::Feature gene;
  gene.id = accession + ".g1";
  gene.kind = gdt::FeatureKind::kGene;
  gene.span = {3, 9};
  gene.strand = gdt::Strand::kReverse;
  gene.confidence = 0.95;
  record.features.push_back(gene);
  gdt::Feature exon = gene;
  exon.id = accession + ".e1";
  exon.kind = gdt::FeatureKind::kExon;
  exon.strand = gdt::Strand::kForward;
  record.features.push_back(exon);
  return record;
}

udb::Row FeatureRow(const ExpectedFeature& f) {
  return {Datum::String(f.accession), Datum::String(f.fid),
          Datum::String(f.kind),      Datum::Int(f.begin),
          Datum::Int(f.fin),          Datum::String(f.strand),
          Datum::Real(f.confidence)};
}

QueryResult FeatureResult(const std::vector<ExpectedFeature>& features) {
  QueryResult result;
  for (const ExpectedFeature& f : features) {
    result.rows.push_back(FeatureRow(f));
  }
  return result;
}

QueryResult Single(int64_t n) {
  QueryResult result;
  result.rows.push_back({Datum::Int(n)});
  return result;
}

QueryResult Accessions(const std::vector<std::string>& accessions) {
  QueryResult result;
  for (const auto& a : accessions) {
    result.rows.push_back({Datum::String(a), Datum::String("org")});
  }
  return result;
}

void TestFeatures() {
  const auto expected = ExpectedFeatures(Record("B0100001", "ACGTACGTACGT"));
  Expect(expected.size() == 2 && expected[0].kind == "exon" &&
             expected[1].strand == "-",
         "expected features mirror the record");
  QueryResult served = FeatureResult(expected);
  std::swap(served.rows[0], served.rows[1]);  // Row order is free.
  EXPECT_PASS(CheckFeatureRows(expected, served));

  QueryResult dropped = FeatureResult(expected);
  dropped.rows.pop_back();
  EXPECT_FAIL(CheckFeatureRows(expected, dropped));

  QueryResult shifted = FeatureResult(expected);
  shifted.rows[1][3] = Datum::Int(expected[1].begin + 1);
  EXPECT_FAIL(CheckFeatureRows(expected, shifted));

  QueryResult other = FeatureResult(expected);
  other.rows[0][0] = Datum::String("B0100002");
  EXPECT_FAIL(CheckFeatureRows(expected, other));

  std::string why;
  Expect(ClassifyFeatureRows(expected, QueryResult(), &why) ==
             FeatureOutcome::kDropped,
         "no rows for a featured record classify as dropped");
  Expect(ClassifyFeatureRows(expected, dropped, &why) ==
             FeatureOutcome::kWrong,
         "a partial feature set is wrong, not dropped");
}

void TestGc() {
  Expect(ReferenceGc("GGCCNNAT") == 4.0 / 6.0, "GC skips ambiguous bases");
  Expect(ReferenceGc("NNNN") == 0.0, "GC of no unambiguous base is 0");
  const std::vector<ExpectedGc> expected = {{"B0100001", 3.0 / 8.0},
                                            {"B1100001", 0.5}};
  auto served = [&](double first_gc, const char* second) {
    QueryResult result;
    result.rows.push_back({Datum::String("B0100001"), Datum::Real(first_gc)});
    result.rows.push_back({Datum::String(second), Datum::Real(0.5)});
    return result;
  };
  EXPECT_PASS(CheckGcRows(expected, served(3.0 / 8.0, "B1100001")));
  // One G+C base too many over the 8 unambiguous bases.
  EXPECT_FAIL(CheckGcRows(expected, served(4.0 / 8.0, "B1100001")));
  EXPECT_FAIL(CheckGcRows(expected, served(3.0 / 8.0, "B1100002")));
  QueryResult short_scan = served(3.0 / 8.0, "B1100001");
  short_scan.rows.pop_back();
  EXPECT_FAIL(CheckGcRows(expected, short_scan));
  QueryResult swapped = served(3.0 / 8.0, "B1100001");
  std::swap(swapped.rows[0], swapped.rows[1]);
  EXPECT_FAIL(CheckGcRows(expected, swapped));
}

void TestReferenceAlignment() {
  const std::string stored =
      "TTGACCATGGCAAGTCCGATTACGGATCCTAGGCTTAACGGTACCATGCATTCGAGCTAGG";
  const ReferenceAlignment self = ReferenceLocalAlign(stored, stored);
  Expect(self.score == 2 * static_cast<int64_t>(stored.size()) &&
             self.length == stored.size() && self.identity == 1.0,
         "a sequence aligns to itself end to end");

  std::string pattern = stored.substr(5, 45);
  pattern[10] = pattern[10] == 'A' ? 'C' : 'A';
  pattern[30] = pattern[30] == 'G' ? 'T' : 'G';
  Expect(ReferenceVerdict(ReferenceLocalAlign(stored, pattern)) ==
             Verdict::kHit,
         "a planted cut with two substitutions is a clear hit");
  Expect(ReferenceVerdict(ReferenceLocalAlign("ACGTACGTAC", "TTTTGGGGCC")) ==
             Verdict::kMiss,
         "unrelated short sequences are a clear miss");
  // A gapped near-threshold hit: 7 matches, a 3-column gap and 6 matches
  // make 16 columns at 13/16 identity and score 26 - 8 = 18. The program
  // accepts it, so the reference must not call it a miss.
  const std::string gapped_stored = "TTTTTTTTACGATCGGGGCATCATTTTTTTT";
  const std::string gapped_pattern = "ACGATCGCATCAT";
  const ReferenceAlignment gapped =
      ReferenceLocalAlign(gapped_stored, gapped_pattern);
  Expect(gapped.score == 18 && gapped.length == 16,
         "the gapped alignment is the best local alignment");
  auto program = align::Resembles(
      seq::NucleotideSequence::Dna(gapped_stored).value(),
      seq::NucleotideSequence::Dna(gapped_pattern).value());
  Expect(program.ok() && *program, "the program accepts the gapped hit");
  Expect(ReferenceVerdict(gapped) != Verdict::kMiss,
         "a gapped hit below 0.85 identity is not a clear miss");
  // IUPAC: N intersects every base, so it scores as a match.
  Expect(ReferenceLocalAlign("ACGNACGT", "ACGTACGT").score == 16,
         "an ambiguous base scores as a match");

  EXPECT_PASS(CheckVerdict(Verdict::kHit, true, "B0100001"));
  EXPECT_PASS(CheckVerdict(Verdict::kMiss, false, "B0100001"));
  EXPECT_PASS(CheckVerdict(Verdict::kUnclear, false, "B0100001"));
  EXPECT_FAIL(CheckVerdict(Verdict::kHit, false, "B0100001"));
  EXPECT_FAIL(CheckVerdict(Verdict::kMiss, true, "B0100001"));
}

void TestSimilarityResults() {
  const QueryResult find = Accessions({"B0100001", "B2100007"});
  EXPECT_PASS(CheckCountMatchesFind(Single(2), find));
  EXPECT_FAIL(CheckCountMatchesFind(Single(3), find));
  EXPECT_PASS(CheckHasAccession(find, "B2100007"));
  EXPECT_FAIL(CheckHasAccession(find, "B2100008"));
  EXPECT_PASS(CheckSameRows(find, find));
  QueryResult changed = find;
  changed.rows[1][1] = Datum::String("other org");
  EXPECT_FAIL(CheckSameRows(changed, find));
  QueryResult longer = find;
  longer.rows.push_back(find.rows[0]);
  EXPECT_FAIL(CheckSameRows(longer, find));
}

void TestRefreshResults() {
  EXPECT_PASS(CheckCount(Single(400), {398, 400, 401}));
  EXPECT_FAIL(CheckCount(Single(399), {398, 400, 401}));
  const std::vector<EntryState> sources = {{"B0100001", 2, "ACGT"},
                                           {"B1100001", 1, "GGCC"}};
  EXPECT_PASS(CheckEntries(sources, sources));
  auto stale = sources;
  stale[0].version = 1;
  EXPECT_FAIL(CheckEntries(stale, sources));
  auto mutated = sources;
  mutated[1].dna = "GGCA";
  EXPECT_FAIL(CheckEntries(mutated, sources));
  auto missing = sources;
  missing.pop_back();
  EXPECT_FAIL(CheckEntries(missing, sources));
}

}  // namespace
}  // namespace genalg::perfbench

int main() {
  using namespace genalg::perfbench;
  TestFeatures();
  TestGc();
  TestReferenceAlignment();
  TestSimilarityResults();
  TestRefreshResults();
  if (g_failures == 0) std::printf("perfbench checks: all cases passed\n");
  return g_failures == 0 ? 0 : 1;
}
