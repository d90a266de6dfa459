#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/signature.h"
#include "align/aligner.h"
#include "base/rng.h"
#include "bql/bql.h"
#include "bql/render.h"
#include "etl/pipeline.h"
#include "etl/source.h"
#include "etl/warehouse.h"
#include "mediator/mediator.h"
#include "seq/nucleotide_sequence.h"
#include "udb/adapter.h"
#include "udb/database.h"

namespace genalg {
namespace {

using etl::SourceCapability;
using etl::SourceRepresentation;
using etl::SyntheticSource;
using formats::SequenceRecord;
using seq::NucleotideSequence;

SequenceRecord MakeRecord(const std::string& accession,
                          const std::string& dna, const std::string& source,
                          const std::string& organism) {
  SequenceRecord r;
  r.accession = accession;
  r.source_db = source;
  r.organism = organism;
  r.sequence = NucleotideSequence::Dna(dna).value();
  return r;
}

// ---------------------------------------------------------------- Mediator.

class MediatorTest : public ::testing::Test {
 protected:
  MediatorTest()
      : src_a_("MDA", SourceRepresentation::kFlatFile,
               SourceCapability::kQueryable, 61),
        src_b_("MDB", SourceRepresentation::kHierarchical,
               SourceCapability::kNonQueryable, 67) {}

  void SetUp() override {
    ASSERT_TRUE(src_a_.Populate(10, 150).ok());
    ASSERT_TRUE(src_b_.Populate(10, 150).ok());
    mediator_.AddSource(&src_a_);
    mediator_.AddSource(&src_b_);
  }

  SyntheticSource src_a_;
  SyntheticSource src_b_;
  mediator::Mediator mediator_;
};

TEST_F(MediatorTest, FindByOrganismSearchesAllSources) {
  auto hits = mediator_.FindByOrganism("Synthetica exempli");
  ASSERT_TRUE(hits.ok());
  size_t expected = 0;
  for (const auto& r : src_a_.AllRecords()) {
    if (r.organism == "Synthetica exempli") ++expected;
  }
  for (const auto& r : src_b_.AllRecords()) {
    if (r.organism == "Synthetica exempli") ++expected;
  }
  EXPECT_EQ(hits->size(), expected);
  // Every query ships everything: 20 records moved.
  EXPECT_EQ(mediator_.total_records_shipped(), 20u);
  // A second identical query ships everything again (no materialization).
  ASSERT_TRUE(mediator_.FindByOrganism("Synthetica exempli").ok());
  EXPECT_EQ(mediator_.total_records_shipped(), 40u);
}

TEST_F(MediatorTest, FindContaining) {
  SequenceRecord target = MakeRecord(
      "MDTARGET", "GGGGATTGCCATAGGGGATTGCCATAGGGG", "MDA", "Synthetica");
  ASSERT_TRUE(src_a_.AddRecord(target).ok());
  auto pattern = NucleotideSequence::Dna("ATTGCCATA").value();
  auto hits = mediator_.FindContaining(pattern);
  ASSERT_TRUE(hits.ok());
  bool found = false;
  for (const auto& r : *hits) {
    if (r.accession == "MDTARGET") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(MediatorTest, SimilarToRanksbyScore) {
  Rng rng(71);
  std::string base = rng.RandomDna(120);
  ASSERT_TRUE(
      src_a_.AddRecord(MakeRecord("EXACT", base, "MDA", "X")).ok());
  std::string noisy = base;
  for (size_t i = 0; i < noisy.size(); i += 9) noisy[i] = 'A';
  ASSERT_TRUE(
      src_b_.AddRecord(MakeRecord("NOISY", noisy, "MDB", "X")).ok());
  auto query = NucleotideSequence::Dna(base).value();
  auto hits = mediator_.SimilarTo(query, 0.7, 40);
  ASSERT_TRUE(hits.ok());
  ASSERT_GE(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].record.accession, "EXACT");
  EXPECT_DOUBLE_EQ((*hits)[0].identity, 1.0);
  EXPECT_GE((*hits)[0].score, (*hits)[1].score);
}

TEST_F(MediatorTest, ConflictsAreExposedNotResolved) {
  // The same accession with different content in two sources: the
  // mediator returns both and picks arbitrarily for point lookups (C8).
  ASSERT_TRUE(src_a_
                  .AddRecord(MakeRecord("CONFLICT9",
                                        "AAAACCCCGGGGTTTTAAAACCCCGGGGTTTT",
                                        "MDA", "X"))
                  .ok());
  ASSERT_TRUE(src_b_
                  .AddRecord(MakeRecord("CONFLICT9",
                                        "TTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA",
                                        "MDB", "X"))
                  .ok());
  auto versions = mediator_.GetAllVersions("CONFLICT9");
  ASSERT_TRUE(versions.ok());
  EXPECT_EQ(versions->size(), 2u);
  EXPECT_NE((*versions)[0].sequence, (*versions)[1].sequence);
  auto arbitrary = mediator_.GetByAccession("CONFLICT9");
  ASSERT_TRUE(arbitrary.ok());
  EXPECT_TRUE(mediator_.GetByAccession("NOPE").status().IsNotFound());
}

// -------------------------------------------------------------------- BQL.

TEST(BqlParseTest, CompilesFindWithFilters) {
  auto sql = bql::TranslateBql(
      "find sequences from \"Synthetica exempli\" containing ATTGCCATA "
      "first 5");
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(*sql,
            "SELECT accession, organism, description, confidence FROM "
            "sequences WHERE organism = 'Synthetica exempli' AND "
            "contains(seq, parse_dna('ATTGCCATA')) ORDER BY accession "
            "LIMIT 5");
}

TEST(BqlParseTest, CompilesCountAndShow) {
  EXPECT_EQ(*bql::TranslateBql("count sequences with gc above 0.5"),
            "SELECT count(*) FROM sequences WHERE gc_content(seq) > "
            "0.500000");
  auto shown = bql::TranslateBql("show length of sequences");
  EXPECT_EQ(*shown,
            "SELECT accession, length(seq) FROM sequences ORDER BY "
            "accession");
  auto features = bql::TranslateBql("find features of ACC1");
  EXPECT_EQ(*features,
            "SELECT accession, fid, kind, begin, fin, strand, confidence "
            "FROM features WHERE accession = 'ACC1' ORDER BY accession");
}

TEST(BqlParseTest, FeatureQueriesValidateClauses) {
  // Sequence-only clauses and metrics are rejected for features at parse
  // time, not as a runtime column error.
  EXPECT_FALSE(bql::ParseBql("find features with gc above 0.5").ok());
  EXPECT_FALSE(bql::ParseBql("find features with length above 9").ok());
  EXPECT_FALSE(bql::ParseBql("show gc of features").ok());
  EXPECT_FALSE(bql::ParseBql("show length of features").ok());
  EXPECT_TRUE(bql::ParseBql("show confidence of features").ok());
  EXPECT_TRUE(
      bql::ParseBql("find features of ACC1 with confidence above 0.5").ok());
}

TEST(BqlParseTest, RejectsMalformedQueries) {
  EXPECT_FALSE(bql::ParseBql("").ok());
  EXPECT_FALSE(bql::ParseBql("destroy sequences").ok());
  EXPECT_FALSE(bql::ParseBql("find proteins").ok());
  EXPECT_FALSE(bql::ParseBql("find sequences containing XYZ123").ok());
  EXPECT_FALSE(bql::ParseBql("find sequences with gc sideways 3").ok());
  EXPECT_FALSE(bql::ParseBql("show vibes of sequences").ok());
  EXPECT_FALSE(bql::ParseBql("find sequences from").ok());
  EXPECT_FALSE(bql::ParseBql("count features containing ACGT").ok());
}

// ------------------------------------------------- BQL render round-trip.

// Parse → render → re-parse must reproduce the AST exactly. Together with
// the randomized generator below this pins RenderBql as a true inverse of
// ParseBql over the whole grammar.
TEST(BqlRoundTripTest, CanonicalQueriesSurviveParseRenderParse) {
  const char* kQueries[] = {
      "find sequences",
      "count sequences",
      "find features",
      "count features",
      "show gc of sequences",
      "show length of sequences",
      "show confidence of sequences",
      "show organism of sequences",
      "show confidence of features",
      "find sequences from \"Synthetica exempli\"",
      "find sequences from Synthetica",
      "find sequences containing ATTGCCATA",
      "find sequences resembling ACGTACGTACGTACGT",
      "find features of SRC100001",
      "find sequences of B1",
      "count sequences with gc above 0.5",
      "count sequences with gc below 0.25 with length above 100",
      "find sequences with confidence below 0.9 first 7",
      "find features of ACC1 with confidence above 0.5",
      "show gc of sequences resembling ACGT first 3",
      "find sequences from \"Synthetica exempli\" containing ATTGCCATA "
      "with gc above 0.4 with length below 5000 with confidence above 0.1 "
      "first 10",
  };
  for (const char* text : kQueries) {
    auto parsed = bql::ParseBql(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    std::string rendered = bql::RenderBql(*parsed);
    auto reparsed = bql::ParseBql(rendered);
    ASSERT_TRUE(reparsed.ok())
        << text << " rendered to unparseable '" << rendered
        << "': " << reparsed.status().ToString();
    EXPECT_EQ(*reparsed, *parsed)
        << text << " round-tripped through '" << rendered << "'";
    // Canonical output is a fixed point: rendering the re-parsed query
    // reproduces the same text.
    EXPECT_EQ(bql::RenderBql(*reparsed), rendered);
  }
}

// Builds a random BqlQuery that respects the parser's validation rules:
// features take no containing/resembling/gc/length clauses, and
// show+features is only legal with the confidence metric.
bql::BqlQuery RandomBqlQuery(Rng* rng) {
  bql::BqlQuery q;
  q.action = static_cast<bql::BqlQuery::Action>(rng->Uniform(3));
  q.target = rng->Bernoulli(0.5) ? bql::BqlQuery::Target::kSequences
                                 : bql::BqlQuery::Target::kFeatures;
  bool features = q.target == bql::BqlQuery::Target::kFeatures;
  if (q.action == bql::BqlQuery::Action::kShow) {
    q.metric = features ? bql::BqlQuery::Metric::kConfidence
                        : static_cast<bql::BqlQuery::Metric>(rng->Uniform(4));
  }
  if (rng->Bernoulli(0.5)) {
    // Multi-word organisms exercise the quoted-phrase tokenizer path.
    q.organism = rng->RandomString(1 + rng->Uniform(8),
                                   "abcdefghijklmnopqrstuvwxyz");
    if (rng->Bernoulli(0.5)) {
      *q.organism += ' ' + rng->RandomString(1 + rng->Uniform(8),
                                             "abcdefghijklmnopqrstuvwxyz");
    }
  }
  if (!features && rng->Bernoulli(0.4)) {
    q.containing = rng->RandomDna(1 + rng->Uniform(24));
  }
  if (!features && rng->Bernoulli(0.4)) {
    q.resembling = rng->RandomDna(1 + rng->Uniform(24));
  }
  if (rng->Bernoulli(0.4)) {
    q.accession = rng->RandomString(
        4 + rng->Uniform(8), "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789");
  }
  auto random_bound = [&]() {
    bql::BqlQuery::Bound b;
    b.above = rng->Bernoulli(0.5);
    // Mix of clean fractions and full-precision doubles so the number
    // renderer is exercised on values that need many digits.
    b.value = rng->Bernoulli(0.5)
                  ? static_cast<double>(rng->Uniform(1000)) / 100.0
                  : rng->NextDouble() * 1e6;
    return b;
  };
  if (!features && rng->Bernoulli(0.4)) q.gc_bound = random_bound();
  if (!features && rng->Bernoulli(0.4)) q.length_bound = random_bound();
  if (rng->Bernoulli(0.4)) q.confidence_bound = random_bound();
  if (rng->Bernoulli(0.4)) q.limit = static_cast<int64_t>(rng->Uniform(1000));
  return q;
}

class BqlRoundTripFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BqlRoundTripFuzzTest, RandomValidAstsSurviveRenderParse) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 0x9E3779B9u + 1);
  for (int trial = 0; trial < 200; ++trial) {
    bql::BqlQuery q = RandomBqlQuery(&rng);
    std::string rendered = bql::RenderBql(q);
    auto reparsed = bql::ParseBql(rendered);
    ASSERT_TRUE(reparsed.ok())
        << "'" << rendered << "': " << reparsed.status().ToString();
    EXPECT_EQ(*reparsed, q) << "round-trip mismatch via '" << rendered << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BqlRoundTripFuzzTest, ::testing::Range(1, 7));

class BqlEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(algebra::RegisterStandardAlgebra(&algebra_).ok());
    adapter_ = std::make_unique<udb::Adapter>(&algebra_);
    ASSERT_TRUE(udb::RegisterStandardUdts(adapter_.get()).ok());
    db_ = std::make_unique<udb::Database>(adapter_.get());
    warehouse_ = std::make_unique<etl::Warehouse>(db_.get());
    ASSERT_TRUE(warehouse_->InitSchema().ok());
    ASSERT_TRUE(warehouse_->LoadBatch({
        MakeRecord("B1", "GGGGCCCCGGGGCCCCATTGCCATAGGGGCCCC", "DB",
                   "Synthetica exempli"),
        MakeRecord("B2", "AATTAATTAATTAATTAATTAATTAATTAATT", "DB",
                   "Synthetica exempli"),
        MakeRecord("B3", "ACGTACGTACGTACGTACGTACGTACGTACGT", "DB",
                   "Synthetica altera"),
    }).ok());
  }

  algebra::SignatureRegistry algebra_;
  std::unique_ptr<udb::Adapter> adapter_;
  std::unique_ptr<udb::Database> db_;
  std::unique_ptr<etl::Warehouse> warehouse_;
};

TEST_F(BqlEndToEndTest, BiologistQueriesRunAgainstWarehouse) {
  auto count = bql::RunBql(db_.get(), "count sequences");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt().value(), 3);

  auto high_gc = bql::RunBql(db_.get(),
                             "count sequences with gc above 0.6");
  EXPECT_EQ(high_gc->rows[0][0].AsInt().value(), 1);

  auto containing = bql::RunBql(
      db_.get(), "find sequences containing ATTGCCATA");
  ASSERT_TRUE(containing.ok());
  ASSERT_EQ(containing->rows.size(), 1u);
  EXPECT_EQ(containing->rows[0][0].AsString().value(), "B1");

  auto organisms = bql::RunBql(
      db_.get(),
      "find sequences from \"Synthetica exempli\" with gc below 0.2");
  ASSERT_TRUE(organisms.ok());
  ASSERT_EQ(organisms->rows.size(), 1u);
  EXPECT_EQ(organisms->rows[0][0].AsString().value(), "B2");

  auto metric = bql::RunBql(db_.get(), "show gc of sequences first 2");
  ASSERT_TRUE(metric.ok());
  EXPECT_EQ(metric->rows.size(), 2u);

  auto resembling = bql::RunBql(
      db_.get(),
      "count sequences resembling ACGTACGTACGTACGTACGTACGTACGTACGT");
  ASSERT_TRUE(resembling.ok());
  EXPECT_GE(resembling->rows[0][0].AsInt().value(), 1);
}

// ------------------------------------------------ Renderers (Sec. 6.4).

TEST(RenderTest, FeatureMapShowsTracksAndStrands) {
  std::vector<gdt::Feature> features;
  features.push_back(gdt::Feature{"G1", gdt::FeatureKind::kGene,
                                  {100, 500}, gdt::Strand::kForward,
                                  1.0, {}});
  features.push_back(gdt::Feature{"E1", gdt::FeatureKind::kExon,
                                  {600, 900}, gdt::Strand::kReverse,
                                  0.7, {}});
  std::string map = bql::RenderFeatureMap(1000, features, 50);
  EXPECT_NE(map.find("gene G1"), std::string::npos);
  EXPECT_NE(map.find("exon E1 (0.70)"), std::string::npos);
  EXPECT_NE(map.find('>'), std::string::npos);  // Forward arrow.
  EXPECT_NE(map.find('<'), std::string::npos);  // Reverse arrow.
  EXPECT_NE(map.find("1000"), std::string::npos);  // Ruler end label.
  // Degenerate inputs.
  EXPECT_EQ(bql::RenderFeatureMap(0, features), "(empty sequence)\n");
  // Features past the end are clipped, not fatal.
  features.push_back(gdt::Feature{"X", gdt::FeatureKind::kOther,
                                  {5000, 6000}, gdt::Strand::kForward,
                                  1.0, {}});
  EXPECT_FALSE(bql::RenderFeatureMap(1000, features, 50).empty());
}

TEST(RenderTest, AlignmentBlocksWithMatchBar) {
  auto alignment = align::GlobalAlign(
      "ACGTACGTACGT", "ACGTAAGTACGT",
      align::SubstitutionMatrix::Nucleotide(), align::GapPenalties{-4, -1});
  ASSERT_TRUE(alignment.ok());
  std::string text = bql::RenderAlignment(*alignment, 8);
  // Multi-block output with bars and a footer.
  EXPECT_NE(text.find('|'), std::string::npos);
  EXPECT_NE(text.find('.'), std::string::npos);  // The substitution.
  EXPECT_NE(text.find("identity"), std::string::npos);
  align::Alignment empty;
  EXPECT_EQ(bql::RenderAlignment(empty), "(empty alignment)\n");
}

TEST(RenderTest, HistogramScalesBars) {
  std::string chart = bql::RenderHistogram(
      {{"AAA", 10.0}, {"CCC", 5.0}, {"G", 0.0}}, 20);
  // The max bar is full width, the half bar half of it.
  EXPECT_NE(chart.find("AAA | ####################"), std::string::npos);
  EXPECT_NE(chart.find("CCC | ##########"), std::string::npos);
  EXPECT_NE(chart.find("G   | "), std::string::npos);
  EXPECT_EQ(bql::RenderHistogram({}), "(no data)\n");
}

// ------------------------------------------------------ PROFILE queries.

// The trimmed operator names of a PROFILE result, in output order.
std::vector<std::string> ProfileOperators(const udb::QueryResult& profile) {
  std::vector<std::string> ops;
  for (const auto& row : profile.rows) {
    std::string op = row[0].AsString().value();
    ops.push_back(op.substr(op.find_first_not_of(' ')));
  }
  return ops;
}

size_t CountOperator(const std::vector<std::string>& ops,
                     const std::string& name) {
  size_t n = 0;
  for (const std::string& op : ops) {
    if (op == name) ++n;
  }
  return n;
}

TEST_F(BqlEndToEndTest, ProfileRowCountMatchesUnprofiledQuery) {
  const std::string query = "find sequences from \"Synthetica exempli\"";
  auto plain = bql::RunBql(db_.get(), query);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->rows.size(), 2u);

  auto profile = bql::RunBql(db_.get(), "profile " + query);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_EQ(profile->columns,
            (std::vector<std::string>{"operator", "time_us", "rows",
                                      "detail"}));
  EXPECT_EQ(profile->message, "profiled: 2 result rows");

  // The "execute" root row carries the result-row count of the profiled
  // query, which must equal the unprofiled run's.
  ASSERT_FALSE(profile->rows.empty());
  EXPECT_EQ(profile->rows[0][0].AsString().value(), "execute");
  EXPECT_EQ(profile->rows[0][2].AsInt().value(),
            static_cast<int64_t>(plain->rows.size()));
}

TEST_F(BqlEndToEndTest, ProfileListsEveryPlanOperatorExactlyOnce) {
  // A query that exercises the whole operator chain: WHERE (filter),
  // projection, ORDER BY (sort) from the BQL translation, and a LIMIT
  // that actually truncates.
  auto profile = bql::RunBql(
      db_.get(),
      "profile find sequences from \"Synthetica exempli\" first 1");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::vector<std::string> ops = ProfileOperators(*profile);
  for (const char* op : {"execute", "parse", "bind", "scan", "filter",
                         "project", "sort", "limit"}) {
    EXPECT_EQ(CountOperator(ops, op), 1u) << "operator " << op;
  }
  // One table, so one scan; no aggregation or DISTINCT in this plan.
  EXPECT_EQ(CountOperator(ops, "aggregate"), 0u);
  EXPECT_EQ(CountOperator(ops, "distinct"), 0u);

  // An aggregate plan swaps project for aggregate.
  auto counted = bql::RunBql(db_.get(), "profile count sequences");
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  std::vector<std::string> count_ops = ProfileOperators(*counted);
  EXPECT_EQ(CountOperator(count_ops, "aggregate"), 1u);
  EXPECT_EQ(CountOperator(count_ops, "project"), 0u);
  EXPECT_EQ(CountOperator(count_ops, "execute"), 1u);
}

TEST_F(BqlEndToEndTest, ProfileOperatorTimesNestUnderExecute) {
  auto profile = bql::RunBql(
      db_.get(), "profile find sequences from \"Synthetica exempli\"");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  ASSERT_FALSE(profile->rows.empty());
  double execute_us = profile->rows[0][1].AsReal().value();
  EXPECT_GT(execute_us, 0.0);
  // Direct children (indented two spaces) are disjoint phases of the
  // root, so their times sum to at most the root's.
  double child_sum_us = 0.0;
  for (size_t i = 1; i < profile->rows.size(); ++i) {
    std::string op = profile->rows[i][0].AsString().value();
    bool direct_child = op.size() > 2 && op[0] == ' ' && op[1] == ' ' &&
                        op[2] != ' ';
    if (direct_child) {
      child_sum_us += profile->rows[i][1].AsReal().value();
    }
  }
  EXPECT_LE(child_sum_us, execute_us);
}

// ------------------------- Warehouse vs mediator agreement (Figure 1/3).

TEST_F(BqlEndToEndTest, WarehouseAndMediatorAgreeOnContains) {
  // The same question answered by both architectures must match —
  // performance differs (see bench_fig1), semantics must not.
  SyntheticSource source("AGR", SourceRepresentation::kFlatFile,
                         SourceCapability::kQueryable, 73);
  ASSERT_TRUE(source
                  .AddRecord(MakeRecord(
                      "AGR1", "GGGGCCCCGGGGCCCCATTGCCATAGGGGCCCC", "AGR",
                      "Synthetica exempli"))
                  .ok());
  ASSERT_TRUE(source
                  .AddRecord(MakeRecord(
                      "AGR2", "AATTAATTAATTAATTAATTAATTAATTAATT", "AGR",
                      "Synthetica exempli"))
                  .ok());
  mediator::Mediator mediator;
  mediator.AddSource(&source);
  auto pattern = NucleotideSequence::Dna("ATTGCCATA").value();
  auto mediated = mediator.FindContaining(pattern);
  ASSERT_TRUE(mediated.ok());
  ASSERT_EQ(mediated->size(), 1u);
  EXPECT_EQ((*mediated)[0].accession, "AGR1");
  // Warehouse (loaded in SetUp) holds the equivalent B1 entry.
  auto warehoused = bql::RunBql(db_.get(),
                                "find sequences containing ATTGCCATA");
  ASSERT_EQ(warehoused->rows.size(), 1u);
}

TEST(WarehouseMediatorAgreementTest, ResemblingHitSetsMatch) {
  // BQL evaluates resembles(stored, pattern) and the mediator must too:
  // on tied best alignments the argument order decides the verdict. The
  // first pattern is such a tie — Resembles(B3100055, pattern) is false,
  // the swapped call true — so a query-first mediator returns B3100055
  // and BQL does not.
  algebra::SignatureRegistry algebra;
  ASSERT_TRUE(algebra::RegisterStandardAlgebra(&algebra).ok());
  udb::Adapter adapter(&algebra);
  ASSERT_TRUE(udb::RegisterStandardUdts(&adapter).ok());
  udb::Database db(&adapter);
  etl::Warehouse warehouse(&db);
  ASSERT_TRUE(warehouse.InitSchema().ok());
  SyntheticSource source("B3", SourceRepresentation::kFlatFile,
                         SourceCapability::kActive, 9003);
  ASSERT_TRUE(source.Populate(100, 500).ok());
  etl::EtlPipeline pipeline(&warehouse);
  ASSERT_TRUE(pipeline.AddSource(&source).ok());
  ASSERT_TRUE(pipeline.InitialLoad().ok());
  mediator::Mediator mediator;
  mediator.AddSource(&source);

  const std::string tied = "GTGAAGGTATTAAGCCTCAGGGTATCAGAGTCCCTGTAAC";
  std::string stored;
  for (const SequenceRecord& r : source.AllRecords()) {
    if (r.accession == "B3100055") stored = r.sequence.ToString();
  }
  ASSERT_FALSE(stored.empty());
  auto tied_seq = NucleotideSequence::Dna(tied).value();
  auto stored_seq = NucleotideSequence::Dna(stored).value();
  ASSERT_FALSE(align::Resembles(stored_seq, tied_seq).value());
  ASSERT_TRUE(align::Resembles(tied_seq, stored_seq).value());

  Rng rng(9003);
  std::vector<std::string> patterns = {tied};
  for (const SequenceRecord& r : source.AllRecords()) {
    if (patterns.size() == 6) break;
    std::string piece = r.sequence.ToString().substr(40, 45);
    for (char& c : piece) {
      if (rng.Bernoulli(0.15)) c = rng.Pick("ACGT");
    }
    patterns.push_back(piece);
  }
  patterns.push_back(rng.RandomDna(50));
  for (const std::string& pattern : patterns) {
    auto served =
        bql::RunBql(&db, "find sequences resembling " + pattern);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    std::set<std::string> warehoused;
    for (const udb::Row& row : served->rows) {
      warehoused.insert(row[0].AsString().value());
    }
    auto hits = mediator.SimilarTo(NucleotideSequence::Dna(pattern).value());
    ASSERT_TRUE(hits.ok());
    std::set<std::string> mediated;
    for (const auto& hit : *hits) mediated.insert(hit.record.accession);
    EXPECT_EQ(mediated, warehoused) << "pattern " << pattern;
  }
}

}  // namespace
}  // namespace genalg
