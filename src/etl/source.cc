#include "etl/source.h"

#include <cstdio>
#include <cstdlib>

#include "base/strings.h"
#include "formats/genbank.h"
#include "formats/tree.h"
#include "gdt/feature.h"
#include "seq/nucleotide_sequence.h"

namespace genalg::etl {

using formats::SequenceRecord;

namespace {

// Relational rows carry features as `;`-separated
// id,kind,begin,end,strand,confidence tuples — every feature field the
// warehouse stores. Confidence is written to 17 significant digits, so it
// parses back to the same double.
std::string FormatFeatures(const std::vector<gdt::Feature>& features) {
  std::string out;
  for (const gdt::Feature& f : features) {
    if (!out.empty()) out += ';';
    char confidence[32];
    std::snprintf(confidence, sizeof(confidence), "%.17g", f.confidence);
    out += f.id + "," + std::string(gdt::FeatureKindToString(f.kind)) + "," +
           std::to_string(f.span.begin) + "," + std::to_string(f.span.end) +
           "," +
           (f.strand == gdt::Strand::kReverse   ? "-"
            : f.strand == gdt::Strand::kUnknown ? "?"
                                                : "+") +
           "," + confidence;
  }
  return out;
}

Result<std::vector<gdt::Feature>> ParseFeatures(const std::string& text) {
  std::vector<gdt::Feature> out;
  if (text.empty()) return out;
  for (const std::string& item : Split(text, ';')) {
    auto fields = Split(item, ',');
    if (fields.size() != 6) {
      return Status::Corruption("malformed relational feature: " + item);
    }
    gdt::Feature f;
    f.id = fields[0];
    f.kind = gdt::FeatureKindFromString(fields[1]);
    char* begin_end = nullptr;
    char* end_end = nullptr;
    char* confidence_end = nullptr;
    f.span.begin = std::strtoull(fields[2].c_str(), &begin_end, 10);
    f.span.end = std::strtoull(fields[3].c_str(), &end_end, 10);
    f.confidence = std::strtod(fields[5].c_str(), &confidence_end);
    if (fields[2].empty() || *begin_end != '\0' || fields[3].empty() ||
        *end_end != '\0' || fields[5].empty() || *confidence_end != '\0') {
      return Status::Corruption("malformed relational feature: " + item);
    }
    if (fields[4] == "+") {
      f.strand = gdt::Strand::kForward;
    } else if (fields[4] == "-") {
      f.strand = gdt::Strand::kReverse;
    } else if (fields[4] == "?") {
      f.strand = gdt::Strand::kUnknown;
    } else {
      return Status::Corruption("malformed relational feature: " + item);
    }
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace

std::string_view RepresentationToString(SourceRepresentation r) {
  switch (r) {
    case SourceRepresentation::kRelational: return "relational";
    case SourceRepresentation::kFlatFile: return "flat file";
    case SourceRepresentation::kHierarchical: return "hierarchical";
  }
  return "?";
}

std::string_view CapabilityToString(SourceCapability c) {
  switch (c) {
    case SourceCapability::kActive: return "active";
    case SourceCapability::kLogged: return "logged";
    case SourceCapability::kQueryable: return "queryable";
    case SourceCapability::kNonQueryable: return "non-queryable";
  }
  return "?";
}

SyntheticSource::SyntheticSource(std::string name,
                                 SourceRepresentation representation,
                                 SourceCapability capability, uint64_t seed)
    : name_(std::move(name)),
      representation_(representation),
      capability_(capability),
      rng_(seed) {}

Status SyntheticSource::Populate(size_t n, size_t sequence_length,
                                 double noise_rate) {
  for (size_t i = 0; i < n; ++i) {
    SequenceRecord record;
    record.accession =
        name_ + std::to_string(100000 + next_accession_++);
    record.version = 1;
    record.source_db = name_;
    record.organism = rng_.Bernoulli(0.5) ? "Synthetica exempli"
                                          : "Synthetica altera";
    record.description = "synthetic entry " + record.accession;
    size_t len = sequence_length / 2 + rng_.Uniform(sequence_length);
    std::string dna = rng_.RandomDna(len);
    bool noisy = rng_.Bernoulli(noise_rate);
    if (noisy && len > 20) {
      // Inject an ambiguous run — the B10 noise a warehouse must detect.
      size_t start = rng_.Uniform(len - 10);
      for (size_t j = 0; j < 5 + rng_.Uniform(5); ++j) dna[start + j] = 'N';
      record.attributes["quality"] = "low";
    }
    auto sequence = seq::NucleotideSequence::Dna(dna);
    GENALG_RETURN_IF_ERROR(sequence.status());
    record.sequence = std::move(*sequence);
    // A gene feature somewhere in the middle.
    if (len > 60) {
      gdt::Feature gene;
      gene.id = record.accession + ".g1";
      gene.kind = gdt::FeatureKind::kGene;
      uint64_t begin = 10 + rng_.Uniform(len / 4);
      gene.span = {begin, begin + 30 + rng_.Uniform(len / 2)};
      if (gene.span.end > len) gene.span.end = len;
      gene.strand = rng_.Bernoulli(0.5) ? gdt::Strand::kForward
                                        : gdt::Strand::kReverse;
      gene.confidence = noisy ? 0.6 : 0.95;
      record.features.push_back(std::move(gene));
    }
    GENALG_RETURN_IF_ERROR(AddRecord(std::move(record)));
  }
  return Status::OK();
}

void SyntheticSource::Emit(SourceChange change) {
  change.lsn = ++lsn_;
  if (capability_ == SourceCapability::kLogged) {
    log_.push_back(change);
  }
  if (capability_ == SourceCapability::kActive) {
    for (const auto& callback : subscribers_) callback(change);
  }
}

Status SyntheticSource::AddRecord(SequenceRecord record) {
  auto it = records_.find(record.accession);
  if (it != records_.end()) {
    return Status::AlreadyExists("accession '" + record.accession +
                                 "' exists; use UpdateRecord");
  }
  SourceChange change;
  change.kind = SourceChange::Kind::kInsert;
  change.accession = record.accession;
  change.after = record;
  records_.emplace(record.accession, std::move(record));
  Emit(std::move(change));
  return Status::OK();
}

Status SyntheticSource::UpdateRecord(const SequenceRecord& record) {
  auto it = records_.find(record.accession);
  if (it == records_.end()) {
    return Status::NotFound("accession '" + record.accession + "'");
  }
  SourceChange change;
  change.kind = SourceChange::Kind::kUpdate;
  change.accession = record.accession;
  change.before = it->second;
  change.after = record;
  it->second = record;
  it->second.version = change.before->version + 1;
  change.after->version = it->second.version;
  Emit(std::move(change));
  return Status::OK();
}

Status SyntheticSource::DeleteRecord(const std::string& accession) {
  auto it = records_.find(accession);
  if (it == records_.end()) {
    return Status::NotFound("accession '" + accession + "'");
  }
  SourceChange change;
  change.kind = SourceChange::Kind::kDelete;
  change.accession = accession;
  change.before = it->second;
  records_.erase(it);
  Emit(std::move(change));
  return Status::OK();
}

Status SyntheticSource::EvolveStep(double p_update, double p_churn) {
  // Collect first; mutating while iterating invalidates iterators.
  std::vector<std::string> to_update;
  for (const auto& [accession, record] : records_) {
    if (rng_.Bernoulli(p_update)) to_update.push_back(accession);
  }
  for (const std::string& accession : to_update) {
    SequenceRecord updated = records_.at(accession);
    std::string dna = updated.sequence.ToString();
    size_t n_mutations = 1 + rng_.Uniform(5);
    for (size_t i = 0; i < n_mutations && !dna.empty(); ++i) {
      dna[rng_.Uniform(dna.size())] = rng_.Pick("ACGT");
    }
    auto sequence = seq::NucleotideSequence::Dna(dna);
    GENALG_RETURN_IF_ERROR(sequence.status());
    updated.sequence = std::move(*sequence);
    GENALG_RETURN_IF_ERROR(UpdateRecord(updated));
  }
  if (p_churn > 0 && rng_.Bernoulli(p_churn)) {
    if (!records_.empty() && rng_.Bernoulli(0.5)) {
      // Delete a random record.
      size_t idx = rng_.Uniform(records_.size());
      auto it = records_.begin();
      std::advance(it, idx);
      GENALG_RETURN_IF_ERROR(DeleteRecord(it->first));
    } else {
      GENALG_RETURN_IF_ERROR(Populate(1, 200, 0.2));
    }
  }
  return Status::OK();
}

Status SyntheticSource::Subscribe(
    std::function<void(const SourceChange&)> callback) {
  if (capability_ != SourceCapability::kActive) {
    return Status::FailedPrecondition(
        name_ + " is not an active source; no trigger support");
  }
  subscribers_.push_back(std::move(callback));
  return Status::OK();
}

Result<std::vector<SourceChange>> SyntheticSource::ReadLog(
    uint64_t since) const {
  if (capability_ != SourceCapability::kLogged) {
    return Status::FailedPrecondition(name_ +
                                      " does not expose a change log");
  }
  std::vector<SourceChange> out;
  for (const SourceChange& change : log_) {
    if (change.lsn > since) out.push_back(change);
  }
  return out;
}

Result<SequenceRecord> SyntheticSource::Query(
    const std::string& accession) const {
  if (capability_ != SourceCapability::kQueryable) {
    return Status::FailedPrecondition(name_ + " is not queryable");
  }
  auto it = records_.find(accession);
  if (it == records_.end()) {
    return Status::NotFound("accession '" + accession + "'");
  }
  return it->second;
}

Result<std::vector<std::pair<std::string, int>>>
SyntheticSource::ListVersions() const {
  if (capability_ != SourceCapability::kQueryable) {
    return Status::FailedPrecondition(name_ + " is not queryable");
  }
  std::vector<std::pair<std::string, int>> out;
  out.reserve(records_.size());
  for (const auto& [accession, record] : records_) {
    out.emplace_back(accession, record.version);
  }
  return out;
}

Result<std::string> SyntheticSource::Snapshot() const {
  std::vector<SequenceRecord> records;
  records.reserve(records_.size());
  for (const auto& [accession, record] : records_) {
    records.push_back(record);
  }
  switch (representation_) {
    case SourceRepresentation::kFlatFile:
      return formats::WriteGenBank(records);
    case SourceRepresentation::kHierarchical: {
      std::vector<formats::TreeNode> roots;
      roots.reserve(records.size());
      for (const SequenceRecord& r : records) {
        roots.push_back(formats::RecordToTree(r));
      }
      return formats::WriteTree(roots);
    }
    case SourceRepresentation::kRelational: {
      // key|version|organism|description|sequence|source|features — one
      // row per line.
      std::string out;
      for (const SequenceRecord& r : records) {
        out += r.accession + "|" + std::to_string(r.version) + "|" +
               r.organism + "|" + r.description + "|" +
               r.sequence.ToString() + "|" + r.source_db + "|" +
               FormatFeatures(r.features) + "\n";
      }
      return out;
    }
  }
  return Status::InvalidArgument("unknown representation");
}

Result<std::vector<SequenceRecord>> SyntheticSource::ParseSnapshot(
    SourceRepresentation representation, const std::string& text) {
  switch (representation) {
    case SourceRepresentation::kFlatFile:
      return formats::ParseGenBank(text);
    case SourceRepresentation::kHierarchical: {
      GENALG_ASSIGN_OR_RETURN(std::vector<formats::TreeNode> roots,
                              formats::ParseTree(text));
      std::vector<SequenceRecord> out;
      for (const formats::TreeNode& root : roots) {
        GENALG_ASSIGN_OR_RETURN(SequenceRecord record,
                                formats::TreeToRecord(root));
        out.push_back(std::move(record));
      }
      return out;
    }
    case SourceRepresentation::kRelational: {
      std::vector<SequenceRecord> out;
      for (const std::string& line : Split(text, '\n')) {
        if (line.empty()) continue;
        auto fields = Split(line, '|');
        if (fields.size() != 7) {
          return Status::Corruption("malformed relational row: " + line);
        }
        SequenceRecord record;
        record.accession = fields[0];
        record.version = std::atoi(fields[1].c_str());
        record.organism = fields[2];
        record.description = fields[3];
        GENALG_ASSIGN_OR_RETURN(record.sequence,
                                seq::NucleotideSequence::Dna(fields[4]));
        record.source_db = fields[5];
        GENALG_ASSIGN_OR_RETURN(record.features, ParseFeatures(fields[6]));
        out.push_back(std::move(record));
      }
      return out;
    }
  }
  return Status::InvalidArgument("unknown representation");
}

std::vector<SequenceRecord> SyntheticSource::AllRecords() const {
  std::vector<SequenceRecord> out;
  out.reserve(records_.size());
  for (const auto& [accession, record] : records_) out.push_back(record);
  return out;
}

}  // namespace genalg::etl
