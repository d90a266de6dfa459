#include "mediator/mediator.h"

#include "align/aligner.h"
#include "gdt/ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace genalg::mediator {

using formats::SequenceRecord;

namespace {

struct MediatorMetrics {
  obs::Counter* queries;
  obs::Counter* records_shipped;
};

const MediatorMetrics& Metrics() {
  static const MediatorMetrics m = {
      obs::Registry::Global().GetCounter("mediator.queries"),
      obs::Registry::Global().GetCounter("mediator.records_shipped"),
  };
  return m;
}

}  // namespace

Result<std::vector<SequenceRecord>> SourceWrapper::ExtractAll() {
  std::vector<SequenceRecord> out;
  if (source_->capability() == etl::SourceCapability::kQueryable) {
    GENALG_ASSIGN_OR_RETURN(auto versions, source_->ListVersions());
    out.reserve(versions.size());
    for (const auto& [accession, version] : versions) {
      GENALG_ASSIGN_OR_RETURN(SequenceRecord record,
                              source_->Query(accession));
      out.push_back(std::move(record));
    }
  } else {
    // Everything else goes through a full dump + wrapper parse.
    GENALG_ASSIGN_OR_RETURN(std::string snapshot, source_->Snapshot());
    GENALG_ASSIGN_OR_RETURN(
        out, etl::SyntheticSource::ParseSnapshot(source_->representation(),
                                                 snapshot));
  }
  records_shipped_ += out.size();
  Metrics().records_shipped->Add(out.size());
  return out;
}

Result<std::optional<SequenceRecord>> SourceWrapper::FindByAccession(
    const std::string& accession) {
  if (source_->capability() == etl::SourceCapability::kQueryable) {
    auto record = source_->Query(accession);
    if (record.ok()) {
      ++records_shipped_;
      Metrics().records_shipped->Increment();
      return std::optional<SequenceRecord>(std::move(*record));
    }
    if (record.status().IsNotFound()) {
      return std::optional<SequenceRecord>();
    }
    return record.status();
  }
  GENALG_ASSIGN_OR_RETURN(std::vector<SequenceRecord> all, ExtractAll());
  for (SequenceRecord& record : all) {
    if (record.accession == accession) {
      return std::optional<SequenceRecord>(std::move(record));
    }
  }
  return std::optional<SequenceRecord>();
}

Result<std::vector<SequenceRecord>> Mediator::FindByOrganism(
    const std::string& organism) {
  Metrics().queries->Increment();
  std::vector<SequenceRecord> out;
  for (SourceWrapper& wrapper : wrappers_) {
    GENALG_ASSIGN_OR_RETURN(std::vector<SequenceRecord> shipped,
                            wrapper.ExtractAll());
    for (SequenceRecord& record : shipped) {
      if (record.organism == organism) out.push_back(std::move(record));
    }
  }
  return out;
}

Result<std::vector<SequenceRecord>> Mediator::FindContaining(
    const seq::NucleotideSequence& pattern) {
  Metrics().queries->Increment();
  std::vector<SequenceRecord> out;
  for (SourceWrapper& wrapper : wrappers_) {
    GENALG_ASSIGN_OR_RETURN(std::vector<SequenceRecord> shipped,
                            wrapper.ExtractAll());
    for (SequenceRecord& record : shipped) {
      if (gdt::Contains(record.sequence, pattern)) {
        out.push_back(std::move(record));
      }
    }
  }
  return out;
}

Result<std::vector<Mediator::SimilarityHit>> Mediator::SimilarTo(
    const seq::NucleotideSequence& query, double min_identity,
    size_t min_overlap) {
  Metrics().queries->Increment();
  obs::Span similar_span("mediator.similar_to");
  std::vector<SimilarityHit> hits;
  for (SourceWrapper& wrapper : wrappers_) {
    GENALG_ASSIGN_OR_RETURN(std::vector<SequenceRecord> shipped,
                            wrapper.ExtractAll());
    // Each shipped record is the stored side, as in BQL's
    // resembles(stored, pattern), so both routes break alignment ties
    // alike. Verification fans out over the global pool; hits are
    // collected in shipping order, so the result equals the serial loop.
    std::vector<std::pair<const seq::NucleotideSequence*,
                          const seq::NucleotideSequence*>>
        pairs;
    pairs.reserve(shipped.size());
    for (const SequenceRecord& record : shipped) {
      pairs.emplace_back(&record.sequence, &query);
    }
    GENALG_ASSIGN_OR_RETURN(
        std::vector<align::ResemblesVerdict> verdicts,
        align::BatchResembles(pairs, min_identity, min_overlap));
    for (size_t i = 0; i < shipped.size(); ++i) {
      if (!verdicts[i].hit) continue;
      hits.push_back(SimilarityHit{std::move(shipped[i]),
                                   verdicts[i].identity,
                                   verdicts[i].score});
    }
  }
  std::sort(hits.begin(), hits.end(),
            [](const SimilarityHit& a, const SimilarityHit& b) {
              return a.score > b.score;
            });
  similar_span.SetAttr("sources", static_cast<uint64_t>(wrappers_.size()));
  similar_span.SetAttr("rows", static_cast<uint64_t>(hits.size()));
  return hits;
}

Result<SequenceRecord> Mediator::GetByAccession(
    const std::string& accession) {
  Metrics().queries->Increment();
  for (SourceWrapper& wrapper : wrappers_) {
    GENALG_ASSIGN_OR_RETURN(std::optional<SequenceRecord> record,
                            wrapper.FindByAccession(accession));
    if (record.has_value()) return std::move(*record);
  }
  return Status::NotFound("no source holds accession '" + accession + "'");
}

Result<std::vector<SequenceRecord>> Mediator::GetAllVersions(
    const std::string& accession) {
  Metrics().queries->Increment();
  std::vector<SequenceRecord> out;
  for (SourceWrapper& wrapper : wrappers_) {
    GENALG_ASSIGN_OR_RETURN(std::optional<SequenceRecord> record,
                            wrapper.FindByAccession(accession));
    if (record.has_value()) out.push_back(std::move(*record));
  }
  return out;
}

uint64_t Mediator::total_records_shipped() const {
  uint64_t total = 0;
  for (const SourceWrapper& wrapper : wrappers_) {
    total += wrapper.records_shipped();
  }
  return total;
}

}  // namespace genalg::mediator
