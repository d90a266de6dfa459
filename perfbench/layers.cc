#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>

#include "align/aligner.h"
#include "bql/bql.h"
#include "index/kmer_index.h"
#include "mediator/mediator.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace genalg::perfbench {

namespace {

// Share of the run given to each of the untraced and traced windows; the
// rest goes to the layer probes.
constexpr double kWindowShare = 0.35;
constexpr size_t kPointProbes = 200;
constexpr size_t kCountProbes = 200;
constexpr size_t kScanProbes = 20;
constexpr size_t kSimilarProbes = 4;
constexpr size_t kPings = 300;
constexpr size_t kRefreshProbes = 10;

// Query classes the layer probes split by.
constexpr const char* kQueryClasses[] = {"point", "scan", "similar", "count"};

// Quantile of a registry histogram, at the midpoint of the bucket that
// holds it (the registry keeps 1-2-5 buckets, not samples).
double HistogramQuantile(const obs::HistogramData& h, double q) {
  if (h.count == 0) return 0;
  const double target = std::ceil(q * static_cast<double>(h.count));
  double seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    seen += static_cast<double>(h.buckets[i]);
    if (seen < target) continue;
    const double lo = i == 0 ? 0 : static_cast<double>(h.bounds[i - 1]);
    const double hi = i < h.bounds.size() ? static_cast<double>(h.bounds[i])
                                          : 2 * lo;
    return (lo + hi) / 2;
  }
  return static_cast<double>(h.bounds.back());
}

obs::HistogramData Histogram(const obs::MetricsSnapshot& delta,
                             const std::string& name) {
  auto it = delta.histograms.find(name);
  return it == delta.histograms.end() ? obs::HistogramData() : it->second;
}

// Keeps probe results observable so the calls are not optimised away.
volatile double g_sink = 0;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

template <typename F>
double MedianMicros(size_t reps, F&& call) {
  std::vector<double> samples;
  for (size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    call(r);
    samples.push_back(MicrosSince(start));
  }
  return Quantile(std::move(samples), 0.5);
}

// Self time of every operator row of a PROFILE result (its time minus
// that of its direct children), appended per operator name.
void AddSelfTimes(const udb::QueryResult& profile,
                  std::map<std::string, std::vector<double>>* out) {
  struct Op {
    std::string name;
    size_t depth;
    double time;
  };
  std::vector<Op> ops;
  for (const udb::Row& row : profile.rows) {
    const std::string label = row[0].AsString().value_or("");
    const size_t indent = label.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    ops.push_back({label.substr(indent), indent / 2,
                   row[1].AsReal().value_or(0)});
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    double self = ops[i].time;
    for (size_t j = i + 1; j < ops.size() && ops[j].depth > ops[i].depth;
         ++j) {
      if (ops[j].depth == ops[i].depth + 1) self -= ops[j].time;
    }
    (*out)[ops[i].name].push_back(self);
  }
}

double OperatorMedian(const std::map<std::string, std::vector<double>>& self,
                      const std::string& op) {
  auto it = self.find(op);
  return it == self.end() ? 0 : Quantile(it->second, 0.5);
}

// One query class probed alone: served, in-process, compiled, executed,
// profiled, and its result page encoded and decoded.
struct ClassProbe {
  double client_p50 = 0;
  double server_p50 = 0;
  double run_bql_p50 = 0;
  double compile_p50 = 0;
  double execute_p50 = 0;
  double codec_p50 = 0;
  std::map<std::string, std::vector<double>> self_us;
  obs::MetricsSnapshot served_delta;
};

ClassProbe ProbeClass(Fixture& f, const std::vector<std::string>& queries) {
  ClassProbe out;
  net::GenAlgClient* client = f.clients[0].get();
  udb::QueryResult sample = Must(client->QueryAll(queries[0]), "warm query");
  const auto before = obs::Registry::Global().Snapshot();
  out.client_p50 = MedianMicros(queries.size(), [&](size_t i) {
    Must(client->QueryAll(queries[i]), "served probe");
  });
  out.served_delta = obs::Registry::Global().Snapshot().Since(before);
  out.server_p50 = HistogramQuantile(
      Histogram(out.served_delta, "server.query_latency_us"), 0.5);

  std::vector<std::string> sql;
  out.compile_p50 = MedianMicros(queries.size(), [&](size_t i) {
    sql.push_back(Must(bql::TranslateBql(queries[i]), "translate"));
  });
  udb::Database* db = f.db.get();
  RwGate::ReadLease lease = db->gate().Read();
  out.run_bql_p50 = MedianMicros(queries.size(), [&](size_t i) {
    Must(bql::RunBql(db, queries[i]), "in-process probe");
  });
  out.execute_p50 = MedianMicros(sql.size(), [&](size_t i) {
    Must(db->Execute(sql[i]), "execute probe");
  });
  for (const std::string& statement : sql) {
    AddSelfTimes(Must(db->Profile(statement), "profile"), &out.self_us);
  }
  net::ResultPageMsg page;
  page.query_id = 1;
  page.last = true;
  page.columns = sample.columns;
  page.rows = sample.rows;
  page.message = sample.message;
  out.codec_p50 = MedianMicros(std::max<size_t>(queries.size(), 20),
                               [&](size_t) {
                                 auto bytes = page.Encode();
                                 Must(net::ResultPageMsg::Decode(bytes),
                                      "decode page");
                               });
  return out;
}

void WriteSpans(const std::vector<ClientSpan>& spans,
                const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fputs("[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"thread\": %u, \"start_ns\": %llu, "
                 "\"duration_ns\": %llu}%s\n",
                 spans[i].name, spans[i].thread,
                 static_cast<unsigned long long>(spans[i].start_ns),
                 static_cast<unsigned long long>(spans[i].duration_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", out);
  std::fclose(out);
}

}  // namespace

std::vector<Metric> TraceRun(Workload* workload, double seconds,
                             const std::string& trace_prefix,
                             uint64_t* attempted, uint64_t* failed) {
  Fixture& f = workload->fixture();
  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, std::isfinite(value) ? value : 0, unit});
  };

  // ------------------------------------- Untraced, then traced window.
  Window untraced = workload->Run(seconds * kWindowShare, false);
  const auto before = obs::Registry::Global().Snapshot();
  const std::string program_trace = trace_prefix + "program.json";
  std::filesystem::remove(program_trace);
  obs::Tracer::Global().Enable(obs::Tracer::Format::kJson, program_trace);
  std::atomic<bool> sampling{true};
  int64_t queue_depth_max = 0;
  std::thread sampler([&] {
    obs::Gauge* depth =
        obs::Registry::Global().GetGauge("base.pool.queue_depth");
    while (sampling.load(std::memory_order_relaxed)) {
      queue_depth_max = std::max(queue_depth_max, depth->value());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Window traced = workload->Run(seconds * kWindowShare, true);
  sampling.store(false);
  sampler.join();
  obs::Tracer::Global().Flush(true);
  obs::Tracer::Global().Disable();
  const auto window_delta = obs::Registry::Global().Snapshot().Since(before);
  WriteSpans(traced.spans, trace_prefix + "spans.json");
  // The probes below evolve the sources; check the windows' answers first.
  workload->Verify();
  *attempted = untraced.attempted + traced.attempted;
  *failed = untraced.failed + traced.failed;

  const double untraced_p50 = Quantile(untraced.primary_us, 0.5);
  add("trace.overhead_pct",
      100 * Ratio(Quantile(traced.primary_us, 0.5) - untraced_p50,
                  untraced_p50),
      "%");
  const double hits = window_delta.counter("udb.pool.hits");
  add("udb.pool.hit_ratio",
      Ratio(hits, hits + window_delta.counter("udb.pool.misses")), "ratio");
  add("base.pool.busy_us",
      Ratio(window_delta.counter("base.pool.busy_us"),
            window_delta.counter("server.queries")),
      "us/query");
  add("base.pool.queue_depth_max", static_cast<double>(queue_depth_max),
      "count");

  // ------------------------------------------- One class at a time.
  Rng rng(0x5eed);
  const auto& accessions = workload->accessions();
  const auto& patterns = workload->patterns();
  std::map<std::string, std::vector<std::string>> queries;
  for (size_t i = 0; i < kPointProbes; ++i) {
    queries["point"].push_back("find features of " +
                               accessions[rng.Uniform(accessions.size())]);
  }
  queries["scan"].assign(kScanProbes, "show gc of sequences");
  for (size_t i = 0; i < kSimilarProbes && i < patterns.size(); ++i) {
    queries["similar"].push_back("count sequences resembling " +
                                 patterns[i].dna);
  }
  queries["count"].assign(kCountProbes, "count sequences");

  const double ping_p50 = MedianMicros(kPings, [&](size_t) {
    Must(f.clients[0]->Ping(), "ping");
  });
  add("net.ping_p50_us", ping_p50, "us");

  std::map<std::string, ClassProbe> probes;
  for (const char* name : kQueryClasses) {
    ClassProbe probe = ProbeClass(f, queries[name]);
    const std::string cls = name;
    add("client.p50_us." + cls, probe.client_p50, "us");
    add("server.latency_p50_us." + cls, probe.server_p50, "us");
    add("server.overhead_us." + cls, probe.client_p50 - probe.run_bql_p50,
        "us");
    add("udb.execute_us." + cls, probe.execute_p50, "us");
    add("coverage." + cls,
        Ratio(ping_p50 + probe.compile_p50 + probe.execute_p50 +
                  probe.codec_p50,
              probe.client_p50),
        "ratio");
    probes[cls] = std::move(probe);
  }
  add("net.page_codec_us", probes["scan"].codec_p50, "us");
  add("bql.compile_us", probes["point"].compile_p50, "us");
  add("udb.parse_us", OperatorMedian(probes["point"].self_us, "parse"), "us");
  add("udb.bind_us", OperatorMedian(probes["point"].self_us, "bind"), "us");
  add("udb.scan_us", OperatorMedian(probes["scan"].self_us, "scan"), "us");
  add("udb.sort_us", OperatorMedian(probes["scan"].self_us, "sort"), "us");
  add("udb.filter_us", OperatorMedian(probes["similar"].self_us, "filter"),
      "us");
  add("udb.aggregate_us",
      OperatorMedian(probes["count"].self_us, "aggregate"), "us");

  // Alignment route counters per `resembles` call of the served probe.
  const obs::MetricsSnapshot& similar = probes["similar"].served_delta;
  const double similar_queries =
      static_cast<double>(queries["similar"].size());
  const double stored_rows = static_cast<double>(
      Must(f.warehouse->SequenceCount(), "count sequences"));
  const double calls = similar_queries * stored_rows;
  add("align.cells_per_query",
      Ratio(similar.counter("align.kernel.cells"), similar_queries),
      "count");
  add("align.confirm_dp_ratio",
      Ratio(similar.counter("align.resembles.confirm_dps"), calls), "ratio");
  add("align.early_exit_ratio",
      Ratio(similar.counter("align.kernel.early_exits"), calls), "ratio");
  add("align.band_hit_ratio",
      Ratio(similar.counter("align.resembles.band_hits"), calls), "ratio");

  // ------------------------------- Direct calls into the lower layers.
  const auto records = f.Records();
  std::vector<seq::NucleotideSequence> stored;
  for (const auto& [accession, record] : records) {
    stored.push_back(record.sequence);
  }
  add("seq.gc_content_us", MedianMicros(10, [&](size_t) {
        double sum = 0;
        for (const auto& s : stored) sum += s.GcContent();
        g_sink = sum;
      }),
      "us");
  std::vector<seq::NucleotideSequence> pattern_seqs;
  for (const Pattern& p : patterns) {
    pattern_seqs.push_back(Must(seq::NucleotideSequence::Dna(p.dna), "dna"));
  }
  const size_t per_pattern = std::min<size_t>(25, stored.size());
  add("align.resembles_us",
      MedianMicros(pattern_seqs.size() * per_pattern, [&](size_t i) {
        Must(align::Resembles(stored[i % per_pattern],
                              pattern_seqs[i / per_pattern]),
             "resembles");
      }),
      "us");
  std::vector<seq::NucleotideSequence> first_source;
  for (const auto& record : f.sources[0]->AllRecords()) {
    first_source.push_back(record.sequence);
  }
  add("index.kmer_build_us", MedianMicros(5, [&](size_t) {
        Must(index::KmerIndex::Build(first_source, 12), "kmer build");
      }),
      "us");
  add("mediator.extract_us",
      MedianMicros(3 * f.sources.size(), [&](size_t i) {
        mediator::SourceWrapper wrapper(f.sources[i % f.sources.size()].get());
        Must(wrapper.ExtractAll(), "extract");
      }),
      "us");
  {
    mediator::Mediator mediator;
    for (auto& source : f.sources) mediator.AddSource(source.get());
    for (size_t i = 0; i < 2 && i < pattern_seqs.size(); ++i) {
      Must(mediator.SimilarTo(pattern_seqs[i]), "mediator probe");
    }
    add("mediator.records_shipped_per_query",
        Ratio(static_cast<double>(mediator.total_records_shipped()),
              std::min<double>(2, pattern_seqs.size())),
        "count");
  }

  // --------------------------- ETL: refresh rounds and the write path.
  add("etl.initial_load_s", f.initial_load_s, "s");
  std::vector<double> poll_us, apply_us;
  const auto etl_before = obs::Registry::Global().Snapshot();
  for (size_t r = 0; r < kRefreshProbes; ++r) {
    for (auto& source : f.sources) {
      Must(source->EvolveStep(0.02, 0.25), "evolve");
    }
    obs::SpanCollector collector;
    Must(f.pipeline->RunOnce(), "refresh probe");
    for (const auto& root : collector.roots()) {
      if (root->name != "etl.refresh") continue;
      for (const auto& child : root->children) {
        const double us = static_cast<double>(child->duration_ns) / 1e3;
        if (child->name == "etl.poll") poll_us.push_back(us);
        if (child->name == "etl.apply") apply_us.push_back(us);
      }
    }
  }
  const auto etl_delta = obs::Registry::Global().Snapshot().Since(etl_before);
  add("etl.poll_us", Quantile(poll_us, 0.5), "us");
  add("etl.apply_us", Quantile(apply_us, 0.5), "us");
  add("etl.deltas_per_round",
      Ratio(etl_delta.counter("etl.deltas_applied"), kRefreshProbes),
      "count");
  // Writer waits: the traced window's (the refresh workload's writer
  // beside its readers) when it had any, else the probe rounds'.
  obs::HistogramData wait = Histogram(window_delta, "udb.gate.write_wait_us");
  if (wait.count == 0) wait = Histogram(etl_delta, "udb.gate.write_wait_us");
  add("udb.gate.write_wait_p50_us", HistogramQuantile(wait, 0.5), "us");
  add("udb.gate.write_wait_p90_us", HistogramQuantile(wait, 0.9), "us");
  obs::HistogramData fsync = Histogram(window_delta, "udb.wal.fsync_us");
  if (fsync.count == 0) fsync = Histogram(etl_delta, "udb.wal.fsync_us");
  add("udb.wal.fsync_p50_us", HistogramQuantile(fsync, 0.5), "us");
  return m;
}

}  // namespace genalg::perfbench
