// The served-GenAlg benchmark.
//
//   perfbench --workload lookup|similarity|refresh --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Builds seeded inputs with the program's own SyntheticSource, loads
// them through ETL into the Unifying Database, serves it from an
// in-process GenAlgServer and drives the workload through GenAlgClient
// connections. Progress and check failures go to stderr; the last line
// of stdout is the JSON report. With --trace 0 it reports the end-to-end
// metrics, with --trace 1 the per-layer ones (see README.md).

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "harness.h"
#include "layers.h"
#include "workloads.h"

namespace genalg::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench-out";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Die("bad --seed " + value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        Die("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("bad --trace " + value);
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || !have_workload) {
    Die("usage: perfbench --workload lookup|similarity|refresh --seed N "
        "--seconds S --trace 0|1 [--out-dir DIR]");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string scratch =
      args.out_dir + "/db-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);
  if (ec) Die("cannot create " + scratch + ": " + ec.message());

  Ledger ledger;
  auto workload = MakeWorkload(args.workload, args.seed, &ledger, scratch);
  if (workload == nullptr) Die("unknown workload " + args.workload);
  const double setup_s = SecondsSince(ProcessStart());
  workload->Warmup();

  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (args.trace) {
    metrics = TraceRun(workload.get(), args.seconds,
                       args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + "-",
                       &attempted, &failed);
  } else {
    Window w = workload->Run(args.seconds, false);
    attempted = w.attempted;
    failed = w.failed;
    metrics = {
        {"setup_s", setup_s, "s"},
        {"read_qps", Quantile(w.step_qps, 0.5), "queries/s"},
        {"primary_p50_us", Quantile(w.primary_us, 0.5), "us"},
        {"secondary_p50_ms", Quantile(w.secondary_us, 0.5) / 1e3, "ms"},
    };
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %zu primary, %zu secondary "
                 "samples, %zu steps, %llu attempted, %llu failed\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 w.primary_us.size(), w.secondary_us.size(),
                 w.step_qps.size(),
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    workload->Verify();
  }
  Teardown(&workload->fixture());
  workload.reset();
  std::filesystem::remove_all(scratch, ec);
  PrintReport(ledger.correct(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace genalg::perfbench

int main(int argc, char** argv) {
  return genalg::perfbench::Main(argc, argv);
}
