// prixbench: one workload of the PRIX benchmark in one process.
//
//   prixbench --workload <paper-cold|serve-warm|ingest-mixed> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//             [--perturb <check>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Diagnostics go to standard error.
// Exit code 0 means the run completed (correct may still be false); any
// failure to build, open or start the program exits 1 without a result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace {

// Taken before main() runs anything else: set-up time counts from here.
const int64_t kProcessStartNs = prixbench::NowNs();

int Usage() {
  std::fprintf(stderr,
               "usage: prixbench --workload <paper-cold|serve-warm|"
               "ingest-mixed> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--perturb <check>]\n");
  return 2;
}

void PrintResult(const prixbench::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const prixbench::Metric& m : r.metrics) {
    char value[64];
    double v = std::isfinite(m.value) ? m.value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  prixbench::RunConfig config;
  config.start_ns = kProcessStartNs;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--perturb") {
      config.perturb = value;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || config.seconds <= 0 ||
      config.workdir.empty()) {
    return Usage();
  }

  // The run's own scratch directory, removed on every exit path that
  // returns from main. run.py removes it too, after a crash or a timeout.
  const std::filesystem::path dir(config.workdir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  struct RemoveDir {
    std::filesystem::path p;
    ~RemoveDir() {
      std::error_code e;
      std::filesystem::remove_all(p, e);
      std::filesystem::remove(p.parent_path(), e);  // only if now empty
    }
  } cleanup{dir};

  prixbench::Tracer tracer(config.trace);
  prixbench::Checks checks(config.perturb);
  prixbench::RunResult result;
  try {
    if (config.workload == "paper-cold") {
      result = prixbench::RunPaperCold(config, &tracer, &checks);
    } else if (config.workload == "serve-warm") {
      result = prixbench::RunServeWarm(config, &tracer, &checks);
    } else if (config.workload == "ingest-mixed") {
      result = prixbench::RunIngestMixed(config, &tracer, &checks);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prixbench: %s\n", e.what());
    return 1;
  }
  checks.Report();
  result.correct = checks.ok();
  if (config.trace) {
    std::filesystem::create_directories(".bench_out", ec);
    std::string path = ".bench_out/trace-" + config.workload + "-" +
                       std::to_string(config.seed) + ".jsonl";
    if (tracer.WriteJsonLines(path)) {
      std::fprintf(stderr, "wrote %zu spans to %s\n", tracer.size(),
                   path.c_str());
    }
  }
  PrintResult(result);
  return 0;
}
