// The benchmark's three workloads. Each builds its inputs from the seed,
// measures for the requested time, checks every answer against the naive
// oracle or the benchmark's own model, and returns its metrics.
#ifndef PRIXBENCH_WORKLOADS_H_
#define PRIXBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace prixbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch directory for database files
  /// Name of one check whose expected value is deliberately perturbed (the
  /// self-test), or empty.
  std::string perturb;
  int64_t start_ns = 0;  ///< process start, for setup_s
};

/// Answer and model checks. A check passes when every comparison under its
/// name matched; a perturbed check has its first expected value altered, so
/// it must fail.
class Checks {
 public:
  explicit Checks(std::string perturb) : perturb_(std::move(perturb)) {}

  /// Compares `actual` with `expected` under check `name`.
  template <typename T>
  bool Expect(const std::string& name, const T& actual, T expected,
              const std::string& what) {
    if (name == perturb_ && !perturbed_) {
      Perturb(&expected);
      perturbed_ = true;
    }
    const bool ok = actual == expected;
    Record(name, ok, what);
    return ok;
  }

  /// Declares a check that must run (so a check that never ran is visible).
  void Declare(const std::string& name) { results_[name]; }
  bool ok() const;
  /// One line per check on stderr: "check <name>: <passed> passed, <failed>
  /// failed".
  void Report() const;

 private:
  template <typename T>
  static void Perturb(T* v) {
    if constexpr (requires { v->docs; }) {
      v->docs.push_back(0xfffffffeu);
    } else if constexpr (requires { v->push_back(0u); }) {
      v->push_back(0xfffffffeu);
    } else {
      *v += 1;
    }
  }
  void Record(const std::string& name, bool ok, const std::string& what);

  std::string perturb_;
  bool perturbed_ = false;
  struct Tally {
    uint64_t passed = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Tally> results_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
};

RunResult RunPaperCold(const RunConfig& config, Tracer* tracer,
                       Checks* checks);
RunResult RunServeWarm(const RunConfig& config, Tracer* tracer,
                       Checks* checks);
RunResult RunIngestMixed(const RunConfig& config, Tracer* tracer,
                         Checks* checks);

/// Every per-layer metric name with its unit, in report order. A traced run
/// reports all of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace prixbench

#endif  // PRIXBENCH_WORKLOADS_H_
