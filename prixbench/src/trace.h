// In-memory span recorder for the traced run (--trace 1).
//
// A span is one call into a layer of the program, recorded by the
// benchmark around that call: name, start, end, parent span and request id.
// Spans stay in memory and are written out once, when the run ends. A
// layer's self time is its span's duration minus the time its direct child
// spans cover (children of one span run on the same thread, one after the
// other, so their durations add up without overlap).
#ifndef PRIXBENCH_TRACE_H_
#define PRIXBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace prixbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root span
  uint64_t request = 0;
  uint32_t key = 0;  ///< which query/operation of a round (for per-key medians)
  const char* name = nullptr;  ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

int64_t NowNs();

class Tracer {
 public:
  /// A disabled tracer records nothing; Scope on it costs one branch. The
  /// traced run passes the tracer to every other operation only (nullptr to
  /// the rest), so it can compare traced with untraced operations.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span. Nests under the innermost open Scope of the same thread.
  class Scope {
   public:
    /// Records nothing when `tracer` is null or disabled.
    Scope(Tracer* tracer, const char* name, uint64_t request, uint32_t key);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    Span span_;
    uint64_t saved_parent_ = 0;
  };

  /// Per key: the median self time of the spans named `name`; summed over
  /// keys. This is how a round of distinct queries is summarised (sum over
  /// the round of each query's median).
  double SumOfKeyMediansUs(const std::string& name) const;

  size_t size() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  void Record(const Span& span);

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;     // guarded by mu_
};

}  // namespace prixbench

#endif  // PRIXBENCH_TRACE_H_
