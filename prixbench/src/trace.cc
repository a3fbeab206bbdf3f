#include "trace.h"

#include <chrono>
#include <cstdio>

#include "stats.h"

namespace prixbench {

namespace {
// Innermost open span of this thread, per tracer (one tracer per run).
thread_local uint64_t tls_parent = 0;
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request,
                     uint32_t key) {
  if (tracer == nullptr || !tracer->enabled_) return;
  tracer_ = tracer;
  {
    std::lock_guard<std::mutex> lock(tracer->mu_);
    span_.id = tracer->next_id_++;
  }
  span_.parent = tls_parent;
  span_.request = request;
  span_.key = key;
  span_.name = name;
  saved_parent_ = tls_parent;
  tls_parent = span_.id;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tls_parent = saved_parent_;
  tracer_->Record(span_);
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::SumOfKeyMediansUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<uint64_t, double> child_us;  // span id -> time in direct children
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += (s.end_ns - s.start_ns) / 1e3;
  }
  std::map<uint32_t, std::vector<double>> by_key;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    auto it = child_us.find(s.id);
    double self = (s.end_ns - s.start_ns) / 1e3;
    if (it != child_us.end()) self -= it->second;
    by_key[s.key].push_back(self);
  }
  double sum = 0;
  for (auto& [key, values] : by_key) sum += Median(values);
  return sum;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,\"key\":%u,"
                 "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 (unsigned long long)s.request, s.key, s.name,
                 (long long)s.start_ns, (long long)s.end_ns);
  }
  return std::fclose(f) == 0;
}

}  // namespace prixbench
