// Order statistics used to summarise repeated measurements.
#ifndef PRIXBENCH_STATS_H_
#define PRIXBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace prixbench {

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

}  // namespace prixbench

#endif  // PRIXBENCH_STATS_H_
