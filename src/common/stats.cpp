#include "common/stats.hpp"

namespace atm {

double geomean(const std::vector<double>& values) noexcept {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) return 0.0;  // geometric mean undefined; signal with 0
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace atm
