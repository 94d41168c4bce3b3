// Error metrics (paper §III-D and §IV-C).
//
//  * Chebyshev relative error tau (Eq. 1) — the per-task acceptance gate of
//    Dynamic ATM: max|correct_i - atm_i| / max|correct_i|. A max-reduction,
//    so it does not accumulate floating-point noise across large outputs
//    and correlates with whole-program correctness (the paper found the
//    Euclidean form unusable per task).
//  * Euclidean relative error Er (Eq. 3) — the whole-program metric:
//    sum (correct_i - atm_i)^2 / sum correct_i^2.
//  * LU residual (Eq. 4) — |A - L*U|^2 / |A|^2, the app-specific variant.
//  * correctness% = 100 * (1 - Er) clamped to [0, 100] — the mapping used
//    for Figures 4 and 5; consistent with the paper's reported losses
//    (e.g. kmeans -1.2%, swaptions -3.2%). docs/DESIGN.md §1 documents this choice.
#pragma once

#include <cmath>
#include <span>

#include "runtime/data_access.hpp"
#include "runtime/task.hpp"
#include "store/memo_store.hpp"

namespace atm {

/// Chebyshev relative error over typed arrays (Eq. 1).
template <typename T>
[[nodiscard]] double chebyshev_relative_error(std::span<const T> correct,
                                              std::span<const T> approx) noexcept {
  const std::size_t n = correct.size() < approx.size() ? correct.size() : approx.size();
  double max_diff = 0.0;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = static_cast<double>(correct[i]);
    const double a = static_cast<double>(approx[i]);
    const double diff = std::fabs(c - a);
    const double mag = std::fabs(c);
    if (diff > max_diff) max_diff = diff;
    if (mag > max_abs) max_abs = mag;
  }
  if (max_abs == 0.0) return max_diff == 0.0 ? 0.0 : HUGE_VAL;
  return max_diff / max_abs;
}

/// Euclidean (squared-relative-L2) error over typed arrays (Eq. 3).
template <typename T>
[[nodiscard]] double euclidean_relative_error(std::span<const T> correct,
                                              std::span<const T> approx) noexcept {
  const std::size_t n = correct.size() < approx.size() ? correct.size() : approx.size();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = static_cast<double>(correct[i]);
    const double a = static_cast<double>(approx[i]);
    num += (c - a) * (c - a);
    den += c * c;
  }
  if (den == 0.0) return num == 0.0 ? 0.0 : HUGE_VAL;
  return num / den;
}

/// Running Chebyshev accumulator across several regions (a task may declare
/// multiple outputs; tau is taken over their concatenation).
struct ChebyshevAccumulator {
  double max_diff = 0.0;
  double max_abs = 0.0;

  template <typename T>
  void add(std::span<const T> correct, std::span<const T> approx) noexcept {
    const std::size_t n = correct.size() < approx.size() ? correct.size() : approx.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double c = static_cast<double>(correct[i]);
      const double a = static_cast<double>(approx[i]);
      const double diff = std::fabs(c - a);
      const double mag = std::fabs(c);
      if (diff > max_diff) max_diff = diff;
      if (mag > max_abs) max_abs = mag;
    }
  }

  /// Raw-byte entry point dispatching on the element type tag.
  void add_bytes(rt::ElemType elem, std::span<const std::uint8_t> correct,
                 std::span<const std::uint8_t> approx) noexcept;

  [[nodiscard]] double value() const noexcept {
    if (max_abs == 0.0) return max_diff == 0.0 ? 0.0 : HUGE_VAL;
    return max_diff / max_abs;
  }
};

/// tau between a task's freshly computed outputs and a stored entry of the
/// same shape (the Dynamic ATM training check, §III-D).
[[nodiscard]] double task_output_tau(const rt::Task& task, const store::MemoEntry& stored);

/// Whole-program correctness in percent from an Euclidean relative error
/// (Eq. 3 / Eq. 4 value).
[[nodiscard]] inline double correctness_percent(double euclidean_err) noexcept {
  if (!(euclidean_err >= 0.0)) return 0.0;  // NaN/negative guard
  const double pct = 100.0 * (1.0 - euclidean_err);
  return pct < 0.0 ? 0.0 : (pct > 100.0 ? 100.0 : pct);
}

}  // namespace atm
