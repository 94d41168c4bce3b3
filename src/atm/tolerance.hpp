// Tolerance-quantized hash keys (ROADMAP item 2; beyond the paper's exact
// sampled hashes, following hpacml-style threshold equality).
//
// The exact pipeline hashes sampled input *bytes*, so two inputs differing
// by 1 ulp never meet in the THT — noisy-sensor and iterative-convergence
// workloads see ~0% reuse. Tolerance mode instead quantizes every sampled
// float/double *element* into an error-bounded cell before hashing:
//
//   * absolute epsilon: cells are centered at k * 2*eps_abs — any value
//     within eps_abs of a center shares its cell, values more than 2*eps_abs
//     apart never do.
//   * relative epsilon: a per-sign geometric (log-space) grid with ratio
//     (1 + eps_rel)^2 — values within ~eps_rel of a cell center share it,
//     ratios beyond (1 + eps_rel)^2 never do.
//
// Non-finite and denormal values never share a cell with normal finite
// ones: NaNs collapse into one NaN cell, each infinity gets its own, and
// denormals match bit-exactly (their magnitudes are far below any sane
// epsilon, so grid-quantizing them would alias everything onto cell 0).
// A value whose cell index would leave the int64 range (a huge value on a
// fine absolute grid, or nearly any value at a relative epsilon below
// ~4e-17) also matches exactly, on either grid.
//
// Key composition is a Zobrist XOR: each element contributes
// splitmix64(position_hash ^ splitmix64(cell)), and the key is the XOR of
// all contributions over a seed-derived base. XOR commutativity makes the
// digest independent of gather order (the plan path and the order path
// agree, unlike the exact digest), and — the point of the scheme — flipping
// one element to a neighboring cell is an O(1) XOR delta, which is what
// makes cheap multi-probe lookup possible: a near-boundary input publishes
// up to `probes` neighbor keys, so a jittered twin that landed one cell
// over still finds the THT entry.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/hash.hpp"

namespace atm {

/// Upper bound on neighbor probes a key computation may emit (KeyResult
/// carries a fixed-size array to keep the hot path allocation-free).
inline constexpr unsigned kMaxKeyProbes = 8;

/// Per-task-class tolerance configuration. Inactive (both epsilons 0) means
/// exact keys — compute_key falls back to the raw-bytes digests unchanged.
struct ToleranceSpec {
  /// Relative epsilon: values within ~rel of a cell center match.
  double rel = 0.0;
  /// Absolute epsilon; takes precedence over `rel` when both are set.
  double abs = 0.0;
  /// Neighbor probe keys emitted per computation (0 = primary key only).
  unsigned probes = 0;

  [[nodiscard]] bool active() const noexcept { return rel > 0.0 || abs > 0.0; }

  [[nodiscard]] unsigned clamped_probes() const noexcept {
    return probes < kMaxKeyProbes ? probes : kMaxKeyProbes;
  }

  /// Salt for the engine's key seed: tolerance keys live in their own key
  /// space, so a quantized key can never alias an exact key of the same
  /// (type, layout), and changing epsilon invalidates prior entries.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    if (!active()) return 0;
    return splitmix64(0x70befa11edULL ^ std::bit_cast<std::uint64_t>(rel) ^
                      splitmix64(std::bit_cast<std::uint64_t>(abs)));
  }
};

/// One value's quantization result.
struct Quantized {
  std::uint64_t cell = 0;      ///< bucket id (tag-mixed for special classes)
  double frac = 0.0;           ///< signed offset from the cell center, in cell
                               ///< widths (in [-0.5, 0.5]; 0 for specials)
  bool probeable = false;      ///< grid value with a meaningful neighbor cell
  std::uint64_t neighbor = 0;  ///< nearest neighboring cell (set by
                               ///< Quantizer::quantize iff probeable)
};

namespace tol_detail {
// Cell-id tags for the value classes that bypass the grid. Mixed through
// splitmix64 with the class payload so they cannot collide with grid cells
// (grid cell ids are also splitmix64-mixed, from a different tag).
inline constexpr std::uint64_t kGridTag = 0x9d1d;
inline constexpr std::uint64_t kNanTag = 0x4a4a;
inline constexpr std::uint64_t kInfTag = 0x14f1;
inline constexpr std::uint64_t kDenormTag = 0xde40;
inline constexpr std::uint64_t kZeroTag = 0x2e80;

/// Cell indexes stay below this magnitude (~2^62, so index +- 1 cannot
/// overflow either); a value whose grid coordinate lies beyond it matches
/// exactly on its raw bits instead.
inline constexpr double kIndexLimit = 4.6e18;

[[nodiscard]] inline std::uint64_t grid_cell(std::int64_t index,
                                             bool negative) noexcept {
  // Pack the sign into bit 0 so the relative grid (which quantizes |v|)
  // keeps -v and +v apart.
  return splitmix64(kGridTag ^
                    (static_cast<std::uint64_t>(index) << 1 ^
                     static_cast<std::uint64_t>(negative)));
}
}  // namespace tol_detail

/// The grid of one active ToleranceSpec, with its per-spec constants
/// computed once. quantize_value and both key paths go through it, so the
/// grid math exists once. A grid value costs one division on the absolute
/// grid, or one log and a division on the relative grid.
class Quantizer {
 public:
  explicit Quantizer(const ToleranceSpec& spec) noexcept
      : absolute_(spec.abs > 0.0),
        // Cell width in grid units: 2*eps on the absolute grid; on the
        // relative grid twice the log-space half-width log1p(eps). Cell
        // centers are then r^k with r = (1 + eps)^2: a value within eps of a
        // center stays inside its cell, and two values whose ratio exceeds r
        // are always at least one full cell apart.
        width_(absolute_ ? 2.0 * spec.abs : 2.0 * std::log1p(spec.rel)) {}

  /// Whether `v`, in its source type (float or double), lies on the grid:
  /// finite and normal, and on the absolute grid also zero. Every other
  /// value takes a special class in quantize(). Classify before widening:
  /// an F32 subnormal widens to a normal double.
  template <typename T>
  [[nodiscard]] bool on_grid(T v) const noexcept {
    return std::isnormal(v) || (absolute_ && v == T{0});
  }

  /// Grid coordinate of an on-grid value: its cell index is rint(x), and
  /// x - rint(x) its signed offset from the cell center, in cell widths.
  /// The division stays: multiplying by 1/width would round differently.
  [[nodiscard]] double coord(double v) const noexcept {
    return (absolute_ ? v : std::log(std::fabs(v))) / width_;
  }

  /// The cell of grid coordinate `x`, for a value of sign `negative` (the
  /// relative grid quantizes |v| and keeps the sign apart; the absolute grid
  /// ignores it). Fills cell, frac and probeable; the neighbor is left to
  /// neighbor(), which only a probe candidate needs. A coordinate past the
  /// index range falls back to an exact, unprobeable cell from `raw_bits`.
  [[nodiscard]] Quantized place(double x, bool negative,
                                std::uint64_t raw_bits) const noexcept {
    using namespace tol_detail;
    Quantized q;
    // rint and nearbyint agree under the default rounding mode, which
    // nothing here changes; nearbyint is a libm call that saves and
    // restores the FP environment, while GCC inlines rint.
    const double r = std::rint(x);
    if (!(std::fabs(r) < kIndexLimit)) {
      q.cell = splitmix64(kGridTag ^ raw_bits);
      return q;
    }
    q.cell = grid_cell(static_cast<std::int64_t>(r), negative && !absolute_);
    q.frac = x - r;
    q.probeable = true;
    return q;
  }

  /// The cell next to place(x, negative, ...)'s, on the side x leans to.
  /// Valid only where place() returns a probeable cell.
  [[nodiscard]] std::uint64_t neighbor(double x, bool negative) const noexcept {
    const double r = std::rint(x);
    const auto index = static_cast<std::int64_t>(r);
    return tol_detail::grid_cell(x - r >= 0.0 ? index + 1 : index - 1,
                                 negative && !absolute_);
  }

  /// Quantize one value: a special class, or its grid cell and neighbor.
  /// See quantize_value for the arguments.
  [[nodiscard]] Quantized quantize(double v, std::uint64_t raw_bits,
                                   bool subnormal = false) const noexcept {
    using namespace tol_detail;
    Quantized q;
    switch (subnormal ? FP_SUBNORMAL : std::fpclassify(v)) {
      case FP_NAN:
        // All NaNs share one cell: a NaN input matches exactly the runs
        // that also produced NaN there, and never a finite value.
        q.cell = splitmix64(kNanTag);
        return q;
      case FP_INFINITE:
        q.cell = splitmix64(kInfTag ^ static_cast<std::uint64_t>(v < 0.0));
        return q;
      case FP_SUBNORMAL:
        // Exact matching: denormals are orders of magnitude below any
        // usable epsilon; grid cells would collapse them all (and zero)
        // together.
        q.cell = splitmix64(kDenormTag ^ raw_bits);
        return q;
      case FP_ZERO:
        // Zero is the center of cell 0 on the absolute grid; the relative
        // grid has no cell for it (log 0), so it gets its own.
        if (absolute_) break;
        q.cell = splitmix64(kZeroTag);
        return q;
      default:
        break;
    }
    const double x = coord(v);
    q = place(x, v < 0.0, raw_bits);
    if (q.probeable) q.neighbor = neighbor(x, v < 0.0);
    return q;
  }

 private:
  bool absolute_;
  double width_;
};

/// Quantize one sampled element value under `spec` (which must be active).
/// `raw_bits` are the element's unmodified bits, used for the exact-match
/// special classes (denormals) and for values past the grid's index range;
/// pass the zero-extended payload for elements narrower than 8 bytes.
/// `subnormal` forces the denormal class for values whose *source*
/// representation is subnormal (an F32 denormal widens to a perfectly normal
/// double, so the caller must classify before widening).
[[nodiscard]] inline Quantized quantize_value(double v, std::uint64_t raw_bits,
                                              const ToleranceSpec& spec,
                                              bool subnormal = false) noexcept {
  return Quantizer(spec).quantize(v, raw_bits, subnormal);
}

}  // namespace atm
