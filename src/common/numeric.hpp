// Small numeric helpers shared by the analysis and simulation modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace esched {

/// Relative error of `value` against `reference`, falling back to absolute
/// error when the reference is (near) zero.
inline double relative_error(double value, double reference) {
  const double denom = std::abs(reference);
  if (denom < 1e-12) return std::abs(value - reference);
  return std::abs(value - reference) / denom;
}

/// True when `a` and `b` agree to within `rel_tol` relative error (or
/// `abs_tol` absolute error near zero).
inline bool approx_equal(double a, double b, double rel_tol = 1e-9,
                         double abs_tol = 1e-12) {
  return std::abs(a - b) <= std::max(abs_tol, rel_tol * std::max(std::abs(a),
                                                                 std::abs(b)));
}

/// Clamps `x` into [lo, hi].
inline double clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

/// True when `x` is a finite, non-NaN double.
inline bool is_finite(double x) { return std::isfinite(x); }

/// Squares its argument.
inline double sq(double x) { return x * x; }

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// FNV-1a over a byte string: platform-independent, stable across runs.
/// Used for deterministic per-point RNG seeds and cache-table slot hashes.
inline constexpr std::uint64_t kFnv1a64OffsetBasis = 14695981039346656037ull;

/// FNV-1a over a raw byte range, seedable so independent pieces (key
/// length, key bytes, payload) chain into one checksum. Same function as
/// fnv1a64 below when seeded with the offset basis.
inline std::uint64_t fnv1a64_bytes(const void* data, std::size_t size,
                                   std::uint64_t seed = kFnv1a64OffsetBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a64(const std::string& text) {
  return fnv1a64_bytes(text.data(), text.size());
}

}  // namespace esched
