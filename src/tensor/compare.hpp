// Numeric tensor comparison used by the test suites.
//
// Every TeMCO rewrite must be semantics-preserving; these helpers quantify
// "same output" with explicit absolute/relative tolerances.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/tensor.hpp"

namespace temco {

/// Largest absolute element-wise difference; shapes must match.
inline float max_abs_diff(const Tensor& a, const Tensor& b) {
  TEMCO_CHECK(a.shape() == b.shape())
      << a.shape().to_string() << " vs " << b.shape().to_string();
  float worst = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) worst = std::max(worst, std::fabs(pa[i] - pb[i]));
  return worst;
}

/// Same shape and every byte equal, NaN payloads included: the bitwise
/// contract, which max_abs_diff == 0 would pass on NaN.
inline bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.shape().bytes())) == 0;
}

/// Relative Frobenius-norm error ‖a − b‖ / ‖a‖ (0 when both are zero).
inline double relative_error(const Tensor& a, const Tensor& b) {
  TEMCO_CHECK(a.shape() == b.shape());
  double diff = 0.0;
  double ref = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    diff += d * d;
    ref += static_cast<double>(pa[i]) * static_cast<double>(pa[i]);
  }
  if (ref == 0.0) return diff == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::sqrt(diff / ref);
}

/// True when every element satisfies |a − b| ≤ atol + rtol·|b|.
inline bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f, float atol = 1e-6f) {
  TEMCO_CHECK(a.shape() == b.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    if (std::fabs(pa[i] - pb[i]) > atol + rtol * std::fabs(pb[i])) return false;
  }
  return true;
}

}  // namespace temco
