// Tensor shapes.
//
// Shapes are small value types used pervasively by shape inference and the
// memory planner; everything here is exact integer arithmetic (element counts
// and byte sizes are the currency of the whole paper).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <numeric>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace temco {

/// Dimension sizes of a dense tensor.  Activations use NCHW order
/// [batch, channels, height, width]; convolution weights use
/// [out_channels, in_channels, kernel_h, kernel_w].
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) { validate(); }
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) { validate(); }

  std::size_t rank() const { return dims_.size(); }

  std::int64_t dim(std::size_t axis) const {
    TEMCO_CHECK(axis < dims_.size()) << "axis " << axis << " out of rank " << dims_.size();
    return dims_[axis];
  }

  std::int64_t operator[](std::size_t axis) const { return dim(axis); }

  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Total element count; 1 for rank-0 (scalar) shapes.
  std::int64_t numel() const {
    return std::accumulate(dims_.begin(), dims_.end(), std::int64_t{1},
                           [](std::int64_t a, std::int64_t b) { return a * b; });
  }

  /// Size in bytes for float32 storage.
  std::int64_t bytes() const { return numel() * static_cast<std::int64_t>(sizeof(float)); }

  /// Replaces `axis` with `value` in place.
  void set_dim(std::size_t axis, std::int64_t value) {
    TEMCO_CHECK(axis < dims_.size() && value >= 0);
    dims_[axis] = value;
  }

  /// Returns a copy with `axis` replaced by `value`.
  Shape with_dim(std::size_t axis, std::int64_t value) const {
    Shape copy = *this;
    copy.set_dim(axis, value);
    return copy;
  }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string to_string() const {
    std::string out = "[";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      if (i != 0) out += ", ";
      out += std::to_string(dims_[i]);
    }
    out += "]";
    return out;
  }

 private:
  void validate() const {
    for (const std::int64_t d : dims_) {
      TEMCO_CHECK(d >= 0) << "negative dimension in shape " << to_string();
    }
  }

  std::vector<std::int64_t> dims_;
};

inline std::ostream& operator<<(std::ostream& os, const Shape& shape) {
  return os << shape.to_string();
}

}  // namespace temco
