// Dense float32 tensors.
//
// Tensors are cheap-to-copy handles over shared, contiguous storage.  The
// runtime allocates tensor storage through pluggable buffer factories so the
// tracking allocator can attribute every live byte to a graph value — the
// quantity the whole paper is about.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <span>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/shape.hpp"

namespace temco {

/// Owning storage handle.  The deleter embedded in the shared_ptr lets a
/// tracking allocator observe frees without the Tensor type knowing about it.
using Buffer = std::shared_ptr<float[]>;

/// Allocates untracked (plain heap) storage, zero-initialized.
inline Buffer allocate_buffer(std::int64_t numel) {
  TEMCO_CHECK(numel >= 0);
  return Buffer(new float[static_cast<std::size_t>(numel)]());
}

class Tensor {
 public:
  /// Empty tensor (no storage); useful as a "not yet computed" placeholder.
  Tensor() = default;

  /// Wraps existing storage.  `buffer` must hold at least shape.numel() floats.
  Tensor(Shape shape, Buffer buffer) : shape_(std::move(shape)), data_(std::move(buffer)) {}

  /// Zero-filled tensor on the plain heap.
  static Tensor zeros(const Shape& shape) { return Tensor(shape, allocate_buffer(shape.numel())); }

  /// Tensor filled with a constant.
  static Tensor full(const Shape& shape, float value) {
    Tensor t = zeros(shape);
    for (auto& x : t.span()) x = value;
    return t;
  }

  /// i.i.d. normal entries with the given standard deviation.
  static Tensor random_normal(const Shape& shape, Rng& rng, float stddev = 1.0f) {
    Tensor t = zeros(shape);
    for (auto& x : t.span()) x = rng.normal() * stddev;
    return t;
  }

  /// Uniform entries in [lo, hi).
  static Tensor random_uniform(const Shape& shape, Rng& rng, float lo, float hi) {
    Tensor t = zeros(shape);
    for (auto& x : t.span()) x = rng.uniform(lo, hi);
    return t;
  }

  /// Copies values from an initializer sequence (row-major).
  static Tensor from_values(const Shape& shape, std::initializer_list<float> values) {
    TEMCO_CHECK(static_cast<std::int64_t>(values.size()) == shape.numel())
        << "value count " << values.size() << " vs shape " << shape.to_string();
    Tensor t = zeros(shape);
    std::copy(values.begin(), values.end(), t.data());
    return t;
  }

  bool defined() const { return data_ != nullptr; }
  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return shape_.numel(); }
  std::int64_t bytes() const { return shape_.bytes(); }

  float* data() {
    TEMCO_CHECK(defined()) << "accessing undefined tensor";
    return data_.get();
  }
  const float* data() const {
    TEMCO_CHECK(defined()) << "accessing undefined tensor";
    return data_.get();
  }

  std::span<float> span() { return {data(), static_cast<std::size_t>(numel())}; }
  std::span<const float> span() const { return {data(), static_cast<std::size_t>(numel())}; }

  /// Flat (row-major) element access.
  float& operator[](std::int64_t index) { return data()[index]; }
  float operator[](std::int64_t index) const { return data()[index]; }

  /// NCHW element access for rank-4 tensors (bounds-checked).
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data()[offset4(n, c, h, w)];
  }
  float at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    return data()[offset4(n, c, h, w)];
  }

  /// Rank-2 element access.
  float& at(std::int64_t row, std::int64_t col) { return data()[offset2(row, col)]; }
  float at(std::int64_t row, std::int64_t col) const { return data()[offset2(row, col)]; }

  /// Deep copy into fresh untracked storage.
  Tensor clone() const {
    Tensor t = zeros(shape_);
    std::memcpy(t.data(), data(), static_cast<std::size_t>(bytes()));
    return t;
  }

  /// Same storage viewed under a different shape with equal element count.
  Tensor reshaped(const Shape& shape) const {
    TEMCO_CHECK(shape.numel() == numel())
        << "reshape " << shape_.to_string() << " -> " << shape.to_string();
    return Tensor(shape, data_);
  }

  /// Re-views the same storage with `rows` in dimension 0, in place (no
  /// allocation).  The storage must hold the new element count.
  void set_rows(std::int64_t rows) { shape_.set_dim(0, rows); }

  void fill(float value) {
    for (auto& x : span()) x = value;
  }

 private:
  std::int64_t offset4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    TEMCO_CHECK(shape_.rank() == 4) << "rank-4 access on shape " << shape_.to_string();
    TEMCO_CHECK(n >= 0 && n < shape_[0] && c >= 0 && c < shape_[1] && h >= 0 && h < shape_[2] &&
                w >= 0 && w < shape_[3])
        << "index (" << n << "," << c << "," << h << "," << w << ") out of "
        << shape_.to_string();
    return ((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
  }

  std::int64_t offset2(std::int64_t row, std::int64_t col) const {
    TEMCO_CHECK(shape_.rank() == 2) << "rank-2 access on shape " << shape_.to_string();
    TEMCO_CHECK(row >= 0 && row < shape_[0] && col >= 0 && col < shape_[1])
        << "index (" << row << "," << col << ") out of " << shape_.to_string();
    return row * shape_[1] + col;
  }

  Shape shape_;
  Buffer data_;
};

}  // namespace temco
