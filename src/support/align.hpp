// Size-class alignment shared by every memory accountant.
//
// The tracking allocator, the analytic planner, and the static arena packer
// all round each tensor's footprint up to the same 64-byte boundary (one
// cache line, and the alignment production allocators hand out), so their
// byte counts can be compared with == rather than "close enough".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

namespace temco {

/// Allocation granularity of every internal-tensor accountant in the repo.
inline constexpr std::int64_t kTensorAlignment = 64;

/// Rounds `bytes` up to a multiple of `alignment` (a power of two).
constexpr std::int64_t align_up(std::int64_t bytes, std::int64_t alignment = kTensorAlignment) {
  return (bytes + alignment - 1) & ~(alignment - 1);
}

/// `bytes` of uninitialized heap storage at a kTensorAlignment boundary,
/// freed with its last owner.  The size is not rounded up, so a sanitizer
/// brackets exactly `bytes`.
inline std::shared_ptr<unsigned char> aligned_bytes(std::size_t bytes) {
  constexpr std::align_val_t kAlign{static_cast<std::size_t>(kTensorAlignment)};
  return std::shared_ptr<unsigned char>(
      static_cast<unsigned char*>(::operator new(bytes, kAlign)),
      [](unsigned char* p) { ::operator delete(p, kAlign); });
}

}  // namespace temco
