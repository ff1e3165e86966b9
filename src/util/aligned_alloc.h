// Cacheline-aligned, uninitialised heap buffers.
//
// Used where a buffer is filled wholesale right after allocation (segment
// slabs, directories, checkpoint payloads read straight from a file), so
// a value-initialising allocation would only add a pass of zero stores.

#ifndef DASH_PM_UTIL_ALIGNED_ALLOC_H_
#define DASH_PM_UTIL_ALIGNED_ALLOC_H_

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

namespace dash::util {

struct FreeDeleter {
  void operator()(void* p) const noexcept { std::free(p); }
};

using AlignedBytes = std::unique_ptr<char[], FreeDeleter>;

// Allocates `bytes` (rounded up to whole cachelines) at 64-byte
// alignment. The contents are indeterminate. Throws std::bad_alloc.
inline AlignedBytes AllocAligned(size_t bytes) {
  const size_t rounded = bytes == 0 ? 64 : (bytes + 63) & ~size_t{63};
  void* p = std::aligned_alloc(64, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return AlignedBytes(static_cast<char*>(p));
}

}  // namespace dash::util

#endif  // DASH_PM_UTIL_ALIGNED_ALLOC_H_
