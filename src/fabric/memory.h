// Per-node host memory.
//
// Every simulated node owns one flat byte space. "Addresses" handed to the
// verbs layer are offsets into this space, which plays the role of the
// virtual addresses an RDMA application registers: RDMA reads/writes between
// nodes copy real bytes between these spaces, so protocol code (ring buffers,
// canaries, message codecs) above the verbs layer runs against genuine
// memory, not token messages.
//
// Storage is chunked and grows on demand; pointers returned by At() stay
// valid forever because chunks are never reallocated. A single allocation
// must fit inside one chunk (4 MiB), which every buffer in this codebase
// satisfies by a wide margin.
//
// Residency is on touch. Each chunk is a private anonymous mapping, so a page
// becomes resident only when something first writes it; a never-written byte
// reads as zero without costing host RAM. Lanes allocate rings and staging
// mirrors sized for the worst case, but a lane typically writes a few KB of
// them, so a world's footprint tracks the bytes its traffic touched, not the
// bytes it allocated. Zero(addr, len) returns a range to that state: it
// clears exactly [addr, addr + len) and drops the whole pages inside it, so
// recycling a ring does not re-dirty every page of it.
#ifndef FLOCK_FABRIC_MEMORY_H_
#define FLOCK_FABRIC_MEMORY_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/logging.h"

namespace flock::fabric {

class MemorySpace {
 public:
  static constexpr size_t kChunkBytes = size_t{4} << 20;

  MemorySpace() = default;

  MemorySpace(const MemorySpace&) = delete;
  MemorySpace& operator=(const MemorySpace&) = delete;

  size_t capacity() const { return chunks_.size() * kChunkBytes; }
  size_t allocated() const { return next_; }

  // Bump allocation; simulated applications never free (they live for the
  // duration of one experiment, as the paper's do). An allocation never
  // straddles a chunk boundary so At(addr) is contiguous for its whole size.
  // The bytes read as zero; no page is resident until it is written.
  uint64_t Alloc(size_t size, size_t align = 64) {
    FLOCK_CHECK_GT(align, 0u);
    FLOCK_CHECK_LE(size, kChunkBytes) << "single allocation too large";
    size_t base = (next_ + align - 1) & ~(align - 1);
    if (size > 0 && ChunkIndex(base) != ChunkIndex(base + size - 1)) {
      base = (ChunkIndex(base) + 1) * kChunkBytes;  // start of next chunk
    }
    while (ChunkIndex(base + (size > 0 ? size - 1 : 0)) >= chunks_.size()) {
      chunks_.push_back(MapChunk());
    }
    next_ = base + size;
    return static_cast<uint64_t>(base);
  }

  uint8_t* At(uint64_t addr) {
    FLOCK_CHECK_LT(addr, capacity());
    return chunks_[ChunkIndex(addr)].get() + (addr % kChunkBytes);
  }
  const uint8_t* At(uint64_t addr) const {
    FLOCK_CHECK_LT(addr, capacity());
    return chunks_[ChunkIndex(addr)].get() + (addr % kChunkBytes);
  }

  bool Contains(uint64_t addr, size_t len) const {
    return addr + len <= capacity() && addr + len >= addr;
  }

  // Chunk-boundary-safe bulk copy into the space.
  void Write(uint64_t addr, const void* src, size_t len) {
    FLOCK_CHECK(Contains(addr, len));
    const uint8_t* from = static_cast<const uint8_t*>(src);
    while (len > 0) {
      const size_t in_chunk = kChunkBytes - (addr % kChunkBytes);
      const size_t n = len < in_chunk ? len : in_chunk;
      std::memcpy(At(addr), from, n);
      addr += n;
      from += n;
      len -= n;
    }
  }

  // Chunk-boundary-safe bulk copy out of the space.
  void Read(uint64_t addr, void* dst, size_t len) const {
    FLOCK_CHECK(Contains(addr, len));
    uint8_t* to = static_cast<uint8_t*>(dst);
    while (len > 0) {
      const size_t in_chunk = kChunkBytes - (addr % kChunkBytes);
      const size_t n = len < in_chunk ? len : in_chunk;
      std::memcpy(to, At(addr), n);
      addr += n;
      to += n;
      len -= n;
    }
  }

  // Chunk-boundary-safe clear of exactly [addr, addr + len). The partial
  // pages at either edge are memset; the whole pages between them are
  // released with MADV_DONTNEED, after which a private anonymous mapping
  // reads back as zero and is no longer resident. Callers see the same bytes
  // as a memset over the range.
  void Zero(uint64_t addr, size_t len) {
    FLOCK_CHECK(Contains(addr, len));
    const size_t page = PageBytes();
    while (len > 0) {
      const size_t in_chunk = kChunkBytes - (addr % kChunkBytes);
      const size_t n = len < in_chunk ? len : in_chunk;
      // Chunks are page aligned, so page boundaries in the address space are
      // page boundaries of the mapping.
      const uint64_t lo = (addr + page - 1) & ~uint64_t{page - 1};
      const uint64_t hi = (addr + n) & ~uint64_t{page - 1};
      uint8_t* p = At(addr);
      if (lo < hi) {
        std::memset(p, 0, lo - addr);
        FLOCK_CHECK_EQ(madvise(p + (lo - addr), hi - lo, MADV_DONTNEED), 0);
        std::memset(p + (hi - addr), 0, addr + n - hi);
      } else {
        std::memset(p, 0, n);
      }
      addr += n;
      len -= n;
    }
  }

 private:
  struct ChunkUnmap {
    void operator()(uint8_t* chunk) const { munmap(chunk, kChunkBytes); }
  };
  using Chunk = std::unique_ptr<uint8_t, ChunkUnmap>;

  static size_t ChunkIndex(uint64_t addr) { return addr / kChunkBytes; }

  static size_t PageBytes() {
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return page;
  }

  // MAP_NORESERVE: the space is sized for the worst case and mostly never
  // touched, so it must not count against the commit limit. Transparent huge
  // pages are declined so residency stays at page grain on hosts that enable
  // them for every mapping.
  static Chunk MapChunk() {
    void* p = mmap(nullptr, kChunkBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    FLOCK_CHECK(p != MAP_FAILED) << "mmap of a memory chunk failed";
    madvise(p, kChunkBytes, MADV_NOHUGEPAGE);
    return Chunk(static_cast<uint8_t*>(p));
  }

  std::vector<Chunk> chunks_;
  // Address 0 is reserved as a null sentinel (work requests use local_addr 0
  // to mean "no local buffer"), so allocations start at 64.
  size_t next_ = 64;
};

}  // namespace flock::fabric

#endif  // FLOCK_FABRIC_MEMORY_H_
