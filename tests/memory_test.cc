// Unit tests for the simulated host memory in src/fabric/memory.h: zero-read
// of untouched bytes, chunk-spanning bulk copies, pointer stability, on-touch
// residency and the Zero() contract.
#include "src/fabric/memory.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace flock::fabric {
namespace {

constexpr size_t kChunk = MemorySpace::kChunkBytes;

size_t PageBytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

// Resident pages among the whole pages covering [addr, addr + len), asked of
// the kernel with mincore one chunk at a time.
size_t ResidentPages(MemorySpace& mem, uint64_t addr, size_t len) {
  const size_t page = PageBytes();
  const uint64_t end = addr + len;
  addr &= ~uint64_t{page - 1};
  size_t resident = 0;
  while (addr < end) {
    const uint64_t chunk_end = (addr / kChunk + 1) * kChunk;
    const size_t n = static_cast<size_t>(std::min<uint64_t>(end, chunk_end) - addr);
    std::vector<unsigned char> vec((n + page - 1) / page);
    EXPECT_EQ(mincore(mem.At(addr), n, vec.data()), 0);
    for (unsigned char v : vec) {
      resident += v & 1;
    }
    addr += n;
  }
  return resident;
}

TEST(MemoryTest, UntouchedBytesReadZeroAcrossChunkBoundary) {
  MemorySpace mem;
  mem.Alloc(kChunk);  // lands in chunk 1; chunk 0 holds only the sentinel
  mem.Alloc(kChunk);  // chunk 2
  ASSERT_GE(mem.capacity(), 3 * kChunk);
  std::vector<uint8_t> buf(8192, 0xff);
  mem.Read(2 * kChunk - 4096, buf.data(), buf.size());
  for (uint8_t b : buf) {
    ASSERT_EQ(b, 0);
  }
  EXPECT_EQ(mem.At(0)[0], 0);
  EXPECT_EQ(mem.At(3 * kChunk - 1)[0], 0);
}

TEST(MemoryTest, WriteAndReadSpanTwoChunks) {
  MemorySpace mem;
  mem.Alloc(kChunk);
  mem.Alloc(kChunk);
  std::vector<uint8_t> src(10000);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint64_t addr = 2 * kChunk - 3333;
  mem.Write(addr, src.data(), src.size());
  std::vector<uint8_t> dst(src.size());
  mem.Read(addr, dst.data(), dst.size());
  EXPECT_EQ(dst, src);
  // Both halves landed in their own chunk.
  EXPECT_EQ(mem.At(2 * kChunk - 1)[0], src[3332]);
  EXPECT_EQ(mem.At(2 * kChunk)[0], src[3333]);
}

TEST(MemoryTest, AtPointersStayValidAsSpaceGrows) {
  MemorySpace mem;
  const uint64_t a = mem.Alloc(256);
  uint8_t* p = mem.At(a);
  p[0] = 0x5a;
  p[255] = 0xa5;
  for (int i = 0; i < 40; ++i) {
    mem.Alloc(kChunk);
  }
  EXPECT_GE(mem.capacity(), 41 * kChunk);
  EXPECT_EQ(mem.At(a), p);
  EXPECT_EQ(p[0], 0x5a);
  EXPECT_EQ(p[255], 0xa5);
}

TEST(MemoryTest, AllocatedButUntouchedPagesAreNotResident) {
  MemorySpace mem;
  std::vector<uint64_t> bufs;
  for (int i = 0; i < 16; ++i) {
    bufs.push_back(mem.Alloc(kChunk));  // 64 MB in all
  }
  mem.At(bufs[7])[12345] = 1;
  EXPECT_LT(ResidentPages(mem, 0, mem.capacity()), 16u);
  EXPECT_EQ(mem.At(bufs[7])[12345], 1);
}

TEST(MemoryTest, ZeroClearsExactlyTheRangeAndReleasesInteriorPages) {
  const size_t page = PageBytes();
  MemorySpace mem;
  const uint64_t base = mem.Alloc(64 * page, page);
  std::vector<uint8_t> fill(64 * page, 0xab);
  mem.Write(base, fill.data(), fill.size());
  ASSERT_EQ(ResidentPages(mem, base, fill.size()), 64u);

  const uint64_t addr = base + 3 * page + 100;  // mid-page start
  const size_t len = 40 * page + 17;            // mid-page end
  mem.Zero(addr, len);
  // Residency first: reading a dropped page maps the shared zero page, which
  // mincore reports as present. The 39 whole pages strictly inside the range
  // were dropped; the edge pages keep their untouched parts and stay resident.
  EXPECT_EQ(ResidentPages(mem, base + 4 * page, 39 * page), 0u);
  EXPECT_EQ(ResidentPages(mem, base + 3 * page, page), 1u);
  EXPECT_EQ(ResidentPages(mem, base + 43 * page, page), 1u);

  std::vector<uint8_t> out(fill.size());
  mem.Read(base, out.data(), out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const bool inside = base + i >= addr && base + i < addr + len;
    ASSERT_EQ(out[i], inside ? 0 : 0xab) << "offset " << i;
  }
}

TEST(MemoryTest, ZeroWithinOnePageAndAcrossChunks) {
  const size_t page = PageBytes();
  MemorySpace mem;
  mem.Alloc(kChunk);
  mem.Alloc(kChunk);
  std::vector<uint8_t> fill(8 * page, 0x11);
  const uint64_t start = 2 * kChunk - 4 * page;
  mem.Write(start, fill.data(), fill.size());

  // [span_lo, span_hi) straddles the chunk boundary with ragged edges.
  const uint64_t span_lo = 2 * kChunk - 2 * page - 1;
  const uint64_t span_hi = 2 * kChunk + 2 * page + 1;
  mem.Zero(start + 10, 20);  // inside one page: a plain memset
  mem.Zero(span_lo, span_hi - span_lo);
  EXPECT_EQ(ResidentPages(mem, 2 * kChunk - 2 * page, 4 * page), 0u);

  std::vector<uint8_t> out(fill.size());
  mem.Read(start, out.data(), out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const bool in_small = i >= 10 && i < 30;
    const bool in_span = start + i >= span_lo && start + i < span_hi;
    ASSERT_EQ(out[i], in_small || in_span ? 0 : 0x11) << "offset " << i;
  }
}

}  // namespace
}  // namespace flock::fabric
