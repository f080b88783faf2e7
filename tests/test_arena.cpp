// Tests for hbosim::Arena / ArenaScope / ArenaAllocator: alignment and
// growth mechanics, the reset/recycle lifecycle, the thread-local scoping
// model (heap fallback outside any scope, nesting) and container usage.
// The guarantee that an arena never changes what a simulation computes is
// pinned end to end by FleetSimulator.ArenaOffMatchesArenaOn.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "hbosim/common/arena.hpp"

namespace hbosim {
namespace {

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(1024);
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(8, 8);
  void* c = arena.allocate(16, 16);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 16, 0u);
  // Writes don't stomp each other.
  std::memset(a, 0xAA, 3);
  std::memset(b, 0xBB, 8);
  std::memset(c, 0xCC, 16);
  EXPECT_EQ(static_cast<unsigned char*>(a)[2], 0xAA);
  EXPECT_EQ(static_cast<unsigned char*>(b)[7], 0xBB);
  EXPECT_EQ(static_cast<unsigned char*>(c)[15], 0xCC);
  EXPECT_GE(arena.bytes_in_use(), 3u + 8u + 16u);
}

TEST(Arena, GrowsBeyondOneBlockAndHonoursOversizedRequests) {
  Arena arena(64);
  for (int i = 0; i < 32; ++i) arena.allocate(16, 8);  // spills into blocks
  const std::uint64_t blocks_after_spill = arena.block_allocations();
  EXPECT_GT(blocks_after_spill, 1u);
  // A single allocation larger than block_bytes still succeeds.
  void* big = arena.allocate(1024, 16);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0, 1024);
  EXPECT_GT(arena.bytes_reserved(), 1024u);
}

TEST(Arena, ResetRecyclesBlocksInsteadOfReallocating) {
  Arena arena(256);
  for (int i = 0; i < 16; ++i) arena.allocate(64, 8);
  const std::size_t reserved = arena.bytes_reserved();
  const std::uint64_t blocks = arena.block_allocations();
  const std::size_t high_water = arena.high_water_bytes();
  EXPECT_GT(arena.bytes_in_use(), 0u);

  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);       // blocks kept
  EXPECT_EQ(arena.high_water_bytes(), high_water);   // survives reset

  // The steady state: the same workload after reset allocates zero new
  // blocks — this is the property the fleet loop depends on.
  for (int i = 0; i < 16; ++i) arena.allocate(64, 8);
  EXPECT_EQ(arena.block_allocations(), blocks);
}

TEST(ArenaScope, InstallsRestoresAndNests) {
  EXPECT_EQ(Arena::current(), nullptr);
  Arena outer, inner;
  {
    ArenaScope a(outer);
    EXPECT_EQ(Arena::current(), &outer);
    {
      ArenaScope b(inner);
      EXPECT_EQ(Arena::current(), &inner);
    }
    EXPECT_EQ(Arena::current(), &outer);
  }
  EXPECT_EQ(Arena::current(), nullptr);
}

TEST(ArenaAllocator, FallsBackToHeapOutsideAnyScope) {
  ASSERT_EQ(Arena::current(), nullptr);
  // No scope: plain new/delete, fully usable (this is how arena-typed
  // containers behave everywhere outside the fleet workers).
  std::vector<int, ArenaAllocator<int>> v;
  for (int i = 0; i < 1000; ++i) v.push_back(i);
  EXPECT_EQ(v[999], 999);
  EXPECT_EQ(v.get_allocator().arena(), nullptr);
}

TEST(ArenaAllocator, ContainersDrawFromTheScopedArena) {
  Arena arena(1 << 12);
  {
    ArenaScope scope(arena);
    std::vector<double, ArenaAllocator<double>> v;
    std::map<int, int, std::less<int>,
             ArenaAllocator<std::pair<const int, int>>>
        m;
    for (int i = 0; i < 200; ++i) {
      v.push_back(0.5 * i);
      m.emplace(i, i * i);
    }
    EXPECT_EQ(v.get_allocator().arena(), &arena);
    EXPECT_GT(arena.bytes_in_use(),
              200 * sizeof(double));  // vector + tree nodes landed here
    EXPECT_DOUBLE_EQ(v[199], 99.5);
    EXPECT_EQ(m.at(14), 196);
  }  // containers die before the reset below
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
}

TEST(ArenaAllocator, CapturedArenaSurvivesScopeExitUntilReset) {
  Arena arena;
  std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
  v.push_back(7);
  // The allocator routes by its captured pointer, not by the thread-local
  // current arena, so growth after scope exit stays in the same arena.
  v.resize(500, 7);
  EXPECT_EQ(v[499], 7);
  EXPECT_GT(arena.bytes_in_use(), 0u);
}

}  // namespace
}  // namespace hbosim
