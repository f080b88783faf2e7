#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

/// \file arena.hpp
/// Monotonic bump allocator for per-session state. A fleet worker
/// simulates one session, throws everything away, and starts the next —
/// the textbook arena lifecycle. Backing the session's trace series and
/// solution lookup table (a tree node per stored solution) with one
/// resettable arena turns their mallocs into pointer bumps, and `reset()`
/// recycles the same blocks for the next session so steady-state fleet
/// throughput stops touching the global allocator. The DES event queue is
/// not arena-typed: it reuses its own vectors and allocates nothing once
/// warm (see des/simulator.hpp).
///
/// Scoping model: `ArenaScope` installs an arena as the calling thread's
/// *current* arena; a default-constructed `ArenaAllocator` captures
/// whatever arena is current at container construction time (null -> plain
/// `operator new/delete`, bitwise-identical behaviour to an ordinary
/// std::allocator container). Deallocation into an arena is a no-op — the
/// memory is reclaimed wholesale by `reset()` — so every container using
/// an arena-captured allocator MUST be destroyed before the owner resets.
/// The fleet guarantees this by scoping one session per reset.
///
/// Allocation strategy only: an arena never changes what a simulation
/// computes, so arena-on and arena-off runs are bitwise identical
/// (pinned by tests/test_arena.cpp and the fleet parity test).

namespace hbosim {

class Arena {
 public:
  /// `block_bytes` is the granularity of the underlying heap requests;
  /// single allocations larger than a block get a dedicated block.
  explicit Arena(std::size_t block_bytes = 1 << 16);

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` with the given power-of-two alignment. Never
  /// returns null (grows by appending blocks).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Rewind to empty, KEEPING every block for reuse. All memory handed
  /// out since construction / the previous reset is invalidated.
  void reset();

  /// Bytes handed out since the last reset().
  std::size_t bytes_in_use() const { return in_use_; }
  /// Total bytes of heap blocks owned (survives reset — the reuse pool).
  std::size_t bytes_reserved() const { return reserved_; }
  /// Largest bytes_in_use() observed across resets.
  std::size_t high_water_bytes() const { return high_water_; }
  /// Heap blocks requested over the arena's lifetime; flat once the
  /// steady state is reached (the metric the fleet bench watches).
  std::uint64_t block_allocations() const { return block_allocations_; }

  /// The calling thread's current arena (installed by ArenaScope), or
  /// null when allocation should fall through to the global heap.
  static Arena* current();

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_ = 0;   ///< Index of the block being bumped.
  std::size_t offset_ = 0;  ///< Bump offset within blocks_[block_].
  std::size_t in_use_ = 0;
  std::size_t reserved_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t block_allocations_ = 0;
};

/// RAII: installs an arena as the thread's current arena, restoring the
/// previous one (supporting nesting) on destruction. Does NOT reset the
/// arena — the owner resets once every arena-backed object is destroyed.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* previous_;
};

/// Standard-allocator adapter. Captures the thread's current arena at
/// construction (or an explicit one); a null arena degrades to the global
/// heap, so arena-agnostic code can use these container types everywhere.
/// The captured pointer travels with the container (and its rebound node
/// allocators), keeping allocate/deallocate routed consistently even if
/// the container outlives the scope that created it — as long as it does
/// not outlive the arena's next reset().
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::false_type;
  using is_always_equal = std::false_type;

  ArenaAllocator() : arena_(Arena::current()) {}
  explicit ArenaAllocator(Arena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t) noexcept {
    // Arena memory is reclaimed wholesale by Arena::reset().
    if (arena_ == nullptr) ::operator delete(p);
  }

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return arena_ != other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace hbosim
