// String interning for workflow-scale identifier sets.
//
// A workflow core that re-keys every map by std::string pays an allocation
// and O(log n) string compares per touch; at 10^6 jobs that dominates the
// scheduler's runtime (bench/scale_dag.cpp quantifies it). IdTable maps
// each distinct id to a dense u32 handle exactly once: the bytes live in
// one append-only chunked arena, lookups are a single hash probe, and
// every layer above (DAG adjacency, engine state, event stream, observer
// accumulators) indexes flat vectors by handle instead.
//
// Handles are dense (0, 1, 2, ... in intern order) so they double as
// vector indices. Views returned by name() stay valid for the table's
// lifetime — the arena never moves or frees a string.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace pga::wms {

class IdTable {
 public:
  /// Sentinel for "no such id" lookups; never a valid handle.
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

  IdTable() = default;
  // The lookup map keys are views into the arena; moving the table moves
  // the arena blocks (stable heap storage), so moves are safe. Copies
  // would need re-interning and nothing needs them — delete.
  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;
  IdTable(IdTable&&) = default;
  IdTable& operator=(IdTable&&) = default;

  /// Returns the handle for `id`, interning it on first sight. Throws
  /// InvalidArgument once the table would exceed kInvalid entries.
  std::uint32_t intern(std::string_view id);

  /// Handle for `id`, or kInvalid if it was never interned.
  [[nodiscard]] std::uint32_t find(std::string_view id) const;

  [[nodiscard]] bool contains(std::string_view id) const {
    return find(id) != kInvalid;
  }

  /// The interned spelling of `handle`; valid for the table's lifetime.
  /// Throws InvalidArgument for out-of-range handles. Inline: the engine
  /// names the job of every event it emits.
  [[nodiscard]] std::string_view name(std::uint32_t handle) const {
    if (handle >= names_.size()) throw_unknown(handle);
    return names_[handle];
  }

  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] bool empty() const { return names_.empty(); }

  /// Pre-sizes the hash index for `ids` entries and makes the next arena
  /// block at least `bytes` large — one allocation for a known-scale DAG.
  void reserve(std::size_t ids, std::size_t bytes = 0);

  /// Total id bytes held in the arena (diagnostic; excludes index memory).
  [[nodiscard]] std::size_t arena_bytes() const { return arena_bytes_; }

 private:
  /// Copies `id` into the arena, growing it block-by-block; returns a
  /// stable view of the copy.
  std::string_view store(std::string_view id);

  /// Grows the open-addressing index to `slot_count` slots (power of two)
  /// and reinserts every interned id.
  void rehash(std::size_t slot_count);

  [[noreturn]] static void throw_unknown(std::uint32_t handle);

  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t block_used_ = 0;
  std::size_t block_capacity_ = 0;
  std::size_t next_block_bytes_ = 0;  ///< hint from reserve()
  std::size_t arena_bytes_ = 0;
  std::vector<std::string_view> names_;  // handle -> spelling
  // Flat linear-probing index (spelling -> handle): two parallel arrays,
  // kInvalid marking an empty slot and the stored hash short-circuiting
  // string compares on probe collisions. A node-based unordered_map here
  // cost a pointer chase per probe and dominated million-job DAG builds
  // (~half the profile in _M_find_before_node).
  std::vector<std::uint32_t> slots_;
  std::vector<std::size_t> slot_hashes_;
};

}  // namespace pga::wms
