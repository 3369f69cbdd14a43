// Shared non-cryptographic digest helpers.
//
// FNV-1a is the codebase's fingerprint primitive: the WaaS fleet folds
// every workflow's jobstate log into one digest for double-run identity
// checks, the trigger pipeline does the same for storage-event-chained
// runs, and the sharded replica catalog uses the raw hash to pick a
// shard. One implementation lives here so "two runs produced the same
// bytes" always means the same thing everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pga::common {

/// The FNV-1a 64-bit offset basis — the canonical starting hash.
inline constexpr std::uint64_t kFnv1aOffset = 1469598103934665603ULL;

/// Folds `text` into a running FNV-1a hash and returns the new hash.
/// Inline: hot callers fold a line piece by piece.
[[nodiscard]] inline std::uint64_t fnv1a(std::uint64_t hash, std::string_view text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// One-shot FNV-1a of `text` from the offset basis.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

/// Order-sensitive digest of a line vector: each line is folded followed
/// by a '\n', so {"a","b"} and {"ab",""} hash differently. This is the
/// jobstate-log fingerprint the fleet's and the trigger pipeline's
/// double-run identity checks compare.
[[nodiscard]] std::uint64_t lines_digest(const std::vector<std::string>& lines);

}  // namespace pga::common
