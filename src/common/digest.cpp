#include "common/digest.hpp"

namespace pga::common {

std::uint64_t fnv1a(std::string_view text) { return fnv1a(kFnv1aOffset, text); }

std::uint64_t lines_digest(const std::vector<std::string>& lines) {
  std::uint64_t hash = kFnv1aOffset;
  for (const auto& line : lines) {
    hash = fnv1a(hash, line);
    hash = fnv1a(hash, "\n");
  }
  return hash;
}

}  // namespace pga::common
