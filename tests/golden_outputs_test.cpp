// Byte-pins the BLASTX tabular output and the CAP3-style assembler's
// overlap/contig output against the committed tests/golden/ fixtures.
//
// The fixtures were recorded against the pre-rewrite full-matrix kernels;
// the band-compressed DP, flat seed accumulator and parallel overlap phase
// all promise byte-identical results, and this suite holds them to it.
// After an *intentional* output change, regenerate with
// `build/bench/align_golden_gen` and commit the new fixtures.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "align_golden_shared.hpp"

namespace pga {
namespace {

std::string read_golden(const std::string& name) {
  const auto path = std::filesystem::path(PGA_GOLDEN_DIR) / name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path
                         << " — run build/bench/align_golden_gen";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GoldenOutputs, AlignAndAssemblyFixturesAreByteIdentical) {
  const auto cases = golden::build_golden_cases();
  ASSERT_EQ(cases.size(), 6u);
  for (const auto& c : cases) {
    const std::string expected = read_golden(c.name);
    EXPECT_EQ(c.content, expected)
        << c.name << " drifted from the committed fixture";
  }
}

}  // namespace
}  // namespace pga
