#include "bio/fastq.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/fsutil.hpp"

namespace pga::bio {
namespace {

std::vector<FastqRecord> parse(const std::string& text) {
  std::istringstream in(text);
  FastqReader reader(in);
  std::vector<FastqRecord> out;
  while (auto r = reader.next()) out.push_back(std::move(*r));
  return out;
}

TEST(FastqReader, ParsesFourLineRecords) {
  const auto reads = parse("@r1 lane1\nACGT\n+\nIIII\n@r2\nGG\n+r2\nAB\n");
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].id, "r1");
  EXPECT_EQ(reads[0].seq, "ACGT");
  EXPECT_EQ(reads[0].qual, "IIII");
  EXPECT_EQ(reads[1].id, "r2");
}

TEST(FastqReader, PhredDecoding) {
  const auto reads = parse("@r\nAC\n+\n!I\n");
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].phred(0), 0);   // '!' = phred 0
  EXPECT_EQ(reads[0].phred(1), 40);  // 'I' = phred 40
}

TEST(FastqReader, RejectsMissingAt) {
  EXPECT_THROW(parse("r1\nACGT\n+\nIIII\n"), common::ParseError);
}

TEST(FastqReader, RejectsMissingPlus) {
  EXPECT_THROW(parse("@r1\nACGT\nIIII\nIIII\n"), common::ParseError);
}

TEST(FastqReader, RejectsLengthMismatch) {
  EXPECT_THROW(parse("@r1\nACGT\n+\nII\n"), common::ParseError);
}

TEST(FastqReader, RejectsQualityOutsidePhred33) {
  EXPECT_THROW(parse("@r1\nACGT\n+\nII I\n"), common::ParseError);
  EXPECT_THROW(parse("@r1\nACGT\n+\nII\x7fI\n"), common::ParseError);
  EXPECT_EQ(parse("@r1\nACGT\n+\n!!~~\n").at(0).phred(3), 93);
}

TEST(FastqReader, RejectsTruncation) {
  EXPECT_THROW(parse("@r1\nACGT\n"), common::ParseError);
}

TEST(FastqReader, EmptyInput) { EXPECT_TRUE(parse("").empty()); }

TEST(FastqWrite, RoundTrip) {
  std::vector<FastqRecord> reads{{"a", "ACGT", "IIII"}, {"b", "GG", "!!"}};
  std::ostringstream os;
  write_fastq(os, reads);
  EXPECT_EQ(parse(os.str()), reads);
}

TEST(FastqFile, DiskRoundTrip) {
  common::ScratchDir dir("fastq-test");
  const auto path = dir.file("reads.fastq");
  std::vector<FastqRecord> reads{{"a", "ACGT", "IIII"}};
  {
    std::ofstream out(path);
    write_fastq(out, reads);
  }
  EXPECT_EQ(read_fastq_file(path), reads);
}

TEST(TrimPoint, CutsLowQualityTail) {
  // Qualities: 40,40,40,10,10 with threshold 20 -> keep 3.
  const FastqRecord read{"r", "ACGTA", "III++"};
  EXPECT_EQ(trim_point(read, 20), 3u);
}

TEST(TrimPoint, KeepsAllWhenGood) {
  const FastqRecord read{"r", "ACGT", "IIII"};
  EXPECT_EQ(trim_point(read, 20), 4u);
}

TEST(TrimPoint, DropsAllWhenBad) {
  const FastqRecord read{"r", "ACGT", "!!!!"};
  EXPECT_EQ(trim_point(read, 20), 0u);
}

TEST(Preprocess, FiltersShortAndNRichReads) {
  QcParams params;
  params.trim_quality = 20;
  params.min_length = 4;
  params.max_n_fraction = 0.25;
  const std::vector<FastqRecord> reads{
      {"good", "ACGTACGT", "IIIIIIII"},
      {"short_after_trim", "ACGTAC", "III!!!"},
      {"n_rich", "ANNNACGT", "IIIIIIII"},
  };
  QcReport report;
  const auto passed = preprocess(reads, params, &report);
  ASSERT_EQ(passed.size(), 1u);
  EXPECT_EQ(passed[0].id, "good");
  EXPECT_EQ(report.input_reads, 3u);
  EXPECT_EQ(report.passed_reads, 1u);
  EXPECT_EQ(report.dropped_short, 1u);
  EXPECT_EQ(report.dropped_n, 1u);
  EXPECT_EQ(report.bases_trimmed, 3u);
}

TEST(Preprocess, ReportOptional) {
  const std::vector<FastqRecord> reads{{"r", "ACGTACGT", "IIIIIIII"}};
  QcParams params;
  params.min_length = 2;
  EXPECT_EQ(preprocess(reads, params).size(), 1u);
}

}  // namespace
}  // namespace pga::bio
