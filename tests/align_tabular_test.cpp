#include "align/tabular.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/fsutil.hpp"

namespace pga::align {
namespace {

TabularHit sample_hit() {
  TabularHit hit;
  hit.qseqid = "tx_000001";
  hit.sseqid = "prot_0002";
  hit.pident = 97.561;
  hit.length = 123;
  hit.mismatch = 3;
  hit.gapopen = 0;
  hit.qstart = 2;
  hit.qend = 370;
  hit.sstart = 1;
  hit.send = 123;
  hit.evalue = 1.23e-45;
  hit.bitscore = 250.1;
  return hit;
}

TEST(Tabular, FormatHasTwelveTabColumns) {
  const std::string line = format_tabular(sample_hit());
  std::size_t tabs = 0;
  for (const char c : line) {
    if (c == '\t') ++tabs;
  }
  EXPECT_EQ(tabs, 11u);
}

TEST(Tabular, RoundTripPreservesFields) {
  const auto hit = sample_hit();
  const auto parsed = parse_tabular_line(format_tabular(hit));
  EXPECT_EQ(parsed.qseqid, hit.qseqid);
  EXPECT_EQ(parsed.sseqid, hit.sseqid);
  EXPECT_NEAR(parsed.pident, hit.pident, 1e-3);
  EXPECT_EQ(parsed.length, hit.length);
  EXPECT_EQ(parsed.mismatch, hit.mismatch);
  EXPECT_EQ(parsed.gapopen, hit.gapopen);
  EXPECT_EQ(parsed.qstart, hit.qstart);
  EXPECT_EQ(parsed.qend, hit.qend);
  EXPECT_EQ(parsed.sstart, hit.sstart);
  EXPECT_EQ(parsed.send, hit.send);
  EXPECT_NEAR(parsed.evalue / hit.evalue, 1.0, 0.01);
  EXPECT_NEAR(parsed.bitscore, hit.bitscore, 0.1);
}

TEST(Tabular, ParseRejectsShortLines) {
  EXPECT_THROW(parse_tabular_line("a\tb\tc"), common::ParseError);
  EXPECT_THROW(parse_tabular_line(""), common::ParseError);
}

TEST(Tabular, ParseRejectsEmptyIds) {
  EXPECT_THROW(
      parse_tabular_line("\tp\t90\t10\t1\t0\t1\t30\t1\t10\t1e-5\t50"),
      common::ParseError);
}

TEST(Tabular, ParseRejectsJunkNumbers) {
  EXPECT_THROW(
      parse_tabular_line("q\tp\tninety\t10\t1\t0\t1\t30\t1\t10\t1e-5\t50"),
      common::ParseError);
}

/// A well-formed line with one numeric column replaced.
std::string line_with(std::size_t column, const std::string& value) {
  std::vector<std::string> fields = {"q", "p", "90.0", "10", "1", "0",
                                     "1", "30", "1", "10", "1e-5", "50.0"};
  fields[column] = value;
  std::string line = fields[0];
  for (std::size_t k = 1; k < fields.size(); ++k) line += "\t" + fields[k];
  return line;
}

TEST(Tabular, ParseRejectsNonFiniteOrOutOfRangePident) {
  EXPECT_NO_THROW(parse_tabular_line(line_with(2, "0")));
  EXPECT_NO_THROW(parse_tabular_line(line_with(2, "100")));
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "100.001", "-0.5"}) {
    EXPECT_THROW(parse_tabular_line(line_with(2, bad)), common::ParseError) << bad;
  }
}

TEST(Tabular, ParseRejectsNonFiniteOrNegativeEvalue) {
  EXPECT_NO_THROW(parse_tabular_line(line_with(10, "0")));
  for (const char* bad : {"nan", "inf", "-inf", "-1e-5"}) {
    EXPECT_THROW(parse_tabular_line(line_with(10, bad)), common::ParseError) << bad;
  }
}

TEST(Tabular, ParseRejectsNonFiniteBitscore) {
  EXPECT_NO_THROW(parse_tabular_line(line_with(11, "-3.5")));
  for (const char* bad : {"nan", "inf", "-inf"}) {
    EXPECT_THROW(parse_tabular_line(line_with(11, bad)), common::ParseError) << bad;
  }
}

TEST(Tabular, ParseAcceptsExtraColumns) {
  // Real-world BLAST output sometimes carries extra columns; ignore them.
  const auto hit = parse_tabular_line(
      "q\tp\t90.0\t10\t1\t0\t1\t30\t1\t10\t1e-5\t50.0\textra\tmore");
  EXPECT_EQ(hit.qseqid, "q");
  EXPECT_DOUBLE_EQ(hit.bitscore, 50.0);
}

TEST(Tabular, FileRoundTripSkipsCommentsAndBlanks) {
  common::ScratchDir dir("tabular-test");
  const auto path = dir.file("alignments.out");
  common::write_file(path, "# comment line\n\n" + format_tabular(sample_hit()) +
                               "\n\n# another\n");
  const auto hits = read_tabular_file(path);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].qseqid, "tx_000001");
}

TEST(Tabular, WriteFileThenRead) {
  common::ScratchDir dir("tabular-test");
  const auto path = dir.file("hits.tsv");
  std::vector<TabularHit> hits{sample_hit(), sample_hit()};
  hits[1].qseqid = "tx_000002";
  write_tabular_file(path, hits);
  const auto loaded = read_tabular_file(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].qseqid, "tx_000001");
  EXPECT_EQ(loaded[1].qseqid, "tx_000002");
}

TEST(Tabular, MissingFileThrows) {
  EXPECT_THROW(read_tabular_file("/no/such/alignments.out"), common::IoError);
}

TEST(Tabular, ParseInMemoryText) {
  const auto hits =
      parse_tabular("q1\tp1\t99.0\t50\t0\t0\t1\t150\t1\t50\t1e-20\t100\n"
                    "q2\tp1\t88.0\t40\t4\t1\t1\t120\t1\t40\t1e-10\t60\n");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[1].qseqid, "q2");
  EXPECT_EQ(hits[1].gapopen, 1);
}

}  // namespace
}  // namespace pga::align
