#include "align/tabular.hpp"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pga::align {

using common::ParseError;

std::string format_tabular(const TabularHit& hit) {
  std::ostringstream os;
  os << hit.qseqid << '\t' << hit.sseqid << '\t'
     << common::format_fixed(hit.pident, 3) << '\t' << hit.length << '\t'
     << hit.mismatch << '\t' << hit.gapopen << '\t' << hit.qstart << '\t'
     << hit.qend << '\t' << hit.sstart << '\t' << hit.send << '\t';
  // E-values print in scientific form like BLAST ("1e-30"), bit scores fixed.
  os.setf(std::ios::scientific);
  os.precision(2);
  os << hit.evalue << '\t';
  os.unsetf(std::ios::scientific);
  os << common::format_fixed(hit.bitscore, 1);
  return os.str();
}

TabularHit parse_tabular_line(const std::string& line) {
  const auto fields = common::split(line, '\t');
  if (fields.size() < 12) {
    throw ParseError("tabular line needs 12 columns, got " +
                     std::to_string(fields.size()) + ": " + line);
  }
  TabularHit hit;
  hit.qseqid = fields[0];
  hit.sseqid = fields[1];
  hit.pident = common::parse_double(fields[2]);
  hit.length = common::parse_long(fields[3]);
  hit.mismatch = common::parse_long(fields[4]);
  hit.gapopen = common::parse_long(fields[5]);
  hit.qstart = common::parse_long(fields[6]);
  hit.qend = common::parse_long(fields[7]);
  hit.sstart = common::parse_long(fields[8]);
  hit.send = common::parse_long(fields[9]);
  hit.evalue = common::parse_double(fields[10]);
  hit.bitscore = common::parse_double(fields[11]);
  if (hit.qseqid.empty() || hit.sseqid.empty()) {
    throw ParseError("tabular line has empty sequence id: " + line);
  }
  // A NaN would make best-hit comparisons depend on input order; an
  // infinity or an out-of-range value is no BLAST output either.
  if (!std::isfinite(hit.pident) || hit.pident < 0.0 || hit.pident > 100.0) {
    throw ParseError("tabular pident must be finite and in [0, 100]: " + line);
  }
  if (!std::isfinite(hit.evalue) || hit.evalue < 0.0) {
    throw ParseError("tabular evalue must be finite and >= 0: " + line);
  }
  if (!std::isfinite(hit.bitscore)) {
    throw ParseError("tabular bitscore must be finite: " + line);
  }
  return hit;
}

void write_tabular(std::ostream& out, const std::vector<TabularHit>& hits) {
  for (const auto& hit : hits) out << format_tabular(hit) << '\n';
}

void write_tabular_file(const std::filesystem::path& path,
                        const std::vector<TabularHit>& hits) {
  std::ofstream out(path);
  if (!out) throw common::IoError("cannot write tabular file: " + path.string());
  write_tabular(out, hits);
  if (!out) throw common::IoError("short write to tabular file: " + path.string());
}

namespace {
std::vector<TabularHit> parse_stream(std::istream& in) {
  std::vector<TabularHit> hits;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (common::trim(line).empty() || line[0] == '#') continue;
    hits.push_back(parse_tabular_line(line));
  }
  return hits;
}
}  // namespace

std::vector<TabularHit> read_tabular_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw common::IoError("cannot open tabular file: " + path.string());
  return parse_stream(in);
}

std::vector<TabularHit> parse_tabular(const std::string& text) {
  std::istringstream in(text);
  return parse_stream(in);
}

}  // namespace pga::align
