#include "bio/fastq.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pga::bio {

using common::ParseError;

FastqReader::FastqReader(std::istream& in) : in_(in) {}

std::optional<FastqRecord> FastqReader::next() {
  std::string header;
  // Skip blank lines between records.
  while (std::getline(in_, header)) {
    if (!header.empty() && header.back() == '\r') header.pop_back();
    if (!common::trim(header).empty()) break;
    header.clear();
  }
  if (common::trim(header).empty()) return std::nullopt;
  if (header[0] != '@') throw ParseError("FASTQ: expected '@', got: " + header);

  FastqRecord rec;
  {
    const std::string body = header.substr(1);
    const auto ws = body.find_first_of(" \t");
    rec.id = ws == std::string::npos ? body : body.substr(0, ws);
    if (rec.id.empty()) throw ParseError("FASTQ: empty read id");
  }

  std::string seq, plus, qual;
  if (!std::getline(in_, seq)) throw ParseError("FASTQ: truncated record " + rec.id);
  if (!std::getline(in_, plus)) throw ParseError("FASTQ: truncated record " + rec.id);
  if (!std::getline(in_, qual)) throw ParseError("FASTQ: truncated record " + rec.id);
  for (auto* s : {&seq, &plus, &qual}) {
    if (!s->empty() && s->back() == '\r') s->pop_back();
  }
  if (plus.empty() || plus[0] != '+') {
    throw ParseError("FASTQ: expected '+' separator in record " + rec.id);
  }
  if (seq.size() != qual.size()) {
    throw ParseError("FASTQ: sequence/quality length mismatch in record " + rec.id);
  }
  // Phred+33 spans '!' (Q0) to '~' (Q93); anything else would decode to a
  // negative or out-of-scale score in phred().
  if (std::any_of(qual.begin(), qual.end(), [](char c) { return c < '!' || c > '~'; })) {
    throw ParseError("FASTQ: quality outside Phred+33 ('!'..'~') in record " + rec.id);
  }
  rec.seq = std::move(seq);
  rec.qual = std::move(qual);
  return rec;
}

void write_fastq(std::ostream& out, const std::vector<FastqRecord>& reads) {
  for (const auto& r : reads) {
    out << '@' << r.id << '\n' << r.seq << "\n+\n" << r.qual << '\n';
  }
}

std::vector<FastqRecord> read_fastq_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw common::IoError("cannot open FASTQ file: " + path.string());
  FastqReader reader(in);
  std::vector<FastqRecord> reads;
  while (auto r = reader.next()) reads.push_back(std::move(*r));
  return reads;
}

std::size_t trim_point(const FastqRecord& read, int quality) {
  std::size_t keep = read.length();
  while (keep > 0 && read.phred(keep - 1) < quality) --keep;
  return keep;
}

std::vector<SeqRecord> preprocess(const std::vector<FastqRecord>& reads,
                                  const QcParams& params, QcReport* report) {
  QcReport local;
  local.input_reads = reads.size();
  std::vector<SeqRecord> out;
  out.reserve(reads.size());
  for (const auto& read : reads) {
    const std::size_t keep = trim_point(read, params.trim_quality);
    local.bases_trimmed += read.length() - keep;
    if (keep < params.min_length) {
      ++local.dropped_short;
      continue;
    }
    const std::string kept = read.seq.substr(0, keep);
    const auto n_count = static_cast<std::size_t>(
        std::count_if(kept.begin(), kept.end(),
                      [](char c) { return c == 'N' || c == 'n'; }));
    if (static_cast<double>(n_count) >
        params.max_n_fraction * static_cast<double>(keep)) {
      ++local.dropped_n;
      continue;
    }
    out.push_back(SeqRecord{read.id, "", kept});
    ++local.passed_reads;
  }
  if (report != nullptr) *report = local;
  return out;
}

}  // namespace pga::bio
