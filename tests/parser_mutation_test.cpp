// Seeded mutation sweep over the text parsers a run can be handed: FASTA,
// FASTQ, BLAST outfmt-6, DAX XML, kickstart invocation records and DAGMan
// rescue files. Each parser sees kMutants mutants of one valid document
// (byte flips, truncation, duplicated lines, numbers replaced by nan / inf
// / -1; one to three edits each). A mutant may parse or be rejected, but a
// rejection must be a ParseError, InvalidArgument or WorkflowError, and
// whatever parses must pass the parser's own range checks.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "align/tabular.hpp"
#include "bio/fasta.hpp"
#include "bio/fastq.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/rng.hpp"
#include "wms/dax_xml.hpp"
#include "wms/engine.hpp"
#include "wms/kickstart.hpp"

namespace pga {
namespace {

constexpr std::size_t kMutants = 2000;

/// Applies one to three random edits to a document.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string operator()(std::string doc) {
    const std::uint64_t edits = 1 + rng_.below(3);
    for (std::uint64_t e = 0; e < edits; ++e) {
      switch (rng_.below(4)) {
        case 0: flip_byte(doc); break;
        case 1: doc.resize(rng_.below(doc.size() + 1)); break;
        case 2: duplicate_line(doc); break;
        default: replace_number(doc); break;
      }
    }
    return doc;
  }

 private:
  void flip_byte(std::string& doc) {
    if (doc.empty()) return;
    doc[rng_.below(doc.size())] ^= static_cast<char>(1 + rng_.below(255));
  }

  /// Copies a random line to a random line boundary.
  void duplicate_line(std::string& doc) {
    std::vector<std::size_t> starts{0};
    for (std::size_t i = 0; i < doc.size(); ++i) {
      if (doc[i] == '\n' && i + 1 < doc.size()) starts.push_back(i + 1);
    }
    const std::size_t from = starts[rng_.below(starts.size())];
    const std::size_t end = doc.find('\n', from);
    std::string line = doc.substr(from, end == std::string::npos ? end : end - from);
    line += '\n';
    doc.insert(starts[rng_.below(starts.size())], line);
  }

  /// Replaces one run of digits (with its fraction, if any).
  void replace_number(std::string& doc) {
    std::vector<std::size_t> runs;
    for (std::size_t i = 0; i < doc.size(); ++i) {
      const bool digit = std::isdigit(static_cast<unsigned char>(doc[i])) != 0;
      if (digit && (i == 0 || !std::isdigit(static_cast<unsigned char>(doc[i - 1])))) {
        runs.push_back(i);
      }
    }
    if (runs.empty()) return;
    const std::size_t begin = runs[rng_.below(runs.size())];
    std::size_t end = begin;
    while (end < doc.size() &&
           (std::isdigit(static_cast<unsigned char>(doc[end])) || doc[end] == '.')) {
      ++end;
    }
    static const char* const kReplacements[] = {"nan", "inf", "-1"};
    doc.replace(begin, end - begin, kReplacements[rng_.below(3)]);
  }

  common::Rng rng_;
};

/// Parses a document and returns "" when the result passes the range
/// checks, or a description of the first violation.
using Check = std::function<std::string(const std::string&)>;

struct Outcome {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

Outcome sweep(const std::string& valid, std::uint64_t seed, const Check& check) {
  EXPECT_EQ(check(valid), "");
  Mutator mutate(seed);
  Outcome outcome;
  for (std::size_t i = 0; i < kMutants; ++i) {
    const std::string mutant = mutate(valid);
    try {
      const std::string violation = check(mutant);
      EXPECT_EQ(violation, "") << "mutant " << i << ":\n" << mutant;
      ++outcome.parsed;
    } catch (const common::ParseError&) {
      ++outcome.rejected;
    } catch (const common::InvalidArgument&) {
      ++outcome.rejected;
    } catch (const common::WorkflowError&) {
      ++outcome.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped with '" << e.what() << "':\n"
                    << mutant;
    }
  }
  return outcome;
}

/// Both outcomes occur, so the sweep exercised the accept and reject paths.
void expect_both(const Outcome& outcome) {
  EXPECT_GT(outcome.parsed, 0u);
  EXPECT_GT(outcome.rejected, 0u);
}

bool finite_non_negative(double value) { return std::isfinite(value) && value >= 0; }

/// Ids end at the first space or tab (FASTA, FASTQ) or any whitespace
/// (rescue files), and no parser lets a line break into one.
bool has_space(const std::string& text) {
  return text.find_first_of(" \t\n") != std::string::npos;
}

TEST(ParserMutation, Fasta) {
  const std::string valid = bio::format_fasta(
      {{"tx_000001", "family=prot_0001", "ACGTACGTTGCAACGTTAGCCGATCGATCGGATC"},
       {"tx_000002", "", "TTGACCGATAGCTAGCTAGGCTAACGT"},
       {"tx_000003", "fused", "GGGCCCAAATTTGGGCCCAAATTT"}},
      10);
  expect_both(sweep(valid, 11, [](const std::string& text) -> std::string {
    for (const auto& rec : bio::parse_fasta(text)) {
      if (rec.id.empty() || has_space(rec.id)) return "bad id '" + rec.id + "'";
      if (rec.seq.find('\n') != std::string::npos) return "newline in " + rec.id;
    }
    return "";
  }));
}

TEST(ParserMutation, Fastq) {
  std::ostringstream os;
  bio::write_fastq(os, {{"read_0000001", "ACGTACGTAC", "IIIIHHGG#!"},
                        {"read_0000002", "TTGACCGATA", "~~IIII5555"},
                        {"read_0000003", "GGGCC", "+++++"}});
  expect_both(sweep(os.str(), 12, [](const std::string& text) -> std::string {
    std::istringstream in(text);
    bio::FastqReader reader(in);
    while (const auto read = reader.next()) {
      if (read->id.empty() || has_space(read->id)) return "bad id '" + read->id + "'";
      if (read->seq.size() != read->qual.size()) return "length mismatch in " + read->id;
      for (std::size_t i = 0; i < read->length(); ++i) {
        if (read->phred(i) < 0 || read->phred(i) > 93) {
          return "Phred " + std::to_string(read->phred(i)) + " in " + read->id;
        }
      }
    }
    return "";
  }));
}

TEST(ParserMutation, Tabular) {
  std::string valid = "# blastx outfmt 6\n";
  valid += align::format_tabular({"tx_1", "prot_1", 98.5, 120, 2, 0, 1, 360, 1, 120,
                                  1e-30, 250.5});
  valid += "\n";
  valid += align::format_tabular({"tx_2", "prot_7", 61.25, 80, 30, 1, 300, 61, 5, 84,
                                  2.5e-8, 88.0});
  valid += "\n";
  expect_both(sweep(valid, 13, [](const std::string& text) -> std::string {
    for (const auto& hit : align::parse_tabular(text)) {
      if (hit.qseqid.empty() || hit.sseqid.empty()) return "empty id";
      if (!std::isfinite(hit.pident) || hit.pident < 0 || hit.pident > 100) {
        return "pident " + std::to_string(hit.pident);
      }
      if (!finite_non_negative(hit.evalue)) return "evalue " + std::to_string(hit.evalue);
      if (!std::isfinite(hit.bitscore)) return "bitscore " + std::to_string(hit.bitscore);
    }
    return "";
  }));
}

TEST(ParserMutation, DaxXml) {
  wms::AbstractWorkflow workflow("blast2cap3");
  const auto job = [](const char* id, const char* transformation, double runtime,
                      std::vector<wms::FileUse> uses) {
    wms::AbstractJob j;
    j.id = id;
    j.transformation = transformation;
    j.args = {"--chunk", "0"};
    j.cpu_seconds_hint = runtime;
    j.uses = std::move(uses);
    return j;
  };
  using wms::LinkType;
  workflow.add_job(job("split", "split_alignments", 120.5,
                       {{"alignments.out", LinkType::kInput},
                        {"chunk_0", LinkType::kOutput},
                        {"chunk_1", LinkType::kOutput}}));
  workflow.add_job(job("run_cap3_0", "run_cap3", 900,
                       {{"chunk_0", LinkType::kInput}, {"joined_0", LinkType::kOutput}}));
  workflow.add_job(job("run_cap3_1", "run_cap3", 750,
                       {{"chunk_1", LinkType::kInput}, {"joined_1", LinkType::kOutput}}));
  workflow.add_job(job("merge", "merge_joined", 150,
                       {{"joined_0", LinkType::kInput},
                        {"joined_1", LinkType::kInput},
                        {"assembly.fasta", LinkType::kOutput}}));
  workflow.infer_dependencies_from_files();
  const std::string valid = wms::to_dax_xml(workflow);
  expect_both(sweep(valid, 14, [](const std::string& text) -> std::string {
    const wms::AbstractWorkflow parsed = wms::from_dax_xml(text);
    for (const auto& j : parsed.jobs()) {
      if (j.id.empty() || j.transformation.empty()) return "empty id or transformation";
      if (!finite_non_negative(j.cpu_seconds_hint)) {
        return "runtime " + std::to_string(j.cpu_seconds_hint) + " of " + j.id;
      }
    }
    if (parsed.topological_order().size() != parsed.jobs().size()) return "cycle";
    return "";
  }));
}

TEST(ParserMutation, InvocationXml) {
  wms::RecordedAttempt attempt;
  attempt.success = false;
  attempt.error = "preempted";
  attempt.node = "osg-site-3";
  attempt.submit_time = 1200.0;
  attempt.end_time = 2400.0;
  attempt.wait_seconds = 60.5;
  attempt.install_seconds = 300.0;
  attempt.exec_seconds = 839.5;
  const std::string valid = wms::to_invocation_xml("run_cap3_7", "run_cap3", 2, attempt);
  expect_both(sweep(valid, 15, [](const std::string& text) -> std::string {
    const wms::InvocationRecord record = wms::from_invocation_xml(text);
    const wms::RecordedAttempt& a = record.attempt;
    for (const double value : {a.submit_time, a.end_time, a.wait_seconds,
                               a.install_seconds, a.exec_seconds}) {
      if (!finite_non_negative(value)) return "timing " + std::to_string(value);
    }
    return "";
  }));
}

TEST(ParserMutation, RescueFile) {
  const common::ScratchDir dir("rescue-mutation");
  const auto path = dir.file("blast2cap3.rescue");
  const std::string valid =
      "# rescue DAG for blast2cap3\nDONE create_transcripts_list\n"
      "DONE create_alignments_list\nDONE split\nDONE run_cap3_0\n";
  const auto check = [&path](const std::string& text) -> std::string {
    common::write_file(path, text);
    for (const auto& id : wms::DagmanEngine::read_rescue_file(path)) {
      if (id.empty() || has_space(id)) return "bad id '" + id + "'";
    }
    return "";
  };
  const Outcome outcome = sweep(valid, 16, check);
  // The rescue reader skips every line that is not "DONE <id>", so no
  // mutant is rejected; each one yields a set of well-formed ids.
  EXPECT_EQ(outcome.parsed, kMutants);
}

}  // namespace
}  // namespace pga
