#include "core/local_run.hpp"

#include <gtest/gtest.h>

#include <set>

#include "align/blastx.hpp"
#include "align/tabular.hpp"
#include "b2c3/serial.hpp"
#include "bio/fasta.hpp"
#include "bio/transcriptome.hpp"
#include "common/error.hpp"
#include "common/fsutil.hpp"

namespace pga::core {
namespace {

namespace fs = std::filesystem;

struct Inputs {
  bio::Transcriptome txm;
  common::ScratchDir dir{"core-local"};
  fs::path fasta;
  fs::path alignments;
};

Inputs& shared_inputs() {
  static Inputs* inputs = [] {
    auto* in = new Inputs;
    bio::TranscriptomeParams params;
    params.families = 5;
    params.protein_min = 80;
    params.protein_max = 140;
    params.fragment_min_frac = 0.6;
    params.seed = 2024;
    in->txm = bio::generate_transcriptome(params);
    in->fasta = in->dir.file("transcripts.fasta");
    in->alignments = in->dir.file("alignments.out");
    bio::write_fasta_file(in->fasta, in->txm.transcripts);
    const align::BlastxSearch search(in->txm.proteins);
    align::write_tabular_file(in->alignments,
                              search.search_all(in->txm.transcripts));
    return in;
  }();
  return *inputs;
}

TEST(LocalRun, ExecutesWholeWorkflowForReal) {
  auto& in = shared_inputs();
  LocalRunConfig config;
  config.workspace = in.dir.path() / "ws-real";
  fs::create_directories(config.workspace);
  config.n = 4;
  config.slots = 4;
  const auto result = run_blast2cap3_locally(in.fasta, in.alignments, config);
  ASSERT_TRUE(result.report.success);
  EXPECT_TRUE(fs::exists(result.output));
  const auto assembly = bio::read_fasta_file(result.output);
  EXPECT_FALSE(assembly.empty());
  // Protein-guided merging shrinks the catalogue.
  EXPECT_LT(assembly.size(), in.txm.transcripts.size());
  // Statistics cover the whole DAG: 2 lists + split + 4 cap3 + 3 merges +
  // stage-in + stage-out = 12 jobs.
  EXPECT_EQ(result.stats.jobs(), 12u);
  EXPECT_TRUE(result.stats.per_transformation().count("run_cap3"));
  // Provenance: one kickstart record per attempt in the workspace.
  std::size_t records = 0;
  for (const auto& entry :
       fs::directory_iterator(config.workspace / "kickstart")) {
    if (entry.path().filename().string().ends_with(".out.xml")) ++records;
  }
  EXPECT_EQ(records, result.report.total_attempts);
}

TEST(LocalRun, MatchesSerialBaselineOutput) {
  auto& in = shared_inputs();

  LocalRunConfig config;
  config.workspace = in.dir.path() / "ws-match";
  fs::create_directories(config.workspace);
  config.n = 3;
  const auto workflow_result = run_blast2cap3_locally(in.fasta, in.alignments, config);
  ASSERT_TRUE(workflow_result.report.success);

  const fs::path serial_work = in.dir.path() / "serial-work";
  fs::create_directories(serial_work);
  const fs::path serial_out = in.dir.file("serial-assembly.fasta");
  const auto serial_report =
      b2c3::run_serial(in.fasta, in.alignments, serial_out, serial_work);

  // Same multiset of output sequences (ids differ by chunk tags).
  std::multiset<std::string> workflow_seqs, serial_seqs;
  for (const auto& r : bio::read_fasta_file(workflow_result.output)) {
    workflow_seqs.insert(r.seq);
  }
  for (const auto& r : bio::read_fasta_file(serial_out)) serial_seqs.insert(r.seq);
  EXPECT_EQ(workflow_seqs, serial_seqs);
  EXPECT_EQ(workflow_seqs.size(), serial_report.output_records);
}

TEST(LocalRun, DifferentNSameResult) {
  auto& in = shared_inputs();
  std::multiset<std::string> previous;
  for (const std::size_t n : {1ul, 2ul, 5ul}) {
    LocalRunConfig config;
    config.workspace = in.dir.path() / ("ws-n" + std::to_string(n));
    fs::create_directories(config.workspace);
    config.n = n;
    const auto result = run_blast2cap3_locally(in.fasta, in.alignments, config);
    ASSERT_TRUE(result.report.success) << n;
    std::multiset<std::string> seqs;
    for (const auto& r : bio::read_fasta_file(result.output)) seqs.insert(r.seq);
    if (!previous.empty()) {
      EXPECT_EQ(seqs, previous) << "n=" << n;
    }
    previous = std::move(seqs);
  }
}

TEST(LocalRun, SharedHitPolicyEndToEndMatchesItsSerialBaseline) {
  // The Buffalo-script policy, through the whole workflow: n=3 workflow
  // output must equal the shared-hit serial baseline.
  auto& in = shared_inputs();
  LocalRunConfig config;
  config.workspace = in.dir.path() / "ws-shared";
  fs::create_directories(config.workspace);
  config.n = 3;
  config.policy = b2c3::ClusterPolicy::kSharedHit;
  const auto workflow_result = run_blast2cap3_locally(in.fasta, in.alignments, config);
  ASSERT_TRUE(workflow_result.report.success);

  const fs::path serial_work = in.dir.path() / "serial-shared-work";
  fs::create_directories(serial_work);
  const fs::path serial_out = in.dir.file("serial-shared.fasta");
  b2c3::run_serial(in.fasta, in.alignments, serial_out, serial_work, {},
                   b2c3::ClusterPolicy::kSharedHit);

  std::multiset<std::string> workflow_seqs, serial_seqs;
  for (const auto& r : bio::read_fasta_file(workflow_result.output)) {
    workflow_seqs.insert(r.seq);
  }
  for (const auto& r : bio::read_fasta_file(serial_out)) serial_seqs.insert(r.seq);
  EXPECT_EQ(workflow_seqs, serial_seqs);
}

TEST(LocalRun, MissingWorkspaceRejected) {
  auto& in = shared_inputs();
  LocalRunConfig config;
  config.workspace = in.dir.path() / "does-not-exist";
  EXPECT_THROW(run_blast2cap3_locally(in.fasta, in.alignments, config),
               common::InvalidArgument);
}

TEST(LocalRun, FailedStageInExhaustsRetriesAndWritesRescue) {
  auto& in = shared_inputs();
  LocalRunConfig config;
  config.workspace = in.dir.path() / "ws-fail";
  fs::create_directories(config.workspace);
  config.retries = 1;
  const auto result = run_blast2cap3_locally(in.dir.file("nonexistent.fasta"),
                                             in.alignments, config);
  EXPECT_FALSE(result.report.success);
  // The engine left a rescue file behind for resumption.
  EXPECT_TRUE(fs::exists(config.workspace / "rescue.dag"));
}

}  // namespace
}  // namespace pga::core
