// Abstract workflows — the DAX layer of the Pegasus model.
//
// An abstract workflow names *logical* transformations and files only; it
// knows nothing about sites, physical paths, or software setup. The
// planner (planner.hpp) maps it onto a concrete, executable workflow.
//
// The job ids, the dependency graph and every graph read come from JobDag
// (job_dag.hpp), which the concrete workflow shares; this layer adds the
// abstract job records, their file uses and the DAX-only checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wms/job_dag.hpp"

namespace pga::wms {

/// Direction of a file use.
enum class LinkType { kInput, kOutput };

/// One logical-file usage by a job.
struct FileUse {
  std::string lfn;  ///< logical file name, e.g. "alignments.out"
  LinkType link = LinkType::kInput;

  friend bool operator==(const FileUse&, const FileUse&) = default;
};

/// One abstract job (a DAX <job> element).
struct AbstractJob {
  std::string id;              ///< unique within the workflow, e.g. "split"
  std::string transformation;  ///< logical executable name
  std::vector<std::string> args;
  std::vector<FileUse> uses;
  /// Cost-model hint: CPU-seconds of work at reference speed. Carried into
  /// the concrete workflow for simulated execution.
  double cpu_seconds_hint = 0;

  [[nodiscard]] std::vector<std::string> inputs() const;
  [[nodiscard]] std::vector<std::string> outputs() const;
};

/// A directed acyclic graph of abstract jobs. The graph reads, edge
/// insertion and edge stores are JobDag's; edges added here are cycle
/// checked.
class AbstractWorkflow : public JobDag {
 public:
  /// Throws InvalidArgument on an empty name.
  explicit AbstractWorkflow(std::string name);

  /// Adds a job; throws InvalidArgument on duplicate or empty id or an
  /// empty transformation. Returns the job's dense handle (== position in
  /// jobs()).
  std::uint32_t add_job(AbstractJob job);

  /// Derives edges from data flow: if job A outputs an LFN that job B
  /// inputs, adds A -> B. Call after all jobs are added (Pegasus does the
  /// same from <uses> declarations).
  void infer_dependencies_from_files();

  [[nodiscard]] const std::vector<AbstractJob>& jobs() const { return jobs_; }
  [[nodiscard]] const AbstractJob& job(const std::string& id) const {
    return jobs_[job_index(id)];
  }

  /// LFNs consumed by some job but produced by none: the workflow's
  /// external inputs (must come from the replica catalog).
  [[nodiscard]] std::vector<std::string> workflow_inputs() const;

  /// LFNs produced but never consumed: the workflow's final outputs.
  [[nodiscard]] std::vector<std::string> workflow_outputs() const;

  /// Sanity checks: every LFN has at most one producer, graph acyclic.
  /// Throws WorkflowError with a description of the first violation.
  void validate() const;

 private:
  std::vector<AbstractJob> jobs_;
};

}  // namespace pga::wms
