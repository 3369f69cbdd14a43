#include "wms/dax.hpp"

#include <algorithm>
#include <string_view>

#include "common/error.hpp"

namespace pga::wms {

using common::InvalidArgument;
using common::WorkflowError;

std::vector<std::string> AbstractJob::inputs() const {
  std::vector<std::string> out;
  for (const auto& use : uses) {
    if (use.link == LinkType::kInput) out.push_back(use.lfn);
  }
  return out;
}

std::vector<std::string> AbstractJob::outputs() const {
  std::vector<std::string> out;
  for (const auto& use : uses) {
    if (use.link == LinkType::kOutput) out.push_back(use.lfn);
  }
  return out;
}

AbstractWorkflow::AbstractWorkflow(std::string name)
    : JobDag(std::move(name), CycleCheck::kOn) {
  if (this->name().empty()) throw InvalidArgument("workflow name must not be empty");
}

std::uint32_t AbstractWorkflow::add_job(AbstractJob job) {
  if (job.transformation.empty()) {
    throw InvalidArgument("job " + job.id + " has no transformation");
  }
  const std::uint32_t handle = add_node(job.id);  // == jobs_.size(): dense
  jobs_.push_back(std::move(job));
  return handle;
}

namespace {

/// The producing job of every output LFN, by the LFN's handle in `lfns`
/// (an interner of its own). Throws WorkflowError when two jobs produce
/// one LFN.
std::vector<std::uint32_t> producers(const std::vector<AbstractJob>& jobs,
                                     IdTable& lfns) {
  std::vector<std::uint32_t> producer;
  for (std::uint32_t self = 0; self < jobs.size(); ++self) {
    for (const auto& lfn : jobs[self].outputs()) {
      const std::uint32_t f = lfns.intern(lfn);
      if (f >= producer.size()) producer.resize(f + 1, IdTable::kInvalid);
      if (producer[f] != IdTable::kInvalid) {
        throw WorkflowError("file " + lfn + " produced by both " +
                            jobs[producer[f]].id + " and " + jobs[self].id);
      }
      producer[f] = self;
    }
  }
  return producer;
}

}  // namespace

void AbstractWorkflow::infer_dependencies_from_files() {
  IdTable lfns;
  const std::vector<std::uint32_t> producer = producers(jobs_, lfns);
  for (std::uint32_t self = 0; self < jobs_.size(); ++self) {
    for (const auto& use : jobs_[self].uses) {
      if (use.link != LinkType::kInput) continue;
      const std::uint32_t f = lfns.find(use.lfn);
      if (f == IdTable::kInvalid || f >= producer.size()) continue;
      const std::uint32_t from = producer[f];
      if (from != IdTable::kInvalid && from != self) {
        add_dependency(from, self);
      }
    }
  }
}

namespace {

/// Collects every LFN with flags for "some job produces it" / "some job
/// consumes it", then returns the selected side sorted lexicographically
/// (the order the old std::set scan produced).
std::vector<std::string> lfn_frontier(const std::vector<AbstractJob>& jobs,
                                      bool want_produced) {
  IdTable lfns;
  std::vector<char> produced;
  std::vector<char> consumed;
  for (const auto& job : jobs) {
    for (const auto& use : job.uses) {
      const std::uint32_t f = lfns.intern(use.lfn);
      if (f >= produced.size()) {
        produced.resize(f + 1, 0);
        consumed.resize(f + 1, 0);
      }
      (use.link == LinkType::kOutput ? produced[f] : consumed[f]) = 1;
    }
  }
  std::vector<std::string_view> picked;
  for (std::uint32_t f = 0; f < lfns.size(); ++f) {
    const bool take = want_produced ? (produced[f] && !consumed[f])
                                    : (consumed[f] && !produced[f]);
    if (take) picked.push_back(lfns.name(f));
  }
  std::sort(picked.begin(), picked.end());
  return {picked.begin(), picked.end()};
}

}  // namespace

std::vector<std::string> AbstractWorkflow::workflow_inputs() const {
  return lfn_frontier(jobs_, /*want_produced=*/false);
}

std::vector<std::string> AbstractWorkflow::workflow_outputs() const {
  return lfn_frontier(jobs_, /*want_produced=*/true);
}

void AbstractWorkflow::validate() const {
  IdTable lfns;
  (void)producers(jobs_, lfns);       // throws on an LFN with two producers
  (void)topological_order_indices();  // throws on cycles
}

}  // namespace pga::wms
