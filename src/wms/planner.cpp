#include "wms/planner.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pga::wms {

using common::InvalidArgument;
using common::WorkflowError;

ConcreteWorkflow::ConcreteWorkflow(std::string name, std::string site)
    : JobDag(std::move(name), CycleCheck::kOff), site_(std::move(site)) {}

std::uint32_t ConcreteWorkflow::add_job(ConcreteJob job) {
  if (bulk_open_) {
    throw InvalidArgument("add_job during an open bulk build");
  }
  job.index = add_node(job.id);  // == jobs_.size(): dense
  jobs_.push_back(std::move(job));
  return jobs_.back().index;
}

ConcreteJob* ConcreteWorkflow::begin_bulk(std::size_t count) {
  if (!jobs_.empty() || bulk_open_) {
    throw InvalidArgument("begin_bulk requires an empty workflow");
  }
  bulk_open_ = true;
  jobs_.resize(count);
  return jobs_.data();
}

void ConcreteWorkflow::finish_bulk() {
  if (!bulk_open_) throw InvalidArgument("finish_bulk without begin_bulk");
  bulk_open_ = false;
  for (ConcreteJob& job : jobs_) job.index = intern_node(job.id);
  close_nodes();
}

const ConcreteJob& ConcreteWorkflow::job_at(std::uint32_t index) const {
  if (index >= jobs_.size()) {
    throw InvalidArgument("unknown concrete job handle: " + std::to_string(index));
  }
  return jobs_[index];
}

std::string_view ConcreteWorkflow::abstract_id_of(std::uint32_t index) const {
  const ConcreteJob& job = job_at(index);
  if (job.kind == JobKind::kCompute) return job.id;
  return {};
}

std::vector<std::string> ConcreteWorkflow::constituents_of(
    std::uint32_t index) const {
  (void)job_at(index);  // bounds check
  const auto it = constituents_.find(index);
  return it == constituents_.end() ? std::vector<std::string>{} : it->second;
}

void ConcreteWorkflow::set_constituents(std::uint32_t index,
                                        std::vector<std::string> members) {
  (void)job_at(index);  // bounds check
  constituents_[index] = std::move(members);
}

std::size_t ConcreteWorkflow::count(JobKind kind) const {
  std::size_t n = 0;
  for (const auto& job : jobs_) {
    if (job.kind == kind) ++n;
  }
  return n;
}

double stage_job_seconds(std::uint64_t bytes, const SiteEntry& site) {
  // Zero bytes price exactly like no bandwidth term: base + 0.0 == base.
  return kStageJobSeconds +
         (bytes > 0 && site.stage_bandwidth_bps > 0
              ? static_cast<double>(bytes) / site.stage_bandwidth_bps
              : 0.0);
}

ConcreteJob stage_job(JobKind kind, std::vector<std::string> lfns,
                      std::uint64_t bytes, const SiteEntry& site) {
  ConcreteJob job;
  job.id = kind == JobKind::kStageIn ? "stage_in_0" : "stage_out_0";
  job.transformation = "pegasus::transfer";
  job.kind = kind;
  job.args = std::move(lfns);
  job.staged_bytes = bytes;
  job.cpu_seconds_hint = stage_job_seconds(bytes, site);
  return job;
}

ConcreteWorkflow plan(const AbstractWorkflow& abstract, const SiteCatalog& sites,
                      const TransformationCatalog& transformations,
                      const ReplicaCatalog& replicas, const PlannerOptions& options) {
  if (!sites.has(options.target_site)) {
    throw WorkflowError("unknown target site: " + options.target_site);
  }
  if (options.cluster_factor == 0) {
    throw InvalidArgument("cluster_factor must be >= 1");
  }
  abstract.validate();
  const SiteEntry& site = sites.site(options.target_site);

  ConcreteWorkflow concrete(abstract.name(), site.name);
  concrete.reserve(abstract.jobs().size() + 2);

  // 1. Resolve every transformation and decide whether it needs setup —
  // keyed by transformation (a handful of distinct values), not per job.
  struct SetupInfo {
    bool needs = false;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, SetupInfo, std::less<>> setup_by_transformation;
  for (const auto& job : abstract.jobs()) {
    const auto [it, inserted] = setup_by_transformation.try_emplace(job.transformation);
    if (!inserted) continue;
    const auto entry = transformations.lookup(job.transformation, site.name);
    if (!entry.has_value()) {
      throw WorkflowError("transformation " + job.transformation +
                          " not available at site " + site.name);
    }
    it->second.needs = !site.software_preinstalled || !entry->installed;
    it->second.bytes = entry->size_bytes;
  }
  const auto setup_for = [&](const std::string& transformation) -> const SetupInfo& {
    return setup_by_transformation.find(transformation)->second;
  };
  /// The plain compute job realizing `a` 1:1, under its own id.
  const auto add_compute = [&](const AbstractJob& a) {
    const SetupInfo& setup = setup_for(a.transformation);
    ConcreteJob job;
    job.id = a.id;
    job.transformation = a.transformation;
    job.kind = JobKind::kCompute;
    job.args = a.args;
    job.cpu_seconds_hint = a.cpu_seconds_hint;
    job.needs_software_setup = setup.needs;
    job.software_bytes = setup.bytes;
    concrete.add_job(std::move(job));
  };

  // 2. Horizontal clustering: group compute jobs with the same
  // transformation and identical parent sets, then pack cluster_factor
  // members per concrete job.
  const bool clustering = options.cluster_factor > 1;
  std::map<std::string, std::string> to_concrete;  // abstract id -> concrete id
  if (clustering) {
    std::map<std::string, std::vector<std::string>> groups;  // signature -> ids
    std::vector<std::string> group_order;
    for (const auto& job : abstract.jobs()) {
      const std::string signature =
          job.transformation + "|" + common::join(abstract.parents(job.id), ",");
      auto [it, inserted] = groups.try_emplace(signature);
      if (inserted) group_order.push_back(signature);
      it->second.push_back(job.id);
    }
    std::size_t cluster_counter = 0;
    for (const auto& signature : group_order) {
      const auto& members = groups[signature];
      for (std::size_t start = 0; start < members.size();
           start += options.cluster_factor) {
        const std::size_t end =
            std::min(members.size(), start + options.cluster_factor);
        if (end - start == 1) {
          // Lone member: stays an ordinary compute job.
          add_compute(abstract.job(members[start]));
          to_concrete[members[start]] = members[start];
          continue;
        }
        ConcreteJob clustered;
        clustered.id = "cluster_" + std::to_string(cluster_counter++);
        clustered.transformation =
            abstract.job(members[start]).transformation;
        clustered.kind = JobKind::kClustered;
        std::vector<std::string> constituents;
        bool any_setup = false;
        for (std::size_t i = start; i < end; ++i) {
          const AbstractJob& a = abstract.job(members[i]);
          const SetupInfo& setup = setup_for(a.transformation);
          clustered.cpu_seconds_hint += a.cpu_seconds_hint;
          constituents.push_back(a.id);
          any_setup = any_setup || setup.needs;
          // Members share one transformation, hence one software bundle.
          clustered.software_bytes =
              std::max(clustered.software_bytes, setup.bytes);
          to_concrete[a.id] = clustered.id;
        }
        // One download/install per clustered job — this is exactly the
        // overhead-amortization clustering exists for.
        clustered.needs_software_setup = any_setup;
        const std::uint32_t handle = concrete.add_job(std::move(clustered));
        concrete.set_constituents(handle, std::move(constituents));
      }
    }
  } else {
    for (const auto& a : abstract.jobs()) add_compute(a);
  }
  /// Abstract id -> concrete id (identity when clustering is off: plain
  /// compute jobs map 1:1 and keep their ids).
  const auto concrete_id = [&](const std::string& id) -> const std::string& {
    return clustering ? to_concrete.at(id) : id;
  };

  // 3. Abstract edges. Without clustering the handle spaces are identical
  // (same insertion order), so explicit edges copy by handle and patterns
  // propagate as patterns — O(explicit + patterns), not O(all edges).
  if (clustering) {
    for (const auto& a : abstract.jobs()) {
      for (const auto& child : abstract.children(a.id)) {
        const std::string& cp = to_concrete.at(a.id);
        const std::string& cc = to_concrete.at(child);
        if (cp != cc) concrete.add_dependency(cp, cc);
      }
    }
  } else {
    abstract.graph().for_each_explicit_edge(
        [&](std::uint32_t parent, std::uint32_t child) {
          concrete.add_dependency(parent, child);
        });
    for (const EdgePattern& pattern : abstract.graph().patterns()) {
      concrete.add_edge_pattern(pattern);
    }
  }

  // 4. Stage-in for external inputs.
  const auto inputs = abstract.workflow_inputs();
  if (!inputs.empty()) {
    for (const auto& lfn : inputs) {
      if (!replicas.has(lfn)) {
        throw WorkflowError("workflow input " + lfn + " has no replica");
      }
    }
    std::uint64_t in_bytes = 0;
    for (const auto& lfn : inputs) {
      const auto replica = replicas.best_for_site(lfn, site.name);
      if (replica.has_value()) in_bytes += replica->size_bytes;
    }
    concrete.add_job(stage_job(JobKind::kStageIn, inputs, in_bytes, site));
    // Parents every consumer of an external input.
    const std::set<std::string> input_set(inputs.begin(), inputs.end());
    std::set<std::string> consumers;
    for (const auto& a : abstract.jobs()) {
      for (const auto& lfn : a.inputs()) {
        if (input_set.count(lfn)) consumers.insert(concrete_id(a.id));
      }
    }
    for (const auto& consumer : consumers) {
      concrete.add_dependency("stage_in_0", consumer);
    }
  }

  // 5. Stage-out for final outputs.
  const auto outputs = abstract.workflow_outputs();
  if (!outputs.empty()) {
    concrete.add_job(stage_job(JobKind::kStageOut, outputs,
                               options.expected_output_bytes, site));
    const std::set<std::string> output_set(outputs.begin(), outputs.end());
    std::set<std::string> producers;
    for (const auto& a : abstract.jobs()) {
      for (const auto& lfn : a.outputs()) {
        if (output_set.count(lfn)) producers.insert(concrete_id(a.id));
      }
    }
    for (const auto& producer : producers) {
      concrete.add_dependency(producer, "stage_out_0");
    }
  }

  // 6. Optional explicit setup nodes (Fig. 3 drawn as separate steps).
  if (options.explicit_setup_jobs) {
    std::vector<std::string> flagged;
    for (const auto& job : concrete.jobs()) {
      if (job.needs_software_setup &&
          (job.kind == JobKind::kCompute || job.kind == JobKind::kClustered)) {
        flagged.push_back(job.id);
      }
    }
    for (const auto& id : flagged) {
      ConcreteJob setup;
      setup.id = "setup_" + id;
      setup.transformation = "install_software_stack";
      setup.kind = JobKind::kSetup;
      setup.cpu_seconds_hint = kSetupJobSeconds;
      concrete.add_job(std::move(setup));
      concrete.add_dependency("setup_" + id, id);
      // The install cost is now carried by the explicit setup node.
      concrete.mutable_job(id).needs_software_setup = false;
    }
  }

  return concrete;
}

}  // namespace pga::wms
