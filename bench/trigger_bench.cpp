// Trigger subsystem + sharded replica catalog benchmark (ISSUE PR 8).
//
// Three arms, one JSON report (BENCH_trigger.json):
//
//   catalog   — replica-catalog ops/s at 1e6 replicas: the legacy
//               string-keyed std::map design (re-created inline below,
//               byte-for-byte the pre-PR-8 data structure) against the
//               interned-id sharded catalog that replaced it. The full
//               run asserts the >= 5x lookup-throughput claim.
//   pipeline  — end-to-end event-triggered pipelines through the fleet:
//               one seed blast2cap3 whose stage-out re-triggers follow-on
//               workflows until the firing budget ends the chain; reports
//               throughput and asserts double-run byte identity.
//   locality  — stage-in bytes moved under the data-locality scheduling
//               policy vs FIFO on an LRU-bounded storage element with
//               reuse_resident staging: FIFO interleaves two file groups
//               and thrashes the cache, locality drains each group while
//               it is resident. Byte counts are closed-form deterministic.
//
// Usage: trigger_bench [--smoke] [--out PATH]
//   --smoke   machine-independent guards only: catalog parity against a
//             reference std::map at 20k LFNs, closed-form triggered
//             workflow counts + double-run digest identity, and exact
//             closed-form stage-in byte counts for both policies. CI
//             perf leg; exits non-zero on violation. No walltime checks.
//   --out     where to write the JSON report (default BENCH_trigger.json)
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "common/strings.hpp"
#include "data/locality.hpp"
#include "data/staging_service.hpp"
#include "data/transfer_manager.hpp"
#include "sim/campus_cluster.hpp"
#include "sim/event_queue.hpp"
#include "trigger/trigger.hpp"
#include "waas/fleet.hpp"
#include "wms/catalog.hpp"
#include "wms/engine.hpp"
#include "wms/exec_service.hpp"
#include "workload/generator.hpp"
#include "peak_rss.hpp"

namespace {

using namespace pga;

// ------------------------------------------------------------- catalog arm

/// The pre-PR-8 ReplicaCatalog storage, reproduced exactly: one global
/// red-black tree keyed by LFN string. The bench races it against the
/// sharded rewrite on identical data and probe order.
struct LegacyCatalog {
  std::map<std::string, std::vector<wms::Replica>> entries;

  void add(const std::string& lfn, wms::Replica replica) {
    entries[lfn].push_back(std::move(replica));
  }
  [[nodiscard]] const std::vector<wms::Replica>* find(
      const std::string& lfn) const {
    const auto it = entries.find(lfn);
    return it == entries.end() ? nullptr : &it->second;
  }
};

std::string lfn_for(std::size_t i) {
  return "contig_" + std::to_string(i) + ".fasta";
}

wms::Replica replica_for(const std::string& lfn, std::size_t i) {
  wms::Replica replica;
  replica.pfn = "/data/" + lfn;
  replica.site = i % 3 == 0 ? "local" : (i % 3 == 1 ? "sandhills" : "osg");
  replica.size_bytes = 1000 + i % 4096;
  return replica;
}

struct CatalogPoint {
  std::size_t replicas = 0;
  double legacy_add_ops = 0;
  double legacy_lookup_ops = 0;
  double sharded_add_ops = 0;
  double sharded_lookup_ops = 0;
  double lookup_speedup = 0;
  std::uint64_t checksum_legacy = 0;  ///< anti-DCE; must match sharded
  std::uint64_t checksum_sharded = 0;
};

CatalogPoint run_catalog_arm(std::size_t count, std::size_t lookup_passes) {
  // Identical LFN/replica streams for both arms; probe order is a seeded
  // Fisher-Yates shuffle so neither arm benefits from insertion locality.
  std::vector<std::string> lfns;
  lfns.reserve(count);
  for (std::size_t i = 0; i < count; ++i) lfns.push_back(lfn_for(i));
  std::vector<std::size_t> probes(count);
  for (std::size_t i = 0; i < count; ++i) probes[i] = i;
  common::Rng rng(2024);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(probes[i - 1], probes[rng.below(i)]);
  }

  CatalogPoint point;
  point.replicas = count;

  LegacyCatalog legacy;
  common::Stopwatch watch;
  for (std::size_t i = 0; i < count; ++i) {
    legacy.add(lfns[i], replica_for(lfns[i], i));
  }
  point.legacy_add_ops = static_cast<double>(count) / watch.seconds();

  watch.reset();
  for (std::size_t pass = 0; pass < lookup_passes; ++pass) {
    for (const std::size_t p : probes) {
      const auto* replicas = legacy.find(lfns[p]);
      if (replicas != nullptr) point.checksum_legacy += replicas->front().size_bytes;
    }
  }
  point.legacy_lookup_ops =
      static_cast<double>(count * lookup_passes) / watch.seconds();

  wms::ReplicaCatalog sharded;
  sharded.reserve(count);
  watch.reset();
  for (std::size_t i = 0; i < count; ++i) {
    sharded.add(lfns[i], replica_for(lfns[i], i));
  }
  point.sharded_add_ops = static_cast<double>(count) / watch.seconds();

  watch.reset();
  for (std::size_t pass = 0; pass < lookup_passes; ++pass) {
    for (const std::size_t p : probes) {
      const auto* replicas = sharded.find(lfns[p]);
      if (replicas != nullptr) point.checksum_sharded += replicas->front().size_bytes;
    }
  }
  point.sharded_lookup_ops =
      static_cast<double>(count * lookup_passes) / watch.seconds();

  point.lookup_speedup = point.sharded_lookup_ops / point.legacy_lookup_ops;
  if (point.checksum_legacy != point.checksum_sharded) {
    throw common::Error("trigger_bench: catalog arms disagree on lookups");
  }
  return point;
}

/// Machine-independent semantic parity: the sharded catalog must answer
/// every membership, ordering and best_for_site question exactly like the
/// legacy map, and entries() must still iterate LFN-sorted.
void check_catalog_parity(std::size_t count) {
  LegacyCatalog legacy;
  wms::ReplicaCatalog sharded;
  for (std::size_t i = 0; i < count; ++i) {
    // Every third LFN gets a second replica so per-LFN order matters.
    const std::string lfn = lfn_for(i % (count * 2 / 3 + 1));
    const auto replica = replica_for(lfn, i);
    legacy.add(lfn, replica);
    sharded.add(lfn, replica);
  }
  if (sharded.size() != legacy.entries.size()) {
    throw common::Error("trigger_bench: sharded size diverges from legacy");
  }
  for (std::size_t i = 0; i < count * 2; ++i) {  // hits and misses
    const std::string lfn = lfn_for(i);
    const auto* expect = legacy.find(lfn);
    const auto* got = sharded.find(lfn);
    if ((expect == nullptr) != (got == nullptr)) {
      throw common::Error("trigger_bench: membership parity broke at " + lfn);
    }
    if (expect == nullptr) continue;
    if (got->size() != expect->size()) {
      throw common::Error("trigger_bench: replica count parity broke at " + lfn);
    }
    for (std::size_t r = 0; r < expect->size(); ++r) {
      if ((*got)[r].pfn != (*expect)[r].pfn ||
          (*got)[r].site != (*expect)[r].site) {
        throw common::Error("trigger_bench: replica order parity broke at " + lfn);
      }
    }
    const auto best = sharded.best_for_site(lfn, "osg");
    // Legacy best_for_site: first same-site replica, else first replica.
    const wms::Replica* expect_best = &expect->front();
    for (const auto& candidate : *expect) {
      if (candidate.site == "osg") {
        expect_best = &candidate;
        break;
      }
    }
    if (!best.has_value() || best->pfn != expect_best->pfn) {
      throw common::Error("trigger_bench: best_for_site parity broke at " + lfn);
    }
  }
  const auto entries = sharded.entries();
  auto expect_it = legacy.entries.begin();
  for (const auto& [lfn, replicas] : entries) {
    if (lfn != expect_it->first) {
      throw common::Error("trigger_bench: entries() lost LFN-sorted order");
    }
    ++expect_it;
  }
}

// ------------------------------------------------------------ pipeline arm

struct PipelinePoint {
  std::size_t follow_ons = 0;
  std::size_t workflows_completed = 0;
  std::size_t workflows_succeeded = 0;
  std::size_t fired = 0;
  std::size_t suppressed_budget = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  double sim_finished_seconds = 0;
  double wall_seconds = 0;
  double workflows_per_sec = 0;
};

/// One seed blast2cap3; a rule on assembly.fasta stage-outs launches
/// follow-on blast2cap3 workflows that re-trigger themselves — a
/// continuous pipeline ended only by the engine-wide firing budget.
PipelinePoint run_pipeline_arm(std::size_t follow_ons) {
  sim::EventQueue queue;
  waas::FleetOptions options;
  options.tenants = 2;
  options.model_staging = true;
  waas::FleetController controller(queue, options);

  trigger::TriggerEngine::Options trigger_options;
  trigger_options.max_total_firings = follow_ons;
  trigger::TriggerEngine trigger(trigger_options);
  trigger::TriggerRule rule;
  rule.name = "on-assembly";
  rule.lfn_glob = "assembly.fasta";
  rule.tenant = 1;
  rule.shape.shape = workload::Shape::kBlast2cap3;
  rule.shape.size = 4;
  trigger.add_rule(rule);
  controller.storage_bus()->subscribe(&trigger);

  workload::WorkflowRequest seed;
  seed.spec.shape = workload::Shape::kBlast2cap3;
  seed.spec.size = 6;
  seed.spec.seed = 7;

  const common::Stopwatch watch;
  const waas::FleetResult result = controller.run({seed}, &trigger);
  const double wall = watch.seconds();

  PipelinePoint point;
  point.follow_ons = follow_ons;
  point.workflows_completed = result.workflows_completed;
  point.workflows_succeeded = result.workflows_succeeded;
  point.fired = trigger.stats().fired;
  point.suppressed_budget = trigger.stats().suppressed_budget;
  point.events = result.events_processed;
  point.digest = result.digest;
  point.sim_finished_seconds = result.finished_at_seconds;
  point.wall_seconds = wall;
  point.workflows_per_sec =
      static_cast<double>(result.workflows_completed) / wall;
  return point;
}

// ------------------------------------------------------------ locality arm

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::uint64_t kFileBytes = 64 * kMiB;
constexpr std::size_t kGroupFiles = 4;

struct LocalityPoint {
  std::size_t jobs = 0;
  std::uint64_t fifo_bytes = 0;
  std::uint64_t locality_bytes = 0;
  std::size_t fifo_bypassed_files = 0;
  std::size_t locality_bypassed_files = 0;
  double bytes_ratio = 0;  ///< fifo / locality
};

/// `jobs` independent stage-ins alternating between two four-file groups,
/// on an element whose LRU capacity fits exactly one group. FIFO order
/// interleaves the groups and re-stages every job; data-locality drains
/// whichever group is resident first, so each group crosses the wire once.
std::uint64_t run_locality_policy(const std::string& policy, std::size_t jobs,
                                  std::size_t* bypassed_files) {
  sim::EventQueue queue;
  sim::CampusClusterPlatform platform(queue, {});
  wms::SimService sim_service(queue, platform);
  data::TransferManager transfers(queue);

  data::StorageElementConfig local;
  local.site = "local";
  local.transfer_slots = 8;
  transfers.add_element(std::move(local));
  data::StorageElementConfig scratch;
  scratch.site = "osg";
  scratch.capacity_bytes = kGroupFiles * kFileBytes;  // one group fits
  scratch.evict_lru = true;
  scratch.transfer_slots = 8;
  transfers.add_element(std::move(scratch));

  wms::ReplicaCatalog replicas;
  wms::ConcreteWorkflow wf("locality-adversarial", "osg");
  for (std::size_t i = 0; i < jobs; ++i) {
    wms::ConcreteJob job;
    job.id = "sin_" + std::to_string(i);
    job.transformation = "pegasus-transfer";
    job.kind = wms::JobKind::kStageIn;
    job.cpu_seconds_hint = 1;
    const std::size_t group = i % 2;  // FIFO order interleaves the groups
    for (std::size_t f = 0; f < kGroupFiles; ++f) {
      const std::string lfn =
          "group" + std::to_string(group) + "_ref" + std::to_string(f) + ".fasta";
      job.args.push_back(lfn);
      if (!replicas.has(lfn)) {
        replicas.add(lfn, {"/data/" + lfn, "local", kFileBytes});
      }
    }
    wf.add_job(std::move(job));
  }

  data::StagingConfig staging_config;
  staging_config.execution_site = "osg";
  staging_config.reuse_resident = true;
  data::StagingService staging(queue, sim_service, transfers, replicas,
                               staging_config);

  wms::EngineOptions options;
  options.max_jobs_in_flight = 1;  // the policy fully controls the order
  if (policy == data::kLocalityPolicyName) {
    options.policy = data::make_locality_policy(transfers);
  }
  wms::DagmanEngine engine(options);
  const auto report = engine.run(wf, staging);
  if (!report.success) {
    throw common::Error("trigger_bench: locality arm run failed (" + policy + ")");
  }
  *bypassed_files = staging.bypassed_files();
  return transfers.stats().bytes_moved;
}

LocalityPoint run_locality_arm(std::size_t jobs) {
  LocalityPoint point;
  point.jobs = jobs;
  point.fifo_bytes = run_locality_policy("fifo", jobs, &point.fifo_bypassed_files);
  point.locality_bytes = run_locality_policy(data::kLocalityPolicyName, jobs,
                                             &point.locality_bypassed_files);
  point.bytes_ratio = static_cast<double>(point.fifo_bytes) /
                      static_cast<double>(point.locality_bytes);
  return point;
}

// ------------------------------------------------------------------ report

void write_json(const std::string& path, bool smoke, const CatalogPoint& cat,
                const PipelinePoint& pipe, const LocalityPoint& loc) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"benchmark\": \"trigger_bench\",\n";
  out << "  \"mode\": \"" << (smoke ? "smoke" : "sweep") << "\",\n";
  out << "  \"catalog\": {\n";
  out << "    \"replicas\": " << cat.replicas << ",\n";
  out << "    \"legacy_map_add_ops_per_sec\": "
      << common::format_fixed(cat.legacy_add_ops, 0) << ",\n";
  out << "    \"legacy_map_lookup_ops_per_sec\": "
      << common::format_fixed(cat.legacy_lookup_ops, 0) << ",\n";
  out << "    \"sharded_add_ops_per_sec\": "
      << common::format_fixed(cat.sharded_add_ops, 0) << ",\n";
  out << "    \"sharded_lookup_ops_per_sec\": "
      << common::format_fixed(cat.sharded_lookup_ops, 0) << ",\n";
  out << "    \"lookup_speedup\": " << common::format_fixed(cat.lookup_speedup, 2)
      << "\n";
  out << "  },\n";
  out << "  \"pipeline\": {\n";
  out << "    \"follow_on_budget\": " << pipe.follow_ons << ",\n";
  out << "    \"workflows_completed\": " << pipe.workflows_completed << ",\n";
  out << "    \"workflows_succeeded\": " << pipe.workflows_succeeded << ",\n";
  out << "    \"trigger_firings\": " << pipe.fired << ",\n";
  out << "    \"suppressed_budget\": " << pipe.suppressed_budget << ",\n";
  out << "    \"events\": " << pipe.events << ",\n";
  out << "    \"sim_finished_seconds\": "
      << common::format_fixed(pipe.sim_finished_seconds, 1) << ",\n";
  out << "    \"wall_seconds\": " << common::format_fixed(pipe.wall_seconds, 3)
      << ",\n";
  out << "    \"workflows_per_sec\": "
      << common::format_fixed(pipe.workflows_per_sec, 1) << ",\n";
  out << "    \"digest\": \"" << std::hex << pipe.digest << std::dec << "\"\n";
  out << "  },\n";
  out << "  \"locality\": {\n";
  out << "    \"stage_in_jobs\": " << loc.jobs << ",\n";
  out << "    \"group_files\": " << kGroupFiles << ",\n";
  out << "    \"file_mib\": " << kFileBytes / kMiB << ",\n";
  out << "    \"fifo_bytes_moved\": " << loc.fifo_bytes << ",\n";
  out << "    \"locality_bytes_moved\": " << loc.locality_bytes << ",\n";
  out << "    \"fifo_bypassed_files\": " << loc.fifo_bypassed_files << ",\n";
  out << "    \"locality_bypassed_files\": " << loc.locality_bypassed_files
      << ",\n";
  out << "    \"fifo_over_locality_bytes\": "
      << common::format_fixed(loc.bytes_ratio, 2) << "\n";
  out << "  },\n";
  out << "  \"peak_rss_mb\": "
      << common::format_fixed(
             static_cast<double>(bench::peak_rss_bytes()) / (1024.0 * 1024.0), 1)
      << "\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_trigger.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: trigger_bench [--smoke] [--out PATH]\n";
      return 2;
    }
  }

  try {
    // Semantic parity runs in both modes; it is the byte-pinned contract
    // behind every throughput number below.
    check_catalog_parity(smoke ? 20'000 : 100'000);

    const std::size_t catalog_n = smoke ? 100'000 : 1'000'000;
    const std::size_t passes = smoke ? 1 : 2;
    const CatalogPoint cat = run_catalog_arm(catalog_n, passes);
    std::cout << "catalog n=" << cat.replicas << " legacy lookup/s="
              << static_cast<std::size_t>(cat.legacy_lookup_ops)
              << " sharded lookup/s="
              << static_cast<std::size_t>(cat.sharded_lookup_ops)
              << " speedup=" << common::format_fixed(cat.lookup_speedup, 2)
              << "x\n";
    if (!smoke && cat.lookup_speedup < 5.0) {
      std::cerr << "trigger_bench: sharded lookup speedup "
                << common::format_fixed(cat.lookup_speedup, 2)
                << "x is below the 5x claim\n";
      return 1;
    }

    const std::size_t follow_ons = smoke ? 2 : 24;
    const PipelinePoint pipe = run_pipeline_arm(follow_ons);
    const PipelinePoint again = run_pipeline_arm(follow_ons);
    if (pipe.digest != again.digest || pipe.events != again.events) {
      std::cerr << "trigger_bench: triggered pipeline double run diverged\n";
      return 1;
    }
    // Closed form: the seed workflow + exactly the budgeted follow-ons
    // (each firing's own stage-out would re-trigger forever otherwise).
    if (pipe.workflows_completed != 1 + follow_ons ||
        pipe.workflows_succeeded != 1 + follow_ons ||
        pipe.fired != follow_ons || pipe.suppressed_budget == 0) {
      std::cerr << "trigger_bench: pipeline counts off closed form ("
                << pipe.workflows_completed << " workflows, " << pipe.fired
                << " firings, " << pipe.suppressed_budget << " suppressed)\n";
      return 1;
    }
    std::cout << "pipeline workflows=" << pipe.workflows_completed
              << " firings=" << pipe.fired << " events=" << pipe.events
              << " wall=" << common::format_fixed(pipe.wall_seconds, 2)
              << "s double run byte-identical\n";

    const std::size_t jobs = smoke ? 8 : 32;
    const LocalityPoint loc = run_locality_arm(jobs);
    // Both byte counts are closed-form: FIFO re-stages one full group per
    // job (the interleave evicts the other group every time); locality
    // moves each group exactly once.
    const std::uint64_t group_bytes = kGroupFiles * kFileBytes;
    if (loc.fifo_bytes != jobs * group_bytes ||
        loc.locality_bytes != 2 * group_bytes) {
      std::cerr << "trigger_bench: locality byte counts off closed form (fifo "
                << loc.fifo_bytes << ", locality " << loc.locality_bytes
                << ")\n";
      return 1;
    }
    std::cout << "locality fifo=" << loc.fifo_bytes / kMiB << "MiB locality="
              << loc.locality_bytes / kMiB << "MiB ("
              << common::format_fixed(loc.bytes_ratio, 1) << "x fewer bytes)\n";

    write_json(out_path, smoke, cat, pipe, loc);
  } catch (const std::exception& err) {
    std::cerr << "trigger_bench: " << err.what() << "\n";
    return 1;
  }

  std::cout << "wrote " << out_path << "\n";
  return 0;
}
