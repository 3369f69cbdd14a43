// DAX generator: emits the abstract blast2cap3 workflow as DAX XML (the
// format Pegasus plans from) and shows the concrete plan for a site —
// the Fig. 2 (Sandhills) vs. Fig. 3 (OSG) difference made visible.
//
//   ./dax_generator [--platform sandhills|osg] [--setup-jobs] [--dot] [n] [out]
//
// With --dot the concrete plan is emitted as Graphviz DOT instead of the
// abstract DAX XML (pipe through `dot -Tpng` to draw Fig. 2/Fig. 3).
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/fsutil.hpp"
#include "core/b2c3_workflow.hpp"
#include "wms/dax_xml.hpp"
#include "wms/dot.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace pga;
  std::string platform = "sandhills";
  std::size_t n = 10;
  std::string out_path;
  bool explicit_setup = false;
  bool emit_dot = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--platform") == 0 && i + 1 < argc) {
      platform = argv[++i];
    } else if (std::strcmp(argv[i], "--setup-jobs") == 0) {
      explicit_setup = true;
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      emit_dot = true;
    } else if (out_path.empty() && std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
      n = std::stoul(argv[i]);
    } else {
      out_path = argv[i];
    }
  }

  const core::B2c3WorkflowSpec spec{.n = n};
  const auto dax = core::build_blast2cap3_dax(spec);

  // Plan it for the chosen site — the paper's planning stage.
  wms::PlannerOptions options;
  options.target_site = platform;
  options.explicit_setup_jobs = explicit_setup;
  const auto concrete = wms::plan(dax, workload::generator_site_catalog(),
                                  workload::generator_transformation_catalog(dax),
                                  core::paper_replica_catalog(spec), options);

  const std::string output = emit_dot ? wms::to_dot(concrete) : wms::to_dax_xml(dax);
  if (out_path.empty()) {
    std::printf("%s\n", output.c_str());
  } else {
    pga::common::write_file(out_path, output);
    std::printf("wrote %s (%zu jobs, %zu edges)\n", out_path.c_str(),
                dax.jobs().size(), dax.edge_count());
  }

  std::size_t flagged = 0;
  for (const auto& job : concrete.jobs()) {
    if (job.needs_software_setup) ++flagged;
  }
  std::fprintf(stderr,
               "\nplanned for site '%s': %zu jobs (%zu compute, %zu stage-in, "
               "%zu stage-out, %zu setup), %zu tasks carry a download/install "
               "step%s\n",
               platform.c_str(), concrete.jobs().size(),
               concrete.count(wms::JobKind::kCompute),
               concrete.count(wms::JobKind::kStageIn),
               concrete.count(wms::JobKind::kStageOut),
               concrete.count(wms::JobKind::kSetup), flagged,
               platform == "osg" ? " (the Fig. 3 red rectangles)" : "");
  return 0;
}
