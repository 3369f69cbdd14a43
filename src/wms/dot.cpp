#include "wms/dot.hpp"

#include <sstream>
#include <string_view>

namespace pga::wms {

namespace {

/// DOT identifiers: quote and escape.
std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// One "parent -> child" line per edge (parents in job order, each one's
/// children in id order), then the graph's closing brace.
void write_edges(std::ostream& os, const JobDag& dag) {
  for (std::uint32_t parent = 0; parent < dag.ids().size(); ++parent) {
    const std::string from = quoted(dag.ids().name(parent));
    dag.for_each_child(parent, [&](std::uint32_t child) {
      os << "  " << from << " -> " << quoted(dag.ids().name(child)) << ";\n";
    });
  }
  os << "}\n";
}

}  // namespace

std::string to_dot(const AbstractWorkflow& workflow) {
  std::ostringstream os;
  os << "digraph " << quoted(workflow.name()) << " {\n";
  os << "  rankdir=TB;\n  node [shape=ellipse, fontname=\"Helvetica\"];\n";
  for (const auto& job : workflow.jobs()) {
    os << "  " << quoted(job.id) << " [label="
       << quoted(job.id + "\\n(" + job.transformation + ")") << "];\n";
  }
  write_edges(os, workflow);
  return os.str();
}

std::string to_dot(const ConcreteWorkflow& workflow) {
  std::ostringstream os;
  os << "digraph " << quoted(workflow.name()) << " {\n";
  os << "  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n";
  for (const auto& job : workflow.jobs()) {
    const char* shape = "ellipse";
    switch (job.kind) {
      case JobKind::kStageIn:
      case JobKind::kStageOut: shape = "parallelogram"; break;
      case JobKind::kSetup: shape = "box"; break;
      case JobKind::kCompute:
      case JobKind::kClustered: shape = "ellipse"; break;
    }
    // The Fig. 3 red rectangles: tasks with a download/install step.
    if (job.needs_software_setup) shape = "box";
    os << "  " << quoted(job.id) << " [shape=" << shape << ", label="
       << quoted(job.id + "\\n(" + job.transformation + ")");
    if (job.needs_software_setup) os << ", color=red, fontcolor=red";
    os << "];\n";
  }
  write_edges(os, workflow);
  return os.str();
}

}  // namespace pga::wms
