// Graphviz DOT export of workflows — the rendering behind figures like the
// paper's Fig. 2/Fig. 3 (pegasus-graphviz in the real tool suite).
#pragma once

#include <string>

#include "wms/dax.hpp"
#include "wms/planner.hpp"

namespace pga::wms {

/// Renders the abstract workflow: ovals for tasks, edges for dependencies
/// (files are implicit, as in the paper's figures).
std::string to_dot(const AbstractWorkflow& workflow);

/// Renders a concrete workflow. Auxiliary jobs are shaped by kind
/// (transfers as parallelograms, setup jobs as boxes) and tasks that
/// carry a download/install step are drawn red — exactly the Fig. 3
/// convention.
std::string to_dot(const ConcreteWorkflow& workflow);

}  // namespace pga::wms
