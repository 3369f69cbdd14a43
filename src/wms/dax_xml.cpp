#include "wms/dax_xml.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/strings.hpp"
#include "wms/xml_util.hpp"

namespace pga::wms {

using common::ParseError;

std::string to_dax_xml(const AbstractWorkflow& workflow) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<adag name=\"" << xml::escape(workflow.name()) << "\">\n";
  for (const auto& job : workflow.jobs()) {
    os << "  <job id=\"" << xml::escape(job.id) << "\" name=\""
       << xml::escape(job.transformation) << "\"";
    if (job.cpu_seconds_hint > 0) {
      os << " runtime=\"" << common::format_fixed(job.cpu_seconds_hint, 3) << "\"";
    }
    os << ">\n";
    if (!job.args.empty()) {
      os << "    <argument>" << xml::escape(common::join(job.args, " "))
         << "</argument>\n";
    }
    for (const auto& use : job.uses) {
      os << "    <uses file=\"" << xml::escape(use.lfn) << "\" link=\""
         << (use.link == LinkType::kInput ? "input" : "output") << "\"/>\n";
    }
    os << "  </job>\n";
  }
  for (const auto& job : workflow.jobs()) {
    const auto parents = workflow.parents(job.id);
    if (parents.empty()) continue;
    os << "  <child ref=\"" << xml::escape(job.id) << "\">\n";
    for (const auto& parent : parents) {
      os << "    <parent ref=\"" << xml::escape(parent) << "\"/>\n";
    }
    os << "  </child>\n";
  }
  os << "</adag>\n";
  return os.str();
}

AbstractWorkflow from_dax_xml(const std::string& xml_text) {
  const xml::Element root = xml::parse_document(xml_text);
  if (root.name != "adag") throw ParseError("DAX root element must be <adag>");
  AbstractWorkflow workflow(root.attr("name"));

  // First pass: jobs.
  for (const auto& child : root.children) {
    if (child.name != "job") continue;
    AbstractJob job;
    job.id = child.attr("id");
    job.transformation = child.attr("name");
    if (child.has_attr("runtime")) {
      job.cpu_seconds_hint = common::parse_double(child.attr("runtime"));
      if (!std::isfinite(job.cpu_seconds_hint) || job.cpu_seconds_hint < 0) {
        throw ParseError("DAX job runtime must be finite and >= 0: " +
                         child.attr("runtime"));
      }
    }
    for (const auto& sub : child.children) {
      if (sub.name == "argument") {
        job.args = common::split_ws(sub.text);
      } else if (sub.name == "uses") {
        const std::string& link_text = sub.attr("link");
        LinkType link;
        if (link_text == "input") link = LinkType::kInput;
        else if (link_text == "output") link = LinkType::kOutput;
        else throw ParseError("bad link type: " + link_text);
        job.uses.push_back(FileUse{sub.attr("file"), link});
      }
    }
    workflow.add_job(std::move(job));
  }
  // Second pass: dependencies.
  for (const auto& child : root.children) {
    if (child.name != "child") continue;
    const std::string& ref = child.attr("ref");
    for (const auto& sub : child.children) {
      if (sub.name == "parent") workflow.add_dependency(sub.attr("ref"), ref);
    }
  }
  return workflow;
}

void write_dax_file(const std::filesystem::path& path,
                    const AbstractWorkflow& workflow) {
  common::write_file(path, to_dax_xml(workflow));
}

AbstractWorkflow read_dax_file(const std::filesystem::path& path) {
  return from_dax_xml(common::read_file(path));
}

}  // namespace pga::wms
