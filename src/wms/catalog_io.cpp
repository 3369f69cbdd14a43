#include "wms/catalog_io.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/strings.hpp"
#include "wms/xml_util.hpp"

namespace pga::wms {

using common::ParseError;

namespace {

/// Parses `key="value"` tokens from a field list.
std::map<std::string, std::string> parse_kv(const std::vector<std::string>& fields,
                                            std::size_t from) {
  std::map<std::string, std::string> kv;
  for (std::size_t i = from; i < fields.size(); ++i) {
    const auto eq = fields[i].find('=');
    if (eq == std::string::npos) {
      throw ParseError("expected key=\"value\", got: " + fields[i]);
    }
    std::string value = fields[i].substr(eq + 1);
    if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
      value = value.substr(1, value.size() - 2);
    }
    kv[fields[i].substr(0, eq)] = value;
  }
  return kv;
}

}  // namespace

// ------------------------------------------------------- replica catalog

std::string to_rc_text(const ReplicaCatalog& catalog) {
  std::ostringstream os;
  os << "# replica catalog: LFN PFN site=\"...\" [size=\"bytes\"]\n";
  for (const auto& [lfn, replicas] : catalog.entries()) {
    for (const auto& replica : replicas) {
      os << lfn << ' ' << replica.pfn << " site=\"" << replica.site << "\"";
      if (replica.size_bytes > 0) {
        os << " size=\"" << replica.size_bytes << "\"";
      }
      os << "\n";
    }
  }
  return os.str();
}

ReplicaCatalog parse_rc_text(const std::string& text) {
  ReplicaCatalog catalog;
  for (const auto& raw : common::split(text, '\n')) {
    const auto line = common::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = common::split_ws(line);
    if (fields.size() < 3) {
      throw ParseError("replica catalog line needs LFN PFN site=...: " +
                       std::string(line));
    }
    Replica replica;
    replica.pfn = fields[1];
    const auto kv = parse_kv(fields, 2);
    const auto site = kv.find("site");
    if (site == kv.end()) throw ParseError("replica missing site: " + std::string(line));
    replica.site = site->second;
    const auto size = kv.find("size");
    if (size != kv.end()) {
      replica.size_bytes = static_cast<std::uint64_t>(common::parse_long(size->second));
    }
    catalog.add(fields[0], std::move(replica));
  }
  return catalog;
}

// ------------------------------------------------ transformation catalog

std::string to_tc_text(const TransformationCatalog& catalog) {
  std::ostringstream os;
  // Group by transformation for the block format.
  std::string current;
  bool open = false;
  for (const auto& [key, entry] : catalog.entries()) {
    const auto& [transformation, site] = key;
    if (transformation != current) {
      if (open) os << "}\n";
      os << "tr " << transformation << " {\n";
      current = transformation;
      open = true;
    }
    os << "  site " << site << " {\n";
    os << "    pfn \"" << entry.pfn << "\"\n";
    os << "    type \"" << (entry.installed ? "INSTALLED" : "STAGEABLE") << "\"\n";
    if (entry.size_bytes > 0) {
      os << "    size \"" << entry.size_bytes << "\"\n";
    }
    os << "  }\n";
  }
  if (open) os << "}\n";
  return os.str();
}

TransformationCatalog parse_tc_text(const std::string& text) {
  TransformationCatalog catalog;
  std::string transformation;
  std::string site;
  std::string pfn;
  bool installed = true;
  std::uint64_t size_bytes = 0;
  int depth = 0;

  for (const auto& raw : common::split(text, '\n')) {
    const auto line = common::trim(raw);
    if (line.empty() || line[0] == '#') continue;
    const auto fields = common::split_ws(line);
    if (fields[0] == "tr") {
      if (fields.size() < 3 || fields[2] != "{" || depth != 0) {
        throw ParseError("malformed tr block: " + std::string(line));
      }
      transformation = fields[1];
      depth = 1;
    } else if (fields[0] == "site") {
      if (fields.size() < 3 || fields[2] != "{" || depth != 1) {
        throw ParseError("malformed site block: " + std::string(line));
      }
      site = fields[1];
      pfn.clear();
      installed = true;
      size_bytes = 0;
      depth = 2;
    } else if (fields[0] == "pfn" && fields.size() >= 2) {
      pfn = std::string(common::trim(line.substr(3)));
      if (pfn.size() >= 2 && pfn.front() == '"' && pfn.back() == '"') {
        pfn = pfn.substr(1, pfn.size() - 2);
      }
    } else if (fields[0] == "type" && fields.size() >= 2) {
      std::string type(common::trim(line.substr(4)));
      if (type.size() >= 2 && type.front() == '"' && type.back() == '"') {
        type = type.substr(1, type.size() - 2);
      }
      if (type != "INSTALLED" && type != "STAGEABLE") {
        throw ParseError("transformation type must be INSTALLED or STAGEABLE, got " +
                         type);
      }
      installed = type == "INSTALLED";
    } else if (fields[0] == "size" && fields.size() >= 2) {
      std::string value(common::trim(line.substr(4)));
      if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
        value = value.substr(1, value.size() - 2);
      }
      size_bytes = static_cast<std::uint64_t>(common::parse_long(value));
    } else if (fields[0] == "}") {
      if (depth == 2) {
        if (transformation.empty() || site.empty() || pfn.empty()) {
          throw ParseError("incomplete site block for " + transformation);
        }
        catalog.add(transformation, site, {pfn, installed, size_bytes});
        depth = 1;
      } else if (depth == 1) {
        depth = 0;
      } else {
        throw ParseError("unbalanced '}' in transformation catalog");
      }
    } else {
      throw ParseError("unexpected transformation catalog line: " + std::string(line));
    }
  }
  if (depth != 0) throw ParseError("unterminated block in transformation catalog");
  return catalog;
}

// ----------------------------------------------------------- site catalog

std::string to_site_xml(const SiteCatalog& catalog) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<sitecatalog>\n";
  for (const auto& name : catalog.names()) {
    const SiteEntry& site = catalog.site(name);
    os << "  <site handle=\"" << xml::escape(site.name) << "\" slots=\""
       << site.slots << "\" preinstalled=\""
       << (site.software_preinstalled ? "true" : "false") << "\" scratch=\""
       << xml::escape(site.scratch_dir) << "\" bandwidth=\""
       << common::format_fixed(site.stage_bandwidth_bps, 0) << "\"/>\n";
  }
  os << "</sitecatalog>\n";
  return os.str();
}

SiteCatalog parse_site_xml(const std::string& xml_text) {
  const xml::Element root = xml::parse_document(xml_text);
  if (root.name != "sitecatalog") {
    throw ParseError("site catalog root must be <sitecatalog>");
  }
  SiteCatalog catalog;
  for (const auto& child : root.children) {
    if (child.name != "site") continue;
    SiteEntry site;
    site.name = child.attr("handle");
    const long slots = common::parse_long(child.attr("slots"));
    if (slots < 0) throw ParseError("site slots must be >= 0: " + child.attr("slots"));
    site.slots = static_cast<std::size_t>(slots);
    const std::string& pre = child.attr("preinstalled");
    if (pre != "true" && pre != "false") {
      throw ParseError("preinstalled must be true/false, got " + pre);
    }
    site.software_preinstalled = pre == "true";
    site.scratch_dir = child.attr("scratch");
    site.stage_bandwidth_bps = common::parse_double(child.attr("bandwidth"));
    // stage_job_seconds prices a NaN, infinite or negative bandwidth as no
    // staging cost at all; 0 is legal and means "unknown".
    if (!std::isfinite(site.stage_bandwidth_bps) || site.stage_bandwidth_bps < 0) {
      throw ParseError("site bandwidth must be finite and >= 0: " +
                       child.attr("bandwidth"));
    }
    catalog.add(std::move(site));
  }
  return catalog;
}

// ---------------------------------------------------------- file wrappers

void write_rc_file(const std::filesystem::path& path, const ReplicaCatalog& catalog) {
  common::write_file(path, to_rc_text(catalog));
}
ReplicaCatalog read_rc_file(const std::filesystem::path& path) {
  return parse_rc_text(common::read_file(path));
}
void write_tc_file(const std::filesystem::path& path,
                   const TransformationCatalog& catalog) {
  common::write_file(path, to_tc_text(catalog));
}
TransformationCatalog read_tc_file(const std::filesystem::path& path) {
  return parse_tc_text(common::read_file(path));
}
void write_site_file(const std::filesystem::path& path, const SiteCatalog& catalog) {
  common::write_file(path, to_site_xml(catalog));
}
SiteCatalog read_site_file(const std::filesystem::path& path) {
  return parse_site_xml(common::read_file(path));
}

}  // namespace pga::wms
