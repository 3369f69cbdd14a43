// Minimal XML reading/writing shared by the DAX and kickstart formats.
//
// Supports the subset this library emits: elements, attributes, character
// data, self-closing tags, and prologs/comments (skipped). No namespaces,
// CDATA or processing instructions.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pga::wms::xml {

/// One parsed element.
struct Element {
  std::string name;
  std::map<std::string, std::string> attrs;
  std::string text;  ///< concatenated character data
  std::vector<Element> children;

  /// First child with the given name; nullptr if absent.
  [[nodiscard]] const Element* child(const std::string& name) const;
  /// Attribute value; throws ParseError if absent.
  [[nodiscard]] const std::string& attr(const std::string& name) const;
  [[nodiscard]] bool has_attr(const std::string& name) const;
};

/// Parses a document (prolog and comments tolerated); returns the root.
/// Throws ParseError on malformed input.
Element parse_document(const std::string& input);

/// Escapes &<>"' for attribute/text contexts.
std::string escape(std::string_view text);

/// Reverses escape(); throws ParseError on unknown entities.
std::string unescape(const std::string& text);

}  // namespace pga::wms::xml
