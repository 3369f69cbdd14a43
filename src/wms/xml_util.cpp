#include "wms/xml_util.hpp"

#include <cctype>

#include "common/error.hpp"

namespace pga::wms::xml {

using common::ParseError;

const Element* Element::child(const std::string& child_name) const {
  for (const auto& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

const std::string& Element::attr(const std::string& attr_name) const {
  const auto it = attrs.find(attr_name);
  if (it == attrs.end()) {
    throw ParseError("<" + name + "> missing attribute " + attr_name);
  }
  return it->second;
}

bool Element::has_attr(const std::string& attr_name) const {
  return attrs.count(attr_name) != 0;
}

std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string unescape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out.push_back(text[i]);
      continue;
    }
    const auto semi = text.find(';', i);
    if (semi == std::string::npos) throw ParseError("bad XML entity in: " + text);
    const std::string entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") out.push_back('&');
    else if (entity == "lt") out.push_back('<');
    else if (entity == "gt") out.push_back('>');
    else if (entity == "quot") out.push_back('"');
    else if (entity == "apos") out.push_back('\'');
    else throw ParseError("unknown XML entity &" + entity + ";");
    i = semi;
  }
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& input) : in_(input) {}

  Element parse_document() {
    skip_prolog();
    Element root = parse_element();
    skip_ws();
    if (pos_ != in_.size()) throw ParseError("trailing content after root element");
    return root;
  }

 private:
  void skip_ws() {
    while (pos_ < in_.size() && std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  void skip_prolog() {
    skip_ws();
    while (pos_ + 1 < in_.size() && in_[pos_] == '<' &&
           (in_[pos_ + 1] == '?' || in_[pos_ + 1] == '!')) {
      const auto end = in_.find('>', pos_);
      if (end == std::string::npos) throw ParseError("unterminated XML prolog");
      pos_ = end + 1;
      skip_ws();
    }
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < in_.size() &&
           (std::isalnum(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '_' ||
            in_[pos_] == '-' || in_[pos_] == ':' || in_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start) {
      throw ParseError("expected XML name at offset " + std::to_string(start));
    }
    return in_.substr(start, pos_ - start);
  }

  Element parse_element() {
    skip_ws();
    if (pos_ >= in_.size() || in_[pos_] != '<') {
      throw ParseError("expected '<' at offset " + std::to_string(pos_));
    }
    ++pos_;
    Element element;
    element.name = parse_name();
    while (true) {
      skip_ws();
      if (pos_ >= in_.size()) throw ParseError("unterminated element " + element.name);
      if (in_[pos_] == '/') {
        pos_ += 2;  // "/>"
        if (pos_ > in_.size() || in_[pos_ - 1] != '>') {
          throw ParseError("malformed self-closing tag " + element.name);
        }
        return element;
      }
      if (in_[pos_] == '>') {
        ++pos_;
        break;
      }
      const std::string key = parse_name();
      skip_ws();
      if (pos_ >= in_.size() || in_[pos_] != '=') {
        throw ParseError("expected '=' after attribute " + key);
      }
      ++pos_;
      skip_ws();
      if (pos_ >= in_.size() || in_[pos_] != '"') {
        throw ParseError("expected '\"' for attribute " + key);
      }
      ++pos_;
      const auto end = in_.find('"', pos_);
      if (end == std::string::npos) throw ParseError("unterminated attribute " + key);
      element.attrs[key] = unescape(in_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }
    while (true) {
      if (pos_ >= in_.size()) throw ParseError("unterminated element " + element.name);
      if (in_[pos_] == '<') {
        if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '/') {
          pos_ += 2;
          const std::string closing = parse_name();
          if (closing != element.name) {
            throw ParseError("mismatched closing tag </" + closing + "> for <" +
                             element.name + ">");
          }
          skip_ws();
          if (pos_ >= in_.size() || in_[pos_] != '>') {
            throw ParseError("malformed closing tag </" + closing + ">");
          }
          ++pos_;
          return element;
        }
        element.children.push_back(parse_element());
      } else {
        const auto next = in_.find('<', pos_);
        if (next == std::string::npos) {
          throw ParseError("unterminated element " + element.name);
        }
        element.text += unescape(in_.substr(pos_, next - pos_));
        pos_ = next;
      }
    }
  }

  const std::string& in_;
  std::size_t pos_ = 0;
};

}  // namespace

Element parse_document(const std::string& input) {
  Parser parser(input);
  return parser.parse_document();
}

}  // namespace pga::wms::xml
