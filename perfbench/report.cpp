#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  std::cerr << "perfbench: output check failed: " << what << "\n";
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const auto& line : notes_) std::cout << line << "\n";
  for (const auto& m : metrics_) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << "\n";
  }
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) os << ", ";
    os << json_string(metrics_[i].name) << ": {\"value\": "
       << json_number(metrics_[i].value)
       << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::runtime_error("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double min_of(const std::vector<double>& values) {
  if (values.empty()) throw std::runtime_error("min of no samples");
  return *std::min_element(values.begin(), values.end());
}

std::string describe(const std::string& name, const std::vector<double>& values) {
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: n=%zu min=%.6g median=%.6g max=%.6g",
                name.c_str(), values.size(), *lo, median(values), *hi);
  return buf;
}

void Samples::add(const std::string& name, double value, const std::string& unit) {
  for (auto& series : series_) {
    if (series.name == name) {
      series.values.push_back(value);
      return;
    }
  }
  series_.push_back({name, unit, {value}});
}

void Samples::emit_medians(Report& report) const {
  for (const auto& series : series_) {
    report.metric(series.name, median(series.values), series.unit);
  }
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("non-finite JSON number");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
