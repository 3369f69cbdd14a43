#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

Tracer::Span::Span(Tracer& tracer, const char* name)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_.enabled_) return;
  SpanRecord record;
  record.name = name;
  record.start_us =
      std::chrono::duration<double, std::micro>(start_ - tracer_.origin_).count();
  record.id = static_cast<std::uint32_t>(tracer_.spans_.size() + 1);
  record.parent = tracer_.open_.empty()
                      ? 0
                      : tracer_.spans_[tracer_.open_.back()].id;
  slot_ = tracer_.spans_.size();
  tracer_.spans_.push_back(std::move(record));
  tracer_.open_.push_back(slot_);
}

Tracer::Span::~Span() {
  if (!tracer_.enabled_) return;
  SpanRecord& record = tracer_.spans_[slot_];
  record.dur_us = tracer_.now_us() - record.start_us;
  tracer_.open_.pop_back();
  if (!tracer_.open_.empty()) {
    tracer_.spans_[tracer_.open_.back()].child_us += record.dur_us;
  }
}

double Tracer::Span::elapsed() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

void Tracer::count(const std::string& name, double value) {
  if (!enabled_) return;
  counters_.push_back({name, now_us(), value});
}

double Tracer::last_seconds(const std::string& name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return it->dur_us * 1e-6;
  }
  return 0;
}

std::vector<LayerSummary> Tracer::summary() const {
  std::map<std::string, LayerSummary> by_name;
  for (const auto& span : spans_) {
    LayerSummary& layer = by_name[span.name];
    layer.name = span.name;
    ++layer.calls;
    layer.total_s += span.dur_us * 1e-6;
    layer.self_s += (span.dur_us - span.child_us) * 1e-6;
  }
  std::vector<LayerSummary> out;
  for (auto& [name, layer] : by_name) out.push_back(std::move(layer));
  std::sort(out.begin(), out.end(), [](const LayerSummary& a, const LayerSummary& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& span : spans_) {
    sep();
    out << "{\"name\": " << json_string(span.name)
        << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << json_number(span.start_us)
        << ", \"dur\": " << json_number(span.dur_us) << ", \"args\": {\"id\": "
        << span.id << ", \"parent\": " << span.parent << "}}";
  }
  for (const auto& counter : counters_) {
    sep();
    out << "{\"name\": " << json_string(counter.name)
        << ", \"cat\": \"perfbench\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << json_number(counter.ts_us)
        << ", \"args\": {\"value\": " << json_number(counter.value) << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
