#include "perf.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "obs/export.hpp"
#include "util/json_parse.hpp"

#ifndef RETRI_PERF_BUILD_TYPE
#define RETRI_PERF_BUILD_TYPE "unknown"
#endif
#ifndef RETRI_PERF_COMPILER
#define RETRI_PERF_COMPILER "unknown"
#endif

namespace retri::perf {

void Report::add(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::fail(std::uint64_t ops, std::string why) {
  failed += ops;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

double now_s() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void Digest::add(std::string_view text) {
  for (const char c : text) {
    state_ ^= static_cast<std::uint8_t>(c);
    state_ *= 0x100000001b3ULL;
  }
  // Separator so ("ab","c") and ("a","bc") fold differently.
  state_ ^= 0xffU;
  state_ *= 0x100000001b3ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

std::string ExpectedDigests::load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return "expected-digest record " + path + " is missing";
  std::stringstream text;
  text << file.rdbuf();
  auto parsed = util::parse_json(text.str());
  if (!parsed.ok()) {
    return "cannot parse " + path + ": " + parsed.error().describe();
  }
  const util::JsonValue* table = parsed.value().find("digests");
  if (table == nullptr || !table->is_object()) {
    return path + " has no \"digests\" object";
  }
  for (const auto& [workload, seeds] : table->members()) {
    digests[workload];  // a workload may list no seeds yet
    for (const auto& [seed, digest] : seeds.members()) {
      if (seed.empty() ||
          seed.find_first_not_of("0123456789") != std::string::npos) {
        return path + ": seed \"" + seed + "\" of " + workload +
               " is not a number";
      }
      digests[workload][std::stoull(seed)] = digest.as_string();
    }
  }
  return {};
}

std::string ExpectedDigests::find(const std::string& workload,
                                  std::uint64_t seed) const {
  const auto w = digests.find(workload);
  if (w == digests.end()) return {};
  const auto s = w->second.find(seed);
  return s == w->second.end() ? std::string() : s->second;
}

std::string DigestGate::check(const std::string& digest) {
  if (first_.empty()) first_ = digest;
  if (recorded_ && digest != expected_) {
    return "result digest " + digest + " != recorded " + expected_;
  }
  if (digest != first_) {
    return "result digest " + digest + " != first pass " + first_ +
           " (nondeterministic)";
  }
  return {};
}

std::string degenerate(const runner::ExperimentResult& result) {
  if (result.truth_delivered == 0) return "degenerate cell: truth_delivered == 0";
  if (result.frames_attempted == 0) return "degenerate cell: no medium deliveries";
  return {};
}

obs::SpanId Tracer::begin(std::string_view name, std::string_view category,
                          obs::SpanId parent) {
  const auto t = util::TimePoint::at(util::Duration::from_seconds(now_s()));
  return spans_.begin(name, category, 0, t, parent);
}

void Tracer::end(obs::SpanId span) {
  spans_.end(span, util::TimePoint::at(util::Duration::from_seconds(now_s())),
             "done");
}

std::string Tracer::write(const std::string& path) const {
  std::string error;
  if (!obs::export_to_file(obs::PerfettoExporter(spans_), path, &error)) {
    return error;
  }
  return {};
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string host_fingerprint(const std::string& source_id) {
  std::ostringstream out;
  out << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"compiler\": \""
      << json_escape(RETRI_PERF_COMPILER) << "\", \"build_type\": \""
      << json_escape(RETRI_PERF_BUILD_TYPE) << "\", \"source\": \""
      << json_escape(source_id) << "\"}";
  return out.str();
}

}  // namespace retri::perf
