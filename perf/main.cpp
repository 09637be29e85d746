// retri_perf: the repository benchmark's measuring binary.
//
//   retri_perf --workload NAME --seed N --seconds S --trace 0|1
//              --expected perf/expected.json --work-dir DIR
//              [--trace-out FILE] [--source ID] [--inject-mismatch]
//
// Runs one workload (selectors_parallel, serve_warm), checks
// the simulated results against the recorded digests, and prints each
// metric by name with its unit, then one JSON result line:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// perf/run.py builds this binary and is the command to run; see
// perf/README.md.
//
// Exit codes: 0 all ops correct, 1 some op failed (the result line still
// prints), 2 bad arguments or a missing digest record, 3 refused build
// (assertions on, or metrics compiled out: its numbers would not be the
// program users run, or would be vacuous).
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>

#include "perf.hpp"

namespace {

using retri::perf::Options;
using retri::perf::Outcome;

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "retri_perf: %s\nusage: retri_perf --workload "
               "selectors_parallel|serve_warm "
               "--seed N --seconds S --trace 0|1 --expected FILE "
               "--work-dir DIR [--trace-out FILE] [--source ID] "
               "[--inject-mismatch]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  retri::perf::now_s();  // pin the process-start reference
#ifndef NDEBUG
  std::fprintf(stderr,
               "retri_perf: refusing to measure a build with assertions "
               "enabled (Debug); configure with "
               "CMAKE_BUILD_TYPE=RelWithDebInfo\n");
  return 3;
#endif
#ifdef RETRI_OBS_NO_METRICS
  std::fprintf(stderr,
               "retri_perf: refusing to measure a RETRI_OBS_NO_METRICS build: "
               "the experiment's packet counts read 0 without metrics\n");
  return 3;
#endif

  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const bool has_value = i + 1 < argc;
    auto value = [&]() -> std::string { return has_value ? argv[++i] : ""; };
    try {
      if (flag == "--workload" && has_value) o.workload = value();
      else if (flag == "--seed" && has_value) o.seed = std::stoull(value());
      else if (flag == "--seconds" && has_value) o.seconds = std::stod(value());
      else if (flag == "--trace" && has_value) o.trace = value() == "1";
      else if (flag == "--expected" && has_value) o.expected_path = value();
      else if (flag == "--trace-out" && has_value) o.trace_out = value();
      else if (flag == "--work-dir" && has_value) o.work_dir = value();
      else if (flag == "--source" && has_value) o.source_id = value();
      else if (flag == "--inject-mismatch") o.inject_mismatch = true;
      else return usage(("unknown or incomplete flag " + std::string(flag)).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + std::string(flag)).c_str());
    }
  }
  if (!(o.seconds > 0)) return usage("--seconds must be positive");
  if (o.work_dir.empty()) return usage("--work-dir is required");

  using Runner = Outcome (*)(const Options&, const retri::perf::ExpectedDigests&);
  Runner runner = nullptr;
  if (o.workload == "selectors_parallel") runner = retri::perf::run_selectors_parallel;
  else if (o.workload == "serve_warm") runner = retri::perf::run_serve_warm;
  else return usage(("unknown workload \"" + o.workload + "\"").c_str());

  retri::perf::ExpectedDigests expected;
  if (const std::string e = expected.load(o.expected_path); !e.empty()) {
    std::fprintf(stderr, "retri_perf: %s\n", e.c_str());
    return 2;
  }
  if (expected.digests.count(o.workload) == 0) {
    std::fprintf(stderr, "retri_perf: %s records no digests for %s\n",
                 o.expected_path.c_str(), o.workload.c_str());
    return 2;
  }

  std::printf("retri_perf workload=%s seed=%llu seconds=%s trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              number(o.seconds).c_str(), o.trace ? 1 : 0);
  std::printf("host %s\n", retri::perf::host_fingerprint(o.source_id).c_str());
  std::fflush(stdout);

  Outcome out;
  try {
    out = runner(o, expected);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "retri_perf: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  for (const std::string& why : out.failures) {
    std::fprintf(stderr, "retri_perf: FAILED: %s\n", why.c_str());
  }
  for (const std::string& line : out.report.notes()) {
    std::printf("%s\n", line.c_str());
  }
  const double failed_frac =
      out.attempted ? static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted)
                    : 1.0;
  std::printf("failed_frac = %s (%llu failed / %llu attempted)\n",
              number(failed_frac).c_str(),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const retri::perf::Report::Entry& e : out.report.entries()) {
    std::printf("%-40s %s %s\n", e.name.c_str(), number(e.value).c_str(),
                e.unit.c_str());
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const retri::perf::Report::Entry& e : out.report.entries()) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + e.name + "\": {\"value\": " + number(e.value) +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
