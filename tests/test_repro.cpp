// The reproduction registry (bench/repro.hpp): every sweep-backed predicate
// is a pure function of its SweepResults that refuses degenerate data, and
// the Eq. 4 check is strong enough to reject a doubled collision loss.
#include <algorithm>
#include <filesystem>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "repro.hpp"

namespace runner = retri::runner;
using retri::bench::Check;
using retri::bench::ReproEntry;
using retri::bench::SweepResults;
using retri::bench::repro_entries;

namespace {

const ReproEntry& entry(std::string_view name) {
  const auto& entries = repro_entries();
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [name](const ReproEntry& e) {
                                 return e.name == name;
                               });
  EXPECT_NE(it, entries.end()) << name;
  return *it;
}

bool holds(const std::vector<Check>& checks, std::string_view name) {
  for (const Check& check : checks) {
    if (check.name == name) return check.holds;
  }
  ADD_FAILURE() << "no check " << name;
  return false;
}

}  // namespace

TEST(Repro, EntriesAreWellFormed) {
  std::set<std::string_view> names;
  for (const ReproEntry& e : repro_entries()) {
    EXPECT_TRUE(names.insert(e.name).second) << e.name;
    // Exactly one kind: sweep-backed (print + judge) or self-running.
    const bool sweep_backed = !e.sweeps.empty();
    EXPECT_EQ(e.print != nullptr, sweep_backed) << e.name;
    EXPECT_EQ(e.judge != nullptr, sweep_backed) << e.name;
    EXPECT_EQ(e.run == nullptr, sweep_backed) << e.name;
    for (const std::string_view sweep : e.sweeps) {
      EXPECT_TRUE(runner::make_named_sweep(sweep).ok()) << sweep;
    }
  }
  EXPECT_EQ(names.size(), 15u);
}

TEST(Repro, Fig4Eq4CheckRejectsDoubledUniformLoss) {
  runner::SweepSpec spec = runner::make_named_sweep("fig4").value();
  spec.trials = 2;
  spec.base.send_duration = retri::sim::Duration::seconds(5);
  runner::SweepOptions options;
  options.jobs = 4;
  const SweepResults real = {runner::SweepRunner(options).run(spec)};
  const ReproEntry& fig4 = entry("fig4");
  for (const Check& check : fig4.judge(real)) {
    EXPECT_TRUE(check.holds) << check.name;
  }

  // Double every uniform cell's collision loss, capped at all packets.
  SweepResults doubled = real;
  for (runner::SweepPointResult& point : doubled[0].points) {
    if (point.config.selector.policy != retri::core::SelectorPolicy::kUniform) {
      continue;
    }
    for (runner::ExperimentResult& trial : point.trials) {
      const std::uint64_t lost = trial.truth_delivered > trial.aff_delivered
                                     ? trial.truth_delivered - trial.aff_delivered
                                     : 0;
      trial.aff_delivered =
          trial.truth_delivered - std::min(trial.truth_delivered, 2 * lost);
    }
    point.summary = runner::TrialRunner::summarize(point.trials);
  }
  EXPECT_FALSE(holds(fig4.judge(doubled), "eq4_upper_bound"));
}

TEST(Repro, ZeroDeliveredFailsEverySweepBackedCheck) {
  for (const ReproEntry& e : repro_entries()) {
    if (e.judge == nullptr) continue;
    SweepResults results;
    for (const std::string_view name : e.sweeps) {
      runner::SweepResult& result = results.emplace_back();
      result.spec = runner::make_named_sweep(name).value();
      for (const runner::SweepPoint& point : result.spec.expand()) {
        runner::SweepPointResult& cell = result.points.emplace_back();
        cell.label = point.label;
        cell.config = point.config;
        cell.trials.resize(2);  // trials that delivered nothing
        cell.summary = runner::TrialRunner::summarize(cell.trials);
      }
    }
    const std::vector<Check> checks = e.judge(results);
    EXPECT_FALSE(checks.empty()) << e.name;
    for (const Check& check : checks) {
      EXPECT_FALSE(check.holds) << e.name << ": " << check.name;
    }
  }
}

TEST(Repro, OutIsOnlyForEntriesWithAnArtifact) {
  const auto path =
      std::filesystem::temp_directory_path() / "retri_repro_out_test.json";
  std::filesystem::remove(path);
  retri::bench::BenchArgs args;
  args.out = path.string();
  args.repro = "fig1";  // a table, no artifact
  EXPECT_EQ(retri::bench::run_repro(args), 2);
  args.repro = "all";
  EXPECT_EQ(retri::bench::run_repro(args), 2);
  EXPECT_FALSE(std::filesystem::exists(path));
  args.out.clear();
  args.repro = "fig5";
  EXPECT_EQ(retri::bench::run_repro(args), 2);
}
