// Unified sweep CLI: every figure/ablation grid through one binary.
//
//   retri_bench --list
//   retri_bench --sweep fig4 --jobs 8 --out fig4.json
//   retri_bench --sweep hidden_terminal --trials 10 --seconds 30 --csv
//   retri_bench --repro fig4 --jobs 4
//
// --repro NAME|all runs the paper's reproduction entries (bench/repro.hpp):
// each prints its table and one `check NAME: holds|FAILS` line per claim,
// and the run exits 1 when a check fails.
//
// Selects a named sweep from runner::make_named_sweep (fig1–fig4 and the
// ablation grids), runs the whole parameter grid through the parallel
// SweepRunner with per-point progress lines on stderr, prints the paper's
// mean ± stddev table per point, and optionally exports the full
// schema-versioned JSON artifact (configs, per-trial metrics, aggregates)
// via runner::ResultSink. Per-trial results — and the JSON file itself —
// are bit-identical for any --jobs value.
//
//   retri_bench --sweep fig4 --via /tmp/retri.sock [--cache-info]
//
// fetches the sweep through a retri_serve daemon instead of simulating
// locally: cells already in the daemon's result cache are served without
// simulation, the rest run on the daemon's pool. The table and the --out
// artifact are byte-identical to a local run; --cache-info opts into the
// schema v4 provenance members (per-trial cache hit/key, served_by).
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "harness.hpp"
#include "repro.hpp"
#include "runner/result_sink.hpp"
#include "runner/sweep.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "stats/table.hpp"

namespace runner = retri::runner;
using retri::stats::Table;
using retri::stats::fmt;

namespace {

int list_sweeps(std::FILE* stream) {
  std::fprintf(stream, "available sweeps:\n");
  for (const std::string_view name : runner::named_sweeps()) {
    const auto spec = runner::make_named_sweep(name);
    std::fprintf(stream, "  %-20.*s %s\n", static_cast<int>(name.size()),
                 name.data(), spec.ok() ? spec.value().description.c_str() : "");
  }
  std::fprintf(stream, "reproduction entries (--repro NAME|all):\n");
  for (const retri::bench::ReproEntry& entry : retri::bench::repro_entries()) {
    std::fprintf(stream, "  %-20.*s %.*s\n",
                 static_cast<int>(entry.name.size()), entry.name.data(),
                 static_cast<int>(entry.title.size()), entry.title.data());
  }
  return 0;
}

int list_selectors(std::FILE* stream) {
  std::fprintf(stream, "available selectors:\n");
  for (const std::string_view name : retri::core::named_selectors()) {
    std::fprintf(stream, "  %.*s\n", static_cast<int>(name.size()),
                 name.data());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = retri::bench::parse_args(argc, argv);
  if (args.list) return list_sweeps(stdout);
  if (args.selector == "help") return list_selectors(stdout);
  if (!args.repro.empty()) {
    if (!args.sweep.empty() || !args.selector.empty() || !args.via.empty() ||
        args.cache_info) {
      std::fprintf(stderr, "--repro takes none of --sweep, --selector, "
                           "--via, --cache-info\n");
      return 2;
    }
    return retri::bench::run_repro(args);
  }
  if (args.sweep.empty()) {
    std::fprintf(stderr,
                 "usage: retri_bench --sweep NAME [--jobs N] [--out FILE]\n"
                 "                   [--trials N] [--seconds S] [--senders N]\n"
                 "                   [--seed X] [--selector NAME|help]\n"
                 "                   [--csv] [--via SOCKET\n"
                 "                   [--cache-info]] | --list\n"
                 "       retri_bench --repro NAME|all [--jobs N] [--trials N]\n"
                 "                   [--seconds S] [--senders N] [--seed X]\n"
                 "                   [--csv] [--out FILE]\n\n");
    list_sweeps(stderr);
    return 2;
  }

  if (args.sweep == "help") return list_sweeps(stdout);
  auto named = runner::make_named_sweep(args.sweep);
  if (!named.ok()) {
    std::fprintf(stderr, "%s\n", named.error().c_str());
    return 2;
  }
  runner::SweepSpec spec = std::move(named).value();
  retri::bench::apply_overrides(spec, args);
  if (!args.selector.empty()) {
    auto parsed = retri::core::parse_selector_spec(args.selector);
    if (!parsed.ok()) {
      // The error lists every registered policy (registry-lookup contract).
      std::fprintf(stderr, "%s\n", parsed.error().c_str());
      return 2;
    }
    // Pin the policy: replace both the base and any selector axis, and
    // couple notifications like SweepSpec::expand would.
    spec.base.selector = parsed.value();
    spec.selectors.clear();
    if (parsed.value().listening.heed_notifications) {
      spec.base.collision_notifications = true;
    }
  }

  std::printf("sweep %s: %s\n(%zu points x %u trials x %.0f s, %s)\n\n",
              spec.name.c_str(), spec.description.c_str(), spec.point_count(),
              spec.trials, args.seconds,
              args.via.empty() ? (std::to_string(args.jobs) + " jobs").c_str()
                               : ("via " + args.via).c_str());

  runner::SweepResult result;
  retri::runner::ServeAnnotations annotations;
  bool annotated = false;
  if (!args.via.empty()) {
    // Server-fetched path: the daemon serves cached cells and simulates the
    // rest; the reassembled result is bit-identical to a local run.
    auto served = retri::serve::run_sweep_via(args.via, spec);
    if (!served.ok()) {
      std::fprintf(stderr, "retri_bench: %s\n", served.error().c_str());
      return 1;
    }
    result = std::move(served.value().result);
    std::fprintf(stderr, "served by %s: %llu cache hits, %llu simulated\n",
                 served.value().job_id.c_str(),
                 static_cast<unsigned long long>(served.value().hits),
                 static_cast<unsigned long long>(served.value().misses));
    if (args.cache_info) {
      annotations.served_by = served.value().job_id;
      annotations.code_version = std::string(retri::serve::kCodeVersion);
      for (const auto& point : served.value().cache_info) {
        auto& out = annotations.trials.emplace_back();
        for (const retri::serve::TrialCacheInfo& info : point) {
          out.push_back({info.hit, info.key});
        }
      }
      annotated = true;
    }
  } else {
    if (args.cache_info) {
      std::fprintf(stderr, "--cache-info requires --via SOCKET\n");
      return 2;
    }
    runner::SweepOptions options;
    options.jobs = args.jobs;
    options.on_point_done = [](const runner::SweepProgress& progress) {
      std::fprintf(stderr, "[%zu/%zu] %.*s\n", progress.points_done,
                   progress.points_total,
                   static_cast<int>(progress.label.size()),
                   progress.label.data());
    };
    result = runner::SweepRunner(options).run(spec);
  }

  Table table({"point", "delivery mean", "loss mean", "loss sd", "ci95 lo",
               "ci95 hi", "packets/trial"});
  for (const runner::SweepPointResult& point : result.points) {
    const auto ci = point.summary.collision_loss.ci95();
    table.row({point.label, fmt(point.summary.delivery_ratio.mean()),
               fmt(point.summary.collision_loss.mean()),
               fmt(point.summary.collision_loss.stddev()), fmt(ci.lo),
               fmt(ci.hi),
               std::to_string(point.summary.last.truth_delivered)});
  }
  if (args.csv) table.print_csv(std::cout);
  else table.print(std::cout);

  if (!args.out.empty()) {
    // Exit 2 (usage/IO error) when --out is unwritable: scripted pipelines
    // must never see a zero exit with the artifact silently missing.
    if (const int status = retri::bench::export_result(
            args.out, result, stderr, annotated ? &annotations : nullptr)) {
      return status;
    }
    std::printf("\nwrote %s (schema v%d, %zu points)\n", args.out.c_str(),
                runner::ResultSink::kSchemaVersion, result.points.size());
  }
  return 0;
}
