// The paper's reproduction as one registry: `retri_bench --repro NAME|all`.
//
// Every figure and ablation is one entry. An entry prints its table, then
// one `check NAME: holds|FAILS` line per paper claim, and the run exits 1
// when any check fails (ctest -L repro gates each entry). Entries come in
// three kinds:
//   - sweep-backed: the grid comes only from runner::make_named_sweep (with
//     the same overrides --sweep applies), runs through SweepRunner, and
//     is judged by a pure predicate over the SweepResults;
//   - model-only: a closed-form table plus checks, no simulation;
//   - bespoke simulation: a purpose-built network (codebook publishers,
//     churning allocators, mobile nodes, diffusion grids) run in the entry.
// Every sweep-backed predicate refuses degenerate data: a cell that
// delivered no packets, or a series whose loss is not strictly inside
// (0, 1) where the claim compares losses, fails the check.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "runner/sweep.hpp"

namespace retri::bench {

/// One paper claim's verdict.
struct Check {
  std::string name;
  bool holds = false;
};

/// The results of an entry's named sweeps, in ReproEntry::sweeps order.
using SweepResults = std::vector<runner::SweepResult>;

struct ReproEntry {
  std::string_view name;
  std::string_view title;
  /// Sweep-backed entries: the named sweeps read, then the table printer
  /// and the pure predicate over their results.
  std::vector<std::string_view> sweeps;
  void (*print)(const SweepResults&, bool csv) = nullptr;
  std::vector<Check> (*judge)(const SweepResults&) = nullptr;
  /// Model-only and bespoke-simulation entries: prints the table and
  /// returns the checks.
  std::vector<Check> (*run)(const BenchArgs&) = nullptr;
  /// Entries with a committed artifact: its bytes, written by --out.
  std::string (*artifact)(const SweepResults&) = nullptr;
};

/// Every entry, in presentation order.
const std::vector<ReproEntry>& repro_entries();

/// Runs args.repro (an entry name or "all"). Returns 0 when every check
/// holds, 1 when one fails, and 2 for an unknown entry, for --out on an
/// entry without an artifact (or on "all"), or for an unwritable --out.
int run_repro(const BenchArgs& args);

}  // namespace retri::bench
