// Aligned-column table and CSV emission for retri_bench.
//
// Every reproduction entry and sweep prints (a) a human-readable aligned table reproducing the
// paper's figure as rows, and (b) optionally the same data as CSV for
// replotting. Table collects cells as strings and right-pads on output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace retri::stats {

class Table {
 public:
  /// Sets the header row and fixes the column count.
  explicit Table(std::vector<std::string> header);

  /// Appends a data row; must have exactly the header's column count.
  void row(std::vector<std::string> cells);

  std::size_t rows() const noexcept { return rows_.size(); }
  std::size_t columns() const noexcept { return header_.size(); }

  /// Aligned, pipe-separated rendering (markdown-ish, monospace friendly).
  void print(std::ostream& out) const;

  /// RFC-4180-ish CSV (fields containing comma/quote/newline are quoted).
  void print_csv(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` significant-looking decimal places,
/// trimming to a stable fixed notation ("0.9483"). Used by all benches so
/// tables are diffable across runs.
std::string fmt(double v, int digits = 4);

/// Formats a fraction as a percentage string ("94.83%").
std::string fmt_pct(double fraction, int digits = 2);

}  // namespace retri::stats
