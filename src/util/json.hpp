// Minimal streaming JSON writer for every artifact the repo emits.
//
// Hand-rolled on purpose: the container policy forbids new dependencies,
// and the emitters (runner::ResultSink, obs::PerfettoExporter, the chaos
// soak artifact) only ever *write* JSON — no parsing, no DOM. Historically
// this lived in src/runner; it moved to util so src/obs can serialize
// traces without depending on the runner. The writer is a
// push API (begin_object / key / value / end_object) with a context stack
// for comma placement, full string escaping, and round-trippable number
// formatting via std::to_chars so that identical results serialize to
// byte-identical files (the determinism acceptance check diffs them).
// Non-finite doubles serialize as null (JSON has no NaN/Inf).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace retri::util {

class JsonWriter {
 public:
  /// pretty=true emits 2-space-indented output (stable, diff-friendly);
  /// false emits a single compact line.
  explicit JsonWriter(bool pretty = false) : pretty_(pretty) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emits an object member name; must be inside an object, and must be
  /// followed by exactly one value (or container).
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& null();

  /// Shorthand for key(name).value(v).
  template <typename T>
  JsonWriter& member(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// The document so far. Complete once every container is closed.
  const std::string& str() const noexcept { return out_; }
  /// Moves the finished document out instead of copying it.
  std::string take() && noexcept { return std::move(out_); }

 private:
  enum class Scope { kObject, kArray };
  struct Context {
    Scope scope;
    std::size_t items = 0;
    bool pending_key = false;  // object scope: key emitted, value due
  };

  void before_value();
  void open(Scope scope, char bracket);
  void close(Scope scope, char bracket);
  void newline_indent(std::size_t depth);
  void append_escaped(std::string_view s);

  std::string out_;
  std::vector<Context> stack_;
  bool pretty_ = false;
};

}  // namespace retri::util
