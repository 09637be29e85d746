// runner sweeps: grid expansion, the named-sweep registry behind
// retri_bench, parallel determinism at the sweep level, and ResultSink's
// JSON artifact (structurally valid, byte-identical across worker counts).
#include <cctype>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "runner/result_sink.hpp"
#include "runner/sweep.hpp"

namespace runner = retri::runner;

namespace {

/// Minimal recursive-descent JSON well-formedness checker — enough to prove
/// the hand-rolled writer emits parseable documents without pulling in a
/// JSON library the container doesn't have.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

runner::SweepSpec tiny_spec() {
  runner::SweepSpec spec;
  spec.name = "tiny";
  spec.description = "unit-test grid";
  spec.trials = 2;
  spec.base.senders = 3;
  spec.base.packet_bytes = 40;
  spec.base.send_duration = retri::sim::Duration::seconds(1);
  spec.base.drain_extra = retri::sim::Duration::seconds(1);
  spec.base.seed = 7;
  spec.id_bits = {2, 3};
  spec.selectors = {retri::core::uniform_selector(),
                    retri::core::listening_selector()};
  return spec;
}

}  // namespace

TEST(SweepSpec, ExpandsCartesianGridInFixedOrder) {
  const auto spec = tiny_spec();
  EXPECT_EQ(spec.point_count(), 4u);
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].label, "H=2 uniform");
  EXPECT_EQ(points[1].label, "H=2 listening");
  EXPECT_EQ(points[2].label, "H=3 uniform");
  EXPECT_EQ(points[3].label, "H=3 listening");
  EXPECT_EQ(points[2].config.id_bits, 3u);
  EXPECT_EQ(points[1].config.selector.policy,
            retri::core::SelectorPolicy::kListening);
  // Non-axis fields come from the base template.
  for (const auto& point : points) {
    EXPECT_EQ(point.config.senders, 3u);
    EXPECT_EQ(point.config.packet_bytes, 40u);
  }
}

TEST(SweepSpec, PointSeedsAreDistinctAndDeterministic) {
  const auto points_a = tiny_spec().expand();
  const auto points_b = tiny_spec().expand();
  std::set<std::uint64_t> seeds;
  for (std::size_t p = 0; p < points_a.size(); ++p) {
    EXPECT_EQ(points_a[p].config.seed, points_b[p].config.seed);
    seeds.insert(points_a[p].config.seed);
  }
  EXPECT_EQ(seeds.size(), points_a.size());
}

TEST(SweepSpec, NotifyPolicyImpliesCollisionNotifications) {
  runner::SweepSpec spec;
  spec.selectors = {
      retri::core::listening_selector(),
      retri::core::listening_selector(/*heed_notifications=*/true)};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_FALSE(points[0].config.collision_notifications);
  EXPECT_TRUE(points[1].config.collision_notifications);
  EXPECT_EQ(points[0].label, "listening");
  EXPECT_EQ(points[1].label, "listening+notify");
}

TEST(SweepSpec, AttackerAxisOverridesOnlyTheMode) {
  runner::SweepSpec spec;
  spec.base.attacker.junk_bytes = 23;
  spec.attackers = {retri::fault::AttackerMode::kOff,
                    retri::fault::AttackerMode::kBlindFlood,
                    retri::fault::AttackerMode::kEchoCollide};
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].config.attacker.mode, retri::fault::AttackerMode::kOff);
  EXPECT_EQ(points[1].config.attacker.mode,
            retri::fault::AttackerMode::kBlindFlood);
  EXPECT_EQ(points[2].config.attacker.mode,
            retri::fault::AttackerMode::kEchoCollide);
  EXPECT_EQ(points[1].label, "atk=blind_flood");
  for (const auto& point : points) {
    EXPECT_EQ(point.config.attacker.junk_bytes, 23u);  // base plan rides along
  }
}

TEST(SweepSpec, EmptyAxesYieldSingleBasePoint) {
  runner::SweepSpec spec;
  const auto points = spec.expand();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "base");
}

TEST(NamedSweeps, RegistryCoversFiguresAndAblations) {
  const auto names = runner::named_sweeps();
  EXPECT_GE(names.size(), 8u);
  for (const std::string_view name : names) {
    const auto spec = runner::make_named_sweep(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec.value().name, name);
    EXPECT_FALSE(spec.value().description.empty()) << name;
    EXPECT_GE(spec.value().point_count(), 2u) << name;
  }
  // An unknown name fails with an error that names every real sweep, so a
  // typo'd --sweep is self-correcting at the CLI.
  const auto unknown = runner::make_named_sweep("no_such_sweep");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().find("no_such_sweep"), std::string::npos);
  for (const std::string_view name : names) {
    EXPECT_NE(unknown.error().find(name), std::string::npos) << name;
  }
  // The validation grid: widths 1..10 x {uniform, listening}.
  EXPECT_EQ(runner::make_named_sweep("fig4").value().point_count(), 20u);
}

TEST(SweepRunner, ParallelSweepMatchesSerialAndExportsStableJson) {
  const auto spec = tiny_spec();

  runner::SweepOptions serial;
  serial.jobs = 1;
  std::size_t points_seen = 0;
  runner::SweepOptions parallel;
  parallel.jobs = 4;
  parallel.on_point_done = [&points_seen](const runner::SweepProgress& p) {
    EXPECT_EQ(p.points_total, 4u);
    ++points_seen;
  };

  const auto a = runner::SweepRunner(serial).run(spec);
  const auto b = runner::SweepRunner(parallel).run(spec);
  EXPECT_EQ(points_seen, 4u);

  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    SCOPED_TRACE(a.points[p].label);
    ASSERT_EQ(a.points[p].trials.size(), 2u);
    for (std::size_t t = 0; t < a.points[p].trials.size(); ++t) {
      EXPECT_EQ(a.points[p].trials[t].aff_delivered,
                b.points[p].trials[t].aff_delivered);
      EXPECT_EQ(a.points[p].trials[t].truth_delivered,
                b.points[p].trials[t].truth_delivered);
      EXPECT_EQ(a.points[p].trials[t].delivery_ratio(),
                b.points[p].trials[t].delivery_ratio());
    }
    EXPECT_EQ(a.points[p].summary.collision_loss.outcomes(),
              b.points[p].summary.collision_loss.outcomes());
  }

  // The artifact is a pure function of the results: byte-identical across
  // worker counts, structurally valid JSON, schema-versioned.
  const std::string json_a = runner::ResultSink::to_json(a);
  const std::string json_b = runner::ResultSink::to_json(b);
  EXPECT_EQ(json_a, json_b);
  EXPECT_TRUE(JsonChecker(json_a).valid());
  EXPECT_NE(json_a.find("\"schema\": \"retri.sweep-result\""),
            std::string::npos);
  EXPECT_NE(json_a.find("\"schema_version\": 6"), std::string::npos);
  EXPECT_NE(json_a.find("\"delivery_ratio\""), std::string::npos);
  // v3: per-trial metrics snapshots and the trial-order metrics fold.
  EXPECT_NE(json_a.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json_a.find("\"metrics_total\""), std::string::npos);
  EXPECT_NE(json_a.find("\"medium.frames_sent\""), std::string::npos);
  EXPECT_NE(json_a.find("\"ci95_hi\""), std::string::npos);
  EXPECT_NE(json_a.find("H=2 uniform"), std::string::npos);
  // Compact mode is valid too.
  EXPECT_TRUE(JsonChecker(runner::ResultSink::to_json(a, false)).valid());
}
