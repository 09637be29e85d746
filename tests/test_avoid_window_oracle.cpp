// Differential test of the flat listening window against the node-container
// implementation it replaced.
//
// core::AvoidWindow keeps its two queues in rings, its multiset counts in
// an open-addressing table and, for pools of at most 4096 ids, a bitmap of
// the avoided ids that the listening selector ranks into. The reference
// model below is the previous implementation, kept verbatim in spirit: two
// std::deque windows, an std::unordered_map of counts, a listening select
// that enumerates the complement into a candidate vector, and the hybrid's
// skip loop over a permutation walk. Both sides see the same random mix of
// observe / notify / set_density / select operations from the same seeds,
// and every selected id, every avoided() count and a membership probe per
// step must agree. Widths straddle the bitmap limit (12 bits ranked, 13
// rejection-sampled) and include the degenerate 1-bit pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/selector.hpp"
#include "util/random.hpp"

namespace retri::core {
namespace {

/// The pre-flat AvoidWindow: deques plus an unordered_map of counts.
class RefWindow {
 public:
  explicit RefWindow(ListeningConfig config)
      : config_(config), density_(std::max(1.0, config.initial_density)) {}

  std::size_t window() const {
    if (config_.fixed_window != 0) return config_.fixed_window;
    return static_cast<std::size_t>(std::ceil(2.0 * density_));
  }
  std::size_t avoided() const { return counts_.size(); }
  bool avoiding(TransactionId id) const { return counts_.contains(id); }

  void observe(TransactionId id) { push(recent_, id, window()); }
  void notify_collision(TransactionId id) {
    if (!config_.heed_notifications) return;
    push(quarantined_, id, window() * config_.notification_multiplier);
  }
  void set_density(double t) {
    density_ = std::max(1.0, t);
    trim(recent_, window());
    if (config_.heed_notifications) {
      trim(quarantined_, window() * config_.notification_multiplier);
    }
  }

 private:
  void push(std::deque<TransactionId>& q, TransactionId id, std::size_t cap) {
    q.push_back(id);
    ++counts_[id];
    trim(q, cap);
  }
  void trim(std::deque<TransactionId>& q, std::size_t cap) {
    while (q.size() > cap) {
      const auto it = counts_.find(q.front());
      q.pop_front();
      if (--it->second == 0) counts_.erase(it);
    }
  }

  ListeningConfig config_;
  double density_;
  std::deque<TransactionId> recent_;
  std::deque<TransactionId> quarantined_;
  std::unordered_map<TransactionId, std::uint32_t> counts_;
};

/// The pre-flat listening select: enumerate the complement (small pools)
/// or rejection-sample (large ones).
TransactionId ref_listening_select(const IdSpace& space, const RefWindow& w,
                                   util::Xoshiro256& rng) {
  const std::uint64_t pool = space.size();
  if (w.avoided() == 0 || w.avoided() >= pool) {
    if (space.bits() >= 64) return TransactionId(rng.next());
    return TransactionId(rng.below(pool));
  }
  if (pool <= 4096) {
    std::vector<TransactionId> candidates;
    for (std::uint64_t v = 0; v < pool; ++v) {
      if (!w.avoiding(TransactionId(v))) candidates.push_back(TransactionId(v));
    }
    return candidates[static_cast<std::size_t>(rng.below(candidates.size()))];
  }
  for (int attempt = 0; attempt < 128; ++attempt) {
    const TransactionId id(space.bits() >= 64 ? rng.next() : rng.below(pool));
    if (!w.avoiding(id)) return id;
  }
  return TransactionId(space.bits() >= 64 ? rng.next() : rng.below(pool));
}

/// The pre-flat hybrid select: walk the permutation, skipping avoided ids.
TransactionId ref_hybrid_select(PermutationSelector& walk, const RefWindow& w) {
  const std::size_t limit = 2 * (w.avoided() + 1);
  TransactionId candidate = walk.select();
  for (std::size_t attempt = 0; attempt < limit && w.avoiding(candidate);
       ++attempt) {
    candidate = walk.select();
  }
  return candidate;
}

/// Ids mostly inside the space, now and then one outside it (a foreign or
/// corrupt frame's id still enters the window).
TransactionId draw_id(const IdSpace& space, util::Xoshiro256& rng) {
  if (space.bits() < 64 && rng.below(50) == 0) {
    return TransactionId(space.size() + rng.below(8));
  }
  return space.clamp(rng.next());
}

void run_differential(unsigned bits, bool notify, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "H=" << bits << " notify=" << notify);
  constexpr int kOps = 20000;
  const IdSpace space(bits);
  ListeningConfig config;
  config.heed_notifications = notify;
  config.initial_density = 3.0;

  ListeningSelector listening(space, seed, config);
  HybridSelector hybrid(space, seed, config);
  AvoidWindow window(space, config);
  RefWindow ref_listening_window(config);
  RefWindow ref_hybrid_window(config);
  RefWindow ref_window(config);
  util::Xoshiro256 ref_rng(seed);
  PermutationSelector ref_walk(space, seed);

  util::Xoshiro256 ops(seed ^ 0x0dd5'eedULL);
  std::uint64_t selects = 0;
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t op = ops.below(16);
    if (op < 7) {
      const TransactionId id = draw_id(space, ops);
      listening.observe(id);
      hybrid.observe(id);
      window.observe(id);
      ref_listening_window.observe(id);
      ref_hybrid_window.observe(id);
      ref_window.observe(id);
    } else if (op < 9) {
      const TransactionId id = draw_id(space, ops);
      listening.notify_collision(id);
      hybrid.notify_collision(id);
      window.notify_collision(id);
      ref_listening_window.notify_collision(id);
      ref_hybrid_window.notify_collision(id);
      ref_window.notify_collision(id);
    } else if (op < 11) {
      // Densities from below 1 (clamped) to windows wider than a small
      // pool, so the window both shrinks and outgrows the space.
      const double t = 0.5 + static_cast<double>(ops.below(400)) / 10.0;
      listening.set_density(t);
      hybrid.set_density(t);
      window.set_density(t);
      ref_listening_window.set_density(t);
      ref_hybrid_window.set_density(t);
      ref_window.set_density(t);
    } else {
      ++selects;
      ASSERT_EQ(listening.select(),
                ref_listening_select(space, ref_listening_window, ref_rng))
          << "listening select diverged at op " << i;
      ASSERT_EQ(hybrid.select(), ref_hybrid_select(ref_walk, ref_hybrid_window))
          << "hybrid select diverged at op " << i;
    }
    ASSERT_EQ(window.window(), ref_window.window()) << "op " << i;
    ASSERT_EQ(window.avoided(), ref_window.avoided()) << "op " << i;
    ASSERT_EQ(listening.avoided(), ref_listening_window.avoided()) << "op " << i;
    ASSERT_EQ(hybrid.avoided(), ref_hybrid_window.avoided()) << "op " << i;
    const TransactionId probe = draw_id(space, ops);
    ASSERT_EQ(window.avoiding(probe), ref_window.avoiding(probe))
        << "membership of " << probe.value() << " at op " << i;
  }
  EXPECT_GT(selects, static_cast<std::uint64_t>(kOps) / 5);
}

TEST(AvoidWindowOracle, DifferentialOver20kMixedOps) {
  for (const unsigned bits : {1u, 6u, 10u, 12u, 13u, 16u}) {
    for (const bool notify : {false, true}) {
      run_differential(bits, notify, 0xa5'0000ULL + bits * 2 + notify);
    }
  }
}

TEST(AvoidWindowOracle, RankSelectMatchesComplementEnumeration) {
  // nth_free(k) is the k-th id, ascending, that the window does not avoid.
  for (const unsigned bits : {1u, 3u, 6u, 7u, 12u}) {
    const IdSpace space(bits);
    ListeningConfig config;
    config.fixed_window = 40;
    AvoidWindow window(space, config);
    util::Xoshiro256 rng(bits);
    for (int i = 0; i < 30; ++i) window.observe(space.clamp(rng.next()));
    ASSERT_TRUE(window.ranked());
    std::vector<std::uint64_t> free;
    for (std::uint64_t v = 0; v < space.size(); ++v) {
      if (!window.avoiding(TransactionId(v))) free.push_back(v);
    }
    ASSERT_EQ(window.free_ids(), free.size()) << "H=" << bits;
    for (std::size_t k = 0; k < free.size(); ++k) {
      EXPECT_EQ(window.nth_free(k).value(), free[k]) << "H=" << bits;
    }
  }
  EXPECT_FALSE(AvoidWindow(IdSpace(13), ListeningConfig{}).ranked());
}

}  // namespace
}  // namespace retri::core
