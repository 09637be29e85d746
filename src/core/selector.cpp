// The selector registry translation unit. Every selector-policy string
// literal in src/ and bench/ lives HERE (to_string / parse_selector_spec);
// retri_lint's no-raw-selector-policy rule enforces that everything else
// goes through SelectorPolicy / SelectorSpec.
#include "core/selector.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/bitops.hpp"
#include "util/validate.hpp"

namespace retri::core {

void IdSelector::bind_metrics(obs::MetricsRegistry& registry,
                              std::string_view prefix) {
  const std::string base(prefix);
  selects_ = registry.counter(base + "selects");
  observes_ = registry.counter(base + "observes");
  collision_notices_ = registry.counter(base + "collision_notices");
  density_updates_ = registry.counter(base + "density_updates");
  on_bind_metrics(registry, prefix);
}

// --- registry ---------------------------------------------------------------

std::string_view to_string(SelectorPolicy policy) noexcept {
  switch (policy) {
    case SelectorPolicy::kUniform: return "uniform";
    case SelectorPolicy::kListening: return "listening";
    case SelectorPolicy::kCounter: return "counter";
    case SelectorPolicy::kHashedCounter: return "hashed_counter";
    case SelectorPolicy::kPermutation: return "permutation";
    case SelectorPolicy::kHybrid: return "hybrid";
  }
  return "?";
}

namespace {

/// The one name that is not a bare policy: a listening spec that heeds
/// notifications. Kept out of to_string so the enum stays 1:1 with names.
constexpr std::string_view kListeningNotifyName = "listening+notify";

}  // namespace

std::string_view describe(const SelectorSpec& spec) noexcept {
  if (spec.policy == SelectorPolicy::kListening &&
      spec.listening.heed_notifications) {
    return kListeningNotifyName;
  }
  return to_string(spec.policy);
}

SelectorSpec uniform_selector() { return SelectorSpec{}; }

SelectorSpec listening_selector(bool heed_notifications) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kListening;
  spec.listening.heed_notifications = heed_notifications;
  return spec;
}

SelectorSpec counter_selector(std::uint64_t salt) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kCounter;
  spec.counter_salt = salt;
  return spec;
}

SelectorSpec hashed_counter_selector(std::uint64_t salt) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kHashedCounter;
  spec.counter_salt = salt;
  return spec;
}

SelectorSpec permutation_selector(std::uint64_t period) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kPermutation;
  spec.permutation_period = period;
  return spec;
}

SelectorSpec hybrid_selector(std::uint64_t period) {
  SelectorSpec spec;
  spec.policy = SelectorPolicy::kHybrid;
  spec.permutation_period = period;
  return spec;
}

std::vector<std::string_view> named_selectors() {
  return {to_string(SelectorPolicy::kUniform),
          to_string(SelectorPolicy::kListening),
          kListeningNotifyName,
          to_string(SelectorPolicy::kCounter),
          to_string(SelectorPolicy::kHashedCounter),
          to_string(SelectorPolicy::kPermutation),
          to_string(SelectorPolicy::kHybrid)};
}

util::Result<SelectorSpec, std::string> parse_selector_spec(
    std::string_view name) {
  if (name == to_string(SelectorPolicy::kUniform)) return uniform_selector();
  if (name == to_string(SelectorPolicy::kListening)) {
    return listening_selector(false);
  }
  if (name == kListeningNotifyName) return listening_selector(true);
  if (name == to_string(SelectorPolicy::kCounter)) return counter_selector();
  if (name == to_string(SelectorPolicy::kHashedCounter)) {
    return hashed_counter_selector();
  }
  if (name == to_string(SelectorPolicy::kPermutation)) {
    return permutation_selector();
  }
  if (name == to_string(SelectorPolicy::kHybrid)) return hybrid_selector();
  // Name the alternatives in the error: CLIs print this verbatim, so a
  // typo'd --selector tells the user what would have worked.
  std::string error = "unknown id selection policy \"" + std::string(name) +
                      "\"; available policies:";
  for (const std::string_view known : named_selectors()) {
    error += ' ';
    error += known;
  }
  return error;
}

ListeningConfig validated(ListeningConfig config) {
  util::Validator v{"ListeningConfig"};
  v.non_negative("initial_density", config.initial_density);
  v.at_least("notification_multiplier", config.notification_multiplier, 1);
  return config;
}

SelectorSpec validated(SelectorSpec spec) {
  spec.listening = validated(spec.listening);
  return spec;
}

// --- AvoidWindow ------------------------------------------------------------

std::size_t AvoidWindow::Counts::home(std::uint64_t id) const noexcept {
  // Fibonacci hashing: the multiply spreads consecutive ids (a counter
  // selector's, or a small pool's) across the table's top bits.
  return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
}

bool AvoidWindow::Counts::contains(std::uint64_t id) const noexcept {
  if (size_ == 0) return false;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    if (slots_[i].count == 0) return false;
    if (slots_[i].id == id) return true;
  }
}

bool AvoidWindow::Counts::add(std::uint64_t id) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  while (slots_[i].count != 0 && slots_[i].id != id) i = (i + 1) & mask;
  if (slots_[i].count++ != 0) return false;
  slots_[i].id = id;
  ++size_;
  return true;
}

bool AvoidWindow::Counts::remove(std::uint64_t id) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  while (slots_[i].id != id || slots_[i].count == 0) i = (i + 1) & mask;
  if (--slots_[i].count != 0) return false;
  --size_;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever the hole lies on their path, so lookups never need
  // tombstones.
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask; slots_[j].count != 0;
       j = (j + 1) & mask) {
    const std::size_t h = home(slots_[j].id);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      slots_[j].count = 0;
      hole = j;
    }
  }
  return true;
}

void AvoidWindow::Counts::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.count == 0) continue;
    std::size_t i = home(slot.id);
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

AvoidWindow::AvoidWindow(IdSpace space, ListeningConfig config)
    : config_(validated(config)),
      density_(std::max(1.0, config.initial_density)),
      pool_(space.size()) {
  if (pool_ <= kBitmapPool) bits_.assign((pool_ + 63) / 64, 0);
}

std::size_t AvoidWindow::window() const noexcept {
  if (config_.fixed_window != 0) return config_.fixed_window;
  return static_cast<std::size_t>(std::ceil(2.0 * density_));
}

bool AvoidWindow::avoiding(TransactionId id) const noexcept {
  const std::uint64_t v = id.value();
  if (ranked() && v < pool_) return ((bits_[v / 64] >> (v % 64)) & 1) != 0;
  return counts_.contains(v);
}

TransactionId AvoidWindow::nth_free(std::uint64_t k) const noexcept {
  assert(ranked() && k < free_ids());
  for (std::size_t w = 0;; ++w) {
    std::uint64_t free = ~bits_[w];
    if (pool_ < 64) free &= util::low_mask(static_cast<unsigned>(pool_));
    const auto n = static_cast<std::uint64_t>(std::popcount(free));
    if (k >= n) {
      k -= n;
      continue;
    }
    for (; k > 0; --k) free &= free - 1;  // drop the k lowest free ids
    return TransactionId(64 * w +
                         static_cast<std::uint64_t>(std::countr_zero(free)));
  }
}

void AvoidWindow::set_density(double t) {
  density_ = std::max(1.0, t);
  // Shrink immediately if the window contracted.
  trim(recent_, window());
  if (config_.heed_notifications) {
    trim(quarantined_, window() * config_.notification_multiplier);
  }
}

void AvoidWindow::trim(util::Ring<TransactionId>& q, std::size_t cap) {
  while (q.size() > cap) {
    const std::uint64_t oldest = q.front().value();
    q.pop_front();
    if (counts_.remove(oldest) && ranked() && oldest < pool_) {
      bits_[oldest / 64] &= ~(std::uint64_t{1} << (oldest % 64));
      --bits_set_;
    }
  }
}

void AvoidWindow::push(util::Ring<TransactionId>& q, TransactionId id,
                       std::size_t cap) {
  q.push_back(id);
  const std::uint64_t v = id.value();
  if (counts_.add(v) && ranked() && v < pool_) {
    bits_[v / 64] |= std::uint64_t{1} << (v % 64);
    ++bits_set_;
  }
  trim(q, cap);
}

void AvoidWindow::observe(TransactionId id) { push(recent_, id, window()); }

void AvoidWindow::notify_collision(TransactionId id) {
  if (!config_.heed_notifications) return;
  push(quarantined_, id, window() * config_.notification_multiplier);
}

// --- UniformSelector --------------------------------------------------------

UniformSelector::UniformSelector(IdSpace space, std::uint64_t seed)
    : IdSelector(space), rng_(seed) {}

std::string_view UniformSelector::name() const {
  return to_string(SelectorPolicy::kUniform);
}

TransactionId UniformSelector::do_select() {
  if (space_.bits() >= 64) return TransactionId(rng_.next());
  return TransactionId(rng_.below(space_.size()));
}

// --- ListeningSelector ------------------------------------------------------

ListeningSelector::ListeningSelector(IdSpace space, std::uint64_t seed,
                                     ListeningConfig config)
    : IdSelector(space), rng_(seed), window_(space, config) {}

std::string_view ListeningSelector::name() const {
  return to_string(SelectorPolicy::kListening);
}

void ListeningSelector::do_set_density(double t) {
  window_.set_density(t);
  update_avoided_gauge();
}

void ListeningSelector::on_bind_metrics(obs::MetricsRegistry& registry,
                                        std::string_view prefix) {
  avoided_gauge_ = registry.gauge(std::string(prefix) + "avoided");
  update_avoided_gauge();
}

void ListeningSelector::update_avoided_gauge() {
  avoided_gauge_.set(static_cast<std::int64_t>(window_.avoided()));
}

void ListeningSelector::do_observe(TransactionId id) {
  window_.observe(id);
  update_avoided_gauge();
}

void ListeningSelector::do_notify_collision(TransactionId id) {
  window_.notify_collision(id);
  update_avoided_gauge();
}

TransactionId ListeningSelector::do_select() {
  const std::uint64_t pool = space_.size();

  // Nothing to avoid, or avoidance covers the whole pool: plain uniform.
  if (window_.avoided() == 0 || window_.avoided() >= pool) {
    if (space_.bits() >= 64) return TransactionId(rng_.next());
    return TransactionId(rng_.below(pool));
  }

  // Small pool: one draw over the complement, then the k-th free id by
  // rank — exactly uniform even when the avoid set covers most of it, and
  // the same draw and id as enumerating the complement in ascending order.
  if (window_.ranked()) {
    return window_.nth_free(rng_.below(window_.free_ids()));
  }

  // Large pool: rejection sampling — exactly uniform over the complement.
  // The avoid set is at most a few windows (<< 4096) while the pool exceeds
  // AvoidWindow::kBitmapPool, so acceptance probability is > 1/2 and the attempt bound is
  // effectively never reached; it exists to guarantee termination.
  constexpr int kMaxAttempts = 128;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const TransactionId id(space_.bits() >= 64 ? rng_.next()
                                               : rng_.below(pool));
    if (!window_.avoiding(id)) return id;
  }
  return TransactionId(space_.bits() >= 64 ? rng_.next() : rng_.below(pool));
}

// --- CounterSelector --------------------------------------------------------

CounterSelector::CounterSelector(IdSpace space, std::uint64_t seed,
                                 std::uint64_t salt)
    : IdSelector(space),
      next_(util::SplitMix64(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).next()) {}

std::string_view CounterSelector::name() const {
  return to_string(SelectorPolicy::kCounter);
}

TransactionId CounterSelector::do_select() {
  return space_.clamp(next_++);
}

// --- HashedCounterSelector --------------------------------------------------

HashedCounterSelector::HashedCounterSelector(IdSpace space, std::uint64_t seed,
                                             std::uint64_t salt)
    : IdSelector(space), base_(util::SplitMix64(seed).next() ^ salt) {}

std::string_view HashedCounterSelector::name() const {
  return to_string(SelectorPolicy::kHashedCounter);
}

TransactionId HashedCounterSelector::do_select() {
  // splitmix64 as a hash of the salted draw index: one finalizer pass over
  // base_ + counter, masked into the space. Statistically uniform and
  // reproducible from (seed, salt, index) alone.
  return space_.clamp(util::SplitMix64(base_ + counter_++).next());
}

// --- PermutationSelector ----------------------------------------------------

PermutationSelector::PermutationSelector(IdSpace space, std::uint64_t seed,
                                         std::uint64_t period)
    : IdSelector(space),
      keys_(seed),
      period_(period == 0 ? space.size() : std::min(period, space.size())) {
  // Shifts need only be >= 1 and < bits to make x ^= x >> s invertible on
  // the H-bit domain; these splits diffuse high bits into low ones.
  shift_a_ = std::max(1u, space.bits() / 2);
  shift_b_ = std::max(1u, (space.bits() * 2) / 3);
  rekey();
}

std::string_view PermutationSelector::name() const {
  return to_string(SelectorPolicy::kPermutation);
}

void PermutationSelector::rekey() {
  // Odd multipliers are units mod 2^H, so each stage is a bijection on the
  // masked domain; the composition is a fresh pseudo-random permutation
  // per period.
  mul_a_ = keys_.next() | 1;
  add_c_ = keys_.next();
  mul_b_ = keys_.next() | 1;
}

std::uint64_t PermutationSelector::permute(std::uint64_t index) const noexcept {
  const std::uint64_t mask = util::low_mask(space_.bits());
  std::uint64_t x = index & mask;
  x = (x * mul_a_) & mask;
  x ^= x >> shift_a_;
  x = (x + add_c_) & mask;
  x = (x * mul_b_) & mask;
  x ^= x >> shift_b_;
  return x;
}

std::uint64_t PermutationSelector::walk_next() {
  if (index_ >= period_) {
    rekey();
    index_ = 0;
  }
  return permute(index_++);
}

TransactionId PermutationSelector::do_select() {
  return TransactionId(walk_next());
}

// --- HybridSelector ---------------------------------------------------------

HybridSelector::HybridSelector(IdSpace space, std::uint64_t seed,
                               ListeningConfig config, std::uint64_t period)
    : IdSelector(space), walk_(space, seed, period), window_(space, config) {}

std::string_view HybridSelector::name() const {
  return to_string(SelectorPolicy::kHybrid);
}

void HybridSelector::do_observe(TransactionId id) {
  window_.observe(id);
  update_avoided_gauge();
}

void HybridSelector::do_notify_collision(TransactionId id) {
  window_.notify_collision(id);
  update_avoided_gauge();
}

void HybridSelector::do_set_density(double t) {
  window_.set_density(t);
  update_avoided_gauge();
}

void HybridSelector::on_bind_metrics(obs::MetricsRegistry& registry,
                                     std::string_view prefix) {
  avoided_gauge_ = registry.gauge(std::string(prefix) + "avoided");
  skips_ = registry.counter(std::string(prefix) + "skips");
  update_avoided_gauge();
}

void HybridSelector::update_avoided_gauge() {
  avoided_gauge_.set(static_cast<std::int64_t>(window_.avoided()));
}

TransactionId HybridSelector::do_select() {
  // Within one period each avoided id appears at most once in the walk, so
  // avoided()+1 draws suffice; double that to survive a rekey boundary
  // mid-scan. If the avoid set covers the whole reachable pool the bound
  // trips and the last candidate is returned — selection must terminate,
  // exactly like the listening selector's rejection fallback.
  const std::size_t limit = 2 * (window_.avoided() + 1);
  std::uint64_t candidate = walk_.walk_next();
  for (std::size_t attempt = 0;
       attempt < limit && window_.avoiding(TransactionId(candidate));
       ++attempt) {
    skips_.inc();
    candidate = walk_.walk_next();
  }
  return TransactionId(candidate);
}

// --- factories --------------------------------------------------------------

std::unique_ptr<IdSelector> make_selector(const SelectorSpec& spec,
                                          IdSpace space, std::uint64_t seed) {
  const SelectorSpec checked = validated(spec);
  switch (checked.policy) {
    case SelectorPolicy::kUniform:
      return std::make_unique<UniformSelector>(space, seed);
    case SelectorPolicy::kListening:
      return std::make_unique<ListeningSelector>(space, seed,
                                                 checked.listening);
    case SelectorPolicy::kCounter:
      return std::make_unique<CounterSelector>(space, seed,
                                               checked.counter_salt);
    case SelectorPolicy::kHashedCounter:
      return std::make_unique<HashedCounterSelector>(space, seed,
                                                     checked.counter_salt);
    case SelectorPolicy::kPermutation:
      return std::make_unique<PermutationSelector>(
          space, seed, checked.permutation_period);
    case SelectorPolicy::kHybrid:
      return std::make_unique<HybridSelector>(
          space, seed, checked.listening, checked.permutation_period);
  }
  throw std::invalid_argument("SelectorSpec.policy out of range");
}

}  // namespace retri::core
