#include "core/transaction.hpp"

#include <algorithm>

namespace retri::core {

TxHandle TransactionRegistry::begin(TransactionId id) {
  // Sampled *before* insertion: the density a newcomer experiences is the
  // number of transactions already in flight, plus itself.
  concurrency_sum_at_begin_ += static_cast<double>(live_.size()) + 1.0;

  const std::uint64_t serial = next_serial_++;
  bool collides = false;
  for (Live& other : live_) {
    if (other.id == id) {
      other.doomed = true;
      collides = true;
    }
  }
  live_.push_back(Live{serial, id, collides});
  max_concurrency_ = std::max(max_concurrency_, live_.size());
  return TxHandle{serial};
}

const TransactionRegistry::Live* TransactionRegistry::find(
    std::uint64_t serial) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), serial,
      [](const Live& l, std::uint64_t s) { return l.serial < s; });
  return it != live_.end() && it->serial == serial ? &*it : nullptr;
}

bool TransactionRegistry::end(TxHandle handle) {
  const Live* live = find(handle.serial);
  if (live == nullptr) return false;
  const bool clean = !live->doomed;
  live_.erase(live_.begin() + (live - live_.data()));

  if (clean) ++succeeded_; else ++collided_;
  return clean;
}

bool TransactionRegistry::active(TxHandle handle) const {
  return find(handle.serial) != nullptr;
}

bool TransactionRegistry::doomed(TxHandle handle) const {
  const Live* live = find(handle.serial);
  return live != nullptr && live->doomed;
}

std::size_t TransactionRegistry::holders(TransactionId id) const {
  return static_cast<std::size_t>(std::count_if(
      live_.begin(), live_.end(), [id](const Live& l) { return l.id == id; }));
}

double TransactionRegistry::mean_concurrency_at_begin() const noexcept {
  if (next_serial_ == 0) return 0.0;
  return concurrency_sum_at_begin_ / static_cast<double>(next_serial_);
}

}  // namespace retri::core
