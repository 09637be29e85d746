// Transaction bookkeeping and collision semantics.
//
// The paper defines a transaction as "any computation during which some
// state must be maintained by the nodes involved" and its success criterion
// as: the source's identifier is "unique with respect to all other
// transactions at the same point in the network for the entire duration of
// the transaction" (§4.1).
//
// TransactionRegistry implements exactly that semantics over an abstract
// timeline: begin() registers an active transaction under an id; any moment
// two active transactions share an id, both are doomed; end() reports
// whether the transaction survived. The Monte-Carlo validation of Eq. 4
// (tests and bench/fig3) is a direct loop over this registry, independent
// of the radio stack.
//
// The active set is one flat vector in begin() order, so the registry
// allocates only while it grows past its largest concurrency: the
// Monte-Carlo loops reuse one instance for every probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/identifier.hpp"

namespace retri::core {

/// Opaque handle to an active transaction.
struct TxHandle {
  std::uint64_t serial = 0;
  constexpr bool operator==(const TxHandle&) const = default;
};

class TransactionRegistry {
 public:
  /// Registers a new active transaction using `id`. If any currently
  /// active transaction holds the same id, *all* of them (including the
  /// new one) are marked doomed — the paper's model treats both sides of a
  /// collision as failed.
  TxHandle begin(TransactionId id);

  /// Ends the transaction; returns true if it never collided.
  /// Ending an unknown/already-ended handle returns false.
  bool end(TxHandle handle);

  /// True if the handle refers to a still-active transaction.
  bool active(TxHandle handle) const;
  /// True if the active transaction has already been doomed by a collision.
  bool doomed(TxHandle handle) const;

  /// Number of currently active transactions.
  std::size_t concurrency() const noexcept { return live_.size(); }
  /// Number of active transactions currently holding `id`.
  std::size_t holders(TransactionId id) const;

  // -- Lifetime statistics ---------------------------------------------------
  std::uint64_t total_begun() const noexcept { return next_serial_; }
  std::uint64_t total_succeeded() const noexcept { return succeeded_; }
  std::uint64_t total_collided() const noexcept { return collided_; }
  std::size_t max_concurrency() const noexcept { return max_concurrency_; }
  /// Mean concurrency sampled at each begin() (an estimate of the paper's
  /// transaction density T as seen by this observer).
  double mean_concurrency_at_begin() const noexcept;

 private:
  struct Live {
    std::uint64_t serial = 0;
    TransactionId id;
    bool doomed = false;
  };

  /// The active entry for `serial`, or nullptr.
  const Live* find(std::uint64_t serial) const;

  // Active transactions, ascending serial (begin() appends the next
  // serial). begin() and holders() scan it for an id: the concurrency is
  // the model's few overlapping transactions, not the id space.
  std::vector<Live> live_;
  std::uint64_t next_serial_ = 0;
  std::uint64_t succeeded_ = 0;
  std::uint64_t collided_ = 0;
  std::size_t max_concurrency_ = 0;
  double concurrency_sum_at_begin_ = 0.0;
};

}  // namespace retri::core
