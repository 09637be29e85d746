#include "aff/reassembler.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/checksum.hpp"
#include "util/validate.hpp"

namespace retri::aff {

ReassemblerConfig validated(ReassemblerConfig config) {
  util::Validator v{"ReassemblerConfig"};
  v.positive_seconds("timeout", config.timeout.to_seconds());
  v.at_least("max_entries", config.max_entries, 1);
  return config;
}

std::string_view to_string(CloseReason reason) noexcept {
  switch (reason) {
    case CloseReason::kDelivered: return "delivered";
    case CloseReason::kChecksumFailed: return "checksum_failed";
    case CloseReason::kTimeout: return "timeout";
    case CloseReason::kEvicted: return "evicted";
  }
  return "unknown";
}

Reassembler::Reassembler(ReassemblerConfig config, obs::Hooks hooks,
                         std::string metric_prefix, std::uint32_t track)
    : config_(validated(config)),
      owned_metrics_(hooks.metrics != nullptr
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      spans_(hooks.spans),
      track_(track) {
  obs::MetricsRegistry& m =
      hooks.metrics != nullptr ? *hooks.metrics : *owned_metrics_;
  const auto name = [&metric_prefix](const char* field) {
    return metric_prefix + field;
  };
  counters_.delivered = m.counter(name("delivered"));
  counters_.checksum_failed = m.counter(name("checksum_failed"));
  counters_.conflicting_writes = m.counter(name("conflicting_writes"));
  counters_.duplicate_fragments = m.counter(name("duplicate_fragments"));
  counters_.timeouts = m.counter(name("timeouts"));
  counters_.evicted = m.counter(name("evicted"));
  counters_.malformed = m.counter(name("malformed"));
  counters_.orphan_fragments = m.counter(name("orphan_fragments"));
  counters_.accepted_fragments = m.counter(name("accepted_fragments"));
  counters_.fragments_seen = m.counter(name("fragments_seen"));
  counters_.pending = m.gauge(name("pending"));
}

ReassemblerStatsSnapshot Reassembler::stats() const noexcept {
  ReassemblerStatsSnapshot s;
  s.delivered = counters_.delivered.value();
  s.checksum_failed = counters_.checksum_failed.value();
  s.conflicting_writes = counters_.conflicting_writes.value();
  s.duplicate_fragments = counters_.duplicate_fragments.value();
  s.timeouts = counters_.timeouts.value();
  s.evicted = counters_.evicted.value();
  s.malformed = counters_.malformed.value();
  s.orphan_fragments = counters_.orphan_fragments.value();
  s.accepted_fragments = counters_.accepted_fragments.value();
  s.fragments_seen = counters_.fragments_seen.value();
  return s;
}

obs::SpanId Reassembler::span_of(std::uint64_t key) const {
  const std::uint32_t slot = find(key);
  return slot != kNil ? slots_[slot].span : obs::SpanId::none();
}

void Reassembler::fragment_instant(const char* name, const Entry& entry,
                                   sim::TimePoint now, std::size_t bytes) {
  if (spans_ == nullptr) return;
  spans_->instant(name, "aff", track_, now, entry.span,
                  static_cast<std::uint64_t>(bytes));
}

std::size_t Reassembler::home(std::uint64_t key) const noexcept {
  // Fibonacci hashing takes the product's top bits, so keys that differ
  // only in high bits (k, k + 2^32, ...) still land in different cells.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  index_shift_);
}

std::uint32_t Reassembler::find(std::uint64_t key) const noexcept {
  if (index_.empty()) return kNil;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    const Cell& cell = index_[i];
    if (cell.slot == kNil || cell.key == key) return cell.slot;
  }
}

void Reassembler::index_insert(std::uint64_t key, std::uint32_t slot) {
  if (2 * (live_ + 1) > index_.size()) {
    // Keep the load factor at most 1/2 so probe runs stay short. The
    // index only grows, so a warmed-up table never rehashes.
    std::vector<Cell> old(index_.empty() ? 16 : 2 * index_.size());
    old.swap(index_);
    index_shift_ = 64u - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (const Cell& cell : old) {
      if (cell.slot != kNil) index_insert(cell.key, cell.slot);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(key);
  while (index_[i].slot != kNil) i = (i + 1) & mask;
  index_[i] = Cell{key, slot};
}

void Reassembler::index_erase(std::uint64_t key) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(key);
  // The key is live, so its probe run from home is unbroken.
  while (index_[hole].key != key) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever the hole lies on their path from their home cell, so no
  // tombstones accumulate and lookups stop at the first empty cell.
  for (std::size_t i = (hole + 1) & mask; index_[i].slot != kNil;
       i = (i + 1) & mask) {
    const std::size_t dist_i = (i - home(index_[i].key)) & mask;
    const std::size_t dist_hole = (i - hole) & mask;
    if (dist_i >= dist_hole) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole].slot = kNil;
}

void Reassembler::lru_unlink(std::uint32_t slot) noexcept {
  Entry& entry = slots_[slot];
  (entry.prev != kNil ? slots_[entry.prev].next : lru_head_) = entry.next;
  (entry.next != kNil ? slots_[entry.next].prev : lru_tail_) = entry.prev;
  entry.prev = entry.next = kNil;
}

void Reassembler::lru_append(std::uint32_t slot) noexcept {
  Entry& entry = slots_[slot];
  entry.prev = lru_tail_;
  entry.next = kNil;
  (lru_tail_ != kNil ? slots_[lru_tail_].next : lru_head_) = slot;
  lru_tail_ = slot;
}

std::uint32_t Reassembler::open(std::uint64_t key, sim::TimePoint now) {
  if (live_ >= config_.max_entries) {
    // Evict the least recently updated packet to bound memory — a real
    // driver on a sensor node has a small fixed reassembly table.
    close(lru_head_, CloseReason::kEvicted, now);
  }
  std::uint32_t slot = free_;
  if (slot != kNil) {
    free_ = slots_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Entry& entry = slots_[slot];
  entry.key = key;
  entry.have_intro = false;
  entry.total_len = 0;
  entry.checksum = 0;
  entry.bytes.clear();
  entry.have.clear();
  entry.covered = 0;
  entry.span = obs::SpanId::none();
  index_insert(key, slot);
  ++live_;
  lru_append(slot);
  if (spans_ != nullptr) {
    entry.span = spans_->begin("reassembly", "aff", track_, now);
    spans_->annotate(entry.span, "key", key);
  }
  counters_.pending.set(static_cast<std::int64_t>(live_));
  return slot;
}

Reassembler::Entry& Reassembler::touch(std::uint32_t slot,
                                       sim::TimePoint now) {
  if (slot != lru_tail_) {
    lru_unlink(slot);
    lru_append(slot);
  }
  Entry& entry = slots_[slot];
  entry.last_update = now;
  return entry;
}

void Reassembler::close(std::uint32_t slot, CloseReason reason,
                        sim::TimePoint now) {
  Entry& entry = slots_[slot];
  const std::uint64_t key = entry.key;
  switch (reason) {
    case CloseReason::kDelivered: counters_.delivered.inc(); break;
    case CloseReason::kChecksumFailed: counters_.checksum_failed.inc(); break;
    case CloseReason::kTimeout: counters_.timeouts.inc(); break;
    case CloseReason::kEvicted: counters_.evicted.inc(); break;
  }
  if (spans_ != nullptr && entry.span.valid()) {
    spans_->end(entry.span, now, std::string(to_string(reason)));
  }
  index_erase(key);
  lru_unlink(slot);
  entry.next = free_;
  free_ = slot;
  --live_;
  counters_.pending.set(static_cast<std::int64_t>(live_));
  if (closed_) closed_(key);
}

bool Reassembler::write_bytes(Entry& entry, std::size_t offset,
                              util::BytesView payload) {
  const std::size_t extent = offset + payload.size();
  if (entry.bytes.size() < extent) {
    // A fresh slot's first fragments would regrow its buffers once per
    // fragment; size them for the whole announced packet on first touch.
    const std::size_t want = std::max<std::size_t>(extent, entry.total_len);
    if (entry.bytes.capacity() < want) {
      entry.bytes.reserve(want);
      entry.have.reserve((want + 63) / 64);
    }
    entry.bytes.resize(extent, 0);
    entry.have.resize((extent + 63) / 64, 0);
  }
  bool conflicted = false;
  bool all_duplicate = !payload.empty();
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const std::size_t pos = offset + i;
    std::uint64_t& word = entry.have[pos / 64];
    const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
    if ((word & bit) != 0) {
      if (entry.bytes[pos] != payload[i]) conflicted = true;
    } else {
      word |= bit;
      ++entry.covered;
      all_duplicate = false;
    }
    entry.bytes[pos] = payload[i];  // last write wins, like the real driver
  }
  if (conflicted) counters_.conflicting_writes.inc();
  else if (all_duplicate) counters_.duplicate_fragments.inc();
  return conflicted;
}

void Reassembler::maybe_complete(std::uint64_t key, Entry& entry,
                                 sim::TimePoint now) {
  if (!entry.have_intro) return;
  // Known defect (ROADMAP item 4): `covered` also counts bytes past
  // total_len, so holes inside the announced length can pass this check
  // and close the entry early as checksum_failed.
  if (entry.covered < entry.total_len) return;
  // All bytes of the announced length are present. Bytes beyond total_len
  // (from a colliding longer packet) are ignored; the checksum decides.
  const util::BytesView packet(entry.bytes.data(), entry.total_len);
  const bool valid = util::crc32(packet) == entry.checksum;
  if (valid && deliver_) {
    delivery_.assign(packet.begin(), packet.end());
    deliver_(key, delivery_);
  }
  // Looked up again by key: the callback may have re-entered and closed
  // or replaced the entry.
  const std::uint32_t slot = find(key);
  if (slot != kNil) {
    close(slot, valid ? CloseReason::kDelivered : CloseReason::kChecksumFailed,
          now);
  }
}

bool Reassembler::on_intro(std::uint64_t key, std::uint16_t total_len,
                           std::uint32_t checksum, sim::TimePoint now) {
  counters_.fragments_seen.inc();
  if (total_len == 0) {
    counters_.malformed.inc();
    return false;
  }
  counters_.accepted_fragments.inc();
  std::uint32_t slot = find(key);
  if (slot == kNil) slot = open(key, now);
  Entry& entry = touch(slot, now);
  fragment_instant("frag_intro", entry, now, 0);
  const bool conflicted =
      entry.have_intro &&
      (entry.total_len != total_len || entry.checksum != checksum);
  if (conflicted) {
    // A second, different introduction under the same key. Either an
    // identifier collision between two *concurrent* packets, or ordinary
    // sequential reuse of the identifier (a new transaction). The driver
    // cannot tell which, so it adopts the new announcement and restarts
    // assembly: concurrent colliders still interleave fragments into the
    // fresh entry and die at the checksum, while sequential reuse — the
    // common case under small id spaces — starts clean instead of
    // inheriting a dead packet's bytes.
    counters_.conflicting_writes.inc();
    entry.bytes.clear();
    entry.have.clear();
    entry.covered = 0;
  }
  entry.have_intro = true;
  entry.total_len = total_len;
  entry.checksum = checksum;
  maybe_complete(key, entry, now);
  return conflicted;
}

bool Reassembler::on_data(std::uint64_t key, std::uint16_t offset,
                          util::BytesView payload, sim::TimePoint now) {
  counters_.fragments_seen.inc();
  if (payload.empty() ||
      static_cast<std::size_t>(offset) + payload.size() > 0x10000) {
    counters_.malformed.inc();
    return false;
  }
  const std::uint32_t slot = find(key);
  if (slot == kNil || !slots_[slot].have_intro) {
    counters_.orphan_fragments.inc();
    return false;
  }
  counters_.accepted_fragments.inc();
  Entry& entry = touch(slot, now);
  fragment_instant("frag_data", entry, now, payload.size());
  const bool conflicted = write_bytes(entry, offset, payload);
  maybe_complete(key, entry, now);
  return conflicted;
}

void Reassembler::expire(sim::TimePoint now) {
  // LRU order is also idle order: the head is the longest-idle entry.
  while (lru_head_ != kNil &&
         now - slots_[lru_head_].last_update >= config_.timeout) {
    close(lru_head_, CloseReason::kTimeout, now);
  }
}

}  // namespace retri::aff
