// Byte buffers and byte-order-safe serialization.
//
// AFF fragments, baseline addressed fragments, and the dynamic address
// allocation protocol all serialize to byte vectors through BufferWriter /
// BufferReader. All multi-byte integers are big-endian on the wire, matching
// network convention; variable-width identifier fields are written as the
// minimal whole-byte width for their configured bit width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace retri::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

class FramePool;

/// Immutable, ref-counted byte buffer with copy-on-write mutation.
///
/// The broadcast medium hands one SharedBytes to every listener's delivery
/// instead of copying the payload N times; copying a SharedBytes bumps a
/// refcount (8 bytes, no byte copy). Readers use bytes()/view(). A writer
/// (e.g. the fault injector corrupting one listener's copy) calls
/// mutable_bytes(), which clones the buffer only when it is actually shared
/// — so the corruption never leaks into other listeners' deliveries, and an
/// unshared buffer mutates in place with no copy at all. Default-constructed
/// SharedBytes is an empty buffer (no allocation until first mutation).
///
/// The refcount is intrusive and NOT atomic (DESIGN.md §5e): a buffer and
/// every SharedBytes referencing it belong to one simulation trial, which
/// runs on one thread. Buffers from a FramePool return to it on the last
/// release, and a clone of a pooled buffer comes from the same pool, so the
/// simulated send and delivery path allocates nothing once the pool is warm.
class SharedBytes {
 public:
  SharedBytes() noexcept = default;
  /// Wraps `bytes` in a fresh heap block (one allocation, not pooled).
  explicit SharedBytes(Bytes bytes) : block_(new Block{std::move(bytes)}) {}

  SharedBytes(const SharedBytes& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  SharedBytes(SharedBytes&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  SharedBytes& operator=(SharedBytes other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~SharedBytes() { release(); }

  /// Allocates a new buffer holding a copy of `data`.
  static SharedBytes copy_of(BytesView data) {
    return SharedBytes(Bytes(data.begin(), data.end()));
  }

  /// Read access; valid as long as any SharedBytes referencing the buffer
  /// (or the returned reference's user) needs it.
  const Bytes& bytes() const noexcept {
    static const Bytes kEmpty;
    return block_ != nullptr ? block_->bytes : kEmpty;
  }
  BytesView view() const noexcept { return bytes(); }
  std::size_t size() const noexcept { return bytes().size(); }
  bool empty() const noexcept { return size() == 0; }

  /// Write access. Clones the buffer first if other SharedBytes share it
  /// (copy-on-write; the clone comes from the same pool, if any); mutates
  /// in place when uniquely owned.
  Bytes& mutable_bytes();

  /// Number of SharedBytes sharing the buffer (0 when empty-default).
  long use_count() const noexcept {
    return block_ != nullptr ? static_cast<long>(block_->refs) : 0;
  }

 private:
  friend class FramePool;

  struct Block {
    Bytes bytes;
    std::uint32_t refs = 1;
    FramePool* pool = nullptr;  // nullptr: heap block, deleted on release
    Block* next_free = nullptr;
  };

  explicit SharedBytes(Block* block) noexcept : block_(block) {}
  void release() noexcept;

  Block* block_ = nullptr;
};

/// Recycled SharedBytes buffers for one simulation trial (DESIGN.md §5e).
///
/// acquire() hands out an empty, uniquely owned buffer whose byte capacity
/// survives from earlier use; the last SharedBytes to let go returns it.
/// Encoders write frames straight into acquired buffers, so once the pool
/// has grown to the trial's peak number of frames in flight, a frame costs
/// no allocation from encode to the last delivery. Single-threaded, like
/// the refcount it relies on. Buffers still referenced when the pool is
/// destroyed (say, by events left in a simulator that outlives the medium
/// owning the pool) are detached and freed by their last release.
class FramePool {
 public:
  FramePool() = default;
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// An empty buffer with use_count() 1.
  SharedBytes acquire();
  /// A pooled buffer that takes over `bytes` (no byte copy).
  SharedBytes adopt(Bytes bytes);

 private:
  friend class SharedBytes;
  using Block = SharedBytes::Block;

  Block* take();
  void recycle(Block* block) noexcept;

  std::vector<Block*> blocks_;  // every block created, idle or not
  Block* free_ = nullptr;
};

/// Appends big-endian fields to a byte vector.
///
/// The writer owns its buffer; call take() to move it out when done.
class BufferWriter {
 public:
  BufferWriter() = default;
  /// Reserves `expected_size` up front to avoid reallocation in hot paths.
  explicit BufferWriter(std::size_t expected_size) { buf_.reserve(expected_size); }
  /// Writes into `reuse` (cleared, capacity kept); take() hands it back.
  explicit BufferWriter(Bytes&& reuse) noexcept : buf_(std::move(reuse)) {
    buf_.clear();
  }

  void reserve(std::size_t n) { buf_.reserve(n); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// Writes the low `bits` bits of `v` as a big-endian field occupying
  /// bytes_for_bits(bits) bytes. This is how variable-width RETRI
  /// identifiers are framed on the wire. bits must be in [1, 64].
  void uvar(std::uint64_t v, unsigned bits);

  /// Appends raw bytes.
  void raw(BytesView data);

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Reads big-endian fields from a byte span. All accessors return
/// std::nullopt on underrun instead of throwing; a malformed frame received
/// from the radio must never crash a node (DESIGN.md: errors are the norm).
class BufferReader {
 public:
  explicit BufferReader(BytesView data) noexcept : data_(data) {}

  std::optional<std::uint8_t> u8() noexcept;
  std::optional<std::uint16_t> u16() noexcept;
  std::optional<std::uint32_t> u32() noexcept;
  std::optional<std::uint64_t> u64() noexcept;

  /// Reads a field written by BufferWriter::uvar with the same bit width.
  /// Padding bits (the high bits of the byte-aligned field beyond `bits`)
  /// are masked off, so corrupted padding aliases onto a valid value.
  std::optional<std::uint64_t> uvar(unsigned bits) noexcept;

  /// Like uvar, but rejects (nullopt) fields whose padding bits are
  /// nonzero. BufferWriter::uvar always writes them as zero, so a nonzero
  /// padding bit proves the frame was corrupted or framed with a different
  /// width — wire decoders use this to drop such frames instead of
  /// silently aliasing them onto a masked identifier (which would break
  /// the decode→re-encode round-trip property the fuzz tests assert).
  std::optional<std::uint64_t> uvar_strict(unsigned bits) noexcept;

  /// Reads exactly n bytes into an owning copy; nullopt if fewer remain.
  /// Prefer raw_view() on decode paths — this allocates.
  std::optional<Bytes> raw(std::size_t n);

  /// Reads exactly n bytes as a view into the underlying buffer (no copy);
  /// nullopt if fewer remain. The view is valid only as long as the buffer
  /// the reader was constructed over.
  std::optional<BytesView> raw_view(std::size_t n) noexcept;

  /// All bytes not yet consumed.
  BytesView rest() const noexcept { return data_.subspan(pos_); }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool empty() const noexcept { return pos_ >= data_.size(); }

 private:
  BytesView data_;
  std::size_t pos_ = 0;
};

/// Hex dump ("de ad be ef") for logs and test failure messages.
std::string to_hex(BytesView data);

/// Deterministic pseudo-random payload of n bytes (keyed by seed); used by
/// workload generators so packet contents are reproducible and checksums
/// exercise real data.
Bytes random_payload(std::size_t n, std::uint64_t seed);
/// The same bytes as random_payload(n, seed), written into `out` (resized
/// to n, capacity kept) so a steady sender reuses one buffer.
void fill_random_payload(Bytes& out, std::size_t n, std::uint64_t seed);

}  // namespace retri::util
