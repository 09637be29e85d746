// Growable FIFO ring over one contiguous buffer.
//
// The simulator's bounded queues (a radio's frame queue, the listening
// selector's avoid windows) push at the back and pop at the front at a
// steady rate. std::deque allocates and frees a block every few hundred
// pushes as the queue slides; this ring reuses one power-of-two buffer and
// grows (doubling) only when it is full, so a queue whose length stays
// bounded allocates nothing after warm-up.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace retri::util {

template <class T>
class Ring {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  T& front() noexcept {
    assert(size_ > 0);
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Removes the oldest element, resetting its slot so it holds no
  /// resources (a SharedBytes slot drops its buffer reference here).
  void pop_front() noexcept {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // power-of-two length (or empty)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace retri::util
