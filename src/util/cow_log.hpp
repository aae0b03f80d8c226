#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "util/assert.hpp"

/// \file cow_log.hpp
/// Copy-on-write append-only log.
///
/// A CowLog is a vector split into frozen history and a private append
/// tail.  It exists for run forks (core/fork.hpp): a mid-run scheduler
/// carries two large append-only arrays — the submission table (the whole
/// native log) and the completed-record log — and forking a run per sweep
/// variant must not duplicate megabytes of history per variant.
///
/// Layout: frozen history is a spine of immutable chunks of kChunk entries
/// each, shared between copies by shared_ptr; only the last chunk may be
/// partial.  Costs:
///   - push_back, reserve_extra: a vector's, into the private tail;
///   - operator[], back(): O(1), by shift and mask below the tail;
///   - freeze(): O(kChunk + tail / kChunk).  The tail's buffer becomes a
///     shared block and each kChunk entries of it a chunk, in place; only
///     a partial last chunk, which copies may share, is resealed from a
///     copy topped up from the block (at most kChunk entries copied);
///   - copy: O(spine), one shared_ptr per chunk, plus a copy of the tail
///     (empty right after freeze());
///   - take(): moves the tail out; frozen chunks are copied once.
/// Chunks are never written after sealing, so forks may read and drop
/// them from different threads.  History kept by N forks costs the
/// longest history (with its blocks' spare capacity) plus less than
/// kChunk entries per fork, not N copies of it.
///
/// Indexing is stable across freeze(), so 32-bit event arguments indexing
/// into the log stay valid over a fork boundary.

namespace istc::util {

template <class T>
class CowLog {
 public:
  /// Entries per frozen chunk (a power of two).
  static constexpr std::size_t kChunk = std::size_t{1} << 10;

  std::size_t size() const { return frozen_ + tail_.size(); }
  bool empty() const { return size() == 0; }

  const T& operator[](std::size_t i) const {
    return i < frozen_ ? spine_[i / kChunk].get()[i % kChunk]
                       : tail_[i - frozen_];
  }

  const T& back() const {
    ISTC_EXPECTS(!empty());
    return tail_.empty() ? (*this)[frozen_ - 1] : tail_.back();
  }

  void push_back(const T& value) { tail_.push_back(value); }
  void push_back(T&& value) { tail_.push_back(std::move(value)); }

  /// Reserve for `n` further appends.
  void reserve_extra(std::size_t n) { tail_.reserve(tail_.size() + n); }

  /// Seal the tail onto the shared spine.  Afterwards copying this log
  /// shares every entry; call on the parent immediately before forking.
  void freeze() {
    if (tail_.empty()) return;
    // The tail's buffer becomes one shared block that new chunks point
    // into, so no entry moves — except those that top up a partial last
    // chunk, which copies may share and so is resealed from a copy.
    auto block =
        std::make_shared<const std::vector<T>>(std::exchange(tail_, {}));
    const T* next = block->data();
    const T* const end = next + block->size();
    if (const std::size_t open = frozen_ % kChunk; open != 0) {
      const T* last = spine_.back().get();
      const std::size_t n =
          std::min(kChunk - open, static_cast<std::size_t>(end - next));
      std::vector<T> merged;
      merged.reserve(open + n);
      merged.insert(merged.end(), last, last + open);
      merged.insert(merged.end(), next, next + n);
      next += n;
      spine_.pop_back();
      frozen_ -= open;
      auto owner = std::make_shared<const std::vector<T>>(std::move(merged));
      seal(owner, owner->data(), open + n);
    }
    while (next != end) {
      const std::size_t n =
          std::min(kChunk, static_cast<std::size_t>(end - next));
      seal(block, next, n);
      next += n;
    }
  }

  /// Materialize the whole log as one vector and reset to empty.  Frozen
  /// chunks are copied (other forks may still hold them); the tail is
  /// moved, so a never-frozen log hands over its own buffer.
  std::vector<T> take() {
    std::vector<T> out;
    if (!spine_.empty()) {
      out.reserve(size());
      for (std::size_t c = 0; c < spine_.size(); ++c) {
        const T* chunk = spine_[c].get();
        out.insert(out.end(), chunk,
                   chunk + std::min(kChunk, frozen_ - c * kChunk));
      }
      out.insert(out.end(), std::make_move_iterator(tail_.begin()),
                 std::make_move_iterator(tail_.end()));
      tail_.clear();
    } else {
      out = std::exchange(tail_, {});
    }
    spine_.clear();
    frozen_ = 0;
    return out;
  }

 private:
  /// Append the chunk [first, first + n) of `owner` to the spine.  The
  /// pointer shares `owner` but aliases `first`, so indexing loads it
  /// directly.
  void seal(const std::shared_ptr<const std::vector<T>>& owner,
            const T* first, std::size_t n) {
    spine_.emplace_back(owner, first);
    frozen_ += n;
  }

  /// Frozen chunks in index order, shared between copies.
  std::vector<std::shared_ptr<const T>> spine_;
  /// Entries on the spine; all but the last chunk hold kChunk.
  std::size_t frozen_ = 0;
  /// Private appends since the last freeze().
  std::vector<T> tail_;
};

}  // namespace istc::util
