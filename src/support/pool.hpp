// Allocation-recycling primitives for the hot simulation paths.
//
// Three tools, one theme — the event engine and the share path must not pay
// the allocator per event at 10k+ nodes:
//
//   SlotPool<T>    index-addressed freelist. The event engine parks
//                  per-event state (in-flight envelopes, share batches,
//                  pending epoch records) in slots and threads the 32-bit
//                  slot id through the Event itself, replacing one
//                  unordered_map insert+find+erase per event with two
//                  vector pokes. Released slots keep their T's heap
//                  capacity, so a recycled std::vector slot is also a
//                  container pool.
//
//   BufferPool     thread-safe freelist of Bytes buffers. Producers acquire
//                  (consumer threads release), so payload storage cycles
//                  sender -> wire -> receiver -> sender without touching
//                  the allocator once the pool is warm.
//
//   SharedBytes    immutable refcounted byte buffer: the zero-copy payload
//                  currency of net::Envelope. A node sharing one blob with
//                  k neighbors wraps it once and every envelope holds a
//                  reference; the last release frees the storage — or
//                  returns it to the BufferPool it came from.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace rex {

template <class T>
class SlotPool {
 public:
  /// Returns a slot id, reusing a released slot (with whatever capacity its
  /// T retained) when one exists. References into the pool are invalidated
  /// by acquire(); re-index instead of holding them across calls.
  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  /// Marks the slot reusable. The T is intentionally not destroyed — clear
  /// it first if it pins resources (refcounts) that should release now.
  void release(std::uint32_t slot) { free_.push_back(slot); }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return slots_[slot]; }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return slots_[slot];
  }

  [[nodiscard]] std::size_t slots_allocated() const { return slots_.size(); }
  [[nodiscard]] std::size_t in_use() const {
    return slots_.size() - free_.size();
  }

 private:
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
};

class BufferPool {
 public:
  struct Stats {
    std::uint64_t reused = 0;  // acquires served from the freelist
    std::uint64_t fresh = 0;   // acquires that fell through to malloc
  };

  /// Refcount block backing SharedBytes: one header + the byte storage,
  /// recycled wholesale so a warm share path performs zero allocations.
  struct Block {
    std::atomic<std::uint32_t> refs{1};
    BufferPool* pool = nullptr;  // null = free with delete on last release
    std::size_t size = 0;        // logical payload size (bytes may be fatter)
    Bytes bytes;
  };

  ~BufferPool() {
    for (Block* block : free_blocks_) delete block;
  }

  /// A buffer with whatever capacity its previous life left behind (empty
  /// size), or a fresh one when the freelist is dry.
  [[nodiscard]] Bytes acquire() {
    std::lock_guard lock(mutex_);
    if (free_bytes_.empty()) {
      ++stats_.fresh;
      return Bytes{};
    }
    ++stats_.reused;
    Bytes buffer = std::move(free_bytes_.back());
    free_bytes_.pop_back();
    buffer.clear();
    return buffer;
  }

  void release(Bytes buffer) {
    if (buffer.capacity() == 0) return;
    std::lock_guard lock(mutex_);
    free_bytes_.push_back(std::move(buffer));
  }

  /// A recycled (or fresh) refcount block owning `bytes`, refs == 1.
  [[nodiscard]] Block* acquire_block(Bytes bytes) {
    Block* block = nullptr;
    {
      std::lock_guard lock(mutex_);
      if (!free_blocks_.empty()) {
        block = free_blocks_.back();
        free_blocks_.pop_back();
      }
    }
    if (block == nullptr) block = new Block;
    block->refs.store(1, std::memory_order_relaxed);
    block->pool = this;
    block->size = bytes.size();
    block->bytes = std::move(bytes);
    return block;
  }

  /// Last reference dropped, on whichever thread: the byte storage and the
  /// shell go back on the freelists for the next acquire on any thread.
  void release_block(Block* block) {
    std::lock_guard lock(mutex_);
    if (block->bytes.capacity() != 0) {
      free_bytes_.push_back(std::move(block->bytes));
      block->bytes = Bytes{};
    }
    free_blocks_.push_back(block);
  }

  [[nodiscard]] Stats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }
  [[nodiscard]] std::size_t free_buffers() const {
    std::lock_guard lock(mutex_);
    return free_bytes_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Bytes> free_bytes_;
  std::vector<Block*> free_blocks_;
  Stats stats_;
};

/// Immutable refcounted byte buffer with an intrusive count — no
/// shared_ptr control-block allocation; pooled blocks recycle entirely.
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Implicit on purpose: every legacy `payload = some_bytes` send site
  /// keeps compiling, now with shared (not copied) storage.
  SharedBytes(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : block_(new BufferPool::Block) {
    block_->pool = nullptr;
    block_->size = bytes.size();
    block_->bytes = std::move(bytes);
  }

  SharedBytes(const SharedBytes& other) : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  SharedBytes(SharedBytes&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  SharedBytes& operator=(SharedBytes other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~SharedBytes() { reset(); }

  /// Takes ownership; storage is freed on last release.
  [[nodiscard]] static SharedBytes wrap(Bytes bytes) {
    return SharedBytes(std::move(bytes));
  }

  /// Takes ownership; storage returns to `pool` on last release, closing
  /// the producer->consumer->producer recycling loop.
  [[nodiscard]] static SharedBytes pooled(BufferPool& pool, Bytes bytes) {
    SharedBytes shared;
    shared.block_ = pool.acquire_block(std::move(bytes));
    return shared;
  }

  /// Cached in the block header (the buffer is immutable): traffic
  /// accounting reads the size per envelope per edge.
  [[nodiscard]] std::size_t size() const {
    return block_ != nullptr ? block_->size : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const {
    return block_ != nullptr ? block_->bytes.data() : nullptr;
  }
  [[nodiscard]] BytesView view() const {
    return block_ != nullptr ? BytesView(block_->bytes) : BytesView();
  }
  operator BytesView() const { return view(); }  // NOLINT
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return block_->bytes[i];
  }

  /// Mutable copy of the contents (tamper tests; never the hot path).
  [[nodiscard]] Bytes to_bytes() const {
    return block_ != nullptr ? block_->bytes : Bytes{};
  }
  /// Holders of this exact storage (diagnostics/tests).
  [[nodiscard]] long use_count() const {
    return block_ != nullptr
               ? static_cast<long>(block_->refs.load(std::memory_order_relaxed))
               : 0;
  }

 private:
  void reset() {
    if (block_ == nullptr) return;
    if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      if (block_->pool != nullptr) {
        block_->pool->release_block(block_);
      } else {
        delete block_;
      }
    }
    block_ = nullptr;
  }

  BufferPool::Block* block_ = nullptr;
};

}  // namespace rex
