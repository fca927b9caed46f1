// Fixed-size thread pool with deterministic data-parallel primitives.
//
// The simulation parallelizes *across nodes that own disjoint state*
// (DESIGN.md §4), so no ordering between concurrently executed indices is
// ever required and results stay bitwise identical to serial execution.
// One batch mechanism, two entry points:
//
//   parallel_shards  workers repeatedly claim the lowest unclaimed shard
//                    from a shared cursor, so a straggler shard does not
//                    idle the rest of the pool. The primitive parallel_for
//                    is built on.
//
//   parallel_for     the same claim loop over contiguous blocks of
//                    ceil(n / workers) indices, one block per shard. The
//                    simulator's only caller shape: per-node loops where
//                    every node does comparable, millisecond-scale work
//                    (epoch-0 init, a barrier round, an attestation step).
//
// Both entry points are templates dispatching through a borrowed
// (context, trampoline) pair instead of std::function, so a call costs no
// heap allocation; the callable only needs to outlive the call, which both
// primitives guarantee by blocking until the batch completes.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace rex {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n), partitioned into contiguous blocks of
  /// ceil(n / size()) indices; each block runs on one thread, in index
  /// order. Blocks until every call returned. Exceptions from `fn`
  /// propagate to the caller (first one wins; the rest of that block is
  /// skipped).
  template <class F>
  void parallel_for(std::size_t n, F&& fn) {
    if (n == 0) return;
    const std::size_t chunk = (n + size() - 1) / size();
    parallel_shards((n + chunk - 1) / chunk, [&](std::size_t block) {
      const std::size_t end = std::min(n, (block + 1) * chunk);
      for (std::size_t i = block * chunk; i < end; ++i) fn(i);
    });
  }

  /// Runs fn(i) for i in [0, n) with dynamic (work-stealing) scheduling:
  /// every worker repeatedly claims the lowest unclaimed index until all are
  /// done. Each index runs exactly once; indices must be independent (no
  /// ordering is guaranteed). Blocks until every call returned; exceptions
  /// propagate (first one wins).
  template <class F>
  void parallel_shards(std::size_t n, F&& fn) {
    run_shards(n, &trampoline<F>, const_cast<void*>(
                                      static_cast<const void*>(&fn)));
  }

 private:
  /// Borrowed callable: `call(ctx, i)` invokes the caller's functor. Valid
  /// only while the blocking entry point is on the caller's stack.
  using IndexFn = void (*)(void* ctx, std::size_t index);

  template <class F>
  static void trampoline(void* ctx, std::size_t index) {
    (*static_cast<std::remove_reference_t<F>*>(ctx))(index);
  }

  void run_shards(std::size_t n, IndexFn fn, void* ctx);
  void worker_loop();
  void run_shard_batch();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::size_t pending_ = 0;        // shards not yet finished this batch
  std::size_t generation_ = 0;     // batch counter
  bool stopping_ = false;
  std::exception_ptr first_error_;

  // The current batch: a shared claim cursor over shard_count_ shards.
  std::size_t shard_count_ = 0;
  std::size_t next_shard_ = 0;     // work-stealing cursor (guarded by mutex_)
  IndexFn shard_fn_ = nullptr;
  void* shard_ctx_ = nullptr;
};

}  // namespace rex
