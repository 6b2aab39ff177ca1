// Shared-memory parallelism: a lazily-started thread pool with one dispatch
// entry, ThreadPool::run_chunks, that chunks an index range over the workers.
// The free parallel_for, parallel_for_chunked and parallel_for_slabs are
// templates over it on the current pool. It is the single parallel substrate
// for the whole library (FFT batches, GEMM tiles, LBM row sweeps, per-sample
// dataset generation), in the spirit of the OpenMP worksharing idiom but
// without an OpenMP dependency.
//
// run_chunks runs the whole range as one serial body(begin, end) call on the
// caller when the pool has no workers (width 1), when the range holds one
// index, or when the call is nested in another body. Callers that want a
// unit of work kept whole (an FFT lane batch, a column tile, an engine
// kColBlock tile) dispatch over those units. A dispatch allocates nothing:
// the body goes by address through one type-erased function pointer, and
// the task lives on the caller's stack.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace turb {

/// Fixed-size worker pool executing [begin, end) index-range tasks.
class ThreadPool {
 public:
  /// @param num_threads worker count; 0 means TURBFNO_THREADS, else
  /// hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallel width: the workers plus the submitting thread. Also the number
  /// of distinct values scratch_slot() can return.
  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run body(chunk_begin, chunk_end) over contiguous chunks covering
  /// [begin, end) exactly once, split across the workers. Blocks until every
  /// chunk has run. Exceptions thrown by the body are captured and rethrown
  /// (first one wins) on the calling thread. Nested inside another body, the
  /// range runs serially on the calling thread (the pool dispatches one task
  /// at a time, so nested submission would deadlock — and serial nesting
  /// keeps results independent of where a kernel happens to be invoked
  /// from).
  template <typename Body>
  void run_chunks(index_t begin, index_t end, const Body& body) {
    dispatch(begin, end, &body, [](const void* ctx, index_t b, index_t e) {
      (*static_cast<const Body*>(ctx))(b, e);
    });
  }

  /// Stable scratch-slot index of the calling thread with respect to this
  /// pool: workers get 1..size()-1, any other thread gets 0. Threads that
  /// can concurrently execute a body on this pool (its workers plus the
  /// single submitting thread) therefore hold disjoint slots, so per-slot
  /// scratch buffers sized by size() are race-free without thread_local
  /// storage — which lets a planner preallocate every worker's scratch up
  /// front instead of lazily on first touch per thread.
  [[nodiscard]] std::size_t scratch_slot() const;

  /// Pool the free-function wrappers dispatch to: the innermost active
  /// Scope's pool on this thread, else the process-wide pool. That one is
  /// sized by set_global_threads() when called before its first use, else
  /// by TURBFNO_THREADS, else hardware_concurrency().
  static ThreadPool& current();

  /// True while the calling thread is executing a body (as the submitting
  /// thread or a worker).
  [[nodiscard]] static bool in_parallel_region() noexcept;

  /// RAII override of the pool used by the free-function wrappers on the
  /// constructing thread: an owned temporary pool of `num_threads` width.
  /// Lets tests and benches run the same code at several parallel widths
  /// inside one process (the global pool cannot be resized once its workers
  /// exist). Scopes nest; the innermost wins.
  class Scope {
   public:
    explicit Scope(std::size_t num_threads);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::unique_ptr<ThreadPool> owned_;
    ThreadPool* previous_;
  };

 private:
  using ChunkFn = void (*)(const void* ctx, index_t, index_t);

  struct Task {
    ChunkFn invoke = nullptr;
    const void* ctx = nullptr;
    index_t end = 0;
    index_t chunk = 1;
    std::atomic<index_t> next{0};
    std::atomic<index_t> remaining{0};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

  /// The type-erased core behind run_chunks: fn(ctx, chunk_begin, chunk_end).
  void dispatch(index_t begin, index_t end, const void* ctx, ChunkFn fn);
  void worker_loop(std::size_t slot);
  static void run_task(Task& task);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  Task* current_ = nullptr;
  std::size_t generation_ = 0;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Size the global pool explicitly (overrides the TURBFNO_THREADS env var).
/// Must be called before the global pool's first use — throws CheckError
/// once the pool exists, since workers cannot be resized.
void set_global_threads(std::size_t num_threads);

/// Pool width named by a TURBFNO_THREADS value: a whole number >= 1 in
/// decimal digits. Throws CheckError naming the variable on anything else.
[[nodiscard]] std::size_t parse_thread_count(const std::string& spec);

/// body(i) for every i in [begin, end), chunked over the current pool.
template <typename Body>
void parallel_for(index_t begin, index_t end, const Body& body) {
  ThreadPool::current().run_chunks(begin, end, [&body](index_t b, index_t e) {
    for (index_t i = b; i < e; ++i) body(i);
  });
}

/// body(chunk_begin, chunk_end) over the current pool — lets the body
/// amortise per-call overhead over a contiguous subrange.
template <typename Body>
void parallel_for_chunked(index_t begin, index_t end, const Body& body) {
  ThreadPool::current().run_chunks(begin, end, body);
}

/// Number of slabs parallel_for_slabs will actually use for a range
/// (min(slots, end - begin), at least 0) — callers size scratch with this.
[[nodiscard]] inline index_t slab_count(index_t begin, index_t end,
                                        index_t slots) {
  if (end <= begin) return 0;
  return std::min<index_t>(slots, end - begin);
}

/// Deterministic-reduction work partition: split [begin, end) into exactly
/// slab_count(begin, end, slots) contiguous slabs whose boundaries depend
/// only on the range and `slots` — never on the pool width — and run
/// body(slot, slab_begin, slab_end) for each slab, in parallel when a pool
/// is available.
///
/// This is the primitive behind the thread-count determinism contract: a
/// parallel floating-point reduction accumulates each slab into its own
/// scratch buffer (written by exactly one task) and then folds the slabs in
/// ascending slot order on the calling thread. Because the partition and the
/// fold order are fixed, the result is bitwise identical at any thread
/// count — including 1.
template <typename Body>
void parallel_for_slabs(index_t begin, index_t end, index_t slots,
                        const Body& body) {
  const index_t slabs = slab_count(begin, end, slots);
  if (slabs <= 0) return;
  const index_t n = end - begin;
  const index_t q = n / slabs;
  const index_t r = n % slabs;
  // Slab s covers q indices (q+1 for the first r slabs) — a function of
  // (n, slots) only, so the reduction tree built on top of it is identical
  // at every pool width.
  parallel_for(0, slabs, [&](index_t s) {
    const index_t b = begin + s * q + std::min<index_t>(s, r);
    const index_t e = b + q + (s < r ? 1 : 0);
    body(s, b, e);
  });
}

}  // namespace turb
