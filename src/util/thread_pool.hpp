// Shared-memory parallelism: a lazily-started thread pool with a
// parallel_for that chunks an index range over the workers.
//
// The pool is the single parallel substrate for the whole library (FFT
// batches, GEMM tiles, LBM row sweeps, per-sample dataset generation), in the
// spirit of the OpenMP worksharing idiom but without an OpenMP dependency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace turb {

/// Fixed-size worker pool executing [begin, end) index-range tasks.
class ThreadPool {
 public:
  /// @param num_threads worker count; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size() + 1; }

  /// Run body(i) for i in [begin, end), splitting the range across workers.
  /// Blocks until every index has been processed. Exceptions thrown by the
  /// body are captured and rethrown (first one wins) on the calling thread.
  /// Called from inside another parallel region, the body runs serially on
  /// the calling thread (the pool dispatches one task at a time, so nested
  /// submission would deadlock — and serial nesting keeps results
  /// independent of where a kernel happens to be invoked from).
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t)>& body);

  /// Chunked variant: body(chunk_begin, chunk_end) — lets the body amortise
  /// per-call overhead over a contiguous subrange.
  void parallel_for_chunked(
      index_t begin, index_t end,
      const std::function<void(index_t, index_t)>& body);

  /// Raw chunked dispatch: fn(ctx, chunk_begin, chunk_end). Identical
  /// semantics to the std::function overload (which wraps this), but the
  /// call path constructs nothing — no std::function, no capture copy — so
  /// allocation-free hot loops (the inference engine's steady state) can
  /// dispatch without touching the heap.
  void parallel_for_chunked(index_t begin, index_t end,
                            void (*fn)(void*, index_t, index_t), void* ctx);

  /// Allocation-free chunked dispatch of any callable body(chunk_begin,
  /// chunk_end): passes `body` by address through the raw overload above,
  /// so the call path constructs nothing.
  template <typename Body>
  void run_chunks(index_t begin, index_t end, const Body& body) {
    parallel_for_chunked(
        begin, end,
        [](void* ctx, index_t b, index_t e) {
          (*static_cast<const Body*>(ctx))(b, e);
        },
        const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// Number of distinct values scratch_slot() can return for this pool:
  /// size() (workers plus the submitting thread).
  [[nodiscard]] std::size_t slot_count() const { return size(); }

  /// Stable scratch-slot index of the calling thread with respect to this
  /// pool: workers get 1..size()-1, any other thread gets 0. Threads that
  /// can concurrently execute a parallel_for body on this pool (its workers
  /// plus the single submitting thread) therefore hold disjoint slots, so
  /// per-slot scratch buffers sized by slot_count() are race-free without
  /// thread_local storage — which lets a planner preallocate every worker's
  /// scratch up front instead of lazily on first touch per thread.
  [[nodiscard]] std::size_t scratch_slot() const;

  /// Process-wide default pool. Sized by set_global_threads() when called
  /// before first use, else by TURBFNO_THREADS, else hardware_concurrency().
  static ThreadPool& global();

  /// Pool the free-function wrappers dispatch to: the innermost active
  /// Scope's pool on this thread, else the global pool.
  static ThreadPool& current();

  /// True while the calling thread is executing a parallel_for body (as the
  /// submitting thread or a worker). Kernels use this to fall back to their
  /// serial path instead of nesting a second parallel region.
  [[nodiscard]] static bool in_parallel_region() noexcept;

  /// RAII override of the pool used by the free-function wrappers on the
  /// constructing thread. Lets tests and benches run the same code at
  /// several parallel widths inside one process (the global pool cannot be
  /// resized once its workers exist). Scopes nest; the innermost wins.
  class Scope {
   public:
    /// Dispatch to an owned temporary pool of `num_threads` width.
    explicit Scope(std::size_t num_threads);
    /// Dispatch to an existing pool (not owned).
    explicit Scope(ThreadPool& pool);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    std::unique_ptr<ThreadPool> owned_;
    ThreadPool* previous_;
  };

 private:
  struct Task {
    void (*invoke)(void*, index_t, index_t) = nullptr;
    void* ctx = nullptr;
    index_t begin = 0;
    index_t end = 0;
    index_t chunk = 1;
    std::atomic<index_t> next{0};
    std::atomic<index_t> remaining{0};
    std::exception_ptr error;
    std::mutex error_mutex;
  };

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
/// Must be called before the first use of ThreadPool::global() — throws
/// CheckError once the pool exists, since workers cannot be resized.
void set_global_threads(std::size_t num_threads);

/// Convenience wrapper over the global pool.
void parallel_for(index_t begin, index_t end,
                  const std::function<void(index_t)>& body);

/// Chunked convenience wrapper over the global pool.
void parallel_for_chunked(index_t begin, index_t end,
                          const std::function<void(index_t, index_t)>& body);

/// Deterministic-reduction work partition: split [begin, end) into exactly
/// min(slots, end - begin) contiguous slabs whose boundaries depend only on
/// the range and `slots` — never on the pool width — and run
/// body(slot, slab_begin, slab_end) for each slab, in parallel when a pool
/// is available.
///
/// This is the primitive behind the thread-count determinism contract: a
/// parallel floating-point reduction accumulates each slab into its own
/// scratch buffer (written by exactly one task) and then folds the slabs in
/// ascending slot order on the calling thread. Because the partition and the
/// fold order are fixed, the result is bitwise identical at any thread
/// count — including 1.
void parallel_for_slabs(
    index_t begin, index_t end, index_t slots,
    const std::function<void(index_t, index_t, index_t)>& body);

/// Number of slabs parallel_for_slabs will actually use for a range
/// (min(slots, end - begin), at least 0) — callers size scratch with this.
[[nodiscard]] index_t slab_count(index_t begin, index_t end, index_t slots);

}  // namespace turb
