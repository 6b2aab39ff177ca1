#include "util/thread_pool.hpp"

#include <charconv>
#include <cstdlib>
#include <system_error>

namespace turb {

namespace {

// Explicit width requested via set_global_threads (0 = not requested) and
// whether the global pool has been materialised (after which a request is a
// caller error — the workers are already running).
std::atomic<std::size_t> g_requested_threads{0};
std::atomic<bool> g_global_created{false};

// Innermost Scope override on this thread (nullptr = use the global pool).
thread_local ThreadPool* t_scope_pool = nullptr;

// Depth of bodies executing on this thread. Non-zero means a nested dispatch
// must run serially (single-task pool → deadlock) and, by design, always
// does — so a kernel's numeric result never depends on whether it was
// reached from inside another parallel region.
thread_local int t_parallel_depth = 0;

struct ParallelRegionGuard {
  ParallelRegionGuard() noexcept { ++t_parallel_depth; }
  ~ParallelRegionGuard() { --t_parallel_depth; }
};

// Pool this thread is a worker of (a thread belongs to at most one pool)
// and its 1-based slot inside it; external threads stay at {nullptr, 0}.
thread_local const ThreadPool* t_worker_pool = nullptr;
thread_local std::size_t t_worker_slot = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    const char* env = std::getenv("TURBFNO_THREADS");
    num_threads = env != nullptr ? parse_thread_count(env)
                                 : std::thread::hardware_concurrency();
  }
  // The calling thread participates in every dispatch, so spawn one fewer
  // worker than the requested parallel width (none when the hardware count
  // is unknown, 0); worker i holds scratch slot i.
  workers_.reserve(num_threads);
  for (std::size_t i = 1; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_task(Task& task) {
  ParallelRegionGuard region;
  while (true) {
    const index_t i = task.next.fetch_add(task.chunk, std::memory_order_relaxed);
    if (i >= task.end) break;
    const index_t chunk_end = std::min<index_t>(i + task.chunk, task.end);
    try {
      task.invoke(task.ctx, i, chunk_end);
    } catch (...) {
      std::lock_guard lock(task.error_mutex);
      if (!task.error) task.error = std::current_exception();
    }
    task.remaining.fetch_sub(chunk_end - i, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_loop(std::size_t slot) {
  t_worker_pool = this;
  t_worker_slot = slot;
  std::size_t seen_generation = 0;
  while (true) {
    Task* task = nullptr;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [&] {
        return stop_ || (current_ != nullptr && generation_ != seen_generation);
      });
      if (stop_) return;
      seen_generation = generation_;
      task = current_;
      ++active_;
    }
    run_task(*task);
    {
      std::lock_guard lock(mutex_);
      --active_;
    }
    cv_done_.notify_all();
  }
}

void ThreadPool::dispatch(index_t begin, index_t end, const void* ctx,
                          ChunkFn fn) {
  if (begin >= end) return;
  const index_t n = end - begin;
  if (workers_.empty() || n == 1 || t_parallel_depth > 0) {
    // Serial path: no workers, a single index, or a nested region. Mark the
    // region anyway so nesting depth behaves identically at every width.
    ParallelRegionGuard region;
    fn(ctx, begin, end);
    return;
  }

  Task task;
  task.invoke = fn;
  task.ctx = ctx;
  task.end = end;
  // ~4 chunks per thread for load balance without excessive contention.
  const index_t target_chunks = static_cast<index_t>(size()) * 4;
  task.chunk = std::max<index_t>(1, n / target_chunks);
  task.next.store(begin, std::memory_order_relaxed);
  task.remaining.store(n, std::memory_order_relaxed);

  {
    std::lock_guard lock(mutex_);
    current_ = &task;
    ++generation_;
  }
  cv_work_.notify_all();
  run_task(task);

  {
    // Wait until every index is processed AND no worker still holds a
    // reference to the stack-allocated task.
    std::unique_lock lock(mutex_);
    current_ = nullptr;
    cv_done_.wait(lock, [&] {
      return active_ == 0 &&
             task.remaining.load(std::memory_order_acquire) <= 0;
    });
  }
  if (task.error) std::rethrow_exception(task.error);
}

std::size_t ThreadPool::scratch_slot() const {
  return t_worker_pool == this ? t_worker_slot : 0;
}

ThreadPool& ThreadPool::current() {
  if (t_scope_pool != nullptr) return *t_scope_pool;
  g_global_created.store(true, std::memory_order_release);
  static ThreadPool global(g_requested_threads.load(std::memory_order_acquire));
  return global;
}

bool ThreadPool::in_parallel_region() noexcept { return t_parallel_depth > 0; }

ThreadPool::Scope::Scope(std::size_t num_threads)
    : owned_(std::make_unique<ThreadPool>(num_threads)),
      previous_(t_scope_pool) {
  t_scope_pool = owned_.get();
}

ThreadPool::Scope::~Scope() { t_scope_pool = previous_; }

void set_global_threads(std::size_t num_threads) {
  TURB_CHECK_MSG(num_threads >= 1, "set_global_threads: need >= 1 thread");
  TURB_CHECK_MSG(!g_global_created.load(std::memory_order_acquire),
                 "set_global_threads must run before the global pool is "
                 "first used (its workers cannot be resized)");
  g_requested_threads.store(num_threads, std::memory_order_release);
}

std::size_t parse_thread_count(const std::string& spec) {
  // from_chars into an unsigned type takes digits only: no sign, no
  // whitespace, and an out-of-range value is an error, not a clamp.
  std::size_t n = 0;
  const char* last = spec.data() + spec.size();
  const auto [ptr, ec] = std::from_chars(spec.data(), last, n);
  TURB_CHECK_MSG(ec == std::errc() && ptr == last && n >= 1,
                 "TURBFNO_THREADS must be a whole number >= 1, got '"
                     << spec << "'");
  return n;
}

}  // namespace turb
