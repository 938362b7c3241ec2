// Shared fork-join thread pool and parallel_for.
//
// Two consumers, both through this one pool so the process never
// oversubscribes the machine when they nest:
//  * PlanService::run plans its batch items with parallel_for;
//  * search_periodic_tiling speculatively explores the tori of its
//    period sweep with ThreadPool::run.
// A session replan runs its backends serially and the conflict-graph
// builder is serial: their work per task is too small to pay for a
// dispatch (EXPERIMENTS.md, "One fork-join site").
//
// Design rules that keep users deterministic:
//  * the pool only provides *parallelism*, never *ordering*: every
//    consumer must combine worker results in a thread-independent order
//    (index order, CAS-min on indices, sorted merges);
//  * nested parallel regions degrade to serial inline execution, so a
//    tiling search inside a PlanService batch item runs serially;
//  * `set_parallel_threads(1)` (or LATTICESCHED_THREADS=1) turns every
//    parallel region into plain serial code — the determinism tests
//    compare that mode byte-for-byte against multi-threaded runs.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace latticesched {

/// Worker count used by the global pool: set_parallel_threads() override,
/// else LATTICESCHED_THREADS, else std::thread::hardware_concurrency().
/// Always at least 1 (1 means fully serial).
std::size_t parallel_threads();

/// Overrides the worker count; 0 restores the environment default.
/// Existing pool threads are reconfigured lazily on the next region.
void set_parallel_threads(std::size_t n);

/// True while the calling thread is inside a parallel region (used to
/// serialize nested regions).
bool in_parallel_region();

class ThreadPool {
 public:
  /// Pool with `workers` helper threads; the caller of run() always
  /// participates, so total parallelism is workers + 1.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Runs body(rank) on min(parallelism, workers()+1) threads, rank 0 on
  /// the calling thread.  Blocks until every rank returns; rethrows the
  /// first exception any rank threw.  Nested calls run body(0) inline;
  /// concurrent calls from distinct application threads serialize on an
  /// internal region lock (the pool is shared, not partitioned).
  void run(std::size_t parallelism,
           const std::function<void(std::size_t)>& body);

  /// Process-wide pool, sized by parallel_threads() - 1 helpers; resized
  /// lazily when set_parallel_threads changes the target.
  static ThreadPool& global();

 private:
  void worker_loop(std::size_t rank);

  std::mutex region_mu_;  // serializes whole regions across caller threads
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t engaged_ = 0;  // helper ranks participating this generation
  std::size_t active_ = 0;   // helpers still running this generation
  std::vector<std::exception_ptr> errors_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

namespace detail {
/// Pool-dispatch slow path of parallel_for; only reached when the range
/// has several indices and the pool is genuinely parallel.
void parallel_for_dispatch(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Calls fn(i) for every i in [begin, end), handing out one index at a
/// time dynamically over the global pool.  Blocks until done.  Serial
/// (inline, in index order, WITHOUT the std::function type erasure —
/// the 1-core CI runner never pays the indirection) when the pool is
/// serial, the range has at most one index, or the caller is already
/// inside a parallel region.  `fn` must be safe to call concurrently
/// for distinct i; no ordering is guaranteed.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  if (begin >= end) return;
  if (end - begin == 1 || in_parallel_region() || parallel_threads() <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  detail::parallel_for_dispatch(
      begin, end, std::function<void(std::size_t)>(std::ref(fn)));
}

}  // namespace latticesched
