#ifndef RDFA_COMMON_THREAD_POOL_H_
#define RDFA_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace rdfa {

/// A small fixed-size worker pool for data-parallel loops. ParallelFor is
/// the intended entry point: work items are claimed from a shared counter,
/// the submitting thread always participates, and the call returns only
/// when every item finished. Because the caller participates, a pool with
/// zero workers degenerates to serial execution and nested ParallelFor
/// calls cannot deadlock (a starved region is simply drained by its own
/// caller).
class ThreadPool {
 public:
  explicit ThreadPool(size_t workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t worker_count() const { return workers_.size(); }

  /// Runs `fn(i)` for every i in [0, n); `fn` must be safe to call
  /// concurrently. At most min(`max_helpers`, `worker_count()`) pool
  /// threads help; the caller runs items too. Item completion order is
  /// unspecified — callers that need determinism write into pre-sized
  /// per-item slots and combine in item order afterwards.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   size_t max_helpers = SIZE_MAX);

  /// The process-wide pool. Sized to at least 3 workers even on small
  /// machines so a `threads=4` run exercises real concurrency everywhere.
  static ThreadPool& Shared();

 private:
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The morsel policy of every parallel loop: a budget of `threads` splits
/// the items into up to threads x kMorselsPerThread contiguous morsels (slack
/// to balance load without drowning the work in scheduling) of at least a
/// minimum grain — kMinMorselItems for row and item loops.
inline constexpr size_t kMorselsPerThread = 4;
inline constexpr size_t kMinMorselItems = 64;

/// Runs the range kernel `fn(lo, hi, Part*)` over [0, n) and returns one
/// Part per morsel, in morsel order, so combining the parts in order
/// reproduces the serial run exactly. Below 2 x `min_grain` items
/// (`min_grain` >= 1), or at `threads` <= 1, it calls fn(0, n, &part) once
/// on the calling thread and never touches the pool; otherwise at most
/// `threads` - 1 pool workers help the caller, so a run never uses more
/// threads than its budget. More than one part means the run went parallel.
template <typename Part, typename Fn>
std::vector<Part> RunMorsels(size_t n, int threads, size_t min_grain,
                             const Fn& fn) {
  if (threads <= 1 || n < 2 * min_grain) {
    std::vector<Part> parts(1);
    fn(size_t{0}, n, &parts[0]);
    return parts;
  }
  const size_t max_morsels = static_cast<size_t>(threads) * kMorselsPerThread;
  const size_t grain = std::max(min_grain, (n + max_morsels - 1) / max_morsels);
  std::vector<Part> parts((n + grain - 1) / grain);
  ThreadPool::Shared().ParallelFor(
      parts.size(),
      [&](size_t m) { fn(m * grain, std::min(n, (m + 1) * grain), &parts[m]); },
      static_cast<size_t>(threads) - 1);
  return parts;
}

}  // namespace rdfa

#endif  // RDFA_COMMON_THREAD_POOL_H_
