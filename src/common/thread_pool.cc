#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace rdfa {

ThreadPool::ThreadPool(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             size_t max_helpers) {
  if (n == 0) return;
  size_t helpers = std::min({worker_count(), n - 1, max_helpers});
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared per-region state: items are claimed from `next`; the region is
  // complete when `done` reaches n. The caller drains items too, so even if
  // every helper task is stuck behind other pool work the region finishes.
  struct Region {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto region = std::make_shared<Region>();
  region->n = n;
  region->fn = &fn;  // valid: the caller blocks until done == n

  auto work = [region] {
    for (;;) {
      size_t i = region->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= region->n) return;
      (*region->fn)(i);
      if (region->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          region->n) {
        std::lock_guard<std::mutex> lock(region->mu);
        region->cv.notify_all();
      }
    }
  };
  for (size_t h = 0; h < helpers; ++h) Submit(work);
  work();
  std::unique_lock<std::mutex> lock(region->mu);
  region->cv.wait(lock, [&] {
    return region->done.load(std::memory_order_acquire) == region->n;
  });
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      std::max<size_t>(std::thread::hardware_concurrency(), 4) - 1);
  return pool;
}

}  // namespace rdfa
