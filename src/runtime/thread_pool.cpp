#include "runtime/thread_pool.h"

#include <algorithm>

namespace sspar::rt {

ThreadPool::ThreadPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  workers_.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

namespace {

// [begin, begin + total) split `parts` ways into contiguous chunks: the first
// `extra` chunks hold base + 1 elements, the rest base.
struct StaticSplit {
  int64_t begin, base, extra;
  StaticSplit(int64_t begin, int64_t end, unsigned parts)
      : begin(begin), base((end - begin) / parts), extra((end - begin) % parts) {}
  int64_t start(unsigned chunk) const {
    return begin + chunk * base + std::min<int64_t>(chunk, extra);
  }
  // Inverse of start() for a non-empty chunk.
  unsigned chunk_of(int64_t lo) const {
    int64_t offset = lo - begin;
    int64_t wide = extra * (base + 1);  // elements held by the first `extra` chunks
    return static_cast<unsigned>(offset < wide ? offset / (base + 1)
                                               : extra + (offset - wide) / base);
  }
};

}  // namespace

void ThreadPool::chunk_bounds(unsigned worker_id, int64_t* lo, int64_t* hi) const {
  StaticSplit split(job_begin_, job_end_, threads_);
  *lo = split.start(worker_id);
  *hi = split.start(worker_id + 1);
}

void ThreadPool::worker_loop(unsigned worker_id) {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int64_t, int64_t)>* job = nullptr;
    int64_t lo = 0, hi = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen_generation; });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
      chunk_bounds(worker_id, &lo, &hi);
    }
    if (lo < hi) (*job)(lo, hi);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(int64_t begin, int64_t end,
                              const std::function<void(int64_t, int64_t)>& chunk_fn) {
  if (end <= begin) return;
  if (threads_ == 1) {
    chunk_fn(begin, end);
    return;
  }
  int64_t lo = 0, hi = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &chunk_fn;
    job_begin_ = begin;
    job_end_ = end;
    pending_ = threads_ - 1;
    ++generation_;
    chunk_bounds(0, &lo, &hi);
  }
  start_cv_.notify_all();
  if (lo < hi) chunk_fn(lo, hi);  // the caller runs chunk 0
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  job_ = nullptr;
}

double ThreadPool::parallel_reduce(int64_t begin, int64_t end,
                                   const std::function<double(int64_t, int64_t)>& chunk_fn) {
  if (end <= begin) return 0.0;
  std::vector<double> partials(threads_, 0.0);
  // Each partial goes to its chunk's slot, not its arrival order, so the
  // sum below adds them in chunk order whatever the scheduling.
  const StaticSplit split(begin, end, threads_);
  parallel_for(begin, end, [&](int64_t lo, int64_t hi) {
    partials[split.chunk_of(lo)] = chunk_fn(lo, hi);
  });
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

}  // namespace sspar::rt
