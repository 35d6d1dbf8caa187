// Persistent worker pool with a blocking fork-join parallel_for.
//
// parallel_for splits its range statically, which suits work whose items
// cost the same, such as the inspector's rows (rt::InspectorExecutor). The
// batch driver (driver::BatchAnalyzer), whose programs vary widely in cost,
// asks for one index per lane and has each lane pull programs, largest
// first, from a shared cursor. The thread count is set per run and the
// project needs no OpenMP.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sspar::rt {

class ThreadPool {
 public:
  // `threads` is the total degree of parallelism including the caller
  // (threads - 1 workers are spawned). threads == 1 degenerates to serial.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned threads() const { return threads_; }

  // Statically splits [begin, end) into `threads` contiguous chunks and runs
  // `chunk_fn(chunk_begin, chunk_end)` on each; blocks until all complete.
  // The calling thread executes chunk 0.
  void parallel_for(int64_t begin, int64_t end,
                    const std::function<void(int64_t, int64_t)>& chunk_fn);

  // Parallel sum-reduction over chunks: `chunk_fn` returns a partial value;
  // partials are added in chunk order (deterministic for a fixed thread
  // count).
  double parallel_reduce(int64_t begin, int64_t end,
                         const std::function<double(int64_t, int64_t)>& chunk_fn);

 private:
  void worker_loop(unsigned worker_id);

  unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
  unsigned pending_ = 0;

  // Current job (valid while pending_ > 0).
  const std::function<void(int64_t, int64_t)>* job_ = nullptr;
  int64_t job_begin_ = 0;
  int64_t job_end_ = 0;

  void chunk_bounds(unsigned worker_id, int64_t* lo, int64_t* hi) const;
};

}  // namespace sspar::rt
