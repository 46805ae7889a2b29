#include "runtime/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>

namespace ppgr::runtime {

// A parallel_for invocation. Indices are claimed with a single atomic
// fetch-add; completion is tracked with a second counter so the submitting
// thread can block until every claimed index has actually finished (a worker
// may still be inside fn when next_ runs past count_).
struct ThreadPool::Job {
  explicit Job(std::size_t count, const std::function<void(std::size_t)>& fn)
      : count(count), fn(&fn) {}

  const std::size_t count;
  const std::function<void(std::size_t)>* fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  // Workers currently inside run_job for this job. Incremented under
  // State::mu at selection time, so the submitter can wait for every worker
  // holding a pointer to this (stack-allocated) job to let go before
  // destroying it — done == count alone only proves all indices finished,
  // not that a freshly-woken worker isn't about to touch the job.
  std::atomic<std::size_t> active{0};
  std::atomic<bool> cancelled{false};

  std::mutex err_mu;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  std::mutex done_mu;
  std::condition_variable done_cv;

  [[nodiscard]] bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= count;
  }
};

struct ThreadPool::State {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job*> jobs;  // live jobs; removed by their submitter
  bool stop = false;
};

ThreadPool::ThreadPool(std::size_t threads) : state_(std::make_unique<State>()) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_ = threads;
  // The caller participates in every parallel_for, so spawn one fewer
  // worker than the requested concurrency.
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stop = true;
  }
  state_->cv.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(state_->mu);
      state_->cv.wait(lock, [&] {
        if (state_->stop) return true;
        for (Job* j : state_->jobs)
          if (!j->exhausted()) return true;
        return false;
      });
      for (Job* j : state_->jobs) {
        if (!j->exhausted()) {
          job = j;
          break;
        }
      }
      if (job == nullptr) {
        if (state_->stop) return;
        continue;
      }
      job->active.fetch_add(1, std::memory_order_relaxed);
    }
    run_job(*job);
    {
      // Decrement under done_mu so the submitter cannot observe active == 0
      // (and free the job) until this worker has fully let go of it.
      std::lock_guard<std::mutex> lock(job->done_mu);
      job->active.fetch_sub(1, std::memory_order_acq_rel);
      job->done_cv.notify_all();
    }
  }
}

void ThreadPool::run_job(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.count) return;
    if (!job.cancelled.load(std::memory_order_relaxed)) {
      try {
        (*job.fn)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(job.err_mu);
          if (i < job.err_index) {
            job.err_index = i;
            job.err = std::current_exception();
          }
        }
        job.cancelled.store(true, std::memory_order_relaxed);
      }
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.count) {
      std::lock_guard<std::mutex> lock(job.done_mu);
      job.done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline engine: identical index order to the serial protocol. An
    // exception here is by construction the lowest-index one.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Job job{count, fn};
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->jobs.push_back(&job);
  }
  state_->cv.notify_all();

  // The submitter helps until the index space is drained, unlists the job,
  // then waits for stragglers still inside fn on other workers. Unlisting
  // must come before the wait: workers select a job and count themselves
  // in `active` under State::mu, so only once the job is off the list is
  // every worker that will touch it already counted.
  run_job(job);
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    for (auto it = state_->jobs.begin(); it != state_->jobs.end(); ++it) {
      if (*it == &job) {
        state_->jobs.erase(it);
        break;
      }
    }
  }
  {
    std::unique_lock<std::mutex> lock(job.done_mu);
    job.done_cv.wait(lock, [&] {
      return job.done.load(std::memory_order_acquire) == count &&
             job.active.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.err) std::rethrow_exception(job.err);
}

}  // namespace ppgr::runtime
