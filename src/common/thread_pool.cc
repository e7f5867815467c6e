#include "common/thread_pool.h"

#include <atomic>
#include <exception>

namespace standoff {

namespace {

// Set while a thread is executing a ParallelFor body (on the calling
// thread for the whole call, on a worker for the span of its chunk
// task); the nesting guard reads it.
thread_local bool t_in_parallel_for = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  queues_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers only exit once every queue is empty, so nothing is dropped.
}

void ThreadPool::Submit(std::function<void()> fn) {
  if (queues_.empty()) {
    fn();
    return;
  }
  {
    // queued_ must be published while holding wake_mu_: a worker whose
    // wait predicate just read queued_ == 0 still holds the mutex, so
    // this increment (and the notify that follows its release) cannot
    // slip into the window before that worker blocks — the classic
    // lost-wakeup race.
    std::lock_guard<std::mutex> lock(wake_mu_);
    const size_t target = next_queue_++ % queues_.size();
    {
      std::lock_guard<std::mutex> queue_lock(queues_[target]->mu);
      queues_[target]->tasks.push_back(std::move(fn));
    }
    queued_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask(size_t self) {
  std::function<void()> task;
  // Own queue first (front = submission order), then steal from the
  // back of the other queues, scanning from the next neighbor so
  // thieves spread out.
  for (size_t probe = 0; probe < queues_.size() && !task; ++probe) {
    const size_t victim = (self + probe) % queues_.size();
    Queue& q = *queues_[victim];
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) continue;
    if (victim == self) {
      task = std::move(q.tasks.front());
      q.tasks.pop_front();
    } else {
      task = std::move(q.tasks.back());
      q.tasks.pop_back();
    }
  }
  if (!task) return false;
  queued_.fetch_sub(1, std::memory_order_release);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] {
      return stopping_ || queued_.load(std::memory_order_acquire) > 0;
    });
    if (stopping_ && queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

namespace {

/// State one ParallelFor call shares between the calling thread and its
/// pool tasks. Lives on the caller's stack; the caller does not return
/// before every task has signalled completion.
struct ParallelForState {
  std::atomic<size_t> next;
  size_t end = 0;
  const std::function<Status(size_t)>* fn = nullptr;
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  size_t pending = 0;   // outstanding pool tasks, guarded by mu
  Status error;         // first failure, guarded by mu

  void Fail(Status status) {
    std::lock_guard<std::mutex> lock(mu);
    if (error.ok()) error = std::move(status);
    failed.store(true, std::memory_order_release);
  }

  /// Claims indices off the shared cursor until exhaustion or failure.
  void Drain() {
    while (!failed.load(std::memory_order_acquire)) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        Status status = (*fn)(i);
        if (!status.ok()) {
          Fail(std::move(status));
          return;
        }
      } catch (const std::exception& e) {
        Fail(Status::Internal(std::string("ParallelFor body threw: ") +
                              e.what()));
        return;
      } catch (...) {
        Fail(Status::Internal("ParallelFor body threw a non-exception"));
        return;
      }
    }
  }
};

}  // namespace

Status ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                   const std::function<Status(size_t)>& fn) {
  if (begin >= end) return Status::OK();
  if (t_in_parallel_for) {
    return Status::FailedPrecondition(
        "nested ParallelFor: already inside a parallel region on this "
        "thread");
  }
  t_in_parallel_for = true;
  struct Reset {
    ~Reset() { t_in_parallel_for = false; }
  } reset;

  const size_t n = end - begin;
  const size_t workers = pool ? pool->num_workers() : 0;
  ParallelForState state;
  state.next.store(begin, std::memory_order_relaxed);
  state.end = end;
  state.fn = &fn;

  const size_t helpers = workers == 0 || n < 2 ? 0 : std::min(workers, n - 1);
  state.pending = helpers;
  for (size_t t = 0; t < helpers; ++t) {
    pool->Submit([&state] {
      t_in_parallel_for = true;
      state.Drain();
      t_in_parallel_for = false;
      std::lock_guard<std::mutex> lock(state.mu);
      if (--state.pending == 0) state.done_cv.notify_all();
    });
  }
  state.Drain();
  {
    std::unique_lock<std::mutex> lock(state.mu);
    state.done_cv.wait(lock, [&state] { return state.pending == 0; });
    return state.error;
  }
}

}  // namespace standoff
