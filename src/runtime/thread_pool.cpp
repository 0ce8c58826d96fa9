#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/error.hpp"

namespace vlacnn::runtime {

namespace {
// Set while a thread is executing a chunk, a posted task or a nested item
// for some pool; used to detect nested parallel_for calls (which share work
// instead of deadlocking on the full-pool barrier).
thread_local const ThreadPool* tls_current_pool = nullptr;
thread_local int tls_current_worker = 0;
// Helper time of the nested calls this thread made (take_helper_seconds).
thread_local double tls_helper_seconds = 0.0;

// RAII guard for the nested-parallelism TLS.
struct TlsPoolScope {
  TlsPoolScope(const ThreadPool* pool, int worker)
      : prev_pool(tls_current_pool), prev_worker(tls_current_worker) {
    tls_current_pool = pool;
    tls_current_worker = worker;
  }
  ~TlsPoolScope() {
    tls_current_pool = prev_pool;
    tls_current_worker = prev_worker;
  }
  const ThreadPool* prev_pool;
  int prev_worker;
};
}  // namespace

// One nested parallel_for call, living on its caller's stack. Items are
// claimed through `next`; the rest is guarded by the pool's mu_. The caller
// unpublishes the job before waiting for `helpers` to reach zero, so no
// helper can join (or touch the job) after that wait returns.
struct ThreadPool::NestedJob {
  NestedJob(int items, const std::function<void(int, int)>* f)
      : n(items), fn(f) {}
  const int n;
  const std::function<void(int, int)>* const fn;
  std::atomic<int> next{0};
  int helpers = 0;              // helpers currently claiming items
  double helper_seconds = 0.0;  // their summed time on this job
  std::exception_ptr error;
};

int ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  const int n = threads <= 0 ? hardware_threads() : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Undrained tasks would be silently dropped here; that is always a bug
    // in the owner (runtime::WorkGraph drains before its pool dies).
    if (!tasks_.empty()) std::abort();
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::is_worker_thread() const {
  const std::thread::id me = std::this_thread::get_id();
  for (const auto& t : workers_)
    if (t.get_id() == me) return true;
  return false;
}

void ThreadPool::run_chunk(int worker) {
  // Static contiguous partition of [0, job_n_) over size() workers.
  const int n = job_n_;
  const int t = size();
  const int begin = static_cast<int>(static_cast<long long>(n) * worker / t);
  const int end = static_cast<int>(static_cast<long long>(n) * (worker + 1) / t);
  if (begin >= end) return;
  TlsPoolScope scope(this, worker);
  try {
    for (int i = begin; i < end; ++i) (*job_fn_)(i, worker);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
}

ThreadPool::NestedJob* ThreadPool::open_nested_job() const {
  for (NestedJob* job : nested_)
    if (job->next.load() < job->n) return job;
  return nullptr;
}

void ThreadPool::run_items(NestedJob& job, int worker) {
  for (int i = job.next.fetch_add(1); i < job.n; i = job.next.fetch_add(1)) {
    try {
      (*job.fn)(i, worker);
    } catch (...) {
      // Stop handing out items; the caller rethrows the first error.
      job.next.store(job.n);
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::help(NestedJob& job, int worker) {
  const auto t0 = std::chrono::steady_clock::now();
  // The items may fan out again; their helpers' time is this job's too.
  const double outer = tls_helper_seconds;
  tls_helper_seconds = 0.0;
  {
    TlsPoolScope scope(this, worker);
    run_items(job, worker);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() +
      tls_helper_seconds;
  tls_helper_seconds = outer;
  std::lock_guard<std::mutex> lock(mu_);
  job.helper_seconds += seconds;
  // Notified under mu_: the caller cannot return (and free the job) before
  // this critical section ends.
  if (--job.helpers == 0) nested_cv_.notify_all();
}

void ThreadPool::worker_loop(int id) {
  std::uint64_t seen = 0;
  for (;;) {
    Task task;
    bool run_job = false;
    NestedJob* nested = nullptr;
    bool pass_wakeup = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (generation_ != seen) {
          // External parallel_for jobs come first: their caller blocks
          // synchronously on the full-pool barrier. Nested calls block
          // their caller too; posted tasks only queue.
          seen = generation_;
          run_job = true;
          break;
        }
        if ((nested = open_nested_job()) != nullptr) {
          ++nested->helpers;
          // post() wakes one worker; if that was this one, hand the wake-up
          // on so the queued task does not wait for this help to end.
          pass_wakeup = !tasks_.empty();
          break;
        }
        if (!tasks_.empty()) {
          task = std::move(tasks_.front());
          tasks_.pop_front();
          break;
        }
        if (stop_) return;  // nothing left to run
        start_cv_.wait(lock);
      }
    }
    if (run_job) {
      run_chunk(id);
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    } else if (nested != nullptr) {
      if (pass_wakeup) start_cv_.notify_one();
      help(*nested, id);
    } else {
      {
        TlsPoolScope scope(this, id);
        if (task_start_hook) task_start_hook(id);
        task(id);  // must not throw (see Task)
      }
      std::lock_guard<std::mutex> lock(mu_);
      --tasks_in_flight_;
    }
  }
}

void ThreadPool::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    ++tasks_in_flight_;
  }
  start_cv_.notify_one();
}

int ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_in_flight_;
}

void ThreadPool::parallel_for(int n,
                              const std::function<void(int, int)>& fn) {
  if (n <= 0) return;
  if (tls_current_pool == this) {
    // Nested call from one of our own workers (chunk, posted task or nested
    // item): share the items with whichever workers are idle.
    run_nested(n, fn, tls_current_worker);
    return;
  }
  // A call from one of this pool's worker threads that is NOT inside a
  // chunk/task (TLS would have routed it inline above) would deadlock below:
  // the job barrier needs every worker, including the caller. Unreachable
  // through the public API; fail loudly instead of hanging.
  VLACNN_REQUIRE(!is_worker_thread(),
                 "parallel_for re-entered from a worker thread of this pool "
                 "outside a chunk/task (would deadlock)");
  if (size() == 1) {
    TlsPoolScope scope(this, 0);
    for (int i = 0; i < n; ++i) fn(i, 0);
    return;
  }

  // NOTE: concurrent external callers serialize here — parallel_for offers
  // no cross-caller concurrency (see class comment; overlapping work goes
  // through post()).
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_n_ = n;
    job_fn_ = &fn;
    error_ = nullptr;
    pending_ = size();
    ++generation_;
  }
  start_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  job_fn_ = nullptr;
  if (error_) std::rethrow_exception(error_);
}

void ThreadPool::run_nested(int n, const std::function<void(int, int)>& fn,
                            int caller) {
  if (n == 1 || size() == 1) {
    for (int i = 0; i < n; ++i) fn(i, caller);
    return;
  }
  NestedJob job(n, &fn);
  {
    std::lock_guard<std::mutex> lock(mu_);
    nested_.push_back(&job);
  }
  start_cv_.notify_all();
  run_items(job, caller);
  std::unique_lock<std::mutex> lock(mu_);
  nested_.erase(std::find(nested_.begin(), nested_.end(), &job));
  nested_cv_.wait(lock, [&] { return job.helpers == 0; });
  tls_helper_seconds += job.helper_seconds;
  if (job.error) std::rethrow_exception(job.error);
}

double ThreadPool::take_helper_seconds() {
  const double s = tls_helper_seconds;
  tls_helper_seconds = 0.0;
  return s;
}

}  // namespace vlacnn::runtime
