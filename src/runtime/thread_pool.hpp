#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vlacnn::runtime {

/// Fixed-size worker pool with two driving modes:
///
///  * parallel_for — data parallelism over items [0, n). How the items are
///    shared depends on who calls:
///      - From an EXTERNAL thread: static chunking. Items are partitioned
///        into at most size() contiguous chunks, one per worker, so the
///        item -> worker mapping is a pure function of (n, size()) — results
///        and any per-worker accumulation are deterministic regardless of OS
///        scheduling. The calling thread blocks until every item has run.
///      - From inside one of this pool's own workers (a posted task, a chunk
///        of an external call, or an item of another nested call): work
///        sharing. The call publishes a job with an atomic next-item
///        counter; the caller takes items under its own worker id, and idle
///        workers take items under theirs. Once no item is left the caller
///        waits only for helpers still running one. When no worker is idle
///        the caller runs every item itself, so the call never waits on
///        another task and cannot deadlock. Which worker runs which item is
///        left to timing; callers index per-worker state by the `worker`
///        argument, which is unique among the threads running one call.
///
///  * post — task submission (the work-graph executor's mode). Each posted
///    task is picked up by exactly one idle worker and runs to completion on
///    it; tasks are dequeued FIFO. post() never blocks on task execution and
///    the two modes share the workers: a posted task occupies its worker
///    until it returns, which stalls (never corrupts) a concurrent external
///    parallel_for until that worker comes back around.
///
/// A waiting worker picks up work in this order: a chunk of an external
/// parallel_for (its caller blocks on the full-pool barrier), then items of
/// open nested calls (their callers block too), then posted tasks.
///
/// parallel_for's submission contract: concurrent calls from different
/// EXTERNAL threads are serialized on an internal mutex (`submit_mu_`) — the
/// second caller silently queues until the first job drains. This keeps the
/// generation/pending protocol single-writer, but it means parallel_for
/// provides no concurrency ACROSS external callers, only within one call;
/// callers that need overlapping work must use post() instead. Nested calls
/// do not take that mutex: any number of them may be open at once. A call
/// from a worker thread of this pool that is NOT currently inside a chunk,
/// task or nested item (impossible through the public API, but reachable by
/// code that tampers with thread identity) would deadlock on the full-pool
/// barrier, so it throws instead.
class ThreadPool {
 public:
  /// A unit of work for the task-submission mode; `worker` is the id of the
  /// worker executing it, in [0, size()). Tasks must not throw — an escaped
  /// exception terminates the process (error handling belongs to the task's
  /// own scope, see runtime::WorkGraph).
  using Task = std::function<void(int worker)>;

  /// `threads` <= 0 selects the hardware concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  [[nodiscard]] static int hardware_threads();

  /// Runs fn(item, worker) for every item in [0, n); `worker` is in
  /// [0, size()). Rethrows the first exception thrown by fn (remaining
  /// chunks of an external call still complete; a nested call stops handing
  /// out items). See the class comment for external vs nested calls.
  void parallel_for(int n, const std::function<void(int item, int worker)>& fn);

  /// Returns, and resets, the seconds other workers spent running items of
  /// the nested parallel_for calls this thread has made (including the items
  /// those helpers handed on in turn). A task that fans out adds it to its
  /// own duration to get its busy time; see runtime::WorkGraph.
  [[nodiscard]] static double take_helper_seconds();

  /// Queues `task` for execution on one worker (thread-safe, non-blocking).
  /// Tasks posted while workers are busy wait FIFO. The caller is
  /// responsible for draining its tasks before the pool is destroyed — the
  /// destructor asserts the queue is empty.
  void post(Task task);

  /// Tasks posted but not yet finished (approximate; for tests).
  [[nodiscard]] int pending_tasks() const;

  /// Fault-injection hook: when set, runs on the worker right before each
  /// POSTED task executes (parallel_for chunks are exempt — they sit on the
  /// synchronous hot path and their caller blocks on the barrier). Must not
  /// throw; intended for timing-only chaos (runtime::FaultInjector's
  /// worker-slow faults). Set it only while no tasks are in flight.
  std::function<void(int worker)> task_start_hook;

 private:
  struct NestedJob;

  void worker_loop(int id);
  void run_chunk(int worker);
  void run_nested(int n, const std::function<void(int, int)>& fn, int caller);
  void run_items(NestedJob& job, int worker);
  void help(NestedJob& job, int worker);
  [[nodiscard]] NestedJob* open_nested_job() const;  // mu_ held
  [[nodiscard]] bool is_worker_thread() const;

  std::vector<std::thread> workers_;

  std::mutex submit_mu_;  // serializes parallel_for calls (see class comment)

  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  int job_n_ = 0;
  const std::function<void(int, int)>* job_fn_ = nullptr;
  std::exception_ptr error_;
  std::vector<NestedJob*> nested_;  // published nested calls, oldest first
  std::condition_variable nested_cv_;  // a helper left a nested call
  std::deque<Task> tasks_;      // task-submission mode queue (FIFO)
  int tasks_in_flight_ = 0;     // queued + currently executing tasks
  bool stop_ = false;
};

}  // namespace vlacnn::runtime
