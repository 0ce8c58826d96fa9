#include "runtime/batch_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "runtime/fault_injector.hpp"

namespace vlacnn::runtime {

BatchScheduler::BatchScheduler(core::ConvolutionEngine& engine,
                               const SchedulerConfig& cfg)
    : engine_(&engine), cfg_(cfg), pool_(cfg.threads) {
  graph_ = std::make_unique<WorkGraph>(pool_);
  const int t = pool_.size();
  worker_ctxs_.reserve(static_cast<std::size_t>(t));
  for (int w = 0; w < t; ++w) {
    vla::VectorEngine& eng =
        vla::ensure_worker_engine(worker_engines_, w, cfg_.vlen_bits);
    worker_ctxs_.push_back(std::make_unique<dnn::ExecContext>(eng));
    engine_->install(*worker_ctxs_.back());
  }
  main_engine_ = std::make_unique<vla::VectorEngine>(cfg_.vlen_bits);
  main_ctx_ = std::make_unique<dnn::ExecContext>(*main_engine_);
  engine_->install(*main_ctx_, cfg_.intra_op && t > 1 ? &pool_ : nullptr);
  if (cfg_.fault_injector != nullptr) {
    graph_->set_fault_injector(cfg_.fault_injector);
    FaultInjector* inj = cfg_.fault_injector;
    pool_.task_start_hook = [inj](int worker) { inj->on_worker_task(worker); };
  }
  executor_ = std::thread([this] { executor_loop(); });
  if (cfg_.watchdog_timeout_s > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

BatchScheduler::~BatchScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  exec_cv_.notify_all();
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  if (executor_.joinable()) executor_.join();
}

void BatchScheduler::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(1e-4,
                                                   cfg_.watchdog_poll_s))),
        [&] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    if (graph_->cancel_if_wedged(cfg_.watchdog_timeout_s) > 0)
      watchdog_wedges_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
}

void BatchScheduler::init_item_errors(Slot& slot, int items) {
  std::lock_guard<std::mutex> lock(item_mu_);
  slot.result.item_errors.assign(static_cast<std::size_t>(items), nullptr);
}

bool BatchScheduler::item_failed(Slot& slot, int item) {
  std::lock_guard<std::mutex> lock(item_mu_);
  return slot.result.item_errors[static_cast<std::size_t>(item)] != nullptr;
}

bool BatchScheduler::any_item_failed(Slot& slot) {
  std::lock_guard<std::mutex> lock(item_mu_);
  for (const auto& e : slot.result.item_errors)
    if (e) return true;
  return false;
}

void BatchScheduler::fail_item(Slot& slot, int item, std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(item_mu_);
  auto& cell = slot.result.item_errors[static_cast<std::size_t>(item)];
  if (!cell) cell = std::move(e);  // first failure wins (the root cause)
}

void BatchScheduler::fail_items(Slot& slot, int begin, int end,
                                std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(item_mu_);
  for (int b = begin; b < end; ++b) {
    auto& cell = slot.result.item_errors[static_cast<std::size_t>(b)];
    if (!cell) cell = e;
  }
}

std::uint64_t BatchScheduler::mem_bytes_moved() const {
  std::uint64_t total = main_engine_->mem_bytes_moved();
  for (const auto& eng : worker_engines_)
    if (eng) total += eng->mem_bytes_moved();
  return total;
}

BatchTicket BatchScheduler::enqueue(dnn::Network& net,
                                    const dnn::Tensor* borrowed,
                                    dnn::Tensor owned, bool snapshot_output) {
  // Validate synchronously so precondition errors throw from submit()/run(),
  // not from a later wait().
  const dnn::Tensor& in = borrowed != nullptr ? *borrowed : owned;
  VLACNN_REQUIRE(net.num_layers() > 0, "empty network");
  VLACNN_REQUIRE(in.c() == net.in_c() && in.h() == net.in_h() &&
                     in.w() == net.in_w(),
                 "network input shape mismatch");

  std::unique_lock<std::mutex> lock(mu_);
  // The slot a ticket maps to is a function of its id, and ids are handed
  // out under the lock — re-evaluate the slot inside the predicate because
  // a concurrent submitter may claim next_ticket_ while we sleep.
  slot_cv_.wait(lock, [&] {
    return slots_[next_ticket_ % kSlots].state == Slot::State::Free;
  });
  Slot& slot = slots_[next_ticket_ % kSlots];
  slot.id = next_ticket_++;
  slot.net = &net;
  slot.owned_input = std::move(owned);
  slot.input = borrowed != nullptr ? borrowed : &slot.owned_input;
  slot.snapshot_output = snapshot_output;
  slot.result = {};
  slot.error = nullptr;
  slot.state = Slot::State::Queued;
  const BatchTicket ticket{slot.id};
  lock.unlock();
  exec_cv_.notify_one();
  // next_ticket_ advanced: another producer blocked on the *other* slot's
  // freedom may now be eligible.
  slot_cv_.notify_all();
  return ticket;
}

BatchTicket BatchScheduler::submit(dnn::Network& net, dnn::Tensor input) {
  return enqueue(net, nullptr, std::move(input), /*snapshot_output=*/true);
}

BatchResult BatchScheduler::wait(const BatchTicket& ticket) {
  VLACNN_REQUIRE(ticket.id != 0, "invalid (default-constructed) ticket");
  std::unique_lock<std::mutex> lock(mu_);
  VLACNN_REQUIRE(ticket.id < next_ticket_, "ticket was never issued");
  Slot& slot = slots_[ticket.id % kSlots];
  // slot.id only grows; > means the slot was collected and recycled, ==
  // with State::Free means this very ticket was already waited.
  slot_cv_.wait(lock, [&] {
    return slot.id > ticket.id || slot.state == Slot::State::Done ||
           slot.state == Slot::State::Free;
  });
  VLACNN_REQUIRE(slot.id == ticket.id && slot.state == Slot::State::Done,
                 "ticket already collected (tickets are single-use)");
  BatchResult result = std::move(slot.result);
  std::exception_ptr error = slot.error;
  slot.result = {};
  slot.error = nullptr;
  slot.net = nullptr;
  slot.state = Slot::State::Free;
  lock.unlock();
  slot_cv_.notify_all();
  if (error) std::rethrow_exception(error);
  return result;
}

const dnn::Tensor& BatchScheduler::run(dnn::Network& net,
                                       const dnn::Tensor& input) {
  // Thin synchronous wrapper over the pipelined API: the input is borrowed
  // (no copy — we block in wait() for the batch's whole lifetime) and the
  // output snapshot is skipped because the caller reads the network's own
  // tensor, exactly as the historical drain-loop API did.
  const BatchTicket ticket =
      enqueue(net, &input, dnn::Tensor(), /*snapshot_output=*/false);
  BatchResult result = wait(ticket);
  records_ = std::move(result.records);
  return net.layer(net.num_layers() - 1).output();
}

void BatchScheduler::complete(Slot& slot) {
  {
    // Collapse an all-null item-error vector to empty: the common fault-free
    // path hands callers `item_errors.empty()`, and a batch-level error
    // supersedes per-item bookkeeping entirely.
    std::lock_guard<std::mutex> item_lock(item_mu_);
    auto& errs = slot.result.item_errors;
    bool any = false;
    for (const auto& e : errs)
      if (e) { any = true; break; }
    if (!any || slot.error) errs.clear();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot.owned_input = dnn::Tensor();  // release admitted input early
    slot.input = nullptr;
    slot.state = Slot::State::Done;
    --running_;
  }
  slot_cv_.notify_all();
}

void BatchScheduler::install_plan(core::BackendPlan plan) {
  std::unique_lock<std::mutex> lock(mu_);
  // One swap at a time; a second caller queues behind the first.
  slot_cv_.wait(lock, [&] { return !swap_pending_; });
  swap_pending_ = true;  // executor claims no further queued batches
  // Quiesce: every claimed batch must retire (complete() notifies
  // slot_cv_). Queued batches stay queued and run under the new plan.
  slot_cv_.wait(lock, [&] { return running_ == 0; });
  lock.unlock();

  // No batch in flight: the graph's remaining work is bookkeeping only.
  graph_->drain();
  engine_->set_plan(std::move(plan));
  // Recompile every context's dispatch against the new plan (same
  // install() calls as construction; per-context scratch is rebuilt, the
  // shared weight caches persist). The next launch's prepare() packs and
  // transforms whatever the new routing needs.
  for (auto& ctx : worker_ctxs_) engine_->install(*ctx);
  engine_->install(*main_ctx_,
                   cfg_.intra_op && pool_.size() > 1 ? &pool_ : nullptr);

  lock.lock();
  swap_pending_ = false;
  lock.unlock();
  exec_cv_.notify_all();
  slot_cv_.notify_all();
}

void BatchScheduler::executor_loop() {
  for (;;) {
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      exec_cv_.wait(lock, [&] {
        Slot& s = slots_[next_exec_ % kSlots];
        if (!swap_pending_ && s.state == Slot::State::Queued &&
            s.id == next_exec_) {
          slot = &s;
          return true;
        }
        return stopping_ && !swap_pending_;
      });
      // Queued batches drain even during shutdown (their submitters may be
      // blocked in wait()); exit only once nothing is queued.
      if (slot == nullptr) break;
      slot->state = Slot::State::Running;
      ++running_;
      ++next_exec_;
    }

    // Batch-1 passes gain more from intra-op kernel parallelism (the whole
    // pool inside one GEMM/Winograd call on the main context) than from a
    // one-chunk-per-layer graph, so they take the serial path even under
    // Graph. Everything else goes through the work graph — including a
    // 1-worker pool, where the graph machinery still runs (zero overlap,
    // same results).
    const bool batch1_intra =
        slot->input->n() == 1 && cfg_.intra_op && pool_.size() > 1;
    if (cfg_.executor == ExecutorKind::Graph && !batch1_intra) {
      launch_graph(*slot);  // returns immediately; on_done completes it
    } else {
      // The serial path runs outside the graph's hazard tracking, so any
      // in-flight graph batches must fully retire first.
      graph_->drain();
      execute_serial(*slot);
    }
  }
  graph_->drain();
}

void BatchScheduler::launch_graph(Slot& slot) {
  init_item_errors(slot, slot.input->n());
  try {
    // Weight transforms happen before any task runs, so the shared caches
    // are read-only lookups for the rest of the pass (they are also
    // thread-safe, which keeps this prepare sound while an older batch is
    // still executing on the pool).
    engine_->prepare(*slot.net);
    graph_->launch(build_program(slot));
  } catch (...) {
    slot.error = std::current_exception();
    complete(slot);
  }
}

GraphBatchSpec BatchScheduler::build_program(Slot& slot) {
  dnn::Network& net = *slot.net;
  const dnn::Tensor* input = slot.input;
  const int nb = input->n();
  Slot* slotp = &slot;

  GraphBatchSpec spec;
  spec.items = nb;
  spec.chunks = pool_.size();
  spec.layers.reserve(net.num_layers());

  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    dnn::Layer& layer = net.layer(i);
    const int li = static_cast<int>(i);
    dnn::Layer* lp = &layer;

    std::vector<const dnn::Tensor*> ins;
    for (int idx : layer.input_indices()) {
      if (idx < 0)
        ins.push_back(input);
      else
        ins.push_back(&net.layer(static_cast<std::size_t>(idx)).output());
    }

    // Weight-resident layers execute batch-fused: ONE dispatch covers the
    // whole batch (per-item im2col matrices concatenated along the GEMM N
    // axis), so each resident weight panel is streamed once per batch
    // instead of once per item. That single dispatch — like a fused
    // residual fold, which must see every item of its shortcut source —
    // pins a sync point: the layer becomes one barrier task.
    //
    // Tradeoff vs the serial executor: a barrier task runs on ONE pool
    // worker, and worker ExecContexts have no intra-op pool installed (a
    // nested parallel_for from inside a posted task would degrade to an
    // inline serial loop anyway — see ThreadPool), so the whole-batch GEMM
    // that intra-op parallelized across the pool under Serial executes
    // single-worker here. The graph's bet is that cross-batch overlap
    // refills the other workers; for weight-resident-dominant plans with no
    // second batch in flight, --executor=serial restores the pool-wide
    // intra-op dispatch.
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&layer);
    const bool want_batch_fused =
        nb > 1 &&
        (conv != nullptr
             ? engine_->plan().weight_resident_for(conv->desc())
             : (engine_->plan().fc_weight_resident &&
                dynamic_cast<const dnn::ConnectedLayer*>(&layer) != nullptr));

    GraphLayerSpec L;
    L.inputs = layer.input_indices();
    L.out_key = &layer.output();
    L.barrier =
        want_batch_fused || layer.readiness() == dnn::Layer::Readiness::Barrier;
    L.prepare = [lp, ins] { lp->prepare_batch(ins); };
    // Per-layer backend names come from the engine's compiled plan (every
    // worker context shares the same plan, so the main context's label
    // function is authoritative for all of them).
    const std::string algo = dnn::layer_algo_label(*main_ctx_, layer);
    L.run = [this, lp, ins, algo, li, nb, want_batch_fused, slotp](
                int begin, int end, int worker, dnn::LayerRecord& rec) {
      dnn::ExecContext& ctx = *worker_ctxs_[static_cast<std::size_t>(worker)];
      rec.name = lp->name();
      // One batch-fused dispatch covers every item, so it only runs while
      // the batch is fault-free: a failed item would poison the fused
      // output of all the others. With a failure aboard, fall through to
      // the per-item path (bit-identical by the residency contract), which
      // skips poisoned items individually.
      if (want_batch_fused && !any_item_failed(*slotp)) {
        try {
          if (test_item_hook) test_item_hook(li, -1);
          if (lp->forward_batch(ctx, ins)) {
            rec.algo = algo + "+batch";
            rec.items = nb;
            rec.flops = lp->flops() * static_cast<double>(nb);
            return;
          }
          // Layer declined (e.g. packing disabled): per-item fallback.
        } catch (...) {
          // The fused kernel failed with all items in flight: every item of
          // this task fails together (a barrier task spans the full batch).
          fail_items(*slotp, begin, end, std::current_exception());
          rec.algo = algo + "+batch";
          rec.items = 0;
          return;
        }
      }
      rec.algo = algo;
      rec.items = 0;
      for (int b = begin; b < end; ++b) {
        if (item_failed(*slotp, b)) continue;  // poisoned upstream: skip
        try {
          if (cfg_.fault_injector != nullptr)
            cfg_.fault_injector->maybe_fail_item(slotp->id, li, b);
          if (test_item_hook) test_item_hook(li, b);
          lp->forward_item(ctx, ins, b);
        } catch (...) {
          // Isolate: this item fails, its siblings' outputs stay untouched
          // and bit-identical; downstream layers skip it.
          fail_item(*slotp, b, std::current_exception());
          continue;
        }
        rec.items += 1;
        rec.flops += lp->flops();
      }
    };
    spec.layers.push_back(std::move(L));
  }

  spec.final_read_keys = {&net.layer(net.num_layers() - 1).output()};
  spec.on_done = [this, slotp](GraphBatchResult&& res) {
    Slot& s = *slotp;
    s.error = res.error;
    s.result.records = std::move(res.records);
    s.result.exec = res.stats;
    s.result.compute_seconds = res.stats.span_seconds;
    if (!s.error && s.snapshot_output) {
      // The graph's sink still holds the read guard on the output tensor
      // here, so the next batch cannot overwrite it mid-copy.
      try {
        const dnn::Tensor& out = s.net->layer(s.net->num_layers() - 1).output();
        s.result.output.reshape(out.n(), out.c(), out.h(), out.w());
        std::memcpy(s.result.output.data(), out.data(),
                    out.size() * sizeof(float));
      } catch (...) {
        s.error = std::current_exception();
      }
    }
    complete(s);
  };
  return spec;
}

void BatchScheduler::execute_serial(Slot& slot) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  init_item_errors(slot, slot.input->n());
  try {
    dnn::Network& net = *slot.net;
    const dnn::Tensor& input = *slot.input;
    std::vector<dnn::LayerRecord>& records = slot.result.records;

    // Weight transforms happen before any worker runs, so the shared cache
    // is a read-only lookup for the rest of the pass.
    engine_->prepare(net);
    records.clear();

    for (std::size_t i = 0; i < net.num_layers(); ++i) {
      dnn::Layer& layer = net.layer(i);
      const int li = static_cast<int>(i);
      std::vector<const dnn::Tensor*> ins;
      for (int idx : layer.input_indices()) {
        if (idx < 0)
          ins.push_back(&input);
        else
          ins.push_back(&net.layer(static_cast<std::size_t>(idx)).output());
      }
      const int nb = layer.prepare_batch(ins);
      const auto l0 = clock::now();

      // Weight-resident layers execute batch-fused (see build_program). On
      // this path the batched call runs on the executor context — whose
      // kernels may intra-op parallelize over the pool — because it is a
      // single kernel invocation, not shardable per item. A layer that
      // declines (e.g. packing disabled) falls through to the per-item
      // paths below.
      const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&layer);
      const bool want_batch_fused =
          nb > 1 &&
          (conv != nullptr
               ? engine_->plan().weight_resident_for(conv->desc())
               : (engine_->plan().fc_weight_resident &&
                  dynamic_cast<const dnn::ConnectedLayer*>(&layer) !=
                      nullptr));
      // Batch-fused only while the batch is fault-free (see build_program);
      // a fused-kernel failure fails every item together.
      if (want_batch_fused && !any_item_failed(slot)) {
        bool fused = false;
        try {
          if (test_item_hook) test_item_hook(li, -1);
          fused = layer.forward_batch(*main_ctx_, ins);
        } catch (...) {
          fail_items(slot, 0, nb, std::current_exception());
          fused = true;  // all items failed: nothing left for per-item
        }
        if (fused) {
          dnn::LayerRecord rec;
          rec.name = layer.name();
          rec.flops = layer.flops() * nb;
          rec.items = nb;
          rec.algo = dnn::layer_algo_label(*main_ctx_, layer) + "+batch";
          rec.wall_seconds =
              std::chrono::duration<double>(clock::now() - l0).count();
          records.push_back(std::move(rec));
          continue;
        }
      }

      if (nb == 1 || pool_.size() == 1) {
        // Too little batch-level work to shard: run on the executor thread,
        // whose context may intra-op parallelize inside GEMM / Winograd.
        int done_items = 0;
        for (int b = 0; b < nb; ++b) {
          if (item_failed(slot, b)) continue;
          try {
            if (cfg_.fault_injector != nullptr)
              cfg_.fault_injector->maybe_fail_item(slot.id, li, b);
            if (test_item_hook) test_item_hook(li, b);
            layer.forward_item(*main_ctx_, ins, b);
          } catch (...) {
            fail_item(slot, b, std::current_exception());
            continue;
          }
          ++done_items;
        }
        dnn::LayerRecord rec;
        rec.name = layer.name();
        rec.flops = layer.flops() * done_items;
        rec.items = done_items;
        rec.algo = dnn::layer_algo_label(*main_ctx_, layer);
        rec.wall_seconds =
            std::chrono::duration<double>(clock::now() - l0).count();
        records.push_back(std::move(rec));
        continue;
      }

      // Shard batch items across the pool; each worker fills its own part
      // record (static chunking makes the per-worker contents
      // deterministic).
      std::vector<std::vector<dnn::LayerRecord>> parts(
          static_cast<std::size_t>(pool_.size()));
      pool_.parallel_for(nb, [&](int b, int w) {
        if (item_failed(slot, b)) return;
        try {
          if (cfg_.fault_injector != nullptr)
            cfg_.fault_injector->maybe_fail_item(slot.id, li, b);
          if (test_item_hook) test_item_hook(li, b);
          layer.forward_item(*worker_ctxs_[static_cast<std::size_t>(w)], ins,
                             b);
        } catch (...) {
          fail_item(slot, b, std::current_exception());
          return;
        }
        auto& mine = parts[static_cast<std::size_t>(w)];
        if (mine.empty()) {
          dnn::LayerRecord rec;
          rec.name = layer.name();
          rec.items = 0;
          mine.push_back(std::move(rec));
        }
        mine.back().items += 1;
        mine.back().flops += layer.flops();
      });
      dnn::LayerRecord rec;
      std::vector<dnn::LayerRecord> merged = dnn::merge_layer_records(parts);
      if (!merged.empty()) rec = std::move(merged.front());
      rec.name = layer.name();
      rec.algo = dnn::layer_algo_label(*main_ctx_, layer);
      // The layer barrier waits for the slowest worker: report the span.
      rec.wall_seconds =
          std::chrono::duration<double>(clock::now() - l0).count();
      records.push_back(std::move(rec));
    }

    if (slot.snapshot_output) {
      const dnn::Tensor& out =
          slot.net->layer(slot.net->num_layers() - 1).output();
      slot.result.output.reshape(out.n(), out.c(), out.h(), out.w());
      std::memcpy(slot.result.output.data(), out.data(),
                  out.size() * sizeof(float));
    }
  } catch (...) {
    slot.error = std::current_exception();
  }

  const double wall = std::chrono::duration<double>(clock::now() - t0).count();
  slot.result.compute_seconds = wall;
  // One execution stream: the batch's span is fully busy on (effectively)
  // one worker-equivalent, so occupancy reads 1/workers.
  slot.result.exec.span_seconds = wall;
  slot.result.exec.busy_seconds = wall;
  slot.result.exec.workers = pool_.size();
  slot.result.exec.tasks = slot.result.records.size();
  complete(slot);
}

}  // namespace vlacnn::runtime
