// serve-tiny-poisson: open loop into serve::Server. One generator thread
// submits a seeded Poisson schedule at a fixed absolute rate; latency is
// timed from each request's due time.

#include <mutex>
#include <thread>

#include "bench_util.hpp"
#include "dnn/models.hpp"
#include "harness.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

constexpr int kInput = 96;  ///< yolov3-tiny input side
/// Offered load, requests per second: fixed, never derived from measured
/// capacity, so a faster build sees the same traffic. Picked on the parent
/// commit below the batch-1 capacity, so that no backlog grows.
constexpr double kRate = 4.0;
/// Goodput counts Ok completions within this latency of their due time.
constexpr double kLimitMs = 500.0;
constexpr int kMaxBatch = 8;
/// The micro-batcher holds a batch open this long for riders. At kRate this
/// forms batches of 1-3 items; a 2 ms window almost never caught a second
/// arrival, so every batch held one.
constexpr auto kMaxWait = std::chrono::milliseconds(100);
constexpr std::size_t kQueueCapacity = 4096;  ///< nothing is rejected
constexpr int kInputPool = 16;                ///< pre-generated inputs

struct Delivered {
  serve::RequestTrace trace;
  SteadyClock::time_point at;
  dnn::Tensor output;
};

struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;
  std::uint64_t within_limit = 0;
  double horizon_s = 0.0;
  double window_s = 0.0;
  std::vector<double> latency_ms;  ///< due -> delivered, Ok requests
  std::vector<double> queue_ms, dispatch_ms, compute_ms, batch_ms;
  std::vector<double> batch_items, occupancy, overlap_starts;
  std::vector<double> submit_us;
  double busy_s = 0.0;
  double max_lag_ms = 0.0;
};

Phase measure(const Options& o, Stack& s, const dnn::Tensor& pool,
              const dnn::Tensor& ref, double seconds, Tracer* tr) {
  const std::vector<Arrival> sched =
      poisson_schedule(o.seed, kRate, seconds, kInputPool);
  const std::size_t n = sched.size();

  // Request tensors are copied from the pool before the clock starts; the
  // generator only moves them into submit().
  std::vector<dnn::Tensor> inputs;
  inputs.reserve(n);
  for (const Arrival& a : sched) inputs.push_back(copy_item(pool, a.input));

  std::mutex mu;
  std::vector<Delivered> delivered;
  delivered.reserve(n);
  serve::ServerConfig cfg;
  cfg.policy.max_batch = kMaxBatch;
  cfg.policy.max_wait = kMaxWait;
  cfg.queue_capacity = kQueueCapacity;
  cfg.block_when_full = false;  // a full queue rejects: counted as failed
  cfg.on_complete = [&](serve::Completion&& c) {
    const auto at = SteadyClock::now();
    std::lock_guard<std::mutex> lock(mu);
    delivered.push_back({c.trace, at, std::move(c.output)});
  };
  serve::Server server(*s.sched, *s.net, cfg);
  server.start();

  Phase ph;
  ph.attempted = n;
  std::vector<SteadyClock::time_point> due(n);
  std::vector<double> submit_begin_us(n, 0.0);
  std::vector<bool> admitted(n, false);
  // One generator thread: the schedule starts shortly after the server.
  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(20);
  std::thread gen([&] {
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = t0 + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(sched[i].due_s));
      std::this_thread::sleep_until(due[i]);
      const auto call = SteadyClock::now();
      ph.max_lag_ms = std::max(
          ph.max_lag_ms,
          std::chrono::duration<double, std::milli>(call - due[i]).count());
      if (tr != nullptr) submit_begin_us[i] = tr->us(call);
      serve::Admit a;
      {
        ScopedSpan span(tr, "serve::Server::submit", "serve", i);
        a = server.submit(i, std::move(inputs[i]));
      }
      ph.submit_us.push_back(std::chrono::duration<double, std::micro>(
                                 SteadyClock::now() - call)
                                 .count());
      admitted[i] = a == serve::Admit::Accepted;
    }
  });
  gen.join();
  server.stop();

  ph.horizon_s = static_cast<double>(n) / kRate;
  SteadyClock::time_point last = t0;
  for (const Delivered& d : delivered) {
    const std::size_t i = d.trace.id;
    last = std::max(last, d.at);
    if (i >= n || !admitted[i] || d.trace.outcome != serve::Outcome::Ok ||
        !same_bits(d.output, 0, ref, sched[i].input))
      continue;
    ph.ok += 1;
    const double lat =
        std::chrono::duration<double, std::milli>(d.at - due[i]).count();
    ph.latency_ms.push_back(lat);
    if (lat <= kLimitMs) ph.within_limit += 1;
    const serve::RequestTrace& t = d.trace;
    ph.queue_ms.push_back(t.queue_ms);
    ph.dispatch_ms.push_back(t.dispatch_ms);
    ph.compute_ms.push_back(t.compute_ms);
    ph.batch_ms.push_back(t.dispatch_ms + t.compute_ms);
    ph.batch_items.push_back(t.batch_items);
    ph.occupancy.push_back(t.batch_occupancy);
    ph.overlap_starts.push_back(static_cast<double>(t.batch_overlap_starts));
    // This request's share of its batch's busy worker time.
    ph.busy_s += t.batch_occupancy * t.compute_ms * 1e-3 * o.workers /
                 std::max(1, t.batch_items);
    if (tr != nullptr) {
      // Request-scoped spans, all keyed by the request id: due ->
      // delivered, and inside it the server's queue / dispatch / compute
      // split laid out from the submit call.
      const double end = tr->us(d.at);
      const double queue_b = submit_begin_us[i];
      const double dispatch_b = queue_b + t.queue_ms * 1e3;
      const double compute_b = dispatch_b + t.dispatch_ms * 1e3;
      const auto add = [&](const char* name, const char* cat, double b,
                           double e) {
        Span sp;
        sp.name = name;
        sp.cat = cat;
        sp.req = i;
        sp.async = true;
        sp.begin_us = b;
        sp.end_us = e;
        tr->add(std::move(sp));
      };
      add("request", "serve", tr->us(due[i]), end);
      add("submit->on_complete", "serve", submit_begin_us[i], end);
      add("queue", "serve", queue_b, dispatch_b);
      add("dispatch", "serve", dispatch_b, compute_b);
      add("compute", "runtime", compute_b,
          std::min(end, compute_b + t.compute_ms * 1e3));
    }
  }
  // Anything but an Ok completion with the reference's bits failed: a
  // rejection, a shed or errored request, a mismatch, or a lost request.
  ph.failed = n - ph.ok;
  ph.window_s =
      std::max(ph.horizon_s, std::chrono::duration<double>(last - t0).count());
  return ph;
}

}  // namespace

RunOutcome run_serve(const Options& o) {
  RunOutcome out;
  Tracer tracer;
  Tracer* tr = o.trace ? &tracer : nullptr;

  // The pre-generated input pool, from the seed.
  dnn::Tensor pool(kInputPool, 3, kInput, kInput);
  pool.randomize_batch(o.seed);
  const dnn::Tensor warm = copy_item(pool, 0);

  std::vector<double> setup_s, plan_s, prepare_s;
  std::unique_ptr<Stack> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    s = set_up_stack([&] { return dnn::build_yolov3_tiny(kInput); },
                     "dnn::build_yolov3_tiny", /*plan_batch=*/1, o.workers, warm,
                     i + 1 == kSetups ? tr : nullptr);
    setup_s.push_back(s->total_s);
    plan_s.push_back(s->plan_s);
    prepare_s.push_back(s->prepare_s);
  }

  // Reference outputs of every pool input: Network::forward under the same
  // plan, outside the timed window.
  const dnn::Tensor ref = reference_forward(*s, pool);

  Phase ph;
  double overhead = 0.0;
  if (tr == nullptr) {
    ph = measure(o, *s, pool, ref, o.seconds, nullptr);
  } else {
    // The traced half replays the identical schedule.
    const Phase plain = measure(o, *s, pool, ref, o.seconds / 2, nullptr);
    ph = measure(o, *s, pool, ref, o.seconds / 2, tr);
    overhead = quantile(ph.latency_ms, 0.5) / quantile(plain.latency_ms, 0.5) - 1.0;
    out.attempted += plain.attempted;
    out.failed += plain.failed;
  }
  out.attempted += ph.attempted;
  out.failed += ph.failed;

  const Summary lat = summarize(ph.latency_ms);
  const double ips = static_cast<double>(ph.ok) / ph.window_s;
  const std::string n_note = "n=" + std::to_string(lat.n) + " requests";
  const std::string tail_note = percentile_label(lat.tail_p) + ", " + n_note;
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", "median of " + std::to_string(kSetups)},
      {"images_per_s", ips, "img/s", "Ok completions per second"},
      {"p50_ms", lat.p50, "ms", "request due->delivered, " + n_note},
  };
  out.detail = {
      {"lat_p50_ms", lat.p50, "ms", n_note},
      {"lat_tail_ms", lat.tail, "ms", tail_note},
      {"goodput_rps", static_cast<double>(ph.within_limit) / ph.horizon_s,
       "req/s",
       "Ok within " + std::to_string(static_cast<int>(kLimitMs)) +
           " ms, per second of schedule"},
      {"offered_rps", kRate, "req/s", "fixed"},
      {"loadgen.lag_ms.max", ph.max_lag_ms, "ms", "validity check"},
      {"serve.batch_items.mean", summarize(ph.batch_items).mean, "items",
       "per request"},
  };
  // Batch-size histogram: a batch of k items shows in k requests' traces.
  std::vector<double> requests_in(kMaxBatch + 1, 0.0);
  for (double k : ph.batch_items) requests_in[static_cast<std::size_t>(k)] += 1;
  for (int k = 1; k <= kMaxBatch; ++k)
    if (requests_in[k] > 0)
      out.detail.push_back({"serve.batches_of_" + std::to_string(k),
                            requests_in[k] / k, "count", "micro-batches"});

  if (tr != nullptr) {
    const Summary queue = summarize(ph.queue_ms);
    const Summary dispatch = summarize(ph.dispatch_ms);
    const Summary comp = summarize(ph.compute_ms);
    out.per_layer = {
        {"serve.queue_ms.p50", queue.p50, "ms", ""},
        {"serve.queue_ms.tail", queue.tail, "ms", percentile_label(queue.tail_p)},
        {"serve.dispatch_ms.p50", dispatch.p50, "ms", ""},
        {"serve.dispatch_ms.tail", dispatch.tail, "ms",
         percentile_label(dispatch.tail_p)},
        {"serve.submit_us.p50", quantile(ph.submit_us, 0.5), "us", ""},
        {"runtime.compute_ms.p50", comp.p50, "ms", ""},
        {"runtime.compute_ms.tail", comp.tail, "ms", percentile_label(comp.tail_p)},
        {"runtime.batch_ms.p50", quantile(ph.batch_ms, 0.5), "ms", ""},
        {"runtime.occupancy.mean", summarize(ph.occupancy).mean, "ratio", ""},
        {"runtime.busy_s_per_image",
         ph.ok > 0 ? ph.busy_s / static_cast<double>(ph.ok) : 0.0, "s", ""},
        {"runtime.overlap_starts.mean", summarize(ph.overlap_starts).mean, "count", ""},
        {"core.plan_s", median(plan_s), "s", ""},
        {"core.prepare_s", median(prepare_s), "s", ""},
        {"gemm.packed.resident_mb",
         static_cast<double>(s->engine->packed_weights().stats().resident_bytes) /
             (1024.0 * 1024.0),
         "MB", ""},
        {"trace.overhead_frac", overhead, "ratio", "lat p50 traced/untraced - 1"},
    };
    const dnn::Tensor& y = profile_stack(*s, warm, tracer, "tiny", out.layers);
    out.attempted += 1;
    if (!same_bits(y, 0, ref, 0)) out.failed += 1;
    add_host_layer_metrics(out.layers, out.per_layer);
    if (!tracer.write_chrome_json(o.out_dir + "/serve-tiny-poisson.trace.json"))
      throw std::runtime_error("cannot write the trace file");
  }
  return out;
}

}  // namespace perfbench
