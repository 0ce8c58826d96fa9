// offline-vgg16: closed loop. VGG16 at a small input, fixed-size batches
// through BatchScheduler::submit / wait with a fixed number of batches in
// flight, under the analytic per-layer plan priced for that batch. Its
// traced run also simulates the paper's clock (sim.cpp).

#include <cstring>
#include <deque>

#include "bench_util.hpp"
#include "dnn/models.hpp"
#include "harness.hpp"

namespace perfbench {

namespace {

constexpr int kInput = 64;    ///< VGG16 input side
constexpr int kBatch = 8;     ///< images per batch; the plan is priced for it
constexpr int kInFlight = 2;  ///< batches kept submitted

struct Phase {
  double window_s = 0.0;
  /// From the first completion to the last: the pipeline-fill time of the
  /// first batch is left out of the throughput.
  double after_first_s = 0.0;
  std::uint64_t images = 0;
  std::uint64_t failed = 0;
  std::vector<double> batch_ms;    ///< submit -> wait returns
  std::vector<double> compute_ms;  ///< BatchResult::compute_seconds
  std::vector<double> occupancy;
  std::vector<double> overlap_starts;
  double busy_s = 0.0;

  /// Images completed after the first batch, per second after it; the
  /// whole window when only one batch completed.
  [[nodiscard]] double images_per_s() const {
    const double per_batch = static_cast<double>(images) /
                             static_cast<double>(batch_ms.size());
    return batch_ms.size() > 1
               ? (static_cast<double>(images) - per_batch) / after_first_s
               : static_cast<double>(images) / window_s;
  }
};

/// Closed loop for `seconds`: keeps `in_flight` batches submitted; batch k
/// is the input pool rotated by k. It stops submitting once the batches it
/// would have in flight, spaced by the last completion gap, would end past
/// `seconds`. Every output is compared bit-for-bit with the reference.
Phase measure(Stack& s, const dnn::Tensor& pool,
              const dnn::Tensor& ref, double seconds, Tracer* tr) {
  const int B = pool.n();
  struct InFlight {
    runtime::BatchTicket ticket;
    std::uint64_t k = 0;
    SteadyClock::time_point submitted;
    double begin_us = 0.0;
  };
  const auto make_batch = [&](std::uint64_t k) {
    dnn::Tensor t(B, pool.c(), pool.h(), pool.w());
    for (int i = 0; i < B; ++i)
      std::memcpy(t.item_data(i),
                  pool.item_data(static_cast<int>((k + i) % B)),
                  pool.item_size() * sizeof(float));
    return t;
  };

  Phase ph;
  SteadyClock::time_point first_done, last_done;
  std::deque<InFlight> inflight;
  std::uint64_t next = 0;
  const auto t0 = SteadyClock::now();
  const auto submit = [&] {
    dnn::Tensor batch = make_batch(next);
    InFlight f;
    f.k = next++;
    f.submitted = SteadyClock::now();
    if (tr != nullptr) f.begin_us = tr->us(f.submitted);
    {
      ScopedSpan span(tr, "runtime::BatchScheduler::submit", "runtime", f.k);
      f.ticket = s.sched->submit(*s.net, std::move(batch));
    }
    inflight.push_back(std::move(f));
  };
  for (int i = 0; i < kInFlight; ++i) submit();
  while (!inflight.empty()) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    runtime::BatchResult res;
    {
      ScopedSpan span(tr, "runtime::BatchScheduler::wait", "runtime", f.k);
      res = s.sched->wait(f.ticket);
    }
    const auto done = SteadyClock::now();
    const double gap =
        ph.batch_ms.empty()
            ? seconds_since(f.submitted) / kInFlight
            : std::chrono::duration<double>(done - last_done).count();
    if (ph.batch_ms.empty()) first_done = done;
    last_done = done;
    ph.after_first_s = std::chrono::duration<double>(done - first_done).count();
    if (seconds_since(t0) + gap * static_cast<double>(inflight.size() + 1) <
        seconds)
      submit();

    ph.batch_ms.push_back(
        std::chrono::duration<double, std::milli>(done - f.submitted).count());
    ph.compute_ms.push_back(res.compute_seconds * 1e3);
    ph.occupancy.push_back(res.exec.occupancy());
    ph.overlap_starts.push_back(static_cast<double>(res.exec.overlap_task_starts));
    ph.busy_s += res.exec.busy_seconds;
    ph.window_s = std::chrono::duration<double>(done - t0).count();
    if (tr != nullptr) {
      Span span;
      span.name = "batch";
      span.cat = "runtime";
      span.req = f.k;
      span.async = true;
      span.begin_us = f.begin_us;
      span.end_us = tr->us(done);
      span.args = {{"compute_ms", res.compute_seconds * 1e3},
                   {"occupancy", res.exec.occupancy()}};
      tr->add(std::move(span));
    }
    for (int i = 0; i < B; ++i) {
      ph.images += 1;
      const bool ok = res.item_errors.empty() || !res.item_errors[i];
      if (!ok || !same_bits(res.output, i, ref, static_cast<int>((f.k + i) % B)))
        ph.failed += 1;
    }
  }
  return ph;
}

}  // namespace

RunOutcome run_offline(const Options& o) {
  RunOutcome out;
  Tracer tracer;
  Tracer* tr = o.trace ? &tracer : nullptr;

  // The simulated passes go first: every tensor registers with the
  // simulator's process-wide address map, so only a fixed history before
  // them repeats their cycle counts exactly.
  if (tr != nullptr) profile_sim(o.seed, tracer, out);

  // Inputs from the seed, made before any set-up.
  dnn::Tensor pool(kBatch, 3, kInput, kInput);
  pool.randomize_batch(o.seed);

  std::vector<double> setup_s, plan_s, prepare_s;
  std::unique_ptr<Stack> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();  // tear the previous stack down before timing the next
    s = set_up_stack([&] { return dnn::build_vgg16(kInput); },
                     "dnn::build_vgg16", kBatch, o.workers, pool,
                     i + 1 == kSetups ? tr : nullptr);
    setup_s.push_back(s->total_s);
    plan_s.push_back(s->plan_s);
    prepare_s.push_back(s->prepare_s);
  }

  // Reference: Network::forward under the same plan, outside the timed
  // window.
  const dnn::Tensor ref = reference_forward(*s, pool);

  Phase ph;
  double overhead = 0.0;
  if (tr == nullptr) {
    ph = measure(*s, pool, ref, o.seconds, nullptr);
  } else {
    const Phase plain = measure(*s, pool, ref, o.seconds / 2, nullptr);
    ph = measure(*s, pool, ref, o.seconds / 2, tr);
    overhead = plain.images_per_s() / ph.images_per_s() - 1.0;
    out.attempted += plain.images;
    out.failed += plain.failed;
  }
  out.attempted += ph.images;
  out.failed += ph.failed;

  const Summary lat = summarize(ph.batch_ms);
  const double ips = ph.images_per_s();
  const std::string n_note = "n=" + std::to_string(lat.n) + " batches";
  const std::string tail_note =
      percentile_label(lat.tail_p) + ", " + n_note;
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", "median of " + std::to_string(kSetups)},
      {"images_per_s", ips, "img/s",
       "after the first batch, " + std::to_string(ph.images) + " images"},
      {"p50_ms", lat.p50, "ms", "batch submit->wait, " + n_note},
  };
  out.detail.push_back({"batch_p50_ms", lat.p50, "ms", n_note});
  out.detail.push_back({"batch_tail_ms", lat.tail, "ms", tail_note});

  if (tr != nullptr) {
    const Summary comp = summarize(ph.compute_ms);
    out.per_layer.insert(out.per_layer.end(), {
        {"runtime.compute_ms.p50", comp.p50, "ms", ""},
        {"runtime.compute_ms.tail", comp.tail, "ms", percentile_label(comp.tail_p)},
        {"runtime.batch_ms.p50", lat.p50, "ms", ""},
        {"runtime.occupancy.mean", summarize(ph.occupancy).mean, "ratio", ""},
        {"runtime.busy_s_per_image", ph.busy_s / ph.images, "s", ""},
        {"runtime.overlap_starts.mean", summarize(ph.overlap_starts).mean,
         "count", ""},
        {"core.plan_s", median(plan_s), "s", ""},
        {"core.prepare_s", median(prepare_s), "s", ""},
        {"gemm.packed.resident_mb",
         static_cast<double>(s->engine->packed_weights().stats().resident_bytes) /
             (1024.0 * 1024.0),
         "MB", ""},
        {"trace.overhead_frac", overhead, "ratio", "images_per_s untraced/traced - 1"},
    });
    // Single-context profile pass over one batch of the pool.
    std::vector<LayerRow> rows;
    const dnn::Tensor& y = profile_stack(*s, pool, tracer, "vgg16", rows);
    for (int i = 0; i < pool.n(); ++i) {
      out.attempted += 1;
      if (!same_bits(y, i, ref, i)) out.failed += 1;
    }
    add_host_layer_metrics(rows, out.per_layer);
    out.layers.insert(out.layers.end(), rows.begin(), rows.end());
    if (!tracer.write_chrome_json(o.out_dir + "/offline-vgg16.trace.json"))
      throw std::runtime_error("cannot write the trace file");
  }
  return out;
}

}  // namespace perfbench
