// perfbench: one workload per invocation. Prints the workload's metrics by
// name and unit, the per-layer table of a traced run, and as its last line
// the result object {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload=offline-vgg16|serve-tiny-poisson
//             --seed=N --seconds=S --trace=0|1 [--out=DIR]
//
// The result carries every metric the run measured; run.py picks the ones
// BENCHMARK.json declares.
//
// Exit status: 0 when every output matched its reference, 1 on a mismatch
// or failed request (the result line still prints), 2 on a usage error or
// an exception.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "harness.hpp"

using namespace perfbench;

namespace {

Options parse(int argc, char** argv) {
  const vlacnn::CliArgs a(argc, argv);
  Options o;
  o.workload = a.get("workload", "");
  o.seed = static_cast<std::uint64_t>(a.get_int("seed", 1));
  o.seconds = a.get_double("seconds", 0.0);
  o.trace = a.get_int("trace", 0) != 0;
  o.out_dir = a.get("out", o.out_dir);
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores > 0) o.workers = std::min(kWorkers, static_cast<int>(cores));
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("%-10s %-34s %16.10g %-8s %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void print_table(const std::vector<LayerRow>& rows, std::ostream* tsv) {
  std::printf("\n%-20s %4s %-18s %-24s %12s %10s %9s %8s", "pass", "idx",
              "kind", "backend", "MFLOP", "host_ms", "self_ms", "GFLOP/s");
  std::printf(" %12s %12s %12s %10s %7s %12s\n", "cycles", "mem_stall",
              "issue_stall", "dram", "avg_vl", "model_cyc");
  if (tsv != nullptr)
    *tsv << "pass\tindex\tkind\tbackend\tflops\thost_ms\tself_ms\tgflops\t"
            "cycles\tmem_stall_cycles\tissue_stall_cycles\tdram_lines\t"
            "avg_vl_elems\tcostmodel_cycles\n";
  for (const LayerRow& r : rows) {
    const double gf = r.host_ms > 0 ? r.flops / (r.host_ms * 1e-3) / 1e9 : 0.0;
    std::printf("%-20s %4d %-18s %-24s %12.2f %10.3f %9.3f %8.2f", r.pass.c_str(),
                r.index, r.kind.c_str(), r.backend.c_str(), r.flops / 1e6,
                r.host_ms, r.self_ms, gf);
    if (r.simulated)
      std::printf(" %12llu %12llu %12llu %10llu %7.1f %12llu",
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.mem_stall),
                  static_cast<unsigned long long>(r.issue_stall),
                  static_cast<unsigned long long>(r.dram_lines), r.avg_vl,
                  static_cast<unsigned long long>(r.model_cycles));
    std::printf("\n");
    if (tsv != nullptr)
      *tsv << r.pass << '\t' << r.index << '\t' << r.kind << '\t' << r.backend
           << '\t' << num(r.flops) << '\t' << num(r.host_ms) << '\t'
           << num(r.self_ms) << '\t' << num(gf) << '\t' << r.cycles << '\t'
           << r.mem_stall << '\t' << r.issue_stall << '\t' << r.dram_lines
           << '\t' << num(r.avg_vl) << '\t' << r.model_cycles << '\n';
  }
}

/// Every metric with its note, for the results file.
std::string notes_json(const std::vector<Metric>& ms) {
  std::string s = "[";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ",\n  ";
    s += "{\"name\": " + quoted(ms[i].name) + ", \"value\": " +
         num(ms[i].value) + ", \"unit\": " + quoted(ms[i].unit) +
         ", \"note\": " + quoted(ms[i].note) + "}";
  }
  return s + "]";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
         ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    std::filesystem::create_directories(o.out_dir);
    RunOutcome r;
    if (o.workload == "offline-vgg16")
      r = run_offline(o);
    else if (o.workload == "serve-tiny-poisson")
      r = run_serve(o);
    else
      throw std::invalid_argument("unknown --workload: " + o.workload);

    r.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "whole run"});
    const double fail_frac =
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
    std::vector<Metric> check = {
        {"fail_frac", fail_frac, "ratio",
         std::to_string(r.failed) + " of " + std::to_string(r.attempted)}};

    std::printf("workload %s seed %llu seconds %g trace %d workers %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.workers);
    print_metrics("e2e", r.end_to_end);
    print_metrics("workload", r.detail);
    print_metrics("check", check);
    if (o.trace) {
      print_metrics("layer", r.per_layer);
      std::ofstream tsv(o.out_dir + "/" + o.workload + ".layers.tsv");
      print_table(r.layers, &tsv);
      std::printf("\ntrace: %s/%s.trace.json\n", o.out_dir.c_str(),
                  o.workload.c_str());
    }

    std::vector<Metric> all;
    for (const auto* group : {&r.end_to_end, &r.detail, &check, &r.per_layer})
      for (const Metric& m : *group) {
        if (!valid_metric_name(m.name) || !find_metric(all, m.name).unit.empty())
          throw std::logic_error("invalid or repeated metric name: " + m.name);
        all.push_back(m);
      }
    const bool correct = r.failed == 0 && r.attempted > 0;
    std::ofstream res(o.out_dir + "/" + o.workload + ".result.json");
    res << "{\"workload\": " << quoted(o.workload) << ", \"seed\": " << o.seed
        << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"attempted\": "
        << r.attempted << ", \"failed\": " << r.failed
        << ",\n\"end_to_end\": " << notes_json(r.end_to_end)
        << ",\n\"workload_metrics\": " << notes_json(r.detail)
        << ",\n\"per_layer\": " << notes_json(r.per_layer) << "}\n";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                metrics_json(all).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
