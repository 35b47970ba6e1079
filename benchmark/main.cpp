// temco_bench: the repository benchmark (see README.md for the method).
//
//   temco_bench --workload NAME --seed N [--seconds S] [--trace 0|1]
//               [--trace-out FILE] [--json FILE] [--scratch DIR] [--rev REV]
//               [--quick] [--corrupt-reference]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.  With --trace 0 the metrics are the end-to-end set,
// with --trace 1 the per-layer set.  Any wrong output or untyped exception
// makes the run report correct=false and exit 1.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"
#include "kernels/gemm.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace temco::bench;

struct Workload {
  const char* name;
  bool offline;
  std::int64_t batch;  ///< offline
  double rate;         ///< serving, requests per second
  int deadline_ms;     ///< serving
};

constexpr Workload kWorkloads[] = {
    {"fig11-b4", true, 4, 0, 0},
    {"fig11-b32", true, 32, 0, 0},
    {"serve-5k", false, 0, 5000, 50},
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr, "temco_bench: %s\nworkloads:", problem);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr,
               "\nusage: temco_bench --workload NAME --seed N [--seconds S] [--trace 0|1] "
               "[--trace-out FILE] [--json FILE] [--scratch DIR] [--rev REV] [--quick] "
               "[--corrupt-reference]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--trace-out") {
        options.trace_out = value();
      } else if (arg == "--json") {
        options.json_out = value();
      } else if (arg == "--scratch") {
        options.scratch = value();
      } else if (arg == "--rev") {
        options.rev = value();
      } else if (arg == "--quick") {
        options.quick = true;
      } else if (arg == "--corrupt-reference") {
        options.corrupt_reference = true;
      } else {
        usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0 && options.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return options;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";  // and the run is failed below
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics_json(const Result& result) {
  std::string out = "{";
  for (const auto& [name, metric] : result.metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + ": {\"value\": " + json_number(metric.first) +
           ", \"unit\": " + json_string(metric.second) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) usage(("unknown workload '" + options.workload + "'").c_str());
  if (options.trace) Tracer::enable();
  // Every kernel runs on the thread that calls it.  Executors and sessions
  // are built with intra-op width 1, but the arena path of the fused kernel
  // forks onto the process-global pool whatever the width: a densenet121
  // run at batch 4 blocked the caller about 500 times, and the window timed
  // wake-ups of idle vCPUs, which on a shared host take from microseconds to
  // milliseconds.  A retired pool runs every batch inline (see README.md).
  temco::ThreadPool::global().shutdown();

  Result result;
  try {
    if (workload->offline) {
      run_offline(options, workload->batch, result);
    } else {
      run_serving(options, workload->rate, workload->deadline_ms, result);
    }
  } catch (const std::exception& e) {
    result.fail(std::string("exception: ") + e.what());
  }

  if (Tracer* tracer = Tracer::active()) {
    result.metric("trace.spans", static_cast<double>(tracer->size()), "count");
    const auto self = tracer->self_seconds_by_layer();
    for (const char* layer : {"models", "decomp", "core", "runtime", "kernels", "serve"}) {
      const auto it = self.find(layer);
      result.metric(std::string("trace.self_s.") + layer, it == self.end() ? 0.0 : it->second, "s");
    }
    if (!options.trace_out.empty()) tracer->write_chrome(options.trace_out);
  }
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.first)) result.fail("metric " + name + " is not finite");
  }
  const bool correct = result.failed == 0 && result.attempted > 0;

  // Host fingerprint: every result document carries it.
  const std::string fingerprint =
      "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"isa\": " + json_string(temco::kernels::gemm::active_isa_name()) +
      ", \"fma_peak_gflops\": " + json_number(fma_peak_gflops()) +
      ", \"intra_op_threads\": " + std::to_string(kIntraOpThreads) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"rev\": " + json_string(options.rev) + "}";
  std::fprintf(stderr, "%s seed %llu: %s, %llu attempted, %llu failed; host %s\n", workload->name,
               static_cast<unsigned long long>(options.seed), correct ? "correct" : "INCORRECT",
               static_cast<unsigned long long>(result.attempted),
               static_cast<unsigned long long>(result.failed), fingerprint.c_str());
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "  FAIL %s\n", failure.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::fprintf(stderr, "  %-44s %14.6g %s\n", name.c_str(), metric.first, metric.second.c_str());
  }

  const std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(result.attempted) +
                           ", \"failed\": " + std::to_string(result.failed) +
                           ", \"metrics\": " + metrics_json(result) + "}";
  if (!options.json_out.empty()) {
    std::FILE* f = std::fopen(options.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", options.json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"seconds\": %s, "
                 "\"fingerprint\": %s, \"result\": %s}\n",
                 json_string(workload->name).c_str(), static_cast<unsigned long long>(options.seed),
                 options.trace ? 1 : 0, json_number(options.seconds).c_str(), fingerprint.c_str(),
                 line.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
