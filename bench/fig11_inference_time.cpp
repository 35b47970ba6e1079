// Figure 11: end-to-end inference time of the 10 models, batch sizes 4 and
// 32 — Decomposed baseline vs TeMCO-optimized.
//
// The paper's qualitative shape this bench reproduces: the optimized model is
// slower than the plain decomposed model (restore-layer copies + fused-kernel
// tiling), with the overhead growing with batch size — 1.08× geomean at
// batch 4 and 1.70× at batch 32 on the authors' GPU.
//
// On top of the paper's columns, the bench times the optimized graph on the
// zero-malloc arena executor, isolating allocator churn.  Each column is the
// median of kRepeats runs after one warm-up (bench/common.hpp); the JSON
// document (--json PATH) adds the quartiles and the host.  The repository
// benchmark (benchmark/) is the measured number for the three models it runs.
#include "bench/common.hpp"

using namespace temco;

namespace {

struct Row {
  std::string model;
  std::int64_t batch = 0;
  temco::bench::Spread decomposed, temco, arena;  ///< seconds per run
};

std::string ms(const temco::bench::Spread& seconds) {
  return temco::bench::spread_json(seconds, 1e3);
}

void write_json(const std::string& path, const temco::bench::BenchConfig& bench,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  TEMCO_CHECK(f != nullptr) << "cannot open " << path << " for writing";
  std::fprintf(f,
               "{\n  \"bench\": \"fig11_inference_time\",\n  \"host\": %s,\n"
               "  \"method\": \"1 warm-up run, median and quartiles of %zu runs, ms\",\n"
               "  \"width\": %g,\n  \"image\": %lld,\n  \"ratio\": %g,\n  \"rows\": [\n",
               temco::bench::host_json().c_str(), temco::bench::kRepeats, bench.width,
               static_cast<long long>(bench.image), bench.ratio);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"batch\": %lld, \"decomposed_ms\": %s, "
                 "\"temco_ms\": %s, \"temco_arena_ms\": %s, \"overhead\": %.3f}%s\n",
                 r.model.c_str(), static_cast<long long>(r.batch), ms(r.decomposed).c_str(),
                 ms(r.temco).c_str(), ms(r.arena).c_str(), r.temco.median / r.decomposed.median,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu rows to %s\n", rows.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  temco::bench::BenchArgs defaults;
  defaults.json = "";
  const auto args = temco::bench::parse_args(argc, argv, defaults);
  const auto& bench = args.config;
  std::printf("=== Figure 11: end-to-end inference time (CPU substrate) ===\n");
  std::printf("(width %.3g, image %lld, Tucker ratio %.2g; median of %zu runs)\n\n",
              bench.width, static_cast<long long>(bench.image), bench.ratio,
              temco::bench::kRepeats);
  std::printf("%-14s %6s %14s %14s %14s %10s %10s\n", "model", "batch", "decomposed", "temco",
              "temco+arena", "overhead", "arena");

  std::vector<Row> rows;
  for (const std::int64_t batch : {std::int64_t{4}, std::int64_t{32}}) {
    std::vector<double> overheads;
    std::vector<double> arena_gains;
    for (const auto& name : bench.models) {
      auto batch_bench = bench;
      batch_bench.batch = batch;
      const auto& spec = models::find_model(name);
      const auto original = spec.build(temco::bench::model_config(batch_bench, spec));
      const auto decomposed = temco::bench::decomposed_baseline(original, batch_bench);
      const auto optimized = core::optimize(decomposed, {});
      const Tensor input = temco::bench::random_input(decomposed, 99);

      using temco::bench::time_runs;
      // The arena column runs the same optimized graph with zero-malloc arena
      // execution (§2.2's static planning): the delta isolates allocator churn.
      Row row{name, batch, time_runs(decomposed, input, false),
              time_runs(optimized, input, false), time_runs(optimized, input, true)};
      const double overhead = row.temco.median / row.decomposed.median;
      const double arena_gain = row.temco.median / row.arena.median;
      overheads.push_back(overhead);
      arena_gains.push_back(arena_gain);
      std::printf("%-14s %6lld %12.2fms %12.2fms %12.2fms %9.2fx %9.2fx\n", name.c_str(),
                  static_cast<long long>(batch), 1e3 * row.decomposed.median,
                  1e3 * row.temco.median, 1e3 * row.arena.median, overhead, arena_gain);
      rows.push_back(std::move(row));
    }
    std::printf("geomean overhead at batch %lld: %.2fx (paper: %s); arena speedup %.2fx\n\n",
                static_cast<long long>(batch), temco::bench::geomean(overheads),
                batch == 4 ? "1.08x" : "1.70x", temco::bench::geomean(arena_gains));
  }
  if (!args.json->empty()) write_json(*args.json, bench, rows);
  return 0;
}
