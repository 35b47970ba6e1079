// Budget-constrained scheduling: the peak-bytes vs. time Pareto curve.
//
// For every zoo model this bench fixes the "unconstrained peak" at the
// decomposed graph's program-order arena slab — what a session costs with no
// compiler at all — then asks schedule_for_budget (on the TeMCO-optimized
// graph) to hit {100%, 75%, 50%, 35%} of it.  Each point records the
// arena-planner-validated slab, the cost model's predicted slowdown, and the
// measured arena-executor time, so predicted and measured sit side by side.
// TeMCO's own restore trick — the optimize-only pipeline, no search — appears
// as its own point on the curve: the paper's hand-picked trade that the
// search generalizes.
//
// Bitwise contract: every searched schedule's outputs are compared
// byte-for-byte against the unconstrained optimized graph's reference
// execution (rematerialized duplicates recompute identical bytes); the bench
// fails loudly if any point diverges.
//
// Measured times are the median of kRepeats arena-executor runs after one
// warm-up (bench/common.hpp); each record keeps the quartiles too.
//
// Output: BENCH_schedule.json (override with --json PATH), the host plus one
// record per model × point.
#include "bench/common.hpp"
#include "runtime/arena.hpp"
#include "runtime/budget.hpp"
#include "support/bytes.hpp"

using namespace temco;

namespace {

struct Record {
  std::string model;
  std::string point;
  std::int64_t budget_bytes = 0;  ///< 0 = no budget requested
  std::int64_t arena_bytes = 0;
  std::int64_t floor_bytes = 0;   ///< intrinsic lower bound (schedule_floor_bytes)
  bool met = true;
  int remat_nodes = 0;
  double predicted_slowdown = 1.0;
  temco::bench::Spread measured_seconds;
  double measured_slowdown = 1.0;
  bool bitwise_identical = true;
};

}  // namespace

int main(int argc, char** argv) {
  temco::bench::BenchArgs defaults;
  defaults.json = "BENCH_schedule.json";
  const auto args = temco::bench::parse_args(argc, argv, defaults);
  const auto& bench = args.config;
  const std::string& json_path = *args.json;

  std::printf("=== Budget-constrained schedule search: peak vs. time Pareto ===\n");
  std::printf("(width %.3g, image %lld, batch %lld, Tucker ratio %.2g)\n\n", bench.width,
              static_cast<long long>(bench.image), static_cast<long long>(bench.batch),
              bench.ratio);
  std::printf("%-14s %-10s %12s %12s %5s %6s %9s %9s %8s\n", "model", "point", "budget",
              "arena", "met", "remat", "pred-slow", "meas-slow", "bitwise");

  const double kFractions[] = {1.00, 0.75, 0.50, 0.35};
  std::vector<Record> records;
  bool all_identical = true;
  bool slowdown_ok = true;
  int met_at_50 = 0;
  int floor_infeasible_at_50 = 0;
  int models_run = 0;

  for (const auto& name : bench.models) {
    const auto& spec = models::find_model(name);
    const auto original = spec.build(temco::bench::model_config(bench, spec));
    const auto decomposed = temco::bench::decomposed_baseline(original, bench);
    const auto optimized = core::optimize(decomposed, {});
    ++models_run;

    // The curve's x-axis anchor: what a session pays with no compiler at all
    // (decomposed graph, program order, best-fit arena).
    const std::int64_t unconstrained = runtime::plan_arena(decomposed).arena_bytes;

    // Intrinsic floor of the searched graph: no schedule — here or anywhere —
    // can pack below it, so a budget under the floor is infeasible for any
    // scheduler, not a search shortfall.
    const std::int64_t floor = runtime::schedule_floor_bytes(optimized);

    const Tensor input = temco::bench::random_input(optimized, 99);

    // The bitwise reference: the unconstrained optimized graph, reference
    // executor.  Every searched schedule must reproduce these bytes exactly.
    const auto reference = runtime::execute(optimized, {input});

    // TeMCO's restore trick as a point: optimize-only, no search.
    {
      Record r;
      r.model = name;
      r.point = "temco";
      r.arena_bytes = runtime::plan_arena(optimized).arena_bytes;
      r.measured_seconds = temco::bench::time_runs(optimized, input, true);
      records.push_back(r);
      std::printf("%-14s %-10s %12s %12s %5s %6d %8.2fx %8.2fx %8s\n", name.c_str(), "temco",
                  "-", format_bytes(r.arena_bytes).c_str(), "-", 0, 1.0, 1.0, "ref");
    }

    double unconstrained_seconds = 0.0;
    for (const double frac : kFractions) {
      runtime::BudgetOptions options;
      options.max_bytes = static_cast<std::int64_t>(static_cast<double>(unconstrained) * frac);
      const auto result = runtime::schedule_for_budget(optimized, options);

      Record r;
      r.model = name;
      r.point = "budget" + std::to_string(static_cast<int>(frac * 100));
      r.budget_bytes = options.max_bytes;
      r.arena_bytes = result.achieved_arena_bytes;
      r.floor_bytes = floor;
      r.met = result.met;
      r.remat_nodes = result.remat_nodes;
      r.predicted_slowdown = result.predicted_slowdown;
      r.measured_seconds = temco::bench::time_runs(result.graph, input, true);

      const auto searched = runtime::execute(result.graph, {input}, {.use_arena = true});
      r.bitwise_identical = temco::bench::bitwise_equal(searched.outputs, reference.outputs);
      all_identical = all_identical && r.bitwise_identical;

      if (frac == 1.00) unconstrained_seconds = r.measured_seconds.median;
      r.measured_slowdown = unconstrained_seconds > 0.0
                                ? r.measured_seconds.median / unconstrained_seconds
                                : 1.0;
      if (frac == 0.50) {
        if (r.met) {
          ++met_at_50;
          slowdown_ok = slowdown_ok && r.measured_slowdown <= 2.0;
        } else if (r.budget_bytes < floor) {
          ++floor_infeasible_at_50;
        }
      }

      std::printf("%-14s %-10s %12s %12s %5s %6d %8.2fx %8.2fx %8s\n", name.c_str(),
                  r.point.c_str(), format_bytes(r.budget_bytes).c_str(),
                  format_bytes(r.arena_bytes).c_str(),
                  r.met ? "yes" : (r.budget_bytes < floor ? "floor" : "NO"), r.remat_nodes,
                  r.predicted_slowdown, r.measured_slowdown, r.bitwise_identical ? "ok" : "DIFF");
      records.push_back(std::move(r));
    }
    std::printf("  (intrinsic schedule floor: %s)\n\n", format_bytes(floor).c_str());
  }

  // A miss below the floor is not the search falling short — those bytes are
  // live in the same instant under every possible schedule.
  const int misses_at_50 = models_run - met_at_50;
  std::printf(
      "50%%-budget met on %d/%d model(s); %d of %d miss(es) below the intrinsic floor "
      "(infeasible for any scheduler); bitwise identity %s; 50%% slowdown <= 2x %s\n",
      met_at_50, models_run, floor_infeasible_at_50, misses_at_50,
      all_identical ? "held everywhere" : "VIOLATED", slowdown_ok ? "held" : "VIOLATED");

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  TEMCO_CHECK(f != nullptr) << "cannot open " << json_path << " for writing";
  std::fprintf(f,
               "{\n  \"bench\": \"schedule_budget\",\n  \"host\": %s,\n"
               "  \"method\": \"1 warm-up run, median and quartiles of %zu arena runs\",\n"
               "  \"records\": [\n",
               temco::bench::host_json().c_str(), temco::bench::kRepeats);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"point\": \"%s\", \"budget_bytes\": %lld, "
                 "\"arena_bytes\": %lld, \"floor_bytes\": %lld, \"met\": %s, "
                 "\"remat_nodes\": %d, \"predicted_slowdown\": %.3f, "
                 "\"measured_seconds\": %s, \"measured_slowdown\": %.3f, "
                 "\"bitwise_identical\": %s}%s\n",
                 r.model.c_str(), r.point.c_str(), static_cast<long long>(r.budget_bytes),
                 static_cast<long long>(r.arena_bytes), static_cast<long long>(r.floor_bytes),
                 r.met ? "true" : "false", r.remat_nodes, r.predicted_slowdown,
                 temco::bench::spread_json(r.measured_seconds, 1.0).c_str(), r.measured_slowdown,
                 r.bitwise_identical ? "true" : "false", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %zu record(s) to %s\n", records.size(), json_path.c_str());

  return all_identical && slowdown_ok ? 0 : 1;
}
