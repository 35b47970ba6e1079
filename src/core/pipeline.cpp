// TeMCO pipeline driver (Fig. 6).
//
// The four passes run under the PassManager's guardrails: structural verify +
// shape re-check at every boundary (always on) and an optional differential
// numeric oracle (TemcoOptions::numeric_oracle) that proves each pass
// preserved the model's outputs on random inputs.
#include "core/pass_manager.hpp"
#include "core/temco.hpp"
#include "support/log.hpp"

namespace temco::core {

ir::Graph optimize(const ir::Graph& graph, const TemcoOptions& options, OptimizeStats* stats) {
  graph.verify();
  OptimizeStats local;
  OptimizeStats& st = stats != nullptr ? *stats : local;

  PassManager manager({.numeric_oracle = options.numeric_oracle,
                        .oracle_tolerance = options.oracle_tolerance});

  if (options.enable_skip_opt) {
    manager.add_pass("skip_opt", [&options, &st](const ir::Graph& g) {
      return optimize_skip_connections(g, options, &st);
    });
  }
  if (options.enable_transforms) {
    manager.add_pass("transforms", [&options, &st](const ir::Graph& g) {
      return transform_layers(g, options, &st);
    });
  }
  if (options.enable_fusion) {
    manager.add_pass("fusion", [&options, &st](const ir::Graph& g) {
      return fuse_activations(g, options, &st);
    });
  }
  manager.add_pass("dce", [&st](const ir::Graph& g) { return eliminate_dead_code(g, &st); });

  ir::Graph current = manager.run(graph);
  TEMCO_INFO() << "temco: " << st.to_string();
  return current;
}

}  // namespace temco::core
