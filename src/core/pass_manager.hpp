// Pass manager with semantics-preservation guardrails.
//
// TeMCO's whole claim is that every rewrite preserves the model's outputs
// (Fig. 12: zero accuracy change).  This driver makes that claim mechanical
// instead of trusted: after every pass it (1) re-verifies graph structure,
// (2) re-runs shape inference and compares against the recorded shapes, and
// can (3) execute the graph on deterministic random inputs and compare against
// the pre-pipeline outputs within a tolerance — a differential numeric
// oracle.  A broken rewrite is then caught *at its own boundary*, with the
// pass named in the error, rather than miles downstream as corrupted results.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/graph.hpp"

namespace temco::core {

struct PassManagerOptions {
  /// Differential numeric oracle: execute the graph before the pipeline and
  /// after every pass on seeded random inputs; any pass whose output drifts
  /// beyond `oracle_tolerance` (relative Frobenius error, per graph output)
  /// raises NumericError naming the pass.  Costs one reference execution per
  /// pass — meant for tests, canaries, and debugging, not the hot path.
  bool numeric_oracle = false;
  double oracle_tolerance = 1e-3;
};

class PassManager {
 public:
  using PassFn = std::function<ir::Graph(const ir::Graph&)>;

  explicit PassManager(PassManagerOptions options = {}) : options_(std::move(options)) {}

  /// Appends a pass; run() applies them in registration order.
  void add_pass(std::string name, PassFn fn);

  /// Runs all passes over `input` with the configured guardrails.  Throws
  /// the underlying typed temco::Error (InvalidGraphError / ShapeError /
  /// NumericError / ...) with "after pass '<name>'" context prepended.
  ir::Graph run(const ir::Graph& input) const;

  const PassManagerOptions& options() const { return options_; }

 private:
  struct Pass {
    std::string name;
    PassFn fn;
  };

  PassManagerOptions options_;
  std::vector<Pass> passes_;
};

}  // namespace temco::core
