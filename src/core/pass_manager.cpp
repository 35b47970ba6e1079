#include "core/pass_manager.hpp"

#include <utility>

#include "runtime/executor.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "tensor/compare.hpp"

namespace temco::core {

namespace {

/// Re-raises the current typed error with pass context prepended, preserving
/// the subtype so callers can still catch what they can handle.
[[noreturn]] void rethrow_with_pass(const std::string& pass) {
  const std::string prefix = "after pass '" + pass + "': ";
  try {
    throw;
  } catch (const InvalidGraphError& e) {
    throw InvalidGraphError(prefix + e.what());
  } catch (const ShapeError& e) {
    throw ShapeError(prefix + e.what());
  } catch (const ResourceExhaustedError& e) {
    throw ResourceExhaustedError(prefix + e.what());
  } catch (const NumericError& e) {
    throw NumericError(prefix + e.what());
  } catch (const MemoryCorruptionError& e) {
    throw MemoryCorruptionError(prefix + e.what());
  } catch (const Error& e) {
    throw Error(prefix + e.what());
  }
}

/// Seed of the oracle's random inputs.
constexpr std::uint64_t kOracleSeed = 20240811;

/// One seeded random tensor per graph input, shared by every oracle run so
/// before/after comparisons see identical data.
std::vector<Tensor> oracle_inputs(const ir::Graph& graph) {
  Rng rng(kOracleSeed);
  std::vector<Tensor> inputs;
  for (const ir::Node& node : graph.nodes()) {
    if (node.kind == ir::OpKind::kInput) {
      inputs.push_back(Tensor::random_normal(node.out_shape, rng));
    }
  }
  return inputs;
}

}  // namespace

void PassManager::add_pass(std::string name, PassFn fn) {
  TEMCO_CHECK(fn != nullptr) << "pass '" << name << "' has no function";
  passes_.push_back(Pass{std::move(name), std::move(fn)});
}

ir::Graph PassManager::run(const ir::Graph& input) const {
  input.verify();

  // Oracle baseline: the *pipeline input's* outputs are the ground truth all
  // passes are measured against, so tolerance cannot silently accumulate
  // across passes.
  std::vector<Tensor> inputs;
  std::vector<Tensor> baseline;
  if (options_.numeric_oracle) {
    inputs = oracle_inputs(input);
    baseline = runtime::execute(input, inputs).outputs;
  }

  ir::Graph current = input;
  for (const Pass& pass : passes_) {
    ir::Graph next = [&] {
      try {
        return pass.fn(current);
      } catch (const Error&) {
        rethrow_with_pass(pass.name);
      }
    }();

    try {
      // verify() covers both guardrails: structure (SSA order, dangling
      // edges, outputs) and the shape re-check against fresh inference.
      next.verify();
    } catch (const Error&) {
      rethrow_with_pass(pass.name);
    }

    if (options_.numeric_oracle) {
      const auto result = runtime::execute(next, inputs);
      TEMCO_CHECK_AS(result.outputs.size() == baseline.size(), InvalidGraphError)
          << "after pass '" << pass.name << "': output count changed from " << baseline.size()
          << " to " << result.outputs.size();
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        TEMCO_CHECK_AS(result.outputs[i].shape() == baseline[i].shape(), ShapeError)
            << "after pass '" << pass.name << "': output " << i << " shape changed to "
            << result.outputs[i].shape() << " from " << baseline[i].shape();
        const double err = relative_error(baseline[i], result.outputs[i]);
        TEMCO_CHECK_AS(err <= options_.oracle_tolerance, NumericError)
            << "after pass '" << pass.name << "': output " << i << " drifted by relative error "
            << err << " (tolerance " << options_.oracle_tolerance << ")";
      }
      TEMCO_DEBUG() << "oracle: pass '" << pass.name << "' preserved " << baseline.size()
                    << " output(s)";
    }

    current = std::move(next);
  }
  return current;
}

}  // namespace temco::core
