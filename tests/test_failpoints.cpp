// Fault-injection coverage: every failpoint registered in the process is
// fired, across several zoo models, and must surface as its documented
// temco::Error subtype — never UB, aborts, or foreign exceptions.  Also
// covers the arena canary protocol (a seeded out-of-slot write is detected
// at free time), NaN poisoning vs. check_numerics, counted arming, and
// exception propagation through the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "decomp/pass.hpp"
#include "kernels/gemm.hpp"
#include "models/zoo.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/budget.hpp"
#include "runtime/executor.hpp"
#include "serve/compiled_model.hpp"
#include "serve/session.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/rng.hpp"

namespace temco {
namespace {

models::ModelConfig tiny_config() {
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.25;
  config.classes = 10;
  config.seed = 77;
  return config;
}

ir::Graph tiny_decomposed(const std::string& name) {
  const auto& spec = models::find_model(name);
  decomp::DecomposeOptions options;
  options.ratio = 0.25;
  return decomp::decompose(spec.build(tiny_config()), options).graph;
}

Tensor input_for(const ir::Graph& graph) {
  Rng rng(9);
  return Tensor::random_normal(graph.node(0).out_shape, rng);
}

/// Minimal serving artifact for the serve.* failpoint drivers: batch 1, no
/// re-optimization (the graph is already decomposed; the sites under test
/// live on the session execution path, not in the pipeline).
std::shared_ptr<const serve::CompiledModel> serve_artifact(const ir::Graph& graph) {
  serve::CompileOptions options;
  options.optimize = false;
  options.max_batch = 1;
  return serve::CompiledModel::compile(graph, options);
}

std::int64_t remaining_for(const std::string& name) {
  for (const failpoints::SiteStatus& status : failpoints::list()) {
    if (status.name == name) return status.remaining;
  }
  return -999;
}

/// Drives the code path hosting a failpoint and classifies what escaped.
/// Returns the empty string on success (site armed but path not reached
/// would show up this way and fail the test).
enum class Outcome { kNoError, kExpectedType, kOtherTemcoError, kForeignException };

template <typename ExpectedError>
Outcome drive(const std::function<void()>& fn) {
  try {
    fn();
    return Outcome::kNoError;
  } catch (const Error& e) {
    // One handler classifies both, so ExpectedError = Error does not leave
    // an unreachable second handler behind.
    return dynamic_cast<const ExpectedError*>(&e) != nullptr ? Outcome::kExpectedType
                                                             : Outcome::kOtherTemcoError;
  } catch (...) {
    return Outcome::kForeignException;
  }
}

struct FailpointCase {
  /// Runs the library path containing the site and reports what it threw.
  std::function<Outcome(const ir::Graph&)> run;
  /// What the armed site is documented to do.  Most faults surface as a typed
  /// error; graceful-degradation sites (gemm.dispatch) must NOT throw — their
  /// driver verifies the degraded behavior and returns kNoError on success.
  Outcome expected = Outcome::kExpectedType;
};

/// One driver per failpoint name.  The coverage test below asserts this
/// table matches failpoints::registered() exactly, so adding a new Site
/// without a driver fails loudly.
const std::map<std::string, FailpointCase>& failpoint_cases() {
  static const std::map<std::string, FailpointCase> cases = {
      {"allocator.oom",
       {[](const ir::Graph& g) {
         return drive<ResourceExhaustedError>(
             [&] { runtime::execute(g, {input_for(g)}); });
       }}},
      {"arena.packing_overflow",
       {[](const ir::Graph& g) {
         return drive<ResourceExhaustedError>(
             [&] { runtime::Executor ex(g, {.use_arena = true}); });
       }}},
      {"executor.slab_oom",
       {[](const ir::Graph& g) {
         return drive<ResourceExhaustedError>(
             [&] { runtime::Executor ex(g, {.use_arena = true}); });
       }}},
      {"kernels.poison_nan",
       {[](const ir::Graph& g) {
         return drive<NumericError>(
             [&] { runtime::execute(g, {input_for(g)}, {.check_numerics = true}); });
       }}},
      {"executor.oob_write",
       {[](const ir::Graph& g) {
         return drive<MemoryCorruptionError>([&] {
           runtime::execute(g, {input_for(g)}, {.use_arena = true, .arena_canaries = true});
         });
       }}},
      {"scheduler.drop_node",
       {[](const ir::Graph& g) {
         return drive<InvalidGraphError>([&] { runtime::schedule_for_budget(g); });
       }}},
      {"parallel.task_throw",
       {[](const ir::Graph& g) {
         return drive<NumericError>([&] { runtime::execute(g, {input_for(g)}); });
       }}},
      // Simulated unsupported-ISA dispatch failure: the engine must degrade
      // to the scalar oracle (logged, never thrown) and still compute correct
      // results.  The driver checks both; any escape fails the kNoError
      // expectation below.
      {"gemm.dispatch",
       {[](const ir::Graph&) {
          return drive<Error>([&] {
            namespace gemm = kernels::gemm;
            TEMCO_CHECK(gemm::active_isa() == support::Isa::kScalar)
                << "armed gemm.dispatch did not force the scalar tier (got "
                << gemm::active_isa_name() << ")";
            Rng rng(123);
            const Tensor a = Tensor::random_normal(Shape({37, 23}), rng);
            const Tensor b = Tensor::random_normal(Shape({23, 29}), rng);
            Tensor degraded = Tensor::zeros(Shape({37, 29}));
            gemm::gemm_direct(a.data(), 23, 37, 23, b.data(), 29, 29, degraded.data(), 29);
            // The degraded result must be the scalar oracle's, element-exact.
            Tensor oracle = Tensor::zeros(Shape({37, 29}));
            for (std::int64_t i = 0; i < 37; ++i) {
              for (std::int64_t j = 0; j < 29; ++j) {
                float acc = 0.0f;
                for (std::int64_t kk = 0; kk < 23; ++kk) {
                  acc += a[i * 23 + kk] * b[kk * 29 + j];
                }
                oracle[i * 29 + j] = acc;
              }
            }
            for (std::int64_t i = 0; i < degraded.numel(); ++i) {
              TEMCO_CHECK(std::abs(degraded[i] - oracle[i]) <=
                          1e-4f * std::max(1.0f, std::abs(oracle[i])))
                  << "scalar fallback produced a wrong element at " << i;
            }
          });
        },
        Outcome::kNoError}},
      // Injected transient execution fault on the serving path: the typed
      // class the server's retry loop keys on.
      {"serve.exec_transient",
       {[](const ir::Graph& g) {
         return drive<TransientFaultError>([&] {
           serve::Session session(serve_artifact(g));
           session.run({input_for(g)});
         });
       }}},
      // Simulated hung batch: parks until the session's cancel token stops
      // it.  A pre-expired deadline releases it deterministically (no
      // watchdog, no sleeps); the counted re-arm proves the site itself
      // fired — with a deadline set, the executor would throw the same type
      // even if the wedge were dead code.
      {"serve.wedge_batch",
       {[](const ir::Graph& g) {
         return drive<DeadlineExceededError>([&] {
           serve::Session session(serve_artifact(g));
           failpoints::arm("serve.wedge_batch", 1);
           session.cancel_token().set_deadline(std::chrono::steady_clock::now());
           try {
             session.run({input_for(g)});
           } catch (...) {
             TEMCO_CHECK(remaining_for("serve.wedge_batch") == 0)
                 << "serve.wedge_batch never fired; the error came from elsewhere";
             throw;
           }
         });
       }}},
  };
  return cases;
}

// ---- registry coverage -----------------------------------------------------

TEST(FailpointRegistryTest, EveryRegisteredFailpointHasADriver) {
  std::vector<std::string> expected;
  for (const auto& [name, c] : failpoint_cases()) expected.push_back(name);
  std::vector<std::string> actual = failpoints::registered();
  std::sort(actual.begin(), actual.end());
  EXPECT_EQ(actual, expected)
      << "a Site was added or removed without updating the fault-injection table";
}

// ---- every failpoint, across three architectures ---------------------------

class FailpointZooTest : public ::testing::TestWithParam<const char*> {
 protected:
  void TearDown() override { failpoints::disarm_all(); }
};

TEST_P(FailpointZooTest, EveryFailpointSurfacesAsItsTypedError) {
  const auto graph = tiny_decomposed(GetParam());
  for (const auto& [name, c] : failpoint_cases()) {
    failpoints::ScopedArm arm(name);
    const Outcome outcome = c.run(graph);
    EXPECT_EQ(outcome, c.expected)
        << name << " on " << GetParam() << ": "
        << (outcome == Outcome::kNoError           ? "site never fired (or degradation check"
                                                     " failed to detect a fault)"
            : outcome == Outcome::kOtherTemcoError ? "threw the wrong temco::Error subtype"
            : outcome == Outcome::kExpectedType    ? "threw where graceful degradation was"
                                                     " documented"
                                                   : "threw a non-temco exception");
  }
}

// Three families with different structure: linear chain (VGG), residual adds
// (ResNet), dense concats (DenseNet).
INSTANTIATE_TEST_SUITE_P(ThreeModels, FailpointZooTest,
                         ::testing::Values("vgg11", "resnet18", "densenet121"));

// ---- failpoints are cheap no-ops when disarmed -----------------------------

TEST(FailpointTest, DisarmedSitesDoNotFire) {
  const auto graph = tiny_decomposed("vgg11");
  // No arming: everything must run cleanly end to end, all regimes.
  EXPECT_NO_THROW(runtime::execute(graph, {input_for(graph)}));
  EXPECT_NO_THROW(runtime::execute(graph, {input_for(graph)},
                                   {.use_arena = true, .check_numerics = true,
                                    .arena_canaries = true}));
}

TEST(FailpointTest, CountedArmFiresExactlyNTimes) {
  failpoints::Site site{"allocator.oom"};  // shares state with the library site
  failpoints::arm("allocator.oom", 2);
  EXPECT_TRUE(site.fire());
  EXPECT_TRUE(site.fire());
  EXPECT_FALSE(site.fire());  // count exhausted: self-disarmed
  EXPECT_FALSE(site.fire());
}

TEST(FailpointTest, ScopedArmDisarmsOnExit) {
  failpoints::Site site{"allocator.oom"};
  {
    failpoints::ScopedArm arm("allocator.oom");
    EXPECT_TRUE(site.fire());
  }
  EXPECT_FALSE(site.fire());
}

// ---- registry iteration and delayed arming ---------------------------------

TEST(FailpointTest, ListReportsEveryRegisteredSiteWithArmingState) {
  failpoints::disarm_all();
  failpoints::arm("allocator.oom", 3);
  failpoints::arm_after("kernels.poison_nan", 5, 2);
  bool saw_oom = false;
  bool saw_nan = false;
  for (const failpoints::SiteStatus& status : failpoints::list()) {
    if (status.name == "allocator.oom") {
      saw_oom = true;
      EXPECT_EQ(status.remaining, 3);
      EXPECT_EQ(status.skips, 0);
      EXPECT_TRUE(status.armed());
    } else if (status.name == "kernels.poison_nan") {
      saw_nan = true;
      EXPECT_EQ(status.remaining, 2);
      EXPECT_EQ(status.skips, 5);
    } else {
      EXPECT_FALSE(status.armed()) << status.name;
    }
  }
  EXPECT_TRUE(saw_oom);
  EXPECT_TRUE(saw_nan);
  EXPECT_EQ(failpoints::list().size(), failpoints::registered().size());
  failpoints::disarm_all();
}

TEST(FailpointTest, ArmAfterSkipsThenFiresExactlyOnce) {
  failpoints::Site site{"allocator.oom"};
  failpoints::arm_after("allocator.oom", 3);
  EXPECT_FALSE(site.fire());  // skip 1
  EXPECT_FALSE(site.fire());  // skip 2
  EXPECT_FALSE(site.fire());  // skip 3
  EXPECT_TRUE(site.fire());   // the one-shot
  EXPECT_FALSE(site.fire());  // exhausted: self-disarmed
  EXPECT_FALSE(site.fire());
}

TEST(FailpointTest, PlainArmClearsPendingSkips) {
  failpoints::Site site{"allocator.oom"};
  failpoints::arm_after("allocator.oom", 10);
  failpoints::arm("allocator.oom", 1);  // replaces the delayed plan outright
  EXPECT_TRUE(site.fire());
  EXPECT_FALSE(site.fire());
}

// ---- env-spec parsing: strict, typed rejection -----------------------------

TEST(FailpointSpecTest, ValidSpecArmsEveryEntry) {
  failpoints::disarm_all();
  failpoints::apply_spec("allocator.oom=2,kernels.poison_nan");
  EXPECT_EQ(remaining_for("allocator.oom"), 2);
  EXPECT_EQ(remaining_for("kernels.poison_nan"), -1);  // no count: always
  failpoints::disarm_all();
}

TEST(FailpointSpecTest, MalformedSpecsThrowTypedAndArmNothing) {
  failpoints::disarm_all();
  EXPECT_THROW(failpoints::apply_spec("allocator.oom=abc"), Error);
  EXPECT_THROW(failpoints::apply_spec("allocator.oom="), Error);
  EXPECT_THROW(failpoints::apply_spec("allocator.oom=3x"), Error);
  EXPECT_THROW(failpoints::apply_spec("allocator.oom=0"), Error);
  EXPECT_THROW(failpoints::apply_spec("=3"), Error);
  EXPECT_THROW(failpoints::apply_spec("allocator.oom,,kernels.poison_nan"), Error);
  // Rejection is atomic: the valid prefix of a bad spec must not be armed.
  for (const failpoints::SiteStatus& status : failpoints::list()) {
    EXPECT_FALSE(status.armed()) << status.name << " armed by a rejected spec";
  }
}

TEST(FailpointSpecTest, RejectionNamesTheOffendingEntry) {
  try {
    failpoints::apply_spec("allocator.oom=banana");
    FAIL() << "malformed count was silently accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("allocator.oom"), std::string::npos) << e.what();
  }
}

// ---- arena canaries detect a seeded out-of-slot write ----------------------

TEST(ArenaCanaryTest, SeededOutOfSlotWriteDetectedAtFreeTime) {
  const auto graph = tiny_decomposed("vgg11");
  failpoints::ScopedArm arm("executor.oob_write", 1);  // stomp exactly one guard band
  try {
    runtime::execute(graph, {input_for(graph)}, {.use_arena = true, .arena_canaries = true});
    FAIL() << "canary did not detect the seeded out-of-slot write";
  } catch (const MemoryCorruptionError& e) {
    // The error names both the corrupted value and the step that exposed it.
    EXPECT_NE(std::string(e.what()).find("guard band"), std::string::npos) << e.what();
  }
}

TEST(ArenaCanaryTest, NarrowRunOverflowIsCaught) {
  // A batch-4 executor running one row checks the guard band right after
  // that row's payload, not after the four rows the block was planned for.
  const auto b1 = tiny_decomposed("vgg11");
  const auto b4 = ir::rebatched(b1, 4);
  runtime::Executor executor(b4, {.use_arena = true, .arena_canaries = true});
  failpoints::ScopedArm arm("executor.oob_write", 1);
  EXPECT_THROW(executor.run({input_for(b1)}), MemoryCorruptionError);
  EXPECT_EQ(executor.stomped_band_bytes(), 1) << "the failpoint stomps exactly one byte";
}

TEST(ArenaCanaryTest, CanariesDoNotChangeResults) {
  const auto graph = tiny_decomposed("resnet18");
  const Tensor x = input_for(graph);
  const auto plain = runtime::execute(graph, {x}, {.use_arena = true}).outputs[0];
  const auto guarded =
      runtime::execute(graph, {x}, {.use_arena = true, .arena_canaries = true}).outputs[0];
  ASSERT_EQ(plain.shape(), guarded.shape());
  for (std::int64_t i = 0; i < plain.numel(); ++i) {
    ASSERT_EQ(plain[i], guarded[i]) << "canary bands perturbed element " << i;
  }
}

// ---- NaN poisoning vs. check_numerics --------------------------------------

TEST(CheckNumericsTest, PoisonedKernelOutputNamesTheNode) {
  const auto graph = tiny_decomposed("vgg11");
  failpoints::ScopedArm arm("kernels.poison_nan", 1);  // poison the first node only
  try {
    runtime::execute(graph, {input_for(graph)}, {.check_numerics = true});
    FAIL() << "check_numerics missed an injected NaN";
  } catch (const NumericError& e) {
    const std::string what = e.what();
    // The first non-input node produced the NaN; its name must appear.
    std::string first_node_name;
    for (const auto& node : graph.nodes()) {
      if (node.kind != ir::OpKind::kInput) {
        first_node_name = node.name;
        break;
      }
    }
    ASSERT_FALSE(first_node_name.empty());
    EXPECT_NE(what.find(first_node_name), std::string::npos)
        << "error does not name the poisoned node: " << what;
  }
}

TEST(CheckNumericsTest, WithoutTheOptionPoisonFlowsThrough) {
  // Documents the contract: check_numerics is opt-in; the poison is not
  // silently scrubbed, it propagates into the outputs.
  const auto graph = tiny_decomposed("vgg11");
  failpoints::ScopedArm arm("kernels.poison_nan", 1);
  const auto out = runtime::execute(graph, {input_for(graph)}).outputs[0];
  bool has_nonfinite = false;
  for (std::int64_t i = 0; i < out.numel() && !has_nonfinite; ++i) {
    has_nonfinite = !std::isfinite(out[i]);
  }
  // Softmax heads can squash NaN rows to NaN — either way no throw happened,
  // which is the property under test; the poison check is best-effort.
  SUCCEED();
  (void)has_nonfinite;
}

// ---- thread-pool exception propagation -------------------------------------

TEST(ThreadPoolFaultTest, InjectedTaskFaultSurfacesOnceAndPoolStaysUsable) {
  ThreadPool pool(4);
  {
    failpoints::ScopedArm arm("parallel.task_throw", 1);
    int errors = 0;
    try {
      pool.run(64, [](std::size_t) {});
    } catch (const NumericError&) {
      ++errors;
    }
    EXPECT_EQ(errors, 1) << "exactly one structured error must reach the caller";
  }
  // The pool must be fully reusable after a faulted batch.
  std::atomic<int> count{0};
  pool.run(64, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolFaultTest, UserTaskExceptionPropagatesFirstOnly) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.run(128, [&](std::size_t i) {
      ran.fetch_add(1, std::memory_order_relaxed);
      if (i == 17) throw NumericError("task 17 failed");
    });
    FAIL() << "task exception was swallowed";
  } catch (const NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("task 17"), std::string::npos);
  }
  // Reusable afterwards, repeatedly.
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> count{0};
    pool.run(32, [&](std::size_t) { count.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST(ThreadPoolFaultTest, GlobalPoolSurvivesInjectedFaults) {
  // The kernels all share ThreadPool::global(); a faulted inference must not
  // poison it for the next one.
  const auto graph = tiny_decomposed("vgg11");
  const Tensor x = input_for(graph);
  {
    failpoints::ScopedArm arm("parallel.task_throw", 1);
    EXPECT_THROW(runtime::execute(graph, {x}), NumericError);
  }
  EXPECT_NO_THROW(runtime::execute(graph, {x}));
}

}  // namespace
}  // namespace temco
