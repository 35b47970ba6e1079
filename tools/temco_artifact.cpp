// temco_artifact: freeze, inspect, and regenerate serving artifacts.
//
//   temco_artifact save <model> <path> [options]   compile a zoo model and
//                                                  freeze it to an artifact
//   temco_artifact info <path> [--json]            load (full validation) and
//                                                  print an artifact summary;
//                                                  --json emits a machine-
//                                                  readable slab/budget
//                                                  report
//   temco_artifact golden <path>                   write the canonical tiny
//                                                  artifact the version-skew
//                                                  test pins (deterministic
//                                                  per ISA tier)
//
// save options:
//   --image N        input resolution            (default 32)
//   --width F        channel width multiplier    (default 0.125)
//   --classes N      classifier width            (default 10)
//   --ratio F        decomposition rank ratio    (default 0.25; 0 = skip)
//   --max-batch N    largest batch a session runs (default 4)
//   --no-optimize    skip the TeMCO pipeline (baseline artifact)
//   --max-arena-bytes N   arena budget for the schedule search (0 = off);
//                         compile fails with ResourceExhaustedError naming the
//                         best achievable slab when the budget is unmeetable
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "decomp/pass.hpp"
#include "models/zoo.hpp"
#include "serve/artifact.hpp"
#include "serve/compiled_model.hpp"
#include "support/error.hpp"
#include "support/mmap.hpp"

namespace {

using namespace temco;

int usage() {
  std::fprintf(stderr,
               "usage: temco_artifact save <model> <path> [--image N] [--width F]\n"
               "                      [--classes N] [--ratio F] [--max-batch N] [--no-optimize]\n"
               "                      [--max-arena-bytes N]\n"
               "       temco_artifact info <path> [--json]\n"
               "       temco_artifact golden <path>\n");
  return 2;
}

int cmd_save(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[0];
  const std::string path = argv[1];
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.125;
  config.classes = 10;
  config.seed = 123;
  double ratio = 0.25;
  serve::CompileOptions options;
  options.max_batch = 4;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) { std::exit(usage()); }
      return argv[++i];
    };
    if (arg == "--image") config.image = std::atoll(next());
    else if (arg == "--width") config.width = std::atof(next());
    else if (arg == "--classes") config.classes = std::atoll(next());
    else if (arg == "--ratio") ratio = std::atof(next());
    else if (arg == "--max-batch") options.max_batch = static_cast<std::size_t>(std::atoll(next()));
    else if (arg == "--no-optimize") options.optimize = false;
    else if (arg == "--max-arena-bytes") options.max_arena_bytes = std::atoll(next());
    else return usage();
  }

  ir::Graph graph = models::find_model(name).build(config);
  if (ratio > 0.0) {
    graph = decomp::decompose(graph, {.ratio = ratio}).graph;
  }
  const auto model = serve::CompiledModel::compile(graph, options);
  model->save(path);
  std::printf("saved %s -> %s (max_batch %zu, slab %lld B, packed %lld B)\n", name.c_str(),
              path.c_str(), model->max_batch(), static_cast<long long>(model->slab_bytes()),
              static_cast<long long>(model->packed_weight_bytes()));
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) return usage();
  bool json = false;
  const char* path = nullptr;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path == nullptr) return usage();
  const auto file = support::MappedFile::open(path);
  const auto model = serve::load_artifact(file);
  const std::int64_t budget = model->options().max_arena_bytes;
  if (json) {
    // Stable keys for capacity-planning scripts: everything the human
    // report prints.  arena_budget_bytes 0 means unconstrained.
    std::printf("{\n");
    std::printf("  \"artifact\": \"%s\",\n  \"bytes\": %zu,\n  \"mmapped\": %s,\n", path,
                file->size(), file->memory_mapped() ? "true" : "false");
    std::printf("  \"format_version\": %u,\n  \"pack_layout_version\": %u,\n",
                serve::kArtifactFormatVersion, model->pack_layout_version());
    std::printf("  \"kernel_isa\": \"%s\",\n  \"optimized\": %s,\n", model->kernel_isa_name(),
                model->options().optimize ? "true" : "false");
    std::printf("  \"max_batch\": %zu,\n  \"graph_nodes\": %zu,\n", model->max_batch(),
                model->graph(1).size());
    std::printf("  \"slab_bytes\": %lld,\n  \"arena_budget_bytes\": %lld,\n",
                static_cast<long long>(model->slab_bytes()), static_cast<long long>(budget));
    std::printf("  \"weight_bytes\": %lld,\n  \"packed_weight_bytes\": %lld,\n",
                static_cast<long long>(model->weight_bytes()),
                static_cast<long long>(model->packed_weight_bytes()));
    std::printf("  \"inputs\": %zu,\n  \"outputs\": %zu\n}\n", model->num_inputs(),
                model->num_outputs());
    return 0;
  }
  std::printf("artifact:        %s (%zu bytes, %s)\n", path, file->size(),
              file->memory_mapped() ? "mmapped" : "heap copy");
  std::printf("format version:  %u\n", serve::kArtifactFormatVersion);
  std::printf("pack layout:     v%u\n", model->pack_layout_version());
  std::printf("compiled isa:    %s\n", model->kernel_isa_name());
  std::printf("optimized:       %s\n", model->options().optimize ? "yes" : "no");
  std::printf("max batch:       %zu\n", model->max_batch());
  std::printf("graph nodes:     %zu\n", model->graph(1).size());
  // The memory geometry capacity planning needs: the one slab a session
  // allocates, which every batch runs in.
  std::printf("slab bytes:      %lld (every batch 1..%zu)\n",
              static_cast<long long>(model->slab_bytes()), model->max_batch());
  if (budget > 0) {
    std::printf("arena budget:    %lld (slab uses %.0f%%)\n", static_cast<long long>(budget),
                100.0 * static_cast<double>(model->slab_bytes()) / static_cast<double>(budget));
  } else {
    std::printf("arena budget:    unconstrained\n");
  }
  std::printf("weight bytes:    %lld\n", static_cast<long long>(model->weight_bytes()));
  std::printf("packed bytes:    %lld\n", static_cast<long long>(model->packed_weight_bytes()));
  std::printf("inputs/outputs:  %zu/%zu\n", model->num_inputs(), model->num_outputs());
  if (model->options().optimize) {
    std::printf("pipeline stats:  %s\n", model->stats().to_string().c_str());
  }
  return 0;
}

int cmd_golden(int argc, char** argv) {
  if (argc < 1) return usage();
  // The golden must regenerate bit-for-bit on any machine of the same ISA
  // tier (meta stamps the tier): a fixed model, seeded weights, and nothing
  // in the file that depends on the local thread pool.  See the version-bump
  // rule in serve/artifact.hpp before touching this.
  models::ModelConfig config;
  config.batch = 1;
  config.image = 32;
  config.width = 0.0625;
  config.classes = 4;
  config.seed = 20260808;
  serve::CompileOptions options;
  options.optimize = false;
  options.max_batch = 2;
  const ir::Graph graph = models::find_model("alexnet").build(config);
  const auto model = serve::CompiledModel::compile(graph, options);
  model->save(argv[0]);
  std::printf("golden artifact -> %s (%lld packed bytes)\n", argv[0],
              static_cast<long long>(model->packed_weight_bytes()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "save") return cmd_save(argc - 2, argv + 2);
    if (cmd == "info") return cmd_info(argc - 2, argv + 2);
    if (cmd == "golden") return cmd_golden(argc - 2, argv + 2);
  } catch (const temco::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
