// The host-speed reference the offline timings and every set-up time are
// divided by.
#include <time.h>

#include "bench.hpp"

namespace temco::bench {

namespace {

constexpr int kLanes = 32;
constexpr int kMultiplyAddSteps = 40000;

/// CPU time of one reference pass on the sizing host when it ran fastest
/// (see README.md); a slowdown of 1 reads the program's times as they were
/// on that host.
constexpr double kNominalPassMs = 0.2;

double thread_cpu_ms() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 + static_cast<double>(now.tv_nsec) * 1e-6;
}

volatile float g_sink = 0.0f;

}  // namespace

double host_slowdown() {
  const double start = thread_cpu_ms();
  float lanes[kLanes];
  for (int j = 0; j < kLanes; ++j) lanes[j] = 0.001f * static_cast<float>(j);
  for (int i = 0; i < kMultiplyAddSteps; ++i) {
    for (float& lane : lanes) lane = lane * 0.9999f + 0.5f;
  }
  g_sink = lanes[kLanes - 1];
  return (thread_cpu_ms() - start) / kNominalPassMs;
}

SteadyStopwatch::SteadyStopwatch() : slowdown_(host_slowdown()) { last_ = Clock::now(); }

void SteadyStopwatch::lap() {
  const Clock::time_point now = Clock::now();
  const double slowdown = host_slowdown();
  seconds_ += std::chrono::duration<double>(now - last_).count() / ((slowdown_ + slowdown) / 2);
  slowdown_ = slowdown;
  last_ = Clock::now();
}

}  // namespace temco::bench
