// Client-visible accounting invariant shared by the serving suites
// (test_serve, test_fleet, test_fault_tolerance, test_chaos).
#pragma once

#include <gtest/gtest.h>

#include "serve/fleet.hpp"

namespace temco {

/// After shutdown(true), every accepted request of every live model has
/// resolved into exactly one terminal counter, and nothing is left claimed
/// or queued.
inline void expect_resolution_partition(const serve::FleetServer& fleet) {
  for (const serve::metrics::ModelSnapshot& s : fleet.snapshot()) {
    EXPECT_EQ(s.accepted,
              s.completed + s.failed + s.cancelled + s.deadline_expired + s.hung_requests)
        << s.name << ": accepted requests must partition into the terminal outcome counters";
    EXPECT_EQ(s.in_flight, 0) << s.name;
    EXPECT_EQ(s.queue_depth, 0) << s.name;
  }
}

}  // namespace temco
