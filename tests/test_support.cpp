// Support library: checks, RNG determinism, formatting.
#include <gtest/gtest.h>

#include <set>

#include "support/bytes.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace temco {
namespace {

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(TEMCO_CHECK(1 + 1 == 2) << "never evaluated");
}

TEST(CheckTest, FailingCheckThrowsWithDetail) {
  try {
    TEMCO_CHECK(false) << "custom detail " << 42;
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("custom detail 42"), std::string::npos);
    EXPECT_NE(message.find("test_support.cpp"), std::string::npos);
  }
}

TEST(CheckTest, FailMacroAlwaysThrows) {
  EXPECT_THROW(TEMCO_FAIL() << "unreachable", Error);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split();
  // The child stream should not be a shifted copy of the parent stream.
  std::set<std::uint64_t> parent_values;
  for (int i = 0; i < 50; ++i) parent_values.insert(parent());
  int collisions = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent_values.count(child()) != 0) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(RngTest, UniformInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.uniform();
    EXPECT_GE(u, 0.0f);
    EXPECT_LT(u, 1.0f);
  }
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(u, -2.0f);
    EXPECT_LT(u, 3.0f);
  }
}

TEST(RngTest, NormalHasSaneMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(BytesTest, FormatsUnits) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.00 MiB");
  EXPECT_EQ(format_bytes(1536ull * 1024 * 1024), "1.50 GiB");
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.elapsed_seconds(), 0.0);
  EXPECT_GE(timer.elapsed_ms(), timer.elapsed_seconds());  // ms >= s numerically for t >= 0
}

}  // namespace
}  // namespace temco
