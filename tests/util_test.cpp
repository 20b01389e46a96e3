#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/error.hpp"
#include "util/flatpack.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace repro::util {
namespace {

TEST(Vec3Test, Arithmetic) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
}

TEST(Vec3Test, CrossProductIsOrthogonal) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{-2, 0.5, 4};
  const Vec3 c = cross(a, b);
  EXPECT_NEAR(dot(a, c), 0.0, 1e-12);
  EXPECT_NEAR(dot(b, c), 0.0, 1e-12);
}

TEST(Vec3Test, NormAndNormalize) {
  const Vec3 a{3, 4, 0};
  EXPECT_DOUBLE_EQ(norm(a), 5.0);
  EXPECT_DOUBLE_EQ(norm2(a), 25.0);
  EXPECT_NEAR(norm(normalized(a)), 1.0, 1e-15);
}

TEST(Vec3Test, IndexAccess) {
  Vec3 a{7, 8, 9};
  EXPECT_DOUBLE_EQ(a[0], 7);
  EXPECT_DOUBLE_EQ(a[1], 8);
  EXPECT_DOUBLE_EQ(a[2], 9);
  a[1] = -1;
  EXPECT_DOUBLE_EQ(a.y, -1);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanAndVariance) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(2.5));
  EXPECT_NEAR(s.mean(), 2.5, 0.1);
  EXPECT_GE(s.min(), 0.0);
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(23);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(MixSeedTest, DistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      seeds.insert(mix_seed(a, b));
    }
  }
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(RunningStatsTest, Basic) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(TableTest, AlignedOutput) {
  Table t({"p", "time"});
  t.add_row({"1", "6.5"});
  t.add_row({"16", "0.81"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("p"), std::string::npos);
  EXPECT_NE(s.find("0.81"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TableTest, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

TEST(FlatpackTest, FlattenLaysOutComponentsInOrder) {
  const std::vector<Vec3> v = {{1, 2, 3}, {-4, 5.5, 0}};
  std::vector<double> flat;
  flatten(v, flat);
  const std::vector<double> expected = {1, 2, 3, -4, 5.5, 0};
  EXPECT_EQ(flat, expected);
}

TEST(FlatpackTest, RoundTripsAndResizes) {
  std::vector<Vec3> v;
  for (int i = 0; i < 17; ++i) {
    v.push_back(Vec3{i * 1.5, -i * 0.25, i * i * 1e-3});
  }
  std::vector<double> flat(3, -999.0);  // wrong size: flatten must resize
  flatten(v, flat);
  ASSERT_EQ(flat.size(), 3 * v.size());
  std::vector<Vec3> back(v.size());
  unflatten(flat, back);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(back[i], v[i]) << "atom " << i;
  }
}

TEST(FlatpackTest, UnflattenReadsOnlyWhatTheTargetNeeds) {
  const std::vector<double> flat = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<Vec3> v(2);  // shorter target: trailing doubles ignored
  unflatten(flat, v);
  EXPECT_EQ(v[0], Vec3(1, 2, 3));
  EXPECT_EQ(v[1], Vec3(4, 5, 6));
}

TEST(ErrorTest, RequireThrowsWithContext) {
  try {
    REPRO_REQUIRE(1 == 2, "math is broken");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace repro::util
