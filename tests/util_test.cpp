#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/exact_memo.hpp"
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

TEST(RunningStatsTest, MergeMatchesCombinedStream) {
  Rng rng(5);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 3 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
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

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
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

// --- ExactMemo ---------------------------------------------------------------

// Key scalar, one double buffer and one int buffer; the value counts how
// many computations have run so a test can tell a hit from a miss.
using TestMemo = ExactMemo<int, int, double, int>;

struct MemoProbe {
  TestMemo memo;
  int computed = 0;

  explicit MemoProbe(std::size_t capacity) : memo(capacity) {}

  std::shared_ptr<const TestMemo::Entry> get(
      int key, const std::vector<double>& a,
      const std::vector<int>& b = {7}) {
    return memo.find_or_compute(key, [&] { return ++computed; }, a, b);
  }
};

TEST(ExactMemoTest, IdenticalInputsReturnTheSameEntry) {
  MemoProbe p(4);
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const auto first = p.get(1, a);
  const std::vector<double> copy = a;  // equal bytes, different storage
  const auto again = p.get(1, copy);
  EXPECT_EQ(first, again);
  EXPECT_EQ(p.computed, 1);
  EXPECT_EQ(again->value, 1);
  EXPECT_EQ(std::get<0>(again->inputs), a);
}

TEST(ExactMemoTest, AnyDifferenceMisses) {
  MemoProbe p(8);
  const std::vector<double> a = {1.0, 2.0, 3.0};
  p.get(1, a);

  std::vector<double> flipped = a;
  unsigned char* bytes = reinterpret_cast<unsigned char*>(flipped.data());
  bytes[sizeof(double) + 3] ^= 1;  // one byte of the middle element
  EXPECT_NE(p.get(1, flipped)->value, 1);
  EXPECT_EQ(p.computed, 2);

  p.get(2, a);  // key scalar differs
  EXPECT_EQ(p.computed, 3);
  p.get(1, a, {8});  // second buffer differs
  EXPECT_EQ(p.computed, 4);
  EXPECT_EQ(p.get(1, a)->value, 1);  // the original still hits
  EXPECT_EQ(p.computed, 4);
}

TEST(ExactMemoTest, NegativeZeroIsNotZero) {
  MemoProbe p(4);
  const auto pos = p.get(1, {0.0});
  const auto neg = p.get(1, {-0.0});
  EXPECT_NE(pos, neg);
  EXPECT_EQ(p.computed, 2);
}

TEST(ExactMemoTest, HashCollisionsDoNotShadowEachOther) {
  // Flipping the sign bit of two 8-byte words leaves the word-wise FNV
  // hash unchanged, so these two inputs collide.
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {-1.0, -2.0, 3.0};
  ASSERT_EQ(fnv1a_bytes(a.data(), sizeof(double) * a.size()),
            fnv1a_bytes(b.data(), sizeof(double) * b.size()));
  MemoProbe p(4);
  p.get(1, a);
  p.get(1, b);
  EXPECT_EQ(p.computed, 2);
  EXPECT_EQ(p.memo.size(), 2u);
  EXPECT_EQ(p.get(1, a)->value, 1);
  EXPECT_EQ(p.get(1, b)->value, 2);  // found past the colliding entry
  EXPECT_EQ(p.computed, 2);
  EXPECT_EQ(p.memo.size(), 2u);
}

TEST(ExactMemoTest, DifferentLengthsMiss) {
  MemoProbe p(8);
  p.get(1, {1.0, 2.0});
  p.get(1, {1.0, 2.0, 0.0});
  p.get(1, {1.0});
  EXPECT_EQ(p.computed, 3);
  // The same total byte count split differently across the two buffers
  // is a different input.
  p.get(1, {1.0}, {0, 0, 7});
  p.get(1, {1.0, 0.0}, {7});
  EXPECT_EQ(p.computed, 5);
}

TEST(ExactMemoTest, ZeroLengthInputsAreNeverStored) {
  MemoProbe p(4);
  const std::vector<double> none;  // data() may be null
  const auto first = p.get(1, none, {});
  const auto second = p.get(1, none, {});
  EXPECT_EQ(p.computed, 2);
  EXPECT_NE(first, second);
  EXPECT_EQ(first->value, 1);
  EXPECT_EQ(p.memo.size(), 0u);
  // One empty buffer next to a non-empty one is an ordinary key.
  p.get(1, none, {3});
  p.get(1, none, {3});
  EXPECT_EQ(p.computed, 3);
  EXPECT_EQ(p.memo.size(), 1u);
}

TEST(ExactMemoTest, EvictsOldestAtCapacity) {
  MemoProbe p(2);
  p.get(1, {1.0});
  p.get(1, {2.0});
  EXPECT_EQ(p.memo.size(), 2u);
  p.get(1, {3.0});  // evicts {1.0}
  EXPECT_EQ(p.memo.size(), 2u);
  EXPECT_EQ(p.computed, 3);
  p.get(1, {3.0});
  p.get(1, {2.0});
  EXPECT_EQ(p.computed, 3);
  EXPECT_EQ(p.get(1, {1.0})->value, 4);
}

TEST(ExactMemoTest, HeldEntryOutlivesEviction) {
  MemoProbe p(1);
  const auto held = p.get(1, {1.0, 2.0});
  p.get(1, {3.0});  // evicts the held entry from the memo
  EXPECT_EQ(p.memo.size(), 1u);
  EXPECT_EQ(held->value, 1);
  EXPECT_EQ(std::get<0>(held->inputs), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(held.use_count(), 1);
}

TEST(ExactMemoTest, ConcurrentLookupsAndInserts) {
  // Four threads share one small memo: some keys are common to every
  // thread (hits on other threads' entries), some private (inserts that
  // keep evicting). Every returned entry must hold its own inputs' value.
  ExactMemo<int, double, double> memo(8);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const double x = (i % 3 == 0) ? static_cast<double>(i % 12)
                                      : static_cast<double>(1000 * t + i);
        const std::vector<double> in(16, x);
        const auto e = memo.find_or_compute(
            0, [&] { return 2.0 * x; }, in);
        if (e->value != 2.0 * x || std::get<0>(e->inputs) != in) ++wrong;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_LE(memo.size(), 8u);
}

}  // namespace
}  // namespace repro::util
