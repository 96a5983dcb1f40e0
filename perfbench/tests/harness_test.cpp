// The benchmark harness's own logic, on fixed inputs: seeded op streams,
// the Zipf picker, the op mixes, percentiles and span self time.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "harness.hpp"

namespace perfbench {
namespace {

bool same(const Op& a, const Op& b) {
  return a.kind == b.kind && a.user == b.user && a.target == b.target &&
         a.choice == b.choice && a.value == b.value;
}

TEST(OpStream, SameSeedGivesSameSequence) {
  for (const Workload w :
       {Workload::kBrowse, Workload::kEdit, Workload::kExplore}) {
    OpStream a(w, 42, 3);
    OpStream b(w, 42, 3);
    for (int i = 0; i < 10000; ++i) {
      ASSERT_TRUE(same(a.next(), b.next())) << workload_name(w) << " op " << i;
    }
  }
}

TEST(OpStream, SeedsAndStreamsDiffer) {
  OpStream base(Workload::kBrowse, 42, 0);
  OpStream other_seed(Workload::kBrowse, 43, 0);
  OpStream other_stream(Workload::kBrowse, 42, 1);
  int differ_seed = 0;
  int differ_stream = 0;
  for (int i = 0; i < 1000; ++i) {
    const Op op = base.next();
    differ_seed += same(op, other_seed.next()) ? 0 : 1;
    differ_stream += same(op, other_stream.next()) ? 0 : 1;
  }
  EXPECT_GT(differ_seed, 500);
  EXPECT_GT(differ_stream, 500);
}

TEST(OpMix, SharesMatchTheSpecAndNoneSitsNearHalf) {
  for (const Workload w :
       {Workload::kBrowse, Workload::kEdit, Workload::kExplore}) {
    double total = 0;
    for (const MixEntry& e : op_mix(w)) {
      total += e.share;
      EXPECT_TRUE(e.share <= 0.4 || e.share >= 0.6)
          << op_name(e.kind) << " sits near half";
    }
    EXPECT_NEAR(total, 1.0, 1e-12) << workload_name(w);

    constexpr int kOps = 200000;
    std::map<OpKind, int> seen;
    OpStream ops(w, 7, 0);
    for (int i = 0; i < kOps; ++i) ++seen[ops.next().kind];
    for (const MixEntry& e : op_mix(w)) {
      // 4.5 standard deviations of a binomial share.
      const double sd = std::sqrt(e.share * (1 - e.share) / kOps);
      EXPECT_NEAR(static_cast<double>(seen[e.kind]) / kOps, e.share, 4.5 * sd)
          << workload_name(w) << " " << op_name(e.kind);
    }
  }
}

TEST(OpMix, EditKeepsInfoPadAtThreeInFour) {
  double infopad = 0;
  for (const MixEntry& e : op_mix(Workload::kEdit)) {
    if (e.kind == OpKind::kInfoPadSetRow || e.kind == OpKind::kInfoPadPlay) {
      infopad += e.share;
    }
  }
  EXPECT_NEAR(infopad, 0.75, 1e-12);
}

TEST(OpMix, BrowseHasOneEditInFiftyAndOneNewUserInAHundred) {
  std::map<OpKind, double> share;
  for (const MixEntry& e : op_mix(Workload::kBrowse)) share[e.kind] = e.share;
  EXPECT_NEAR(share[OpKind::kOtherEdit], 0.02, 1e-12);
  EXPECT_NEAR(share[OpKind::kNewUser], 0.01, 1e-12);
}

TEST(Zipf, HeadMassIsTheNormalizedHarmonicSum) {
  const Zipf z(1003, 1.1);
  double norm = 0;
  for (int k = 1; k <= 1003; ++k) norm += std::pow(k, -1.1);
  double head = 0;
  for (int k = 1; k <= 5; ++k) head += std::pow(k, -1.1);
  EXPECT_NEAR(z.head_mass(5), head / norm, 1e-12);
  EXPECT_DOUBLE_EQ(z.head_mass(0), 0.0);
  EXPECT_NEAR(z.head_mass(1003), 1.0, 1e-12);
}

TEST(Zipf, SamplesFollowTheDistribution) {
  const Zipf z(1003, 1.1);
  Rng rng(11);
  constexpr int kSamples = 200000;
  std::vector<int> counts(1003);
  for (int i = 0; i < kSamples; ++i) {
    const std::size_t k = z.sample(rng);
    ASSERT_LT(k, counts.size());
    ++counts[k];
  }
  int head = 0;
  for (std::size_t k = 0; k < 5; ++k) {
    const double p = z.head_mass(k + 1) - z.head_mass(k);
    const double sd = std::sqrt(p * (1 - p) / kSamples);
    EXPECT_NEAR(static_cast<double>(counts[k]) / kSamples, p, 4.5 * sd)
        << "rank " << k;
    head += counts[k];
  }
  const double p5 = z.head_mass(5);
  EXPECT_NEAR(static_cast<double>(head) / kSamples, p5,
              4.5 * std::sqrt(p5 * (1 - p5) / kSamples));
}

TEST(RoundSig, KeepsTheRequestedDigits) {
  EXPECT_DOUBLE_EQ(round_sig(1.23456, 4), 1.235);
  EXPECT_DOUBLE_EQ(round_sig(3456789.0, 4), 3457000.0);
  EXPECT_DOUBLE_EQ(round_sig(0.000123456, 3), 0.000123);
  EXPECT_DOUBLE_EQ(round_sig(0.0, 4), 0.0);
}

TEST(Percentile, NearestRankOnFixedInputs) {
  const std::vector<double> v = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9);
  EXPECT_DOUBLE_EQ(percentile(v, 91), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(median({4.0}), 4);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0}), 1);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  const std::vector<Span> spans = {
      {1, 0, 1, "op", 0, 100},
      {2, 1, 1, "http", 10, 30},
      {3, 1, 1, "http", 20, 50},   // overlaps span 2: counted once
      {4, 1, 1, "http", 60, 70},
      {5, 1, 1, "http", 90, 120},  // only [90, 100) lies inside the parent
      {6, 2, 1, "web.handle", 12, 28},
      {7, 0, 2, "op", 200, 210},   // no children
  };
  const std::vector<std::int64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - (40 + 10 + 10));  // grandchild 6 not counted
  EXPECT_EQ(self[1], 20 - 16);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[5], 16);
  EXPECT_EQ(self[6], 10);
}

}  // namespace
}  // namespace perfbench
