// Checks the benchmark's arithmetic on hand-made inputs: the percentile
// rule, span self time, the ledger-sum check and per-op normalisation.
#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

namespace e2e {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, TooFewSamplesSupportNoPercentile) {
  Summary s = Summarize(OneTo(10));
  EXPECT_EQ(s.n, 10u);
  EXPECT_FALSE(s.ok());
}

TEST(PercentileRule, CapsAtP99WhenTheTailIsLongEnough) {
  // 1000 samples: p99 is rank 990, which leaves exactly 10 samples above.
  Summary s = Summarize(OneTo(1000));
  EXPECT_DOUBLE_EQ(s.high_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.high, 990.0);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
}

TEST(PercentileRule, FallsBackToTheHighestSupportedPercentile) {
  // 100 samples cannot support p99 (1 sample beyond); p90 leaves 10.
  Summary s = Summarize(OneTo(100));
  EXPECT_DOUBLE_EQ(s.high_pct, 90.0);
  EXPECT_DOUBLE_EQ(s.high, 90.0);
  // 11 samples: the smallest that supports any percentile.
  Summary t = Summarize(OneTo(11));
  EXPECT_NEAR(t.high_pct, 100.0 / 11.0, 1e-12);
  EXPECT_DOUBLE_EQ(t.high, 1.0);
}

TEST(PercentileRule, EveryReportedValueHasTenSamplesBeyondIt) {
  for (int n : {11, 12, 57, 288, 999, 1000, 1001, 5000}) {
    std::vector<double> v = OneTo(n);
    Summary s = Summarize(v);
    ASSERT_TRUE(s.ok()) << n;
    int beyond = static_cast<int>(std::count_if(v.begin(), v.end(),
                                                [&](double x) { return x > s.high; }));
    EXPECT_GE(beyond, 10) << n;
    EXPECT_LE(s.high_pct, 99.0) << n;
  }
}

TEST(PercentileRule, OrderOfInputDoesNotMatter) {
  std::vector<double> v = OneTo(200);
  std::reverse(v.begin(), v.end());
  Summary s = Summarize(v);
  EXPECT_DOUBLE_EQ(s.p50, 100.0);
  EXPECT_DOUBLE_EQ(s.high, 190.0);
}

Span MakeSpan(uint32_t id, uint32_t parent, int64_t start, int64_t end,
              const char* name = "s") {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.name = name;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100, "turn"),
      MakeSpan(2, 1, 10, 30, "xserver.poll"),
      MakeSpan(3, 1, 40, 90, "swm.process_events"),
      MakeSpan(4, 3, 50, 60, "grandchild"),  // Not a direct child of 1.
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50 - 10);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingAndEscapingChildrenCountOnce) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),
      MakeSpan(2, 1, 10, 50),
      MakeSpan(3, 1, 40, 60),    // Overlaps 2 by 10.
      MakeSpan(4, 1, 90, 120),   // Sticks out of the parent by 20.
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

TEST(LedgerSum, DisjointNestedChildrenBalance) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100, "turn"),   MakeSpan(2, 1, 0, 40, "idle"),
      MakeSpan(3, 1, 40, 70, "poll"),   MakeSpan(4, 1, 72, 100, "wm"),
      MakeSpan(5, 0, 200, 250, "turn"), MakeSpan(6, 5, 200, 250, "idle"),
      MakeSpan(7, 0, 300, 310, "op.x"),  // Other prefix: ignored.
  };
  Ledger ledger = CheckLedger(spans, "turn");
  EXPECT_EQ(ledger.parents, 2u);
  EXPECT_EQ(ledger.parent_ns, 150);
  EXPECT_EQ(ledger.children_ns, 148);
  EXPECT_EQ(ledger.self_ns, 2);
  EXPECT_EQ(ledger.mismatch_ns, 0);
  EXPECT_DOUBLE_EQ(ledger.self_frac(), 2.0 / 150.0);
}

TEST(LedgerSum, OverlapAndEscapeShowAsMismatch) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100, "op.map"),
      MakeSpan(2, 1, 0, 60, "xlib.MapWindow"),
      MakeSpan(3, 1, 50, 100, "xlib.GetWindowAttributes"),  // 10 overlap.
      MakeSpan(4, 0, 200, 300, "op.map"),
      MakeSpan(5, 4, 290, 330, "xlib.QueryTree"),  // 30 outside.
  };
  Ledger ledger = CheckLedger(spans, "op.");
  EXPECT_EQ(ledger.parents, 2u);
  EXPECT_EQ(ledger.mismatch_ns, 10 + 30);
  EXPECT_DOUBLE_EQ(ledger.mismatch_frac(), 40.0 / 200.0);
}

// A server turn: idle wait, xserver.poll, swm.process_events, with `gap`
// ns of the turn in none of them.
std::vector<Span> Turn(int64_t gap) {
  return {MakeSpan(1, 0, 0, 100 + gap, "turn"), MakeSpan(2, 1, 0, 60, "idle"),
          MakeSpan(3, 1, 60, 80, "xserver.poll"), MakeSpan(4, 1, 80 + gap, 100 + gap, "swm")};
}

constexpr LedgerLimits kLimits = {0.01, 0.05, 0.02};

TEST(LedgerSum, HoldsWhenChildrenCoverTheTurnAndTheTotalsAgree) {
  Ledger ledger = CheckLedger(Turn(2), "turn");
  EXPECT_EQ(LedgerProblem(ledger, 102, kLimits), "");
  EXPECT_EQ(LedgerProblem(ledger, 101, kLimits), "");  // 1 % apart.
}

TEST(LedgerSum, FailsOnWorkNoChildSpanAttributes) {
  // 20 of 120 ns in no child: 0.17 > 0.05.
  Ledger ledger = CheckLedger(Turn(20), "turn");
  EXPECT_NE(LedgerProblem(ledger, 120, kLimits).find("unattributed"), std::string::npos);
}

TEST(LedgerSum, FailsWhenSpanTimeDisagreesWithTheIndependentTotal) {
  // The loop timed 150 ns of turns; the recorder holds 102 (turns lost).
  Ledger ledger = CheckLedger(Turn(2), "turn");
  EXPECT_NE(LedgerProblem(ledger, 150, kLimits).find("timed apart"), std::string::npos);
}

TEST(LedgerSum, FailsOnOverlappingChildren) {
  std::vector<Span> spans = Turn(0);
  spans[2].start_ns = 50;  // xserver.poll starts inside the idle wait.
  Ledger ledger = CheckLedger(spans, "turn");
  EXPECT_NE(LedgerProblem(ledger, 100, kLimits).find("overlap"), std::string::npos);
}

TEST(LedgerSum, FailsWithNothingRecorded) {
  EXPECT_NE(LedgerProblem(Ledger{}, 100, kLimits), "");
  EXPECT_NE(LedgerProblem(CheckLedger(Turn(0), "turn"), 0, kLimits), "");
}

TEST(LeastStolen, KeepsTheLeastStolenInRunOrder) {
  EXPECT_EQ(LeastStolen({0.20, 0.01, 0.05, 0.00}, 2), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(LeastStolen({0.3, 0.1, 0.2, 0.0, 0.4}, 3), (std::vector<size_t>{1, 2, 3}));
}

TEST(LeastStolen, TiesGoToTheEarlierInterval) {
  EXPECT_EQ(LeastStolen({0, 0, 0, 0}, 2), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(LeastStolen({0.1, 0, 0.1, 0}, 3), (std::vector<size_t>{0, 1, 3}));
}

TEST(LeastStolen, KeepsEverythingWhenThereAreTooFew) {
  EXPECT_EQ(LeastStolen({0.5, 0.2}, 5), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(LeastStolen({}, 3).empty());
}

TEST(PerOpNormalisation, DividesByCompletedOperations) {
  EXPECT_DOUBLE_EQ(PerOp(300, 100), 3.0);
  EXPECT_DOUBLE_EQ(PerOp(0, 7), 0.0);
  EXPECT_TRUE(std::isnan(PerOp(5, 0)));
}

TEST(PerOpNormalisation, WindowDeltasRejectCountersThatWentBackwards) {
  EXPECT_DOUBLE_EQ(Delta(1500, 1000), 500.0);
  EXPECT_TRUE(std::isnan(Delta(10, 11)));
  EXPECT_DOUBLE_EQ(PerOp(Delta(1500, 1000), 250), 2.0);
  EXPECT_DOUBLE_EQ(Frac(1, 4), 0.25);
  EXPECT_DOUBLE_EQ(Frac(3, 0), 0.0);
}

}  // namespace
}  // namespace e2e
