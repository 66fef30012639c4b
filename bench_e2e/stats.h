// The benchmark's own arithmetic: the percentile rule, span self time, the
// ledger-sum check and per-operation normalisation.  Kept apart from the
// load generator so stats_test.cc can check each rule on hand-made inputs.
#ifndef BENCH_E2E_STATS_H_
#define BENCH_E2E_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

// A timing is reported as its median plus the highest percentile (capped at
// `cap_pct`) that still has at least kTailSamples samples beyond it.
inline constexpr size_t kTailSamples = 10;

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double high = 0;      // Value at high_pct.
  double high_pct = 0;  // 0 when n is too small to support any percentile.
  bool ok() const { return high_pct > 0; }
};

// Nearest-rank percentiles.  The high percentile is min(cap_pct,
// 100 * (n - kTailSamples) / n), so the sample it names has at least
// kTailSamples samples ranked above it.
Summary Summarize(std::vector<double> samples, double cap_pct = 99.0);

// One traced interval.  Ids are 1-based positions in the recorder's vector;
// parent 0 marks a root span.  `name` points at a string literal.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t op = 0;
  int64_t duration() const { return end_ns - start_ns; }
};

// Self time of every span (indexed like `spans`): its duration minus the
// part of its interval covered by the union of its direct children.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// Ledger-sum check over the root spans whose name starts with `prefix`:
// each parent must equal the sum of its direct children plus its self time.
// Children that overlap each other or stick out of their parent make the
// sum disagree; `mismatch_ns` totals the disagreement.
struct Ledger {
  size_t parents = 0;
  int64_t parent_ns = 0;
  int64_t children_ns = 0;
  int64_t self_ns = 0;
  int64_t mismatch_ns = 0;
  double mismatch_frac() const;  // mismatch_ns / parent_ns.
  double self_frac() const;      // self_ns / parent_ns.
  Ledger& operator+=(const Ledger& other);
};
Ledger CheckLedger(const std::vector<Span>& spans, std::string_view prefix);

// What a ledger may show before the check fails.  `mismatch` bounds
// overlapping or escaping children, `self` the parents' time in no child
// span (work the trace does not attribute), and `total` the disagreement
// between the parents' span time and the same intervals timed by separate
// clock reads of the code that opened them (spans lost or misattributed).
struct LedgerLimits {
  double mismatch = 0;
  double self = 0;
  double total = 0;
};
// Empty when the ledger holds; otherwise what broke.  `independent_ns` is
// the parents' total measured apart from the recorder.  A ledger with no
// parents fails.
std::string LedgerProblem(const Ledger& ledger, int64_t independent_ns,
                          const LedgerLimits& limits);

// Measurement intervals to keep on a shared host: the `count` whose stolen
// CPU share (hypervisor steal over all CPU time in the interval) is
// smallest, earlier ones first among equals.  Returns their indices in run
// order; all of them when there are no more than `count`.
std::vector<size_t> LeastStolen(const std::vector<double>& steal_share, size_t count);

// Per-operation normalisation: `count` over completed operations.  NaN when
// no operation completed, so a run that did nothing cannot report a ratio.
double PerOp(double count, uint64_t completed_ops);
// part / whole, 0 when whole is 0 (an empty denominator means no attempts).
double Frac(double part, double whole);
// Counter difference across a measurement window; a counter that went
// backwards (reset or wrapped) yields NaN instead of a huge unsigned value.
double Delta(uint64_t after, uint64_t before);

}  // namespace e2e

#endif  // BENCH_E2E_STATS_H_
