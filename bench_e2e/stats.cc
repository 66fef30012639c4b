#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace e2e {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Nearest rank: the smallest value with at least pct% of samples at or
// below it.
double NearestRank(const std::vector<double>& sorted, double pct) {
  size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  return sorted[rank - 1];
}

// Direct children of every span, by parent index.
std::vector<std::vector<size_t>> ChildrenOf(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    uint32_t parent = spans[i].parent;
    if (parent != 0 && parent <= spans.size()) {
      children[parent - 1].push_back(i);
    }
  }
  return children;
}

// Length of the union of the children's intervals clipped to the parent.
int64_t CoveredNs(const std::vector<Span>& spans, const Span& parent,
                  const std::vector<size_t>& children) {
  std::vector<std::pair<int64_t, int64_t>> intervals;
  intervals.reserve(children.size());
  for (size_t c : children) {
    int64_t lo = std::max(spans[c].start_ns, parent.start_ns);
    int64_t hi = std::min(spans[c].end_ns, parent.end_ns);
    if (hi > lo) {
      intervals.emplace_back(lo, hi);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t run_lo = 0, run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : intervals) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) {
      covered += run_hi - run_lo;
    }
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) {
    covered += run_hi - run_lo;
  }
  return covered;
}

}  // namespace

Summary Summarize(std::vector<double> samples, double cap_pct) {
  Summary s;
  s.n = samples.size();
  if (s.n <= kTailSamples) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  double n = static_cast<double>(s.n);
  s.high_pct = std::min(cap_pct, 100.0 * (n - static_cast<double>(kTailSamples)) / n);
  s.p50 = NearestRank(samples, 50.0);
  s.high = NearestRank(samples, s.high_pct);
  return s;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children = ChildrenOf(spans);
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() - CoveredNs(spans, spans[i], children[i]);
  }
  return self;
}

double Ledger::mismatch_frac() const {
  return Frac(static_cast<double>(mismatch_ns), static_cast<double>(parent_ns));
}

double Ledger::self_frac() const {
  return Frac(static_cast<double>(self_ns), static_cast<double>(parent_ns));
}

Ledger& Ledger::operator+=(const Ledger& other) {
  parents += other.parents;
  parent_ns += other.parent_ns;
  children_ns += other.children_ns;
  self_ns += other.self_ns;
  mismatch_ns += other.mismatch_ns;
  return *this;
}

Ledger CheckLedger(const std::vector<Span>& spans, std::string_view prefix) {
  std::vector<int64_t> self = SelfTimes(spans);
  std::vector<int64_t> children_ns(spans.size());
  for (const Span& span : spans) {
    if (span.parent != 0 && span.parent <= spans.size()) {
      children_ns[span.parent - 1] += span.duration();
    }
  }
  Ledger ledger;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    if (parent.parent != 0 || !std::string_view(parent.name).starts_with(prefix)) {
      continue;
    }
    ++ledger.parents;
    ledger.parent_ns += parent.duration();
    ledger.children_ns += children_ns[i];
    ledger.self_ns += self[i];
    int64_t diff = parent.duration() - (children_ns[i] + self[i]);
    ledger.mismatch_ns += diff < 0 ? -diff : diff;
  }
  return ledger;
}

std::string LedgerProblem(const Ledger& ledger, int64_t independent_ns,
                          const LedgerLimits& limits) {
  if (ledger.parents == 0 || ledger.parent_ns <= 0 || independent_ns <= 0) {
    return "no parent spans";
  }
  char text[160];
  if (!(ledger.mismatch_frac() <= limits.mismatch)) {
    std::snprintf(text, sizeof text, "children overlap or escape: %.4f of parent time > %.4f",
                  ledger.mismatch_frac(), limits.mismatch);
    return text;
  }
  if (!(ledger.self_frac() <= limits.self)) {
    std::snprintf(text, sizeof text, "unattributed self time %.4f of parent time > %.4f",
                  ledger.self_frac(), limits.self);
    return text;
  }
  double total = std::abs(static_cast<double>(ledger.parent_ns - independent_ns)) /
                 static_cast<double>(independent_ns);
  if (!(total <= limits.total)) {
    std::snprintf(text, sizeof text,
                  "span total %lld ns vs %lld ns timed apart: off by %.4f > %.4f",
                  static_cast<long long>(ledger.parent_ns),
                  static_cast<long long>(independent_ns), total, limits.total);
    return text;
  }
  return "";
}

std::vector<size_t> LeastStolen(const std::vector<double>& steal_share, size_t count) {
  std::vector<size_t> order(steal_share.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal_share[a] < steal_share[b]; });
  order.resize(std::min(count, order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

double PerOp(double count, uint64_t completed_ops) {
  if (completed_ops == 0) {
    return kNaN;
  }
  return count / static_cast<double>(completed_ops);
}

double Frac(double part, double whole) { return whole == 0 ? 0.0 : part / whole; }

double Delta(uint64_t after, uint64_t before) {
  if (after < before) {
    return kNaN;
  }
  return static_cast<double>(after - before);
}

}  // namespace e2e
